"""Characteristic numbers over the pair poset, with the rational-gcd machinery.

P collects the pairs (u, e) where u has positive multiplicity and e is an
edge of the positive subtree incident to u.  (u', e') precedes (u, e) when
the path from u' to u traverses e but not e'.  P lives in one place,
`CharacteristicTable`: its `pairs` hold P in the poset's listing order,
each pair with its n-side, and `precedes` reads the order from the
n-sides.  The characteristic number c(u, e) is defined by induction over
this poset via gcds of rationals, and `characteristic_numbers` builds the
table by that induction: each pair's c, n-side and side defect come from
the pairs just below it.  The derived quantities M, p, p', eta, R and
Delta-bar all live here.  For e = {u, v}, p = F(u->v) and p' = F(v->u)
are read from the multiplicity table.
R and its identities read one integer table per vertex u (`R_table`), made
from the values the report prints: over one denominator L it holds
L*base(u), base(u) being (1 - 1/a) plus (1 - 1/k) per adjacent dicritical,
and per pair at u the term L*(1 - 1/M), L*eta and the side defect, the sum
of Delta-tilde over the n-side.  R(u, A) is base(u) plus the terms of the
edges in A, and Delta-bar(u, A) is Delta-tilde(u) plus their side defects.

All rational arithmetic is exact (`fractions.Fraction`).  `rational_gcd` and
`rational_divides` read numerators and denominators, which ints have too, so
a divisibility test is one integer remainder and builds no `Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import InternalInconsistencyError
from .local_invariants import VertexLedger
from .multiplicity import MultiplicityTable
from .tree_model import CellRef, DecoratedRootedTree, Edge

Rational = Fraction

Pair = tuple[CellRef, Edge]


def rational_gcd(values: Iterable[Rational | int]) -> Rational:
    """The unique xi >= 0 with <values> = xi * Z as a sub-Z-module of Q."""
    vals = list(values)
    if not vals:
        return Fraction(0)
    m = lcm(*(v.denominator for v in vals))
    g = gcd(*(abs(v.numerator) * (m // v.denominator) for v in vals))
    return Fraction(g, m)


def rational_divides(a: Rational | int, b: Rational | int) -> bool:
    """Whether b lies in a*Z (with 0 dividing only 0): whether
    a.numerator * b.denominator divides b.numerator * a.denominator."""
    den = a.numerator * b.denominator
    if den == 0:
        return b == 0
    return b.numerator * a.denominator % den == 0


@dataclass(frozen=True)
class PairData:
    c: Rational
    M: int
    p: int
    p_prime: int
    eta: Rational
    nonpositive: bool
    n_side: frozenset[CellRef]
    # Delta-tilde summed over the n-side by definition, not taken from the
    # induction, so that the audit's R identity does not read its own route
    side_dt: int


@dataclass(frozen=True)
class CharacteristicTable:
    """The pair poset P with its characteristic data.  `pairs` lists P in
    the poset's listing order: positive vertices sorted, each with its
    positive-subtree edges in incidence order."""

    pairs: Mapping[Pair, PairData]
    edges_at: Mapping[CellRef, tuple[Edge, ...]]  # script-E per positive vertex

    def precedes(self, a: Pair, b: Pair) -> bool:
        """Strictly: a < b in the poset, i.e. the path from a's vertex to b's
        traverses b's edge but not a's."""
        if a == b:
            return False
        return a[0] in self.pairs[b].n_side and b[0] not in self.pairs[a].n_side


def characteristic_numbers(
    tree: DecoratedRootedTree, table: MultiplicityTable, ledger: VertexLedger
) -> CharacteristicTable:
    """Characteristic numbers and their derived quantities, by induction over
    the pair poset: the pairs just below (u, e) are the other pairs at the
    far end u0 of e.  The positive vertices form a subtree holding the root
    (audited by `multiplicity-connected` and `root-facts`), so one pass up
    the breadth-first order settles the pairs whose edge leads away from the
    root, and one pass down the rest.  That c divides N, p and p' (so M = N/c
    is a positive integer) is a theorem for valid minimally complete trees;
    the audit check `characteristic-divisibility` owns it."""
    per = ledger.per_vertex
    edges_at = {  # script-E, which the induction reads
        u: tuple(e for e in tree.incident_edges(u) if e.other(u) in per)
        for u in sorted(per)
    }
    parent_edge = tree._parent_edge
    order = [u for u in table.fold.order if u in per]  # parents before children
    if order and (
        order[0] != tree.root
        or any(parent_edge[u].other(u) not in per for u in order[1:])
    ):
        raise InternalInconsistencyError(
            "the positive vertices do not form a subtree holding the root"
        )

    found: dict[Pair, PairData] = {}
    defect: dict[Pair, int] = {}  # genus defect of the n-side

    def settle(u: CellRef, e: Edge) -> None:
        u0 = e.other(u)
        below = [(u0, f) for f in edges_at[u0] if f != e]
        d0, a0 = per[u0].d, per[u0].a
        if below:
            values = [d0] + [found[p].c for p in below]
            if any(v == 0 for v in values):
                raise InternalInconsistencyError("zero fed to a characteristic gcd")
            c = rational_gcd(values) / a0
        else:
            c = Fraction(d0, a0)
        dt = defect[u, e] = per[u0].delta_tilde + sum(defect[p] for p in below)
        M = int(table.N[u] / c)
        n_side = frozenset([u0]).union(*(found[p].n_side for p in below))
        found[u, e] = PairData(
            c=c,
            M=M,
            p=table.F[u, u0],
            p_prime=table.F[u0, u],
            eta=c + (dt - 1),
            nonpositive=dt <= 0,
            n_side=n_side,
            side_dt=ledger.delta_tilde(n_side),
        )

    for u0 in reversed(order[1:]):  # edges leading away from the root
        settle(parent_edge[u0].other(u0), parent_edge[u0])
    for u in order[1:]:  # edges leading toward it
        settle(u, parent_edge[u])
    return CharacteristicTable(
        pairs={(u, e): found[u, e] for u, es in edges_at.items() for e in es},
        edges_at=edges_at,
    )


def R_table(
    ledger: VertexLedger, chars: CharacteristicTable, u: CellRef
) -> tuple[int, int, dict[Edge, tuple[int, int, int]]] | None:
    """The R table at u over one denominator L, the lcm of a, the k's, the
    M's and the eta denominators at u: (L, L*base(u), and per edge of
    script-E at u, in edge order, (L*term, L*eta, side defect)), so that
    the R identities over many edge sets at u add integers.  None when a, a
    k or an M is 0, where R is undefined."""
    d = ledger.per_vertex[u]
    data = [(e, chars.pairs[u, e]) for e in chars.edges_at[u]]
    units = (d.a, *d.k.values())
    L = lcm(*units, *(p.M for _, p in data), *(p.eta.denominator for _, p in data))
    if not L:
        return None
    rows = {
        e: (L - L // p.M, p.eta.numerator * (L // p.eta.denominator), p.side_dt)
        for e, p in data
    }
    return L, sum(L - L // m for m in units), rows


def R_of(
    ledger: VertexLedger,
    chars: CharacteristicTable,
    u: CellRef,
    A: Iterable[Edge],
) -> Rational | None:
    """R(u, A) = sum over adjacent dicriticals of (1 - 1/k) + (1 - 1/a)
    + sum over e in A of (1 - 1/M(u,e)), read from the R table; None where
    R is undefined."""
    table = R_table(ledger, chars, u)
    if table is None:
        return None
    L, total, rows = table
    for e in A:
        row = rows.get(e)
        if row is None:
            raise ValueError(f"edge {e} is not a positive-subtree edge at {u!r}")
        total += row[0]
    return Fraction(total, L)
