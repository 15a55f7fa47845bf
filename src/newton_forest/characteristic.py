"""Characteristic numbers over the pair poset, with the rational-gcd machinery.

P collects the pairs (u, e) where u has positive multiplicity and e is an
edge of the positive subtree incident to u.  (u', e') precedes (u, e) when
the path from u' to u traverses e but not e'.  P lives in one place,
`CharacteristicTable`: its `pairs` hold P in the poset's listing order,
each pair with its n-side, and `precedes` reads the order from the
n-sides.  The characteristic number c(u, e) is defined by induction over
this poset via gcds of rationals; the derived quantities M, p, p', eta, R
and Delta-bar all live here.  For e = {u, v}, p = F(u->v) and p' = F(v->u)
are read from the multiplicity table.
For a set A of arrows, `node_h_products` gives h(w,A) and h-hat(w,A) for
every vertex w in one O(n) walk outward from the hull of A; the oracle
module keeps the path-by-path definition.

All rational arithmetic is exact (`fractions.Fraction`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import InternalInconsistencyError
from .local_invariants import VertexLedger
from .multiplicity import MultiplicityTable
from .tree_model import CellRef, DecoratedRootedTree, Edge, products_but_one

Rational = Fraction

Pair = tuple[CellRef, Edge]


def rational_gcd(values: Iterable[Rational | int]) -> Rational:
    """The unique xi >= 0 with <values> = xi * Z as a sub-Z-module of Q."""
    vals = [Fraction(v) for v in values]
    if not vals:
        return Fraction(0)
    m = lcm(*(v.denominator for v in vals))
    g = gcd(*(abs(v.numerator) * (m // v.denominator) for v in vals))
    return Fraction(g, m)


def rational_divides(a: Rational | int, b: Rational | int) -> bool:
    """Whether b lies in a*Z (with 0 dividing only 0)."""
    if isinstance(a, int) and isinstance(b, int):
        return b == 0 if a == 0 else b % a == 0
    a, b = Fraction(a), Fraction(b)
    if a == 0:
        return b == 0
    return (b / a).denominator == 1


def path_dead_end_product(tree: DecoratedRootedTree, x: CellRef, y: CellRef) -> int:
    """Product of dead-end values a_v over the vertices of the path x..y,
    leaving out y.  Equals 1 when x == y."""
    return prod(tree.a_value(c) for c in tree.path(x, y)[:-1])


def node_h_products(
    tree: DecoratedRootedTree, arrows: AbstractSet[CellRef]
) -> dict[CellRef, tuple[int, int]]:
    """(h(w,A), h-hat(w,A)) for every vertex w and a nonempty arrow set A,
    in O(n).

    h multiplies, over the vertices u on every path from w to A, the
    decorations near u of the edges on none of those paths; h-hat leaves
    out u = w.  Call an edge at u arrow-free when no arrow of A lies beyond
    it.  A vertex with two or more arrow directions is on the hull of A:
    h is its arrow-free product and h-hat = 1.  Any other vertex w has one
    arrow direction, towards a neighbour n, so h-hat(w) is h-hat(n) times
    n's arrow-free product without the edge to w (1 when n is the lone
    arrow of A), and h(w) is h-hat(w) times w's arrow-free product.  One
    pass up counts the arrows below each cell, and a walk outward from the
    hull fills in the rest, each visit O(deg) through `products_but_one`.
    """
    if not arrows:
        raise ValueError("h-products need a nonempty arrow set")
    parent_edge = tree._parent_edge
    order = tree._order  # every parent before its children
    below = dict.fromkeys(order, 0)  # arrows of A in each rooted subtree
    for c in reversed(order[1:]):
        if c in arrows:
            below[c] = 1
        below[parent_edge[c].other(c)] += below[c]
    total = below[tree.root]

    free: dict[CellRef, list[tuple[CellRef, int]]] = {}  # arrow-free neighbours
    h_hat: dict[CellRef, int] = {}
    for w in tree.vertices:
        free[w] = []
        directions = 0
        for e in tree.incident_edges(w):
            n = e.other(w)
            beyond = below[n] if parent_edge[n] is e else total - below[w]
            if beyond:
                directions += 1
                if n in arrows and total == 1:
                    h_hat[w] = 1
            else:
                free[w].append((n, e.q_near(w)))
        if directions > 1:
            h_hat[w] = 1

    walk = list(h_hat)  # the hull, or the vertex next to the lone arrow
    for n in walk:
        rest = products_but_one([q for _, q in free[n]])
        for (w, _), q in zip(free[n], rest):
            if w in free and w not in h_hat:  # its one arrow direction is n
                h_hat[w] = h_hat[n] * q
                walk.append(w)
    return {w: (h_hat[w] * prod(q for _, q in free[w]), h_hat[w]) for w in free}


@dataclass(frozen=True)
class PairData:
    c: Rational
    M: int
    p: int
    p_prime: int
    eta: Rational
    nonpositive: bool
    n_side: frozenset[CellRef]


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
    """Characteristic numbers and their derived quantities, bottom-up over
    the pair poset.  That c divides N, p and p' (so M = N/c is a positive
    integer) is a theorem for valid minimally complete trees; the audit
    check `characteristic-divisibility` owns it."""
    per = ledger.per_vertex
    script_N = set(per)
    elements = [
        (u, e)
        for u in sorted(script_N)
        for e in tree.incident_edges(u)
        if e.other(u) in script_N
    ]

    preds: dict[Pair, tuple[Pair, ...]] = {}  # immediate predecessors
    n_sides: dict[Pair, frozenset[CellRef]] = {}
    for u, e in elements:
        u0 = e.other(u)
        preds[(u, e)] = tuple(
            (u0, tree.edge_between(u0, n))
            for n in sorted(tree.neighbors(u0))
            if n != u and n in script_N
        )
        # Everything on the far side of e, by flood fill from u0 away from u.
        beyond = {u0}
        stack = [u0]
        while stack:
            c = stack.pop()
            for n in tree.neighbors(c):
                if n not in beyond and not (c == u0 and n == u):
                    beyond.add(n)
                    stack.append(n)
        n_sides[(u, e)] = frozenset(beyond & script_N)

    c_of: dict[Pair, Rational] = {}
    # Predecessor n-sides are strictly smaller, so size order is evaluation order.
    for pair in sorted(elements, key=lambda p: (len(n_sides[p]), p[0], p[1])):
        u, e = pair
        u0 = e.other(u)
        a0 = per[u0].a
        d0 = per[u0].d
        if not preds[pair]:
            c_of[pair] = Fraction(d0, a0)
        else:
            values = [Fraction(d0)] + [c_of[p] for p in preds[pair]]
            if any(v == 0 for v in values):
                raise InternalInconsistencyError("zero fed to a characteristic gcd")
            c_of[pair] = rational_gcd(values) / a0

    pairs: dict[Pair, PairData] = {}
    # script-E: the positive-subtree edges at u are those of u's pairs
    edges_at: dict[CellRef, list[Edge]] = {u: [] for u in sorted(per)}
    for pair in elements:
        u, e = pair
        edges_at[u].append(e)
        v = e.other(u)
        c = c_of[pair]
        M = int(table.N[u] / c)

        n_side = n_sides[pair]
        dt = ledger.delta_tilde(n_side)
        eta = Fraction(dt) - (1 - c)
        pairs[pair] = PairData(
            c=c,
            M=M,
            p=table.F[u, v],
            p_prime=table.F[v, u],
            eta=eta,
            nonpositive=dt <= 0,
            n_side=n_side,
        )

    return CharacteristicTable(
        pairs=pairs,
        edges_at={u: tuple(es) for u, es in edges_at.items()},
    )


def R_of(
    ledger: VertexLedger,
    chars: CharacteristicTable,
    u: CellRef,
    A: Sequence[Edge],
) -> Rational:
    """R(u, A) = sum over adjacent dicriticals of (1 - 1/k) + (1 - 1/a)
    + sum over e in A of (1 - 1/M(u,e))."""
    data = ledger.per_vertex[u]
    allowed = set(chars.edges_at[u])
    for e in A:
        if e not in allowed:
            raise ValueError(f"edge {e} is not a positive-subtree edge at {u!r}")
    total = Fraction(0)
    for x in data.dicriticals:
        total += 1 - Fraction(1, data.k[x])
    total += 1 - Fraction(1, data.a)
    for e in A:
        total += 1 - Fraction(1, chars.pairs[(u, e)].M)
    return total


def delta_bar(
    ledger: VertexLedger,
    chars: CharacteristicTable,
    u: CellRef,
    A: Sequence[Edge],
) -> int:
    """Genus defect of {u} together with everything beyond the edges of A."""
    cells: set[CellRef] = {u}
    for e in A:
        cells |= chars.pairs[(u, e)].n_side
    return ledger.delta_tilde(cells)

