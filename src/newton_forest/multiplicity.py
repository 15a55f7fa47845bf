"""Cell multiplicities, the tree multiplicity, and the dicritical classification.

For a cell v and a (1)-arrow b, x(v,b) is the product of the decorations,
taken near the path from v to b, of all edges incident to but not in that
path; the hatted variant drops the edges incident to v itself.  N_v sums
x(v,b) over all (1)-arrows.  No table of x is kept: for an edge directed
from c to d, F(c->d) is the sum of x-hat(c,b) over the (1)-arrows b beyond
d, so N_c is the sum of Q(e,c) F(c->d) over the edges e = {c,d} at c.  One
rerooting pass over the directed edges computes N for every source and F
on every directed edge in O(n) for n cells; the pair numbers p and p' and
the audit checks read their sums of x-hat from F.  The oracle module
recomputes x arrow by arrow from the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .tree_model import CellRef, DecoratedRootedTree


@dataclass(frozen=True)
class MultiplicityTable:
    """N over vertices and (0)-arrows, F on every directed edge (c, d), M(T),
    and the number of points at infinity."""

    N: Mapping[CellRef, int]
    F: Mapping[tuple[CellRef, CellRef], int]
    M_of_T: int
    points_at_infinity: int


def _sums_but_one(pairs: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """For pairs (q_i, F_i), S = sum over j of F_j times the product of every
    other q_i: S over all pairs, and S with each pair left out in turn.

    Pairs combine as (Q1, S1).(Q2, S2) = (Q1*Q2, S1*Q2 + Q1*S2), so the
    left-out values come from prefix and suffix combinations, with no
    division: a zero q stays exact.
    """
    n = len(pairs)
    pre_Q = [1] * (n + 1)
    pre_S = [0] * (n + 1)
    for i, (q, F) in enumerate(pairs):
        pre_Q[i + 1] = pre_Q[i] * q
        pre_S[i + 1] = pre_S[i] * q + pre_Q[i] * F
    but_one = [0] * n
    suf_Q, suf_S = 1, 0
    for i in range(n - 1, -1, -1):
        but_one[i] = pre_S[i] * suf_Q + pre_Q[i] * suf_S
        q, F = pairs[i]
        suf_Q, suf_S = q * suf_Q, F * suf_Q + q * suf_S
    return pre_S[n], but_one


def source_multiplicities(
    tree: DecoratedRootedTree, arrows: AbstractSet[CellRef]
) -> tuple[dict[CellRef, int], dict[tuple[CellRef, CellRef], int]]:
    """N over vertices and (0)-arrows, in no set order, and F on every
    directed edge, both summed over the (1)-arrows in `arrows`, in O(n).

    For an edge e directed from c to d, F(c->d) sums x-hat(c,b) over the
    arrows b in `arrows` on d's side: 1 when d is such an arrow, 0 when d is
    any other arrow, and otherwise the sum S over the pairs
    (q(e',d), F(d->d')) of d's other edges e' = {d,d'}.  N_v is S over the
    pairs of all edges at v.  One pass up the tree's breadth-first order
    gives F on the edges directed away from the root, one pass down gives
    the rest, each visit O(deg) through `_sums_but_one`.
    """
    parent_edge = tree._parent_edge
    children = tree._children
    order = tree._order  # every parent before its children
    zero = tree.arrows0

    F: dict[tuple[CellRef, CellRef], int] = {}
    for d in reversed(order[1:]):
        c = parent_edge[d].other(d)
        if tree.is_arrow(d):
            F[c, d] = 1 if d in arrows else 0
        else:
            F[c, d], _ = _sums_but_one(
                [(e.q_near(d), F[d, e.other(d)]) for e in children[d]]
            )

    N: dict[CellRef, int] = {}
    for c in order:
        kids = children[c]
        up = parent_edge[c]
        if up is not None and not kids:  # an arrow: its one pair sums to F
            if c in zero:
                N[c] = F[c, up.other(c)]
            continue
        pairs = [(e.q_near(c), F[c, e.other(c)]) for e in kids]
        if up is not None:
            pairs.append((up.q_near(c), F[c, up.other(c)]))
        N[c], but_one = _sums_but_one(pairs)
        for e, s in zip(kids, but_one):
            F[e.other(c), c] = s
    return N, F


def multiplicities(tree: DecoratedRootedTree) -> MultiplicityTable:
    """Compute the multiplicity table for a structurally valid tree.

    The dead-end relation N_v = q(e,v) * N_alpha is not re-checked here; the
    audit check `dead-end-multiplicity` owns it.
    """
    N, F = source_multiplicities(tree, tree.arrows1)
    N = dict(sorted(N.items()))
    M = -sum(N[v] * (tree.valency(v) - 2) for v in N)

    root = tree.root
    points = tree.valency(root) - (1 if tree.dead_ends(root) else 0)

    return MultiplicityTable(N=N, F=F, M_of_T=M, points_at_infinity=points)


@dataclass(frozen=True)
class DicriticalInfo:
    """Dicritical vertices with their degrees and the tree classification."""

    dicriticals: frozenset[CellRef]
    degree: Mapping[CellRef, int]
    generic: bool
    complete: bool
    minimally_complete: bool
    reasons: tuple[str, ...]  # why the strongest flag failed, for diagnostics


def classify(tree: DecoratedRootedTree, N: Mapping[CellRef, int]) -> DicriticalInfo:
    """Genericity, completeness and minimal completeness of a validated tree
    whose multiplicities are N."""
    reasons: list[str] = []

    dicriticals = frozenset(v for v in tree.vertices if N[v] == 0)
    degree = {
        u: sum(1 for n in tree.neighbors(u) if n in tree.arrows1)
        for u in sorted(dicriticals)
    }

    generic = True
    for v in sorted(tree.vertices):
        if N[v] < 0:
            generic = False
            reasons.append(f"vertex {v!r} has negative multiplicity {N[v]}")

    complete = generic
    for alpha in sorted(tree.arrows1):
        (e,) = tree.incident_edges(alpha)
        if e.other(alpha) not in dicriticals:
            complete = False
            reasons.append(f"(1)-arrow {alpha!r} is not adjacent to a dicritical")

    minimal = complete
    for u in sorted(dicriticals):
        if not tree.dead_ends(u):
            minimal = False
            reasons.append(f"dicritical {u!r} has no dead end")
    for v in sorted(tree.vertices):
        dead = tree.dead_ends(v)
        if dead and dead[0].q_near(v) == 1 and v not in dicriticals:
            minimal = False
            reasons.append(f"dead end decorated 1 at non-dicritical {v!r}")
    for v in sorted(tree.vertices):
        if v != tree.root and tree.valency(v) == 2:
            minimal = False
            reasons.append(f"non-root vertex {v!r} has valency 2")

    return DicriticalInfo(
        dicriticals=dicriticals,
        degree=degree,
        generic=generic,
        complete=complete,
        minimally_complete=minimal,
        reasons=tuple(reasons),
    )
