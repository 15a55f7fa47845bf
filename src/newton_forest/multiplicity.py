"""Cell multiplicities, the tree multiplicity, and the dicritical classification.

For a cell v and a (1)-arrow b, x(v,b) is the product of the decorations,
taken near the path from v to b, of all edges incident to but not in that
path; the hatted variant drops the edges incident to v itself.  N_v sums
x(v,b) over all (1)-arrows.  No table of x is kept: for an edge directed
from c to d, F(c->d) is the sum of x-hat(c,b) over the (1)-arrows b beyond
d, so N_c is the sum of Q(e,c) F(c->d) over the edges e = {c,d} at c.  One
rerooting pass over the directed vertex edges computes N for every vertex
and F on every vertex edge, with each vertex's arrow edges folded into one
term (`VertexFold`); the pair numbers p and p' and the audit checks read
their sums of x-hat from F.  The fold is also where the analysis reads each
vertex's (1)-arrows and dead ends, and so its dead-end value a.  The oracle
module recomputes x arrow by arrow from the definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

from .tree_model import CellRef, DecoratedRootedTree


@dataclass(frozen=True)
class VertexFold:
    """The tree on its vertices, each vertex's arrow edges folded into one term.

    A pass sums over the (1)-arrows at the vertices of a source set D: at
    every vertex for N, at a node's dicriticals in the audit.  At a vertex c
    the arrow edges give the pairs (q(e,c), 1) for its (1)-arrows when c is
    in D, and (q(e,c), 0) otherwise.  Pairs combine associatively (see
    `_sums_but_one`), so they fold into the one pair (Q[c], S[c]) when c is
    in D and (Q[c], 0) when it is not.
    """

    order: list[CellRef]  # the vertices, every parent before its children
    # per non-root vertex: (its parent, the decoration near it, near the parent)
    parent: Mapping[CellRef, tuple[CellRef, int, int]]
    # per vertex: (child vertex, the decoration near it, near the child)
    children: Mapping[CellRef, list[tuple[CellRef, int, int]]]
    # per vertex: (arrow, the decoration near the vertex, the arrow's 0 or 1),
    # the (1)-arrows first, each kind in incidence order
    arrows: Mapping[CellRef, list[tuple[CellRef, int, int]]]
    Q: Mapping[CellRef, int]  # product of the decorations near c on its arrow edges
    S: Mapping[CellRef, int]  # sum over c's (1)-arrows of the product of the others
    ones: Mapping[CellRef, int]  # number of (1)-arrows at c
    dead: Mapping[CellRef, int]  # product of the decorations near c on its dead ends

    def vertex_edges(self, c: CellRef) -> list[tuple[CellRef, int, int]]:
        """c's edges to other vertices: (the other vertex, the decoration
        near c, the decoration near it)."""
        up = self.parent.get(c)
        return self.children[c] if up is None else [*self.children[c], up]

    def near(self, c: CellRef, n: CellRef) -> tuple[int, int]:
        """(q(e,c), Q(e,c)) for the vertex edge e = {c, n}: the decoration
        near c on e, and the product of those near c on c's other edges."""
        q_e, Q = 0, self.Q[c]
        for m, q, _ in self.vertex_edges(c):
            if m == n:
                q_e = q
            else:
                Q *= q
        return q_e, Q

    def determinant(self, c: CellRef, n: CellRef) -> int:
        """q(e,c) q(e,n) - Q(e,c) Q(e,n) for the vertex edge e = {c, n}."""
        (q_c, Q_c), (q_n, Q_n) = self.near(c, n), self.near(n, c)
        return q_c * q_n - Q_c * Q_n


@dataclass(frozen=True)
class MultiplicityTable:
    """N over vertices and (0)-arrows, F on every directed edge (c, d), M(T),
    the number of points at infinity, and the fold the passes read."""

    N: Mapping[CellRef, int]
    F: Mapping[tuple[CellRef, CellRef], int]
    M_of_T: int
    points_at_infinity: int
    fold: VertexFold


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


def _vertex_fold(tree: DecoratedRootedTree) -> VertexFold:
    """The fold of `tree`, from one visit per cell."""
    order = tree._vertex_order
    parent_edge = tree._parent_edge
    parent = {}
    children: dict[CellRef, list[tuple[CellRef, int, int]]] = {v: [] for v in order}
    for v in order[1:]:
        (x, y), (qx, qy) = parent_edge[v]
        p, qv, qp = (y, qx, qy) if x == v else (x, qy, qx)
        parent[v] = (p, qv, qp)
        children[p].append((v, qp, qv))
    arrows: dict[CellRef, list[tuple[CellRef, int, int]]] = {v: [] for v in order}
    Q = dict.fromkeys(order, 1)
    S = dict.fromkeys(order, 0)
    ones = dict.fromkeys(order, 0)
    dead = dict.fromkeys(order, 1)
    for alpha in tree._arrows1:
        (x, y), (qx, qy) = parent_edge[alpha]
        v, q = (y, qy) if x == alpha else (x, qx)
        arrows[v].append((alpha, q, 1))
        S[v] = S[v] * q + Q[v]
        Q[v] *= q
        ones[v] += 1
    for alpha in tree._arrows0:
        (x, y), (qx, qy) = parent_edge[alpha]
        v, q = (y, qy) if x == alpha else (x, qx)
        arrows[v].append((alpha, q, 0))
        S[v] *= q
        Q[v] *= q
        dead[v] *= q
    return VertexFold(order, parent, children, arrows, Q, S, ones, dead)


def source_multiplicities(
    fold: VertexFold, sources: AbstractSet[CellRef]
) -> tuple[dict[CellRef, int], dict[tuple[CellRef, CellRef], int]]:
    """N over the vertices and F on every directed vertex edge, summed over
    the (1)-arrows at the vertices in `sources`.  A source set costs what the
    vertices cost: their edges to each other plus one fold term per vertex,
    however many arrows hang off them.

    For a vertex edge e directed from c to d, F(c->d) sums x-hat(c,b) over
    those arrows b on d's side: the sum S over the pairs (q(e',d),
    F(d->d')) of d's other vertex edges e' = {d,d'} and d's fold term.  N_v
    is S over the pairs of all vertex edges at v and v's fold term.  One
    pass up the vertices gives F on the edges directed away from the root,
    one pass down gives the rest, each visit O(vertex degree) through
    `_sums_but_one`; no arrow is visited.
    """
    order, parent, children = fold.order, fold.parent, fold.children
    Q, S = fold.Q, fold.S

    F: dict[tuple[CellRef, CellRef], int] = {}
    for d in reversed(order[1:]):
        q_d, s_d = Q[d], S[d] if d in sources else 0
        for c, q, _ in children[d]:
            q_d, s_d = q_d * q, s_d * q + q_d * F[d, c]
        F[parent[d][0], d] = s_d

    N: dict[CellRef, int] = {}
    for c in order:
        kids = children[c]
        pairs = [(q, F[c, k]) for k, q, _ in kids]
        up = parent.get(c)
        if up is not None:
            pairs.append((up[1], F[c, up[0]]))
        pairs.append((Q[c], S[c] if c in sources else 0))
        N[c], but_one = _sums_but_one(pairs)
        for (k, _, _), s in zip(kids, but_one):
            F[k, c] = s
    return N, F


def multiplicities(tree: DecoratedRootedTree) -> MultiplicityTable:
    """Compute the multiplicity table for a structurally valid tree.

    One visit per cell builds the fold; the rerooting pass over the
    vertices (`source_multiplicities`, every vertex a source) gives N on the
    vertices and F on the vertex edges.  At each vertex c the pairs of its
    arrow edges then combine with those of its vertex edges, (q(e,c),
    F(c->n)) for e = {c, n}: F(c->b) is 1 on a (1)-arrow b and 0 on a
    (0)-arrow, and F(b->c), the N of a dead end b, is the sum at c with b's
    pair left out.  The dead-end relation N_v = q(e,v) * N_alpha is not
    re-checked here; the audit check `dead-end-multiplicity` owns it.
    """
    fold = _vertex_fold(tree)
    N, F = source_multiplicities(fold, tree.vertices)
    for c, arrows in fold.arrows.items():
        if not arrows:
            continue
        pairs = [(q, one) for _, q, one in arrows]
        pairs += [(q, F[c, n]) for n, q, _ in fold.vertex_edges(c)]
        _, but_one = _sums_but_one(pairs)
        for (alpha, _, one), s in zip(arrows, but_one):
            F[c, alpha] = one
            F[alpha, c] = s
            if not one:
                N[alpha] = s
    N = dict(sorted(N.items()))
    M = -sum(N[v] * (tree.valency(v) - 2) for v in N)

    # the points at infinity are the root's edges but its dead end
    root = tree.root
    points = tree.valency(root) - (len(fold.arrows[root]) > fold.ones[root])

    return MultiplicityTable(
        N=N, F=F, M_of_T=M, points_at_infinity=points, fold=fold
    )


@dataclass(frozen=True)
class DicriticalInfo:
    """Dicritical vertices with their degrees and the tree classification."""

    dicriticals: frozenset[CellRef]
    degree: Mapping[CellRef, int]
    generic: bool
    complete: bool
    minimally_complete: bool
    reasons: tuple[str, ...]  # why the strongest flag failed, for diagnostics


def classify(tree: DecoratedRootedTree, table: MultiplicityTable) -> DicriticalInfo:
    """Genericity, completeness and minimal completeness of a validated tree
    whose multiplicity table is `table`, read from its vertices and the
    fold: no arrow is visited but those at a vertex that is not dicritical."""
    N, fold = table.N, table.fold
    arrows, ones = fold.arrows, fold.ones
    vertices = sorted(fold.order)
    reasons: list[str] = []

    dicriticals = frozenset(v for v in vertices if N[v] == 0)
    degree = {u: ones[u] for u in sorted(dicriticals)}

    generic = True
    for v in vertices:
        if N[v] < 0:
            generic = False
            reasons.append(f"vertex {v!r} has negative multiplicity {N[v]}")

    complete = generic
    for alpha in sorted(
        alpha
        for v in vertices
        if v not in dicriticals
        for alpha, _, one in arrows[v]
        if one
    ):
        complete = False
        reasons.append(f"(1)-arrow {alpha!r} is not adjacent to a dicritical")

    minimal = complete
    for u in sorted(dicriticals):
        if len(arrows[u]) == ones[u]:
            minimal = False
            reasons.append(f"dicritical {u!r} has no dead end")
    for v in vertices:
        dead = arrows[v][ones[v]:]  # in incidence order
        if dead and dead[0][1] == 1 and v not in dicriticals:
            minimal = False
            reasons.append(f"dead end decorated 1 at non-dicritical {v!r}")
    for v in vertices:
        if v != tree.root and len(fold.vertex_edges(v)) + len(arrows[v]) == 2:
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
