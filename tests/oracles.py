"""Definition-level references for the tests: the fixture builders, the
brute-force oracles, and the test-side definitions the engine is checked
against.

The oracles and definitions are written from the paper's definitions and
share no state or code path with the engine; the cell-level passes at the
end reuse the engine's combining helpers and differ from it in visiting
every cell.  Tests import every oracle from here.
`oracle_N`, `_oracle_x`, `_oracle_dicriticals` and `oracle_delta_tilde_N`
stay in `newton_forest.oracle_gen` because `perfbench/workloads.py` reads
them there (ROADMAP item 1 moves them with its benchmark change); they are
re-exported here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from newton_forest import structure
from newton_forest.multiplicity import sums_but_one
from newton_forest.oracle_gen import (  # re-exported
    _oracle_dicriticals,
    _oracle_x,
    oracle_delta_tilde_N,
    oracle_N,
)
from newton_forest.tree_model import (
    ARROW,
    VERTEX,
    Cell,
    CellRef,
    DecoratedRootedTree,
    Edge,
    build_tree,
    make_edge,
    products_but_one,
)

# ---------------------------------------------------------------------------
# Fixture corpus
#
# T_A          one dicritical of degree 1 hanging from the root.
# T_B(a1,a2)   root between two degree-1 dicriticals; needs gcd(a1,a2)=1.
# T_C(d)       root with three dicriticals of degrees d=(d1,d2,d3); each di
#              must divide the sum of the other two.
# T_D          two-vertex chain with one degree-3 dicritical; the decoration
#              near the dicritical on its supporting edge is the unique
#              integer making its multiplicity vanish (which is 0 here).


def fixture_T_A() -> DecoratedRootedTree:
    cells = [
        Cell("v0", VERTEX),
        Cell("u", VERTEX),
        Cell("t1", ARROW, 1),
        Cell("o1", ARROW, 0),
    ]
    edges = [
        make_edge("v0", 1, "u", 0),
        make_edge("u", 1, "t1", 1),
        make_edge("u", 1, "o1", 1),
    ]
    return build_tree(cells, edges, "v0")


def fixture_T_B(a1: int, a2: int) -> DecoratedRootedTree:
    if a1 < 1 or a2 < 1 or math.gcd(a1, a2) != 1:
        raise ValueError("T_B needs positive coprime parameters")
    cells = [
        Cell("v0", VERTEX),
        Cell("u1", VERTEX),
        Cell("u2", VERTEX),
        Cell("t1", ARROW, 1),
        Cell("t2", ARROW, 1),
        Cell("o1", ARROW, 0),
        Cell("o2", ARROW, 0),
    ]
    edges = [
        make_edge("v0", 1, "u1", -a2),
        make_edge("v0", 1, "u2", -a1),
        make_edge("u1", a1, "o1", 1),
        make_edge("u1", 1, "t1", 1),
        make_edge("u2", a2, "o2", 1),
        make_edge("u2", 1, "t2", 1),
    ]
    return build_tree(cells, edges, "v0")


def fixture_T_C(d: tuple[int, int, int]) -> DecoratedRootedTree:
    d1, d2, d3 = d
    if min(d) < 1:
        raise ValueError("T_C needs positive degrees")
    for di, dj, dk in ((d1, d2, d3), (d2, d1, d3), (d3, d1, d2)):
        if (dj + dk) % di != 0:
            raise ValueError("T_C needs each degree to divide the sum of the others")
    x = [-(d2 + d3) // d1, -(d1 + d3) // d2, -(d1 + d2) // d3]
    cells = [Cell("v0", VERTEX)]
    edges = []
    for i, di in enumerate((d1, d2, d3), start=1):
        u = f"u{i}"
        cells.append(Cell(u, VERTEX))
        edges.append(make_edge("v0", 1, u, x[i - 1]))
        cells.append(Cell(f"o{i}", ARROW, 0))
        edges.append(make_edge(u, 1, f"o{i}", 1))
        for j in range(1, di + 1):
            t = f"t{i}_{j}"
            cells.append(Cell(t, ARROW, 1))
            edges.append(make_edge(u, 1, t, 1))
    return build_tree(cells, edges, "v0")


def fixture_T_D() -> DecoratedRootedTree:
    cells = [
        Cell("v0", VERTEX),
        Cell("w", VERTEX),
        Cell("u", VERTEX),
        Cell("ow", ARROW, 0),
        Cell("ou", ARROW, 0),
        Cell("t1", ARROW, 1),
        Cell("t2", ARROW, 1),
        Cell("t3", ARROW, 1),
    ]
    edges = [
        make_edge("v0", 1, "w", 1),
        make_edge("w", 2, "ow", 1),
        make_edge("w", 1, "u", 0),
        make_edge("u", 1, "ou", 1),
        make_edge("u", 1, "t1", 1),
        make_edge("u", 1, "t2", 1),
        make_edge("u", 1, "t3", 1),
    ]
    return build_tree(cells, edges, "v0")


def fixture_corpus() -> dict[str, DecoratedRootedTree]:
    """The named fixtures shipped in `fixtures/`."""
    return {
        "T_A": fixture_T_A(),
        "T_B_1_1": fixture_T_B(1, 1),
        "T_B_1_2": fixture_T_B(1, 2),
        "T_B_2_3": fixture_T_B(2, 3),
        "T_C_1_1_1": fixture_T_C((1, 1, 1)),
        "T_C_1_1_2": fixture_T_C((1, 1, 2)),
        "T_C_1_2_3": fixture_T_C((1, 2, 3)),
        "T_D": fixture_T_D(),
    }


# ---------------------------------------------------------------------------
# Oracles: `oracle_F`, `oracle_h` and `path_dead_end_product` multiply
# decorations path by path, `oracle_c` recurses over the pair poset with no
# cache.


def Q(tree: DecoratedRootedTree, e: Edge, c: CellRef) -> int:
    """Q(e, c): the product of the decorations near c on its edges other than e."""
    if c not in e.ends:
        raise ValueError(f"cell {c!r} is not an end of edge {e}")
    return math.prod(f.q_near(c) for f in tree.incident_edges(c) if f != e)


def oracle_F(tree: DecoratedRootedTree, c: CellRef, d: CellRef) -> int:
    """Sum of x-hat(c, alpha) over the (1)-arrows alpha whose path from c
    passes the neighbour d of c."""
    return sum(
        _oracle_x(tree, c, alpha, hat=True)
        for alpha in sorted(tree.arrows1)
        if d in tree.path(c, alpha)
    )


def oracle_h(
    tree: DecoratedRootedTree, w: CellRef, A: Sequence[CellRef]
) -> tuple[int, int]:
    """(h(w,A), h-hat(w,A)) from the definition: products over the vertices
    shared by all the paths from w to the arrows in A, of the decorations
    near them on edges in none of those paths; h-hat leaves out w.  A must
    be nonempty."""
    if not A:
        raise ValueError("h-products need a nonempty arrow set")
    paths = {alpha: tree.path(w, alpha) for alpha in A}
    common = set(paths[A[0]])
    for alpha in A[1:]:
        common &= set(paths[alpha])
    edge_sets = {
        alpha: set(tree.path_edges(w, alpha)) for alpha in A
    }
    h = 1
    h_hat = 1
    for u in sorted(common):
        if u not in tree.vertices:
            continue
        for e in tree.incident_edges(u):
            if all(e not in edge_sets[alpha] for alpha in A):
                h *= e.q_near(u)
                if u != w:
                    h_hat *= e.q_near(u)
    return h, h_hat


def _oracle_positive(tree: DecoratedRootedTree) -> set[CellRef]:
    return {v for v in tree.vertices if oracle_N(tree, v) > 0}


def _oracle_d(tree: DecoratedRootedTree, dics: set[CellRef], v: CellRef) -> int:
    degrees = [
        sum(1 for x in tree.neighbors(u) if x in tree.arrows1)
        for u in tree.neighbors(v)
        if u in dics
    ]
    if degrees:
        return gcd(*degrees)
    return oracle_N(tree, v)


def oracle_c(tree: DecoratedRootedTree, u: CellRef, e: Edge) -> Fraction:
    """Characteristic number by definitional recursion, cache-free.

    The positive/dicritical split is read off once per call; the recursion
    itself re-derives every lower characteristic number from scratch.
    """
    positive = _oracle_positive(tree)
    dics = _oracle_dicriticals(tree)
    if u not in positive or e.other(u) not in positive:
        raise ValueError(f"({u!r}, {e}) is not a poset pair")

    def rec(u_: CellRef, e_: Edge) -> Fraction:
        u0 = e_.other(u_)
        a0 = a_value(tree, u0)
        d0 = _oracle_d(tree, dics, u0)
        others = [n for n in sorted(tree.neighbors(u0)) if n != u_ and n in positive]
        if not others:
            return Fraction(d0, a0)
        values = [Fraction(d0)] + [rec(u0, tree.edge_between(u0, n)) for n in others]
        # gcd of rationals over a common denominator
        m = lcm(*(v.denominator for v in values))
        g = gcd(*(abs(v.numerator) * (m // v.denominator) for v in values))
        return Fraction(g, m) / a0

    return rec(u, e)


def a_value(tree: DecoratedRootedTree, v: CellRef) -> int:
    """Decoration near `v` of its dead end, the edge to a (0)-arrow, or 1
    when `v` has none; a vertex has at most one (axiom 2)."""
    for e in tree.incident_edges(v):
        if e.other(v) in tree.arrows0:
            return e.q_near(v)
    return 1


def path_dead_end_product(tree: DecoratedRootedTree, x: CellRef, y: CellRef) -> int:
    """Product of dead-end values a_v over the vertices of the path x..y,
    leaving out y, walked path by path.  Equals 1 when x == y."""
    return math.prod(a_value(tree, c) for c in tree.path(x, y)[:-1])


# ---------------------------------------------------------------------------
# R and Delta-bar summed from their definitions, as the engine did before it
# read them from one table; the table is checked against these.


def R_definition(ledger, chars, u, A):
    """R(u, A) = sum over adjacent dicriticals of (1 - 1/k) + (1 - 1/a)
    + sum over e in A of (1 - 1/M(u,e)), summed afresh."""
    data = ledger.per_vertex[u]
    total = Fraction(0)
    for x in data.dicriticals:
        total += 1 - Fraction(1, data.k[x])
    total += 1 - Fraction(1, data.a)
    for e in A:
        total += 1 - Fraction(1, chars.pairs[(u, e)].M)
    return total


def delta_bar(ledger, chars, u, A):
    """Genus defect of {u} together with everything beyond the edges of A."""
    cells = {u}
    for e in A:
        cells |= chars.pairs[(u, e)].n_side
    return ledger.delta_tilde(cells)


# ---------------------------------------------------------------------------
# The comb test as a step along a skeleton chain.  `struct.combs` holds the
# engine's one comb test; these derive it again from the pair above, with R
# looked up as `structure.R_of` at each call, so that a test that patches
# it forces the reference's values too.


def reference_comb_step(ledger, chars, struct, upper, pair):
    """Whether `pair` passes the comb test as the step below `upper`: at
    three positive neighbours the tooth must sit on the edge that is neither
    `pair`'s nor `upper`'s."""
    v, f = pair
    eps = ledger.per_vertex[v].epsilon
    if eps not in (2, 3):
        return False
    r1 = structure.R_of(ledger, chars, v, [f])
    if eps == 2:
        return r1 < 1
    if r1 != 0:
        return False
    (third,) = [e for e in chars.edges_at[v] if e != f and e != upper[1]]
    return (v, third) in struct.teeth


def comb_steps(a):
    """Every step of every skeleton chain toward every initial vertex z: the
    pair toward z of a vertex u over that of its neighbour toward z."""
    tree = a.tree
    for z in sorted(a.struct.In):
        for u in sorted(a.struct.S - {z}):
            path = tree.path(u, z)
            if len(path) > 2:
                upper = (u, tree.edge_between(u, path[1]))
                yield upper, (path[1], tree.edge_between(path[1], path[2]))


# ---------------------------------------------------------------------------
# The sums of `dicritical-sum-divisibility` computed over all cells, as the
# check did before its passes read each vertex's arrow edges as one folded
# term: one pass over every cell per node for the sums of x and x-hat, and
# one walk over every cell for h and h-hat.


def _breadth_first(tree):
    """Each cell's edge toward the root (None at the root) and the cells in
    breadth-first order from the root, every parent before its children:
    the oracles' own walk over `incident_edges`."""
    parent_edge = {tree.root: None}
    order = [tree.root]
    for c in order:
        for e in tree.incident_edges(c):
            d = e.other(c)
            if d not in parent_edge:
                parent_edge[d] = e
                order.append(d)
    return parent_edge, order


def cell_source_multiplicities(tree, arrows):
    """N over vertices and (0)-arrows and F on every directed edge, summed
    over the (1)-arrows in `arrows`, by one rerooting pass over every cell."""
    parent_edge, order = _breadth_first(tree)
    children = {
        c: [e for e in tree.incident_edges(c) if e is not parent_edge[c]] for c in order
    }
    F = {}
    for d in reversed(order[1:]):
        c = parent_edge[d].other(d)
        if tree.is_arrow(d):
            F[c, d] = 1 if d in arrows else 0
        else:
            F[c, d], _ = sums_but_one(
                [(e.q_near(d), F[d, e.other(d)]) for e in children[d]]
            )
    N = {}
    for c in order:
        kids, up = children[c], parent_edge[c]
        if up is not None and not kids:
            if c in tree.arrows0:
                N[c] = F[c, up.other(c)]
            continue
        pairs = [(e.q_near(c), F[c, e.other(c)]) for e in kids]
        if up is not None:
            pairs.append((up.q_near(c), F[c, up.other(c)]))
        N[c], but_one = sums_but_one(pairs)
        for e, s in zip(kids, but_one):
            F[e.other(c), c] = s
    return N, F


def cell_node_h_products(tree, arrows):
    """(h, h-hat) at every vertex for the arrow set `arrows`, by one walk
    outward from its hull over every cell."""
    parent_edge, order = _breadth_first(tree)
    below = dict.fromkeys(order, 0)
    for c in reversed(order[1:]):
        if c in arrows:
            below[c] = 1
        below[parent_edge[c].other(c)] += below[c]
    total = below[tree.root]
    free, h_hat = {}, {}
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
    walk = list(h_hat)
    for n in walk:
        rest = products_but_one([q for _, q in free[n]])
        for (w, _), q in zip(free[n], rest):
            if w in free and w not in h_hat:
                h_hat[w] = h_hat[n] * q
                walk.append(w)
    h = {}
    for w in free:
        h[w] = h_hat[w]
        for _, q in free[w]:
            h[w] *= q
    return {w: (h[w], h_hat[w]) for w in free}
