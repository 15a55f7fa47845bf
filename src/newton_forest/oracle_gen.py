"""A rejection-sampling generator of valid trees, and the two oracles the
benchmark reads.

`oracle_N` and `oracle_delta_tilde_N` recompute multiplicities and the
global defect straight from their definitions, sharing no state or code
path with the main engine: `oracle_N` multiplies decorations path by path
with no memoization, and `oracle_delta_tilde_N` takes the 2 - M - D route.
`perfbench/workloads.py` checks its outputs with them; the other
definition-level oracles live with the tests, in `tests/oracles.py`.

The generator samples a skeleton of positive vertices with attachment plans,
solves the one linear condition per dicritical (the decoration on its
supporting edge that makes its multiplicity vanish), and keeps the tree only
if the real validator and classifier accept it; the rational filter reads
2 - M - D and the dicritical degrees off the engine too, not the oracles.
Everything is reproducible from the seed.  A fan plan is one root with
dicriticals; chain, star and random plans each draw only a list of parent
indices, and `_decorated` turns that list into the plan, decorating the
vertices in index order.

The draws come from `_Draws`, a `random.Random` seeded with the config's
seed whose `randrange`, `randint` and `choice` read `getrandbits` in one
frame each, by CPython 3.11's algorithm; the attempt mode is one `random()`
bisected into cumulative weights, as `choices(weights=...)` does.  So the
stream, and with it the seed->tree mapping, is `random.Random`'s, drawn
with less work.

An attempt runs in this order: draw the mode, then a plan; check the
plan's cell count; read the plan's skeleton (`_skeleton_near`) once; screen
the plan on the axiom clauses that read no support (coprimality near each
skeleton vertex, and the determinant of each skeleton edge); solve the
supports on the plan (path products once, then per-vertex arrow sums for
each repair round); screen the supports on the clauses that read them
(coprimality near each dicritical, and the determinant of its supporting
edge); assemble the tree; and `_screen` it with `validate_axioms` and
`classify`, and with the rational filter on the same table and
classification.  `_screen` is the gate: every tree returned passes it.
Both screens draw nothing from the RNG and reject only what `_screen` would
reject on the same clause, so they change neither the attempt count nor
the seed->tree mapping.  `generate_classified` returns the kept tree with
the table and classification `_screen` computed, so that `audit --gen`
classifies each tree once; `generate` returns the tree alone.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd, prod
from operator import mul

from .errors import GenerationError
from .multiplicity import DicriticalInfo, MultiplicityTable, classify, multiplicities
from .tree_model import (
    ARROW,
    VERTEX,
    Cell,
    CellRef,
    DecoratedRootedTree,
    Edge,
    build_tree,
    make_edge,
    pairwise_coprime,
    products_but_one,
    validate_axioms,
)

# ---------------------------------------------------------------------------
# oracles


def _oracle_x(tree: DecoratedRootedTree, v: CellRef, alpha: CellRef, hat: bool) -> int:
    on_path = set(tree.path_edges(v, alpha))
    prod = 1
    for c in tree.path(v, alpha):
        if hat and c == v:
            continue
        for e in tree.incident_edges(c):
            if e not in on_path:
                prod *= e.q_near(c)
    return prod


def oracle_N(tree: DecoratedRootedTree, v: CellRef) -> int:
    """Multiplicity of a vertex or (0)-arrow, one fresh path product per arrow."""
    return sum(_oracle_x(tree, v, alpha, hat=False) for alpha in sorted(tree.arrows1))


def _oracle_dicriticals(tree: DecoratedRootedTree) -> set[CellRef]:
    return {v for v in tree.vertices if oracle_N(tree, v) == 0}


def oracle_delta_tilde_N(tree: DecoratedRootedTree) -> int:
    """Global defect via 2 - M(T) - D(T), all terms recomputed from scratch."""
    sources = sorted(tree.vertices | tree.arrows0)
    M = -sum(oracle_N(tree, v) * (tree.valency(v) - 2) for v in sources)
    dics = _oracle_dicriticals(tree)
    D = sum(
        1 for u in dics for x in tree.neighbors(u) if x in tree.arrows1
    )
    return 2 - M - D


# ---------------------------------------------------------------------------
# generator


MAX_DECORATION = 6  # bound on the drawn decorations and dead ends
MAX_ATTEMPTS = 3000


class _Draws(random.Random):
    """`random.Random` whose `randrange`, `randint` and `choice` each take one
    frame, reading `getrandbits` directly.

    Each draws what CPython 3.11's own draws (`_randbelow_with_getrandbits`):
    for n values, k = n.bit_length() bits, drawn again while r >= n.  The
    seeding, `random()` and `getrandbits` are inherited, so every other
    method draws as `random.Random` does; only the positive ranges and
    non-empty sequences the generator asks for are served.
    """

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, stop = 0, start
        n = stop - start
        if n <= 0:
            raise ValueError("empty range for randrange()")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return start + r

    def randint(self, a: int, b: int) -> int:
        n = b - a + 1
        if n <= 0:
            raise ValueError("empty range for randint()")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return a + r

    def choice(self, seq):
        n = len(seq)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return seq[r]


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_cells: int = 40
    max_dicritical_degree: int = 4
    rational: bool = False


@dataclass
class _VertexPlan:
    parent: int | None = None
    down_q: int = 1  # decoration near this vertex on the edge to its parent
    up_big: int = 1  # the optional single >1 upward decoration (on one child edge)
    big_child: int | None = None
    dead_end: int = 0  # 0 = none, else the decoration (>= 2 off dicriticals)
    dics: list[tuple[int, int]] = field(default_factory=list)  # (degree, a_u) each


def _plan_cells(plan: list[_VertexPlan]) -> int:
    total = len(plan)
    for p in plan:
        if p.dead_end:
            total += 1
        for degree, _ in p.dics:
            total += degree + 2
    return total


def _plan_fan(rng: random.Random, cfg: GeneratorConfig) -> list[_VertexPlan]:
    root = _VertexPlan()
    k = rng.randint(1, 5)
    for _ in range(k):
        degree = _pick_degree(rng, cfg)
        a_u = rng.choice((1, 1, 1, 2, 3, rng.randint(1, MAX_DECORATION)))
        root.dics.append((degree, a_u))
    return [root]


def _plan_chain(rng: random.Random, cfg: GeneratorConfig) -> list[_VertexPlan]:
    length = rng.randint(2, 6)
    root_at = rng.choice((0, 0, 0, rng.randrange(length)))
    # plan index i is path position order[i]: the root, then outward from it
    order = [root_at, *range(root_at - 1, -1, -1), *range(root_at + 1, length)]
    index_of = {pos: i for i, pos in enumerate(order)}
    parents = [
        None if pos == root_at else index_of[pos + 1 if pos < root_at else pos - 1]
        for pos in order
    ]
    return _decorated(rng, cfg, parents)


def _plan_star(rng: random.Random, cfg: GeneratorConfig) -> list[_VertexPlan]:
    arms = rng.randint(2, 4)
    parents: list[int | None] = [None]
    for _ in range(arms):
        length = rng.choice((1, 1, 1, 2))
        parent = 0
        for _ in range(length):
            parents.append(parent)
            parent = len(parents) - 1
    return _decorated(rng, cfg, parents)


def _plan_random(rng: random.Random, cfg: GeneratorConfig) -> list[_VertexPlan]:
    m = rng.randint(2, 7)
    parents = [None] + [rng.randrange(i) for i in range(1, m)]
    return _decorated(rng, cfg, parents)


def _decorated(
    rng: random.Random, cfg: GeneratorConfig, parents: list[int | None]
) -> list[_VertexPlan]:
    """The plan with the given parent indices (index 0 the root, each parent
    before its children), decorated vertex by vertex in index order."""
    plan = [_VertexPlan(parent) for parent in parents]
    children: list[list[int]] = [[] for _ in parents]
    for j, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(j)
    for p, below in zip(plan, children):
        _decorate_vertex(rng, cfg, p, below)
    return plan


def _pick_degree(rng: random.Random, cfg: GeneratorConfig) -> int:
    roll = rng.random()
    if roll < 0.55 or cfg.max_dicritical_degree == 1:
        return 1
    return rng.randint(2, cfg.max_dicritical_degree)


def _decorate_vertex(
    rng: random.Random, cfg: GeneratorConfig, p: _VertexPlan, children: list[int]
) -> None:
    is_root = p.parent is None
    if not is_root:
        p.down_q = rng.choice((0, 0, -1, -1, -2, 1, rng.randint(-MAX_DECORATION, 2)))
        # optional markup: either a dead end or one large upward decoration
        roll = rng.random()
        if roll < 0.35:
            p.dead_end = rng.randint(2, MAX_DECORATION)
        elif roll < 0.55 and children:
            p.up_big = rng.randint(2, MAX_DECORATION)
            p.big_child = rng.choice(children)
    n_dics = rng.choice((0, 1, 1, 1, 2))
    # non-root vertices need valency >= 3, and every maximal vertex needs an
    # arrow source above it
    min_up = 1 if is_root else 2
    need = min_up - len(children) - (1 if p.dead_end else 0)
    if not children:
        need = max(need, 1)
    n_dics = max(n_dics, need, 0)
    p.dics = [
        (_pick_degree(rng, cfg), rng.choice((1, 1, 1, 2, rng.randint(1, 4))))
        for _ in range(n_dics)
    ]


def _up_q(plan: list[_VertexPlan], i: int) -> int:
    """Decoration near the parent of skeleton vertex `i` on the edge to `i`."""
    parent_plan = plan[plan[i].parent]
    return parent_plan.up_big if parent_plan.big_child == i else 1


# For each skeleton vertex, its skeleton neighbours, and the decorations near
# it: on the edge to each neighbour in the same order, then its dead end
# when it has one.  A vertex's parent is its first neighbour.
_Near = tuple[list[list[int]], list[list[int]]]


def _skeleton_near(plan: list[_VertexPlan]) -> _Near:
    """The plan's `_Near`, which the screens and the support solve read.

    Dicritical edges carry 1 near the vertex and are left out."""
    nbrs: list[list[int]] = [[] for _ in plan]
    decs: list[list[int]] = [[] for _ in plan]
    for i, p in enumerate(plan):
        if p.parent is not None:
            nbrs[i].append(p.parent)
            decs[i].append(p.down_q)
            nbrs[p.parent].append(i)
            decs[p.parent].append(_up_q(plan, i))
    for p, qs in zip(plan, decs):
        if p.dead_end:
            qs.append(p.dead_end)
    return nbrs, decs


def _plan_screen(plan: list[_VertexPlan], near: _Near) -> bool:
    """Whether the plan passes the axiom clauses that read no support.

    Near a skeleton vertex the decorations are its `down_q`, the `up_q` of
    each child edge, its dead end, and 1 on each dicritical edge; axiom 5
    wants them pairwise coprime.  Axiom 6 wants each skeleton edge's
    determinant negative, with Q read from the same decorations.  A plan
    that fails here fails `validate_axioms` once assembled, whatever the
    supports.
    """
    nbrs, decs = near
    but_one = []  # Q near each vertex on the edge to each neighbour
    for qs in decs:
        if not pairwise_coprime(qs):
            return False
        but_one.append(products_but_one(qs))
    for i, p in enumerate(plan):
        w = p.parent
        if w is not None:
            t = nbrs[w].index(i)
            if decs[w][t] * p.down_q >= but_one[w][t] * but_one[i][0]:
                return False
    return True


def _path_products(near: _Near) -> list[list[int]]:
    """g[i][k]: the product, over the skeleton vertices on the path from v_i
    to v_k, of each one's decorations on the skeleton edges and dead end off
    that path.  g[i][i] is the product of every decoration near v_i.

    One walk from each vertex carries the product of the path so far.  At a
    vertex w entered from its neighbour c, Q_c, the product of w's
    decorations off the edge to c, ends the path at w; to go on to the
    neighbour t the walk also leaves out the decoration q_t, so divides Q_c
    by it, or, when q_t is 0, multiplies the rest afresh.  O(m^2) for m
    skeleton vertices.
    """
    nbrs, decs = near
    but_one = [products_but_one(qs) for qs in decs]
    g = [[0] * len(decs) for _ in decs]
    for i, row in enumerate(g):
        row[i] = prod(decs[i])
        stack = [(n, i, Q) for n, Q in zip(nbrs[i], but_one[i])]
        while stack:
            w, came, acc = stack.pop()
            at = nbrs[w]
            c = at.index(came)
            Q_c = but_one[w][c]
            row[w] = acc * Q_c
            if len(at) > 1:
                qs = decs[w]
                for t, n in enumerate(at):
                    if t != c:
                        q = qs[t]
                        if q:
                            off = Q_c // q
                        else:
                            off = prod(x for s, x in enumerate(qs) if s != c and s != t)
                        stack.append((n, w, acc * off))
    return g


def _support_screen(
    plan: list[_VertexPlan], supports: dict[tuple[int, int], int], near: _Near
) -> bool:
    """Whether the solved supports pass the axiom clauses that read them.

    Near the dicritical u of slot (i, j) the decorations are its support,
    its dead end a_u and 1 on each arrow edge, so axiom 5 wants
    gcd(support, a_u) == 1.  On the dicritical edge the decoration near
    v_i is 1, Q near v_i is the product of every decoration near v_i and Q
    near u is a_u, so axiom 6 wants support - Q * a_u < 0.  No other clause
    reads a support; a plan rejected here fails `validate_axioms` once
    assembled.
    """
    decs = near[1]
    for (i, j), support in supports.items():
        a_u = plan[i].dics[j][1]
        if gcd(support, a_u) != 1 or support - prod(decs[i]) * a_u >= 0:
            return False
    return True


def _assemble(
    plan: list[_VertexPlan], supports: dict[tuple[int, int], int]
) -> DecoratedRootedTree:
    cells: list[Cell] = []
    edges: list[Edge] = []
    for i, p in enumerate(plan):
        v = f"v{i}"
        cells.append(Cell(v, VERTEX))
        if p.parent is not None:
            edges.append(make_edge(f"v{p.parent}", _up_q(plan, i), v, p.down_q))
        if p.dead_end:
            o = f"o{i}"
            cells.append(Cell(o, ARROW, 0))
            edges.append(make_edge(v, p.dead_end, o, 1))
        for j, (degree, a_u) in enumerate(p.dics):
            u = f"u{i}_{j}"
            cells.append(Cell(u, VERTEX))
            edges.append(make_edge(v, 1, u, supports.get((i, j), 0)))
            ou = f"o{i}_{j}"
            cells.append(Cell(ou, ARROW, 0))
            edges.append(make_edge(u, a_u, ou, 1))
            for r in range(degree):
                t = f"t{i}_{j}_{r}"
                cells.append(Cell(t, ARROW, 1))
                edges.append(make_edge(u, 1, t, 1))
    return build_tree(cells, edges, "v0")


_PLANS = {
    "fan": _plan_fan, "chain": _plan_chain, "star": _plan_star, "random": _plan_random
}

# The attempt modes and their cumulative weights.  The weights, 41, 490,
# 235, 566, 245 and 6, compensate for per-mode acceptance rates, measured so
# that the accepted corpus spreads over fans, chains, stars, brushes and
# loose pairs.  `random.choices(weights=...)` accumulates them on each call
# and bisects random() times their total; this is the same draw.
_MODES = ("fan", "chain", "star", "random", "pair", "brush")
_MODE_BOUNDS = list(accumulate((41, 490, 235, 566, 245, 6)))
_MODE_TOTAL = float(_MODE_BOUNDS[-1])

# A generated tree with the multiplicity table and classification that its
# screen computed.
Screened = tuple[DecoratedRootedTree, MultiplicityTable, DicriticalInfo]


def _draw_mode(rng: random.Random) -> str:
    return _MODES[
        bisect_right(_MODE_BOUNDS, rng.random() * _MODE_TOTAL, 0, len(_MODES) - 1)
    ]


def _attempt(rng: random.Random, cfg: GeneratorConfig) -> Screened | None:
    mode = _draw_mode(rng)
    if mode == "pair":
        return _attempt_pair(rng, cfg)
    if mode == "brush":
        return _attempt_brush(rng, cfg)
    plan = _PLANS[mode](rng, cfg)
    if _plan_cells(plan) > cfg.max_cells:
        return None
    near = _skeleton_near(plan)
    if not _plan_screen(plan, near):
        return None
    supports = _solve_supports(plan, near)
    if supports is None or not _support_screen(plan, supports, near):
        return None
    return _screen(_assemble(plan, supports), cfg)


def _arrow_sums(
    g: list[list[int]], slots: list[tuple[int, int, int]], degrees: list[int]
) -> list[int]:
    """For each slot (i, j, a_u) at its degree: the arrow sum at its
    dicritical u over the (1)-arrows of every other slot.

    For one (1)-arrow at the dicritical of a slot at v_k, x-hat(u, alpha)
    is g[i][k] (`_path_products`) times that slot's dead end a_u: on that
    path the dicritical edges carry 1 near v and the supports lie on the
    path, so no degree and no support enters it.  Summed by vertex, with
    W[k] the sum of degree * a_u over the slots at v_k, a slot's sum is the
    sum over k of g[i][k] W[k], less its own term g[i][i] * degree * a_u.
    O(m^2 + slots) for m skeleton vertices.
    """
    W = [0] * len(g)
    for (k, _, a_u), degree in zip(slots, degrees):
        W[k] += degree * a_u
    through = [sum(map(mul, row, W)) for row in g]
    return [
        through[i] - g[i][i] * degree * a_u
        for (i, _, a_u), degree in zip(slots, degrees)
    ]


def _solve_supports(
    plan: list[_VertexPlan], near: _Near
) -> dict[tuple[int, int], int] | None:
    """The decoration near each dicritical on its supporting edge that makes
    the dicritical multiplicity vanish: minus the arrow sum over the rest of
    the tree, divided by the degree.

    The path products g are read once off the skeleton; the divisibility
    repair loop (degrees shrink to a divisor when they spoil integrality,
    re-coupling the other sums) then recomputes only `_arrow_sums`.  Cost:
    O(m^2) for the m skeleton vertices plus O(m^2 + slots) per repair round,
    at most four rounds; no tree is built.
    """
    slots = [(i, j, a_u) for i, p in enumerate(plan) for j, (_, a_u) in enumerate(p.dics)]
    if not slots:
        return None
    g = _path_products(near)
    degrees = [plan[i].dics[j][0] for i, j, _ in slots]
    for _ in range(4):
        sums = _arrow_sums(g, slots, degrees)
        spoilt = False
        for t, (total, degree) in enumerate(zip(sums, degrees)):
            if total % degree:
                degrees[t] = gcd(degree, abs(total))
                spoilt = True
        if not spoilt:
            break
    else:
        return None
    supports = {}
    for (i, j, a_u), total, degree in zip(slots, sums, degrees):
        plan[i].dics[j] = (degree, a_u)
        supports[i, j] = -total // degree
    return supports


def _attempt_pair(rng: random.Random, cfg: GeneratorConfig) -> Screened | None:
    """Two-vertex chains with both ends loose: dicritical degrees balanced so
    both chain ends carry nonpositive defect."""
    a_p = rng.randint(1, 4)
    d_p = rng.randint(1, cfg.max_dicritical_degree)
    a_y = rng.randint(2, 4)
    t = -rng.randint(1, 4)
    num = a_y * d_p * a_p
    den = 1 - t * a_y
    if num % den:
        return None
    d_q = num // den
    if d_q < 1 or (a_y * d_q) % d_p or 7 + d_p + d_q > cfg.max_cells:
        return None
    cells = [
        Cell("v0", VERTEX),
        Cell("v1", VERTEX),
        Cell("u0_0", VERTEX),
        Cell("u1_0", VERTEX),
        Cell("o1", ARROW, 0),
        Cell("o0_0", ARROW, 0),
        Cell("o1_0", ARROW, 0),
    ]
    edges = [
        make_edge("v0", 1, "v1", t),
        make_edge("v0", 1, "u0_0", -(a_y * d_q) // d_p),
        make_edge("v1", a_y, "o1", 1),
        make_edge("v1", 1, "u1_0", -(den)),
        make_edge("u0_0", a_p, "o0_0", 1),
        make_edge("u1_0", 1, "o1_0", 1),
    ]
    for r in range(d_p):
        cells.append(Cell(f"t0_{r}", ARROW, 1))
        edges.append(make_edge("u0_0", 1, f"t0_{r}", 1))
    for r in range(d_q):
        cells.append(Cell(f"t1_{r}", ARROW, 1))
        edges.append(make_edge("u1_0", 1, f"t1_{r}", 1))
    tree = build_tree(cells, edges, "v0")
    return _screen(tree, cfg)


def _attempt_brush(rng: random.Random, cfg: GeneratorConfig) -> Screened | None:
    """A star whose every arm hangs loose off the root: two arms carrying a
    degree-(D,1) dicritical pair each, plus a root dicritical whose dead end
    is decorated D.  For odd D all supports are integral and coprime, both
    arms qualify as chains into the root, and the root absorbs them."""
    choices = [d for d in (3, 5, 7, 9, 11) if 2 * d + 16 <= cfg.max_cells]
    if not choices:
        return None
    D = rng.choice(choices)
    cells = [Cell("v0", VERTEX), Cell("ug", VERTEX), Cell("og", ARROW, 0),
             Cell("tg", ARROW, 1)]
    edges = [
        make_edge("v0", 1, "ug", -(2 * D + 2)),
        make_edge("ug", D, "og", 1),
        make_edge("ug", 1, "tg", 1),
    ]
    for i in (0, 1):
        y = f"y{i}"
        cells.append(Cell(y, VERTEX))
        edges.append(make_edge("v0", 1, y, -1))
        ud, um = f"u{i}_0", f"u{i}_1"
        cells += [Cell(ud, VERTEX), Cell(um, VERTEX)]
        edges.append(make_edge(y, 1, ud, -2))
        edges.append(make_edge(y, 1, um, -(D + 1)))
        cells += [Cell(f"o{i}_0", ARROW, 0), Cell(f"o{i}_1", ARROW, 0)]
        edges.append(make_edge(ud, 1, f"o{i}_0", 1))
        edges.append(make_edge(um, 1, f"o{i}_1", 1))
        for r in range(D):
            cells.append(Cell(f"t{i}_0_{r}", ARROW, 1))
            edges.append(make_edge(ud, 1, f"t{i}_0_{r}", 1))
        cells.append(Cell(f"t{i}_1_0", ARROW, 1))
        edges.append(make_edge(um, 1, f"t{i}_1_0", 1))
    tree = build_tree(cells, edges, "v0")
    return _screen(tree, cfg)


def _screen(tree: DecoratedRootedTree, cfg: GeneratorConfig) -> Screened | None:
    """The tree with its multiplicity table and classification, or None when
    it breaks an axiom, is not minimally complete or fails the rational
    filter."""
    if validate_axioms(tree):
        return None
    table = multiplicities(tree)
    info = classify(tree, table)
    if not info.minimally_complete:
        return None
    if cfg.rational:
        degs = info.degree.values()
        if 2 - table.M_of_T - sum(degs) != 0 or gcd(*degs) != 1:
            return None
    return tree, table, info


def generate_classified(config: GeneratorConfig) -> Screened:
    """`generate`'s tree, with the multiplicity table and classification
    that its screen computed: (tree, table, info).

    Raises :class:`GenerationError` when `MAX_ATTEMPTS` attempts yield no
    tree, as when `max_cells` is too small for any plan or the rational
    filter rejects every tree drawn.
    """
    rng = _Draws(config.seed)
    for _ in range(MAX_ATTEMPTS):
        found = _attempt(rng, config)
        if found is not None:
            return found
    raise GenerationError(MAX_ATTEMPTS, "no tree satisfied the filters")


def generate(config: GeneratorConfig) -> DecoratedRootedTree:
    """A validated, generic, minimally complete tree, reproducible from the
    seed: the first item of `generate_classified`."""
    return generate_classified(config)[0]
