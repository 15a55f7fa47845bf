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
Everything is reproducible from the seed.  A fan plan is one root with dicriticals; chain, star and
random plans each draw only a list of parent indices, and `_decorated`
turns that list into the plan, decorating the vertices in index order.

An attempt runs in this order: draw a plan; screen the plan on the axiom
clauses that read no support (coprimality near each skeleton vertex, and
the determinant of each skeleton edge); solve the supports on the plan;
screen the supports on the clauses that read them (coprimality near each
dicritical, and the determinant of its supporting edge); assemble the
tree; and `_screen` it with `validate_axioms` and `classify`, and with the
rational filter on the same table and classification.  `_screen` is the
gate: every tree returned passes it.  Both screens draw nothing from
the RNG and reject only what `_screen` would reject on the same clause, so
they change neither the attempt count nor the seed->tree mapping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd, prod

from .errors import GenerationError
from .multiplicity import classify, multiplicities
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
    for i in range(len(plan)):
        _decorate_vertex(rng, cfg, plan, i)
    return plan


def _pick_degree(rng: random.Random, cfg: GeneratorConfig) -> int:
    roll = rng.random()
    if roll < 0.55 or cfg.max_dicritical_degree == 1:
        return 1
    return rng.randint(2, cfg.max_dicritical_degree)


def _decorate_vertex(
    rng: random.Random, cfg: GeneratorConfig, plan: list[_VertexPlan], i: int
) -> None:
    p = plan[i]
    children = [j for j, q in enumerate(plan) if q.parent == i]
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


def _skeleton_near(plan: list[_VertexPlan]) -> list[list[tuple[int | None, int]]]:
    """For each skeleton vertex, (neighbour, decoration near the vertex) on
    each skeleton edge at it, then (None, dead end) when it has one.

    Dicritical edges carry 1 near the vertex and are left out."""
    near: list[list[tuple[int | None, int]]] = [[] for _ in plan]
    for i, p in enumerate(plan):
        if p.parent is not None:
            near[i].append((p.parent, p.down_q))
            near[p.parent].append((i, _up_q(plan, i)))
        if p.dead_end:
            near[i].append((None, p.dead_end))
    return near


def _plan_screen(plan: list[_VertexPlan]) -> bool:
    """Whether the plan passes the axiom clauses that read no support.

    Near a skeleton vertex the decorations are its `down_q`, the `up_q` of
    each child edge, its dead end, and 1 on each dicritical edge; axiom 5
    wants them pairwise coprime.  Axiom 6 wants each skeleton edge's
    determinant negative, with Q read from the same decorations.  A plan
    that fails here fails `validate_axioms` once assembled, whatever the
    supports.
    """
    Q_parent = [0] * len(plan)  # Q near the parent of i, on the edge to i
    Q_child = [0] * len(plan)  # Q near i, on the edge to its parent
    for i, near in enumerate(_skeleton_near(plan)):
        qs = [q for _, q in near]
        if not pairwise_coprime(qs):
            return False
        for (n, _), Q in zip(near, products_but_one(qs)):
            if n is None:
                continue
            if n == plan[i].parent:
                Q_child[i] = Q
            else:
                Q_parent[n] = Q
    return all(
        _up_q(plan, i) * p.down_q - Q_parent[i] * Q_child[i] < 0
        for i, p in enumerate(plan)
        if p.parent is not None
    )


def _path_products(plan: list[_VertexPlan]) -> list[list[int]]:
    """g[i][k]: the product, over the skeleton vertices on the path from v_i
    to v_k, of each one's decorations on the skeleton edges and dead end off
    that path.  g[i][i] is the product of every decoration near v_i.

    One walk from each vertex carries the product of the path so far; at
    each vertex the entering edge is skipped by identity, not divided out,
    since a decoration may be 0.  O(m^2) for m skeleton vertices.
    """
    near = _skeleton_near(plan)
    g = [[0] * len(plan) for _ in plan]
    for i in range(len(plan)):
        stack: list[tuple[int, int | None, int]] = [(i, None, 1)]
        while stack:
            w, came, acc = stack.pop()
            rest = [(n, q) for n, q in near[w] if n is None or n != came]
            qs = [q for _, q in rest]
            g[i][w] = acc * prod(qs)
            for (n, _), Q in zip(rest, products_but_one(qs)):
                if n is not None:
                    stack.append((n, w, acc * Q))
    return g


def _support_screen(
    plan: list[_VertexPlan], supports: dict[tuple[int, int], int]
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
    Q_at = [prod(q for _, q in near) for near in _skeleton_near(plan)]
    for (i, j), support in supports.items():
        a_u = plan[i].dics[j][1]
        if gcd(support, a_u) != 1 or support - Q_at[i] * a_u >= 0:
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


def _attempt(rng: random.Random, cfg: GeneratorConfig) -> DecoratedRootedTree | None:
    # weights compensate for per-mode acceptance rates, measured so that the
    # accepted corpus spreads over fans, chains, stars, brushes and loose pairs
    mode = rng.choices(
        ("fan", "chain", "star", "random", "pair", "brush"),
        weights=(41, 490, 235, 566, 245, 6),
    )[0]
    if mode == "pair":
        return _attempt_pair(rng, cfg)
    if mode == "brush":
        return _attempt_brush(rng, cfg)
    plan = _PLANS[mode](rng, cfg)
    if _plan_cells(plan) > cfg.max_cells or not _plan_screen(plan):
        return None
    supports = _solve_supports(plan)
    if supports is None or not _support_screen(plan, supports):
        return None
    return _screen(_assemble(plan, supports), cfg)


def _slot_contributions(
    plan: list[_VertexPlan],
) -> dict[tuple[int, int], dict[tuple[int, int], int]]:
    """contrib[s][s2] for slots s = (i, j) and s2 = (i2, j2), s2 != s: the
    product x-hat(u_s, alpha) for one (1)-arrow alpha at the dicritical of s2.

    On that path the dicritical edges carry 1 near v and the supports lie on
    the path, so the value is g[i][i2] (`_path_products`) times the dead end
    a_u of s2, with no degree and no support in it.
    """
    g = _path_products(plan)
    slots = [(i, j) for i, p in enumerate(plan) for j in range(len(p.dics))]
    contrib: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for s in slots:
        row_g = g[s[0]]
        contrib[s] = {
            s2: row_g[s2[0]] * plan[s2[0]].dics[s2[1]][1] for s2 in slots if s2 != s
        }
    return contrib


def _solve_supports(plan: list[_VertexPlan]) -> dict[tuple[int, int], int] | None:
    """The decoration near each dicritical on its supporting edge that makes
    the dicritical multiplicity vanish: minus the arrow sum over the rest of
    the tree, divided by the degree.

    The per-arrow contribution between two dicriticals does not depend on any
    degree, so it is read once off the plan by `_slot_contributions`; the
    divisibility repair loop (degrees shrink to a divisor when they spoil
    integrality, re-coupling the other sums) is then pure arithmetic.  Cost:
    O(m^2) for the m skeleton vertices plus O(slots^2) per repair round, at
    most four rounds; no tree is built.
    """
    contrib = _slot_contributions(plan)
    slots = list(contrib)
    if not slots:
        return None

    degrees = {s: plan[s[0]].dics[s[1]][0] for s in slots}
    sums: dict[tuple[int, int], int] = {}
    for _ in range(4):
        sums = {
            s: sum(degrees[s2] * c for s2, c in contrib[s].items()) for s in slots
        }
        bad = [s for s in slots if sums[s] % degrees[s]]
        if not bad:
            break
        for s in bad:
            degrees[s] = gcd(degrees[s], abs(sums[s]))
    else:
        return None
    for i, j in slots:
        plan[i].dics[j] = (degrees[(i, j)], plan[i].dics[j][1])
    return {s: -sums[s] // degrees[s] for s in slots}


def _attempt_pair(rng: random.Random, cfg: GeneratorConfig) -> DecoratedRootedTree | None:
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


def _attempt_brush(rng: random.Random, cfg: GeneratorConfig) -> DecoratedRootedTree | None:
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


def _screen(tree: DecoratedRootedTree, cfg: GeneratorConfig) -> DecoratedRootedTree | None:
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
    return tree


def generate(config: GeneratorConfig) -> DecoratedRootedTree:
    """A validated, generic, minimally complete tree, reproducible from the seed.

    Raises :class:`GenerationError` when `MAX_ATTEMPTS` attempts yield no
    tree, as when `max_cells` is too small for any plan or the rational
    filter rejects every tree drawn.
    """
    rng = random.Random(config.seed)
    for _ in range(MAX_ATTEMPTS):
        tree = _attempt(rng, config)
        if tree is not None:
            return tree
    raise GenerationError(MAX_ATTEMPTS, "no tree satisfied the filters")
