"""Immutable decorated rooted trees with axiom validation and primitive queries.

Cells are either vertices or arrows; arrows carry a 0/1 decoration and every
edge carries one integer decoration near each of its two ends.  A validated
tree satisfies six axioms (see :func:`validate_axioms`); all analyses in the
other modules assume a validated tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import TreeStructureError

VERTEX = "vertex"
ARROW = "arrow"

CellRef = str


@dataclass(frozen=True, slots=True)
class Cell:
    """One 0-dimensional cell: a vertex, or an arrow decorated 0 or 1."""

    id: CellRef
    kind: str
    arrow_decoration: int | None = None


@dataclass(frozen=True, order=True, slots=True)
class Edge:
    """An undirected edge with one integer decoration near each end.

    `ends` is sorted; `q[i]` is the decoration near `ends[i]`.
    """

    ends: tuple[CellRef, CellRef]
    q: tuple[int, int]

    def q_near(self, cell: CellRef) -> int:
        if cell == self.ends[0]:
            return self.q[0]
        if cell == self.ends[1]:
            return self.q[1]
        raise ValueError(f"cell {cell!r} is not an end of edge {self.ends}")

    def other(self, cell: CellRef) -> CellRef:
        if cell == self.ends[0]:
            return self.ends[1]
        if cell == self.ends[1]:
            return self.ends[0]
        raise ValueError(f"cell {cell!r} is not an end of edge {self.ends}")

    def __str__(self) -> str:
        return "{%s,%s}" % self.ends


# The dataclass order of Edge as a sort key: one tuple per edge instead of
# two per comparison.
_EDGE_ORDER = attrgetter("ends", "q")


def make_edge(a: CellRef, qa: int, b: CellRef, qb: int) -> Edge:
    """Build an edge decorated `qa` near `a` and `qb` near `b`."""
    if a <= b:
        return Edge((a, b), (qa, qb))
    return Edge((b, a), (qb, qa))


@dataclass(frozen=True)
class ValidationDiagnostic:
    """One violated axiom clause, with the cells/edges where it fails."""

    axiom_id: int | str
    location: tuple[str, ...]
    message: str

    def __str__(self) -> str:
        return f"axiom {self.axiom_id} at ({', '.join(self.location)}): {self.message}"


@dataclass(frozen=True)
class DecoratedRootedTree:
    """A structurally valid decorated rooted tree.  Construct via :func:`build_tree`.

    The instance is immutable and safe to share between concurrent analyses.
    Vertex/arrow classification is recomputed from valencies and the root,
    never trusted from the input.
    """

    cells: dict[CellRef, Cell]
    edges: tuple[Edge, ...]
    root: CellRef
    # Each cell's edges in sorted order, its parent edge and its depth.  The
    # lists here and below belong to the tree; readers must not change them.
    _incident: dict[CellRef, list[Edge]] = field(repr=False, compare=False)
    _parent_edge: dict[CellRef, Edge | None] = field(repr=False, compare=False)
    _depth: dict[CellRef, int] = field(repr=False, compare=False)
    # The breadth-first order from the root (every parent before its
    # children) and each cell's edges to its children, in incidence order.
    _order: list[CellRef] = field(repr=False, compare=False)
    _children: dict[CellRef, Sequence[Edge]] = field(repr=False, compare=False)
    # Q(e, c) for the edges e = {c, d} at c, as _Q_rows[c][d]; see `Q`.
    _Q_rows: dict[CellRef, dict[CellRef, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def _edge_to(self) -> dict[CellRef, dict[CellRef, Edge]]:
        return {
            c: {e.other(c): e for e in es} for c, es in self._incident.items()
        }

    @cached_property
    def _axiom_diagnostics(self) -> tuple[ValidationDiagnostic, ...]:
        # kept so that a tree is checked once however often it is validated
        return tuple(iter_axiom_diagnostics(self))

    # -- basic sets ---------------------------------------------------------

    def cell_ids(self) -> list[CellRef]:
        return sorted(self.cells)

    @cached_property
    def vertices(self) -> frozenset[CellRef]:
        return frozenset(c for c, cell in self.cells.items() if cell.kind == VERTEX)

    @cached_property
    def arrows(self) -> frozenset[CellRef]:
        return frozenset(c for c, cell in self.cells.items() if cell.kind == ARROW)

    @cached_property
    def arrows0(self) -> frozenset[CellRef]:
        """Arrows decorated (0)."""
        return frozenset(
            c for c, cell in self.cells.items()
            if cell.kind == ARROW and cell.arrow_decoration == 0
        )

    @cached_property
    def arrows1(self) -> frozenset[CellRef]:
        """Arrows decorated (1)."""
        return frozenset(
            c for c, cell in self.cells.items()
            if cell.kind == ARROW and cell.arrow_decoration == 1
        )

    def is_vertex(self, c: CellRef) -> bool:
        return self.cells[c].kind == VERTEX

    def is_arrow(self, c: CellRef) -> bool:
        return self.cells[c].kind == ARROW

    # -- incidence ----------------------------------------------------------

    def incident_edges(self, c: CellRef) -> Sequence[Edge]:
        if c not in self.cells:
            raise KeyError(f"unknown cell {c!r}")
        return self._incident[c]

    def valency(self, c: CellRef) -> int:
        return len(self.incident_edges(c))

    def neighbors(self, c: CellRef) -> list[CellRef]:
        return [e.other(c) for e in self.incident_edges(c)]

    def edge_between(self, a: CellRef, b: CellRef) -> Edge:
        try:
            return self._edge_to[a][b]
        except KeyError:
            raise KeyError(f"no edge between {a!r} and {b!r}") from None

    # -- dead ends and a-values ----------------------------------------------

    def dead_ends(self, v: CellRef) -> tuple[Edge, ...]:
        """Edges at `v` whose other end is a (0)-arrow."""
        zero = self.arrows0
        return tuple(e for e in self.incident_edges(v) if e.other(v) in zero)

    def a_value(self, v: CellRef) -> int:
        """Dead-end decoration near `v`, or 1 when no dead end is incident."""
        ends = self.dead_ends(v)
        if not ends:
            return 1
        return ends[0].q_near(v)

    # -- decorations ---------------------------------------------------------

    def Q(self, edge: Edge, end: CellRef) -> int:
        """Product of decorations near `end` of all other edges incident to it.

        Read from the tree's table, which keeps `Q_row(end)` from the first
        time `end` is asked for, so each cell costs O(deg) once."""
        if end not in edge.ends:
            raise ValueError(f"cell {end!r} is not an end of edge {edge}")
        row = self._Q_rows.get(end)
        if row is None:
            row = self._Q_rows[end] = self.Q_row(end)
        return row[edge.other(end)]

    def Q_row(self, c: CellRef) -> dict[CellRef, int]:
        """Q(e, c) for every edge e = {c, d} at c, keyed by d, in O(deg)."""
        inc = self.incident_edges(c)
        qs = products_but_one([e.q[0] if e.ends[0] == c else e.q[1] for e in inc])
        return {
            (e.ends[1] if e.ends[0] == c else e.ends[0]): q for e, q in zip(inc, qs)
        }

    def edge_determinant(self, edge: Edge) -> int:
        """q(e,x)q(e,y) - Q(e,x)Q(e,y); defined for vertex-vertex edges only."""
        x, y = edge.ends
        if not (self.is_vertex(x) and self.is_vertex(y)):
            raise ValueError(f"edge {edge} has an arrow end; determinant undefined")
        return edge.q[0] * edge.q[1] - self.Q(edge, x) * self.Q(edge, y)

    # -- paths and the tree order ---------------------------------------------

    def parent(self, c: CellRef) -> CellRef | None:
        e = self._parent_edge[c]
        return None if e is None else e.other(c)

    def path(self, x: CellRef, y: CellRef) -> tuple[CellRef, ...]:
        """The unique simple path from `x` to `y`, as a cell sequence."""
        if x not in self.cells or y not in self.cells:
            missing = x if x not in self.cells else y
            raise KeyError(f"unknown cell {missing!r}")
        up_x: list[CellRef] = [x]
        up_y: list[CellRef] = [y]
        a, b = x, y
        while self._depth[a] > self._depth[b]:
            a = self.parent(a)  # type: ignore[assignment]
            up_x.append(a)
        while self._depth[b] > self._depth[a]:
            b = self.parent(b)  # type: ignore[assignment]
            up_y.append(b)
        while a != b:
            a = self.parent(a)  # type: ignore[assignment]
            b = self.parent(b)  # type: ignore[assignment]
            up_x.append(a)
            up_y.append(b)
        up_y.pop()  # meeting cell appears once
        return tuple(up_x + up_y[::-1])

    def path_edges(self, x: CellRef, y: CellRef) -> tuple[Edge, ...]:
        cells = self.path(x, y)
        return tuple(
            self.edge_between(cells[i], cells[i + 1]) for i in range(len(cells) - 1)
        )

    def less_than(self, x: CellRef, y: CellRef) -> bool:
        """Tree order: x < y iff x lies on the path from the root to y, x != y."""
        if x == y:
            return False
        if self._depth[x] >= self._depth[y]:
            return False
        c = y
        while self._depth[c] > self._depth[x]:
            c = self.parent(c)  # type: ignore[assignment]
        return c == x

    def connected(self, subset: Iterable[CellRef]) -> bool:
        """Whether every path between members of `subset` stays inside it."""
        members = set(subset)
        for c in members:
            if c not in self.cells:
                raise KeyError(f"unknown cell {c!r}")
        if len(members) <= 1:
            return True
        start = next(iter(members))
        seen = {start}
        stack = [start]
        while stack:
            c = stack.pop()
            for d in self.neighbors(c):
                if d in members and d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen == members

    def iter_vertex_edges(self) -> Iterator[Edge]:
        """Edges whose two ends are both vertices."""
        for e in self.edges:
            if self.is_vertex(e.ends[0]) and self.is_vertex(e.ends[1]):
                yield e


def build_tree(
    cells: Iterable[Cell], edges: Iterable[Edge], root: CellRef
) -> DecoratedRootedTree:
    """Assemble and structurally check a decorated rooted tree.

    Raises :class:`TreeStructureError` carrying every problem found:
    duplicate ids, duplicate or dangling edges, self-loops, a disconnected or
    cyclic graph, a root classified as arrow, and decoration bookkeeping
    errors.  Axioms are not checked here; see :func:`validate_axioms`.

    One pass over the cells and one over the edges, in the given order, find
    the problems of the first kind and list each cell's edges.  One
    breadth-first search from the root then sorts each vertex's edges,
    orients the tree, records the order it visits the cells in and each
    cell's child edges, and checks each cell's declared kind and decoration
    against its classification; a given cell that passes is kept as it is,
    and `cells` lists them by id.
    """
    problems: list[str] = []

    by_id: dict[CellRef, Cell] = {}
    incident: dict[CellRef, list[Edge]] = {}
    for cell in cells:
        if cell.id in by_id:
            problems.append(f"duplicate cell id {cell.id!r}")
        by_id[cell.id] = cell
        incident[cell.id] = []
    if root not in by_id:
        problems.append(f"root {root!r} is not a cell")

    edge_list = list(edges)
    seen_pairs: set[tuple[CellRef, CellRef]] = set()
    for e in edge_list:
        a, b = ends = e.ends
        if a == b:
            problems.append(f"self-loop at {a!r}")
        elif a not in by_id or b not in by_id:
            problems.append(f"edge {e} mentions an unknown cell")
        elif ends in seen_pairs:
            problems.append(f"not a tree: duplicate edge {e}")
        else:
            seen_pairs.add(ends)
            incident[a].append(e)
            incident[b].append(e)
    if problems:
        raise TreeStructureError(problems)

    if len(edge_list) != len(by_id) - 1:
        problems.append(
            f"not a tree: {len(by_id)} cells need {len(by_id) - 1} edges, got {len(edge_list)}"
        )

    # Breadth-first from the root: each cell is reached through its parent
    # edge and its other edges lead to its children, unless the graph is not
    # a tree, which the counts detect.
    parent_edge: dict[CellRef, Edge | None] = {root: None}
    depth: dict[CellRef, int] = {root: 0}
    children: dict[CellRef, list[Edge]] = {}
    order = [root]
    misfits: list[CellRef] = []  # cells whose declaration disagrees
    for c in order:
        inc = incident[c]
        cell = by_id[c]
        if len(inc) == 1 and c != root:  # an arrow: its one edge leads up
            if cell.kind != ARROW or cell.arrow_decoration not in (0, 1):
                misfits.append(c)
            children[c] = ()
            continue
        if cell.kind != VERTEX or cell.arrow_decoration is not None:
            misfits.append(c)
        inc.sort(key=_EDGE_ORDER)
        below = depth[c] + 1
        kids = children[c] = []
        for e in inc:
            a, b = e.ends
            d = b if a == c else a
            if d not in depth:
                depth[d] = below
                parent_edge[d] = e
                order.append(d)
                kids.append(e)
    if len(order) != len(by_id):
        missing = sorted(set(by_id) - set(depth))
        problems.append(f"disconnected: unreachable cells {missing}")
    if problems:
        raise TreeStructureError(problems)

    for cid in sorted(misfits):
        declared = by_id[cid]
        kind = VERTEX if (cid == root or len(incident[cid]) != 1) else ARROW
        if declared.kind != kind:
            problems.append(
                f"cell {cid!r} declared {declared.kind!r} but classifies as {kind!r}"
            )
        if kind == ARROW:
            if declared.arrow_decoration not in (0, 1):
                problems.append(
                    f"arrow {cid!r} must be decorated 0 or 1, got {declared.arrow_decoration!r}"
                )
        elif declared.arrow_decoration is not None:
            problems.append(f"vertex {cid!r} carries an arrow decoration")
    if problems:
        raise TreeStructureError(problems)

    return DecoratedRootedTree(
        cells={cid: by_id[cid] for cid in sorted(by_id)},
        edges=tuple(sorted(edge_list, key=_EDGE_ORDER)),
        root=root,
        _incident=incident,
        _parent_edge=parent_edge,
        _depth=depth,
        _order=order,
        _children=children,
    )


def products_but_one(values: Sequence[int]) -> list[int]:
    """Entry i is the product of every value but `values[i]`.

    Prefix times suffix products, O(len(values)) multiplications and no
    division, so a zero value stays exact.
    """
    out = []
    acc = 1
    for q in values:
        out.append(acc)
        acc *= q
    acc = 1
    for i in range(len(values) - 1, -1, -1):
        out[i] *= acc
        acc *= values[i]
    return out


def pairwise_coprime(values: Iterable[int]) -> bool:
    """Whether the values are pairwise coprime (0 is coprime to +-1 only).

    Each value is tested against the product of those before it, so the
    cost is O(len(values)) gcds.
    """
    acc = 1
    for q in values:
        if math.gcd(q, acc) != 1:
            return False
        acc *= q
    return True


def _coprime_diagnostics(
    v: CellRef, inc: Sequence[Edge], near: Sequence[int]
) -> Iterator[ValidationDiagnostic]:
    """Axiom 5's coprimality clause at `v`, one diagnostic per failing pair,
    where `near[i]` is the decoration of `inc[i]` near `v`.

    A decoration of +-1 is coprime to everything, so only the others are
    paired, in incidence order.  When they are pairwise coprime the pair
    loop is skipped; otherwise each edge is named once, not once per pair.
    """
    big = [(e, q) for e, q in zip(inc, near) if q != 1 and q != -1]
    if pairwise_coprime(q for _, q in big):
        return
    named = [(str(e), q) for e, q in big]
    for i, (ei, qi) in enumerate(named):
        for ej, qj in named[i + 1:]:
            if math.gcd(qi, qj) != 1:
                yield ValidationDiagnostic(
                    5, (v, ei, ej), f"decorations {qi} and {qj} are not coprime"
                )


def validate_axioms(tree: DecoratedRootedTree) -> list[ValidationDiagnostic]:
    """Check the six defining axioms; an empty list means the tree passes all.

    The list of :func:`iter_axiom_diagnostics`, in its order.  The tree
    keeps the diagnostics, so validating it again returns a copy of them
    without checking anything.
    """
    return list(tree._axiom_diagnostics)


def iter_axiom_diagnostics(tree: DecoratedRootedTree) -> Iterator[ValidationDiagnostic]:
    """Yield one diagnostic per violated clause of the six defining axioms,
    axiom by axiom; none means the tree passes all.

    1. every vertex has a (1)-arrow above it;
    2. at most one dead end per vertex;
    3. decorations near the root equal 1;
    4. decorations near arrows equal 1;
    5. near each vertex: pairwise coprime decorations, upward decorations
       positive with at most one exceeding 1, and the dead-end decoration
       equal to the maximum upward decoration;
    6. every vertex-vertex edge has negative determinant.

    Cost, for n cells, apart from sorting the vertex ids once and the
    arithmetic on large decorations: axiom 1 walks up from each (1)-arrow
    and stops at the first cell already covered, so each cell is passed
    once, O(n).  The dead ends are read once, from the (0)-arrows up, for
    axioms 2 and 5.  Axioms 3 and 4 read each arrow's edge and the root's
    once, and only the failing arrows are sorted.  Axiom 5 reads each
    vertex's decorations once, O(deg); "upward" is every edge but the parent
    edge.  Its coprimality clause pairs only the k decorations other than
    +-1, O(k) when they pass and O(k^2) when one pair fails.  The same visit
    takes the Q values at the vertex from prefix/suffix products, which
    axiom 6 reads, and only its failing edges are sorted.  The diagnostics
    themselves can outnumber the cells only through axiom 5's pairs; they
    are yielded one at a time, so memory stays O(n) however many there are.
    """
    root = tree.root
    parent_edge = tree._parent_edge
    incident = tree._incident
    vertices = sorted(tree.vertices)

    # Walk up from each (1)-arrow until a covered cell: the covered set is
    # closed under going down towards the root, so its ancestors are too,
    # and it is the same whichever arrow goes first.
    covered: set[CellRef] = set()
    for c in tree.arrows1:
        while (e := parent_edge[c]) is not None:
            a, b = e.ends
            c = b if a == c else a
            if c in covered:
                break
            covered.add(c)
    for v in vertices:
        if v not in covered:
            yield ValidationDiagnostic(1, (v,), "no arrow decorated (1) above this vertex")

    # A (0)-arrow is a leaf, so its one edge is a dead end of its parent;
    # sorted, a vertex's dead ends are in incidence order.
    dead_ends: dict[CellRef, list[Edge]] = {}
    for alpha in tree.arrows0:
        e = parent_edge[alpha]
        a, b = e.ends
        dead_ends.setdefault(b if a == alpha else a, []).append(e)
    for v in vertices:
        dead = dead_ends.get(v)
        if dead is not None and len(dead) > 1:
            dead.sort(key=_EDGE_ORDER)
            yield ValidationDiagnostic(
                2, (v,), f"{len(dead)} dead ends incident to one vertex"
            )

    for e in incident[root]:
        if e.q_near(root) != 1:
            yield ValidationDiagnostic(
                3, (str(e), root), f"decoration near root is {e.q_near(root)}, not 1"
            )

    unmarked = []
    for alpha in tree.arrows:
        e = parent_edge[alpha]
        if (e.q[0] if e.ends[0] == alpha else e.q[1]) != 1:
            unmarked.append(alpha)
    for alpha in sorted(unmarked):
        e = parent_edge[alpha]
        yield ValidationDiagnostic(
            4, (str(e), alpha), f"decoration near arrow is {e.q_near(alpha)}, not 1"
        )

    # For the edge e from each vertex w down to its parent v, Q(e, w) in
    # q_up[w] and Q(e, v) in q_down[w], for axiom 6
    q_up: dict[CellRef, int] = {}
    q_down: dict[CellRef, int] = {}
    for v in vertices:
        inc = incident[v]
        near = [e.q[0] if e.ends[0] == v else e.q[1] for e in inc]
        yield from _coprime_diagnostics(v, inc, near)
        down = parent_edge[v]
        exceeding = 0
        top = None  # the maximum upward decoration
        for e, q, Q in zip(inc, near, products_but_one(near)):
            if e is down:
                q_up[v] = Q
                continue
            a, b = e.ends
            q_down[b if a == v else a] = Q
            if q < 1:
                yield ValidationDiagnostic(
                    5, (v, str(e)), f"upward decoration {q} is not positive"
                )
            elif q > 1:
                exceeding += 1
            if top is None or q > top:
                top = q
        if exceeding > 1:
            yield ValidationDiagnostic(5, (v,), "more than one upward decoration exceeds 1")
        dead = dead_ends.get(v)
        if dead is not None and top is not None:
            q = dead[0].q_near(v)
            if q != top:
                yield ValidationDiagnostic(
                    5,
                    (v, str(dead[0])),
                    f"dead-end decoration {q} is not the maximum {top}",
                )

    # The vertex-vertex edges are the parent edges of the vertices but the
    # root; the failing ones are sorted into the order of `tree.edges`.
    failing = []
    for w in vertices:
        e = parent_edge[w]
        if e is not None:
            det = e.q[0] * e.q[1] - q_up[w] * q_down[w]
            if det >= 0:
                failing.append((_EDGE_ORDER(e), e, det))
    for _, e, det in sorted(failing):
        yield ValidationDiagnostic(6, (str(e),), f"edge determinant {det} is not negative")
