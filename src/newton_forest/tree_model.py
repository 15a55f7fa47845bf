"""Immutable decorated rooted trees with axiom validation and primitive queries.

Cells are either vertices or arrows; arrows carry a 0/1 decoration and every
edge carries one integer decoration near each of its two ends.  A validated
tree satisfies six axioms (see :func:`validate_axioms`); all analyses in the
other modules assume a validated tree.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import TreeStructureError

VERTEX = "vertex"
ARROW = "arrow"

CellRef = str


@dataclass(frozen=True)
class Cell:
    """One 0-dimensional cell: a vertex, or an arrow decorated 0 or 1."""

    id: CellRef
    kind: str
    arrow_decoration: int | None = None


@dataclass(frozen=True, order=True)
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
    _incident: dict[CellRef, tuple[Edge, ...]] = field(repr=False, compare=False)
    _parent_edge: dict[CellRef, Edge | None] = field(repr=False, compare=False)
    _depth: dict[CellRef, int] = field(repr=False, compare=False)
    _edge_to: dict[CellRef, dict[CellRef, Edge]] = field(repr=False, compare=False)
    # Q(e, c) for the edges e = {c, d} at c, as _Q_rows[c][d]; see `Q`.
    _Q_rows: dict[CellRef, dict[CellRef, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    def incident_edges(self, c: CellRef) -> tuple[Edge, ...]:
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
        qs = products_but_one([e.q_near(c) for e in inc])
        return {e.other(c): q for e, q in zip(inc, qs)}

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
    """
    problems: list[str] = []
    cell_list = list(cells)
    edge_input = list(edges)

    by_id: dict[CellRef, Cell] = {}
    for cell in cell_list:
        if cell.id in by_id:
            problems.append(f"duplicate cell id {cell.id!r}")
        by_id[cell.id] = cell
    if root not in by_id:
        problems.append(f"root {root!r} is not a cell")

    seen_pairs: set[tuple[CellRef, CellRef]] = set()
    incident: dict[CellRef, list[Edge]] = {c: [] for c in by_id}
    for e in edge_input:
        a, b = e.ends
        if a == b:
            problems.append(f"self-loop at {a!r}")
            continue
        if a not in by_id or b not in by_id:
            problems.append(f"edge {e} mentions an unknown cell")
            continue
        if e.ends in seen_pairs:
            problems.append(f"not a tree: duplicate edge {e}")
            continue
        seen_pairs.add(e.ends)
        incident[a].append(e)
        incident[b].append(e)

    if problems:
        raise TreeStructureError(problems)

    if len(seen_pairs) != len(by_id) - 1:
        problems.append(
            f"not a tree: {len(by_id)} cells need {len(by_id) - 1} edges, got {len(seen_pairs)}"
        )

    # Rooted orientation by BFS; detects disconnection.
    parent_edge: dict[CellRef, Edge | None] = {root: None}
    depth: dict[CellRef, int] = {root: 0}
    queue = deque([root])
    while queue:
        c = queue.popleft()
        for e in incident[c]:
            d = e.other(c)
            if d not in depth:
                depth[d] = depth[c] + 1
                parent_edge[d] = e
                queue.append(d)
    if len(depth) != len(by_id):
        missing = sorted(set(by_id) - set(depth))
        problems.append(f"disconnected: unreachable cells {missing}")
    if problems:
        raise TreeStructureError(problems)

    # Reclassify cells from valencies; cross-check the declared kinds.
    final: dict[CellRef, Cell] = {}
    for cid in sorted(by_id):
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
            final[cid] = Cell(cid, ARROW, declared.arrow_decoration)
        else:
            if declared.arrow_decoration is not None:
                problems.append(f"vertex {cid!r} carries an arrow decoration")
            final[cid] = Cell(cid, VERTEX)
    if problems:
        raise TreeStructureError(problems)

    incident_sorted = {c: tuple(sorted(es, key=_EDGE_ORDER)) for c, es in incident.items()}
    return DecoratedRootedTree(
        cells=final,
        edges=tuple(sorted(edge_input, key=_EDGE_ORDER)),
        root=root,
        _incident=incident_sorted,
        _parent_edge=parent_edge,
        _depth=depth,
        _edge_to={
            c: {e.other(c): e for e in es} for c, es in incident_sorted.items()
        },
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
    v: CellRef, inc: tuple[Edge, ...]
) -> Iterator[ValidationDiagnostic]:
    """Axiom 5's coprimality clause at `v`, one diagnostic per failing pair.

    A decoration of +-1 is coprime to everything, so only the others are
    paired, in incidence order.  When they are pairwise coprime the pair
    loop is skipped; otherwise each edge is named once, not once per pair.
    """
    big = [(e, e.q_near(v)) for e in inc if abs(e.q_near(v)) != 1]
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

    The list of :func:`iter_axiom_diagnostics`, in its order.
    """
    return list(iter_axiom_diagnostics(tree))


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

    Cost, for n cells, apart from sorting the cell ids and the arithmetic
    on large decorations: axiom 1 walks up from each (1)-arrow and stops at
    the first cell already covered, so each cell is passed once, O(n).
    Axioms 2-4 read each incidence once, O(n).  Axiom 5 decides "upward"
    from the parent pointers, O(deg) per vertex; its coprimality clause
    pairs only the k decorations other than +-1, O(k) when they pass and
    O(k^2) when one pair fails.  Axiom 6 reads both Q values from
    prefix/suffix products made once per vertex by `Q_row`, O(n).  The
    diagnostics themselves can outnumber the cells only through axiom 5's
    pairs; they are yielded one at a time, so memory stays O(n) however
    many there are.
    """
    root = tree.root
    parent_edge = tree._parent_edge

    # Walk up from each (1)-arrow until a covered cell: the covered set is
    # closed under going down towards the root, so its ancestors are too.
    covered: set[CellRef] = set()
    for alpha in sorted(tree.arrows1):
        c = tree.parent(alpha)
        while c is not None and c not in covered:
            covered.add(c)
            c = tree.parent(c)
    for v in sorted(tree.vertices):
        if v not in covered:
            yield ValidationDiagnostic(1, (v,), "no arrow decorated (1) above this vertex")

    for v in sorted(tree.vertices):
        dead = tree.dead_ends(v)
        if len(dead) > 1:
            yield ValidationDiagnostic(
                2, (v,), f"{len(dead)} dead ends incident to one vertex"
            )

    for e in tree.incident_edges(root):
        if e.q_near(root) != 1:
            yield ValidationDiagnostic(
                3, (str(e), root), f"decoration near root is {e.q_near(root)}, not 1"
            )

    for alpha in sorted(tree.arrows):
        (e,) = tree.incident_edges(alpha)
        if e.q_near(alpha) != 1:
            yield ValidationDiagnostic(
                4, (str(e), alpha), f"decoration near arrow is {e.q_near(alpha)}, not 1"
            )

    for v in sorted(tree.vertices):
        inc = tree.incident_edges(v)
        yield from _coprime_diagnostics(v, inc)
        upward = [e for e in inc if parent_edge[e.other(v)] is e]
        big = [e for e in upward if e.q_near(v) > 1]
        for e in upward:
            if e.q_near(v) < 1:
                yield ValidationDiagnostic(
                    5, (v, str(e)), f"upward decoration {e.q_near(v)} is not positive"
                )
        if len(big) > 1:
            yield ValidationDiagnostic(5, (v,), "more than one upward decoration exceeds 1")
        dead = tree.dead_ends(v)
        if dead and upward:
            mx = max(e.q_near(v) for e in upward)
            if dead[0].q_near(v) != mx:
                yield ValidationDiagnostic(
                    5,
                    (v, str(dead[0])),
                    f"dead-end decoration {dead[0].q_near(v)} is not the maximum {mx}",
                )

    # Rows kept only for this check, so a tree that is only validated
    # carries no Q table.
    rows = {x: tree.Q_row(x) for x in tree.vertices}
    for e in tree.iter_vertex_edges():
        x, y = e.ends
        det = e.q[0] * e.q[1] - rows[x][y] * rows[y][x]
        if det >= 0:
            yield ValidationDiagnostic(6, (str(e),), f"edge determinant {det} is not negative")
