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
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import TreeStructureError

VERTEX = "vertex"
ARROW = "arrow"

CellRef = str


# Cell and Edge are named tuples, built in about half the time of a frozen
# dataclass, whose __init__ sets each field through object.__setattr__; a
# parse builds one per cell and one per edge.  Their fields are read-only, and
# they hash, compare and sort as the tuple of their fields.


class Cell(NamedTuple):
    """One 0-dimensional cell: a vertex, or an arrow decorated 0 or 1."""

    id: CellRef
    kind: str
    arrow_decoration: int | None = None


class Edge(NamedTuple):
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


# A named tuple's own __new__ is a Python function that fills in defaults;
# `tuple.__new__(Cell, fields)` builds the same tuple in about half the time,
# where every field is at hand.
_new_tuple = tuple.__new__


def make_edge(a: CellRef, qa: int, b: CellRef, qb: int) -> Edge:
    """Build an edge decorated `qa` near `a` and `qb` near `b`."""
    if a <= b:
        return _new_tuple(Edge, ((a, b), (qa, qb)))
    return _new_tuple(Edge, ((b, a), (qb, qa)))


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
    never trusted from the input: `build_tree`'s breadth-first search sorts
    each cell into the vertices or the 0- or 1-arrows as it reaches it, and
    returns a tree only when every declared kind and decoration agrees.
    `vertices`, `arrows0` and `arrows1` are built from those lists on first
    use; they are the only state a tree gains, each a function of its
    fields.  Edge lookups and paths read the parent edges.  Whatever an
    analysis derives, dead ends and a-values included, is kept on the
    analysis.
    """

    cells: dict[CellRef, Cell]
    edges: tuple[Edge, ...]
    root: CellRef
    # The search's classification: the vertices in the order it expanded
    # them, the root first and every parent before its children, and the
    # (0)- and (1)-arrows in the order it reached them.
    _vertex_order: list[CellRef] = field(repr=False, compare=False)
    _arrows0: list[CellRef] = field(repr=False, compare=False)
    _arrows1: list[CellRef] = field(repr=False, compare=False)
    # Each cell's edges in sorted order and its parent edge.  The lists here
    # and below belong to the tree; readers must not change them.
    _incident: dict[CellRef, list[Edge]] = field(repr=False, compare=False)
    _parent_edge: dict[CellRef, Edge | None] = field(repr=False, compare=False)

    # -- basic sets ---------------------------------------------------------

    def cell_ids(self) -> list[CellRef]:
        return sorted(self.cells)

    @cached_property
    def vertices(self) -> frozenset[CellRef]:
        return frozenset(self._vertex_order)

    @cached_property
    def arrows0(self) -> frozenset[CellRef]:
        """Arrows decorated (0)."""
        return frozenset(self._arrows0)

    @cached_property
    def arrows1(self) -> frozenset[CellRef]:
        """Arrows decorated (1)."""
        return frozenset(self._arrows1)

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
        """The edge joining `a` and `b`: the parent edge of one of them."""
        ends = (a, b) if a <= b else (b, a)
        for c in ends:
            e = self._parent_edge.get(c)
            if e is not None and e.ends == ends:
                return e
        raise KeyError(f"no edge between {a!r} and {b!r}")

    # -- paths ----------------------------------------------------------------

    def parent(self, c: CellRef) -> CellRef | None:
        e = self._parent_edge[c]
        return None if e is None else e.other(c)

    def path(self, x: CellRef, y: CellRef) -> tuple[CellRef, ...]:
        """The unique simple path from `x` to `y`, as a cell sequence: `x`
        up to the root, then `y` up until it meets that walk."""
        if x not in self.cells or y not in self.cells:
            missing = x if x not in self.cells else y
            raise KeyError(f"unknown cell {missing!r}")
        up = {x: 0}
        c = self.parent(x)
        while c is not None:
            up[c] = len(up)
            c = self.parent(c)
        down = []
        while y not in up:
            down.append(y)
            y = self.parent(y)  # type: ignore[assignment]
        return (*list(up)[: up[y] + 1], *reversed(down))

    def path_edges(self, x: CellRef, y: CellRef) -> tuple[Edge, ...]:
        cells = self.path(x, y)
        return tuple(
            self.edge_between(cells[i], cells[i + 1]) for i in range(len(cells) - 1)
        )

    def connected(self, subset: Iterable[CellRef]) -> bool:
        """Whether every path between members of `subset` stays inside it: the
        members span a forest, which is one tree exactly when it has one edge
        fewer than it has members, each edge counted at its end away from the
        root."""
        members = set(subset)
        for c in members:
            if c not in self.cells:
                raise KeyError(f"unknown cell {c!r}")
        edges = sum(1 for c in members if self.parent(c) in members)
        return not members or edges == len(members) - 1


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
    unless the edges came sorted, orients the tree, records the order it
    reaches the cells in, and classifies each cell as a vertex or a 0- or
    1-arrow, checking its declared kind and decoration against that; a
    given cell that passes is kept as it is, and `cells` lists them by id.
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

    # Each cell's edges are in the order of `edge_list`, so when that is
    # sorted, as in a canonical document, so are they.
    sorted_edges = sorted(edge_list)
    resort = sorted_edges != edge_list

    # Breadth-first from the root: each cell is reached through its parent
    # edge and its other edges lead to its children, unless the graph is not
    # a tree, which the counts detect.  A cell reached with one edge is an
    # arrow; the others are vertices, expanded in the order reached.
    parent_edge: dict[CellRef, Edge | None] = {root: None}
    vertices = [root]
    arrows0: list[CellRef] = []
    arrows1: list[CellRef] = []
    misfits: list[CellRef] = []  # cells whose declaration disagrees
    for c in vertices:
        _, kind, deco = by_id[c]
        if kind != VERTEX or deco is not None:
            misfits.append(c)
        inc = incident[c]
        if resort:
            inc.sort()
        for e in inc:
            a, b = e.ends
            d = b if a == c else a
            if d in parent_edge:
                continue
            parent_edge[d] = e
            if len(incident[d]) != 1:
                vertices.append(d)
                continue
            _, kind, deco = by_id[d]
            if kind != ARROW:
                misfits.append(d)
            elif deco == 1:
                arrows1.append(d)
            elif deco == 0:
                arrows0.append(d)
            else:
                misfits.append(d)
    if len(parent_edge) != len(by_id):
        missing = sorted(set(by_id) - set(parent_edge))
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

    # `cells` lists the cells by id; a canonical document gives them so
    ids = sorted(by_id)
    if ids != list(by_id):
        by_id = {cid: by_id[cid] for cid in ids}
    return DecoratedRootedTree(
        cells=by_id,
        edges=tuple(sorted_edges),
        root=root,
        _vertex_order=vertices,
        _arrows0=arrows0,
        _arrows1=arrows1,
        _incident=incident,
        _parent_edge=parent_edge,
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

    Axioms 1, 2, 4 and 5 list their diagnostics by cell id, axiom 5 then in
    incidence order; axiom 3 in incidence order at the root, and axiom 6 in
    the order of `tree.edges`.

    Cost, for n cells, apart from the arithmetic on large decorations: O(n),
    with one visit per arrow and one per vertex, in the orders of the
    search that classified them, and a sort of only the cells and edges
    that fail.  An arrow's visit reads the decoration near it (axiom 4); a
    (1)-arrow's walks up until a covered cell, so each cell is passed once
    (axiom 1); a (0)-arrow's files its edge as a dead end of its parent
    (axioms 2 and 5).  A vertex's visit reads its decorations once, O(deg),
    with builtins over the list of them; "upward" is every edge but the
    parent edge.  Axiom 5's coprimality clause can fail only where two
    decorations are other than +-1 (0 is not), so only there are those k
    decorations tested, O(k) when they pass and O(k^2) when one pair fails.
    The visit also keeps the vertex's product of nonzero decorations and
    count of zero ones, from which axiom 6 takes the Q value at the parent's
    end of each child's edge in O(1); every parent is visited before its
    children.  A vertex that fails a clause of axiom 5 is read again, edge
    by edge, for its diagnostics.  The diagnostics themselves can outnumber
    the cells only through axiom 5's pairs; they are yielded one at a time,
    so memory stays O(n) however many there are.
    """
    root = tree.root
    parent_edge = tree._parent_edge
    incident = tree._incident
    vertex_order = tree._vertex_order

    # One visit per arrow: axiom 4 reads the decoration near it, a
    # (1)-arrow starts axiom 1's walk, and the edge of a (0)-arrow, a leaf,
    # is a dead end of its parent.  The walk goes up until a covered cell:
    # the covered set is closed under going down towards the root, so its
    # ancestors are too, and it is the same whichever arrow goes first.
    covered: set[CellRef] = set()
    dead_ends: dict[CellRef, list[Edge]] = {}
    unmarked = []
    for alpha in tree._arrows1:
        (a, b), (qa, qb) = parent_edge[alpha]
        if a == alpha:
            c, q = b, qa
        else:
            c, q = a, qb
        if q != 1:
            unmarked.append(alpha)
        while c not in covered:
            covered.add(c)
            e = parent_edge[c]
            if e is None:
                break
            a, b = e[0]
            c = b if a == c else a
    for alpha in tree._arrows0:
        e = parent_edge[alpha]
        (a, b), (qa, qb) = e
        if a == alpha:
            v, q = b, qa
        else:
            v, q = a, qb
        if q != 1:
            unmarked.append(alpha)
        dead_ends.setdefault(v, []).append(e)

    # every covered cell is a vertex
    if len(covered) < len(vertex_order):
        for v in sorted(set(vertex_order).difference(covered)):
            yield ValidationDiagnostic(1, (v,), "no arrow decorated (1) above this vertex")

    # sorted, a vertex's dead ends are in incidence order
    for v in sorted(v for v, dead in dead_ends.items() if len(dead) > 1):
        dead = dead_ends[v]
        dead.sort()
        yield ValidationDiagnostic(
            2, (v,), f"{len(dead)} dead ends incident to one vertex"
        )

    for e in incident[root]:
        if e.q_near(root) != 1:
            yield ValidationDiagnostic(
                3, (str(e), root), f"decoration near root is {e.q_near(root)}, not 1"
            )

    for alpha in sorted(unmarked):
        e = parent_edge[alpha]
        yield ValidationDiagnostic(
            4, (str(e), alpha), f"decoration near arrow is {e.q_near(alpha)}, not 1"
        )

    # Each vertex after its parent: its product of nonzero decorations and
    # count of zero ones give the Q values of axiom 6 at its end of the
    # edges to its children.  The vertex-vertex edges are the parent edges
    # of the vertices but the root.
    nonzero: dict[CellRef, int] = {}
    zeros: dict[CellRef, int] = {}
    failing = []
    failing_edges = []
    for v in vertex_order:
        inc = incident[v]
        near = [q0 if a == v else q1 for (a, _), (q0, q1) in inc]
        zeros[v] = z = near.count(0)
        nonzero[v] = math.prod(filter(None, near)) if z else math.prod(near)
        down = parent_edge[v]
        if down is None:
            up = near
        else:
            up = near.copy()
            del up[inc.index(down)]
            (a, b), (qa, qb) = down
            if a == v:
                u, qu = b, qb
            else:
                u, qu = a, qa
            det = qa * qb - math.prod(up) * _Q(nonzero[u], zeros[u], qu)
            if det >= 0:
                failing_edges.append((down, det))
        if up:
            dead = dead_ends.get(v)
            if min(up) < 1 or len(up) - up.count(1) > 1 or (
                dead is not None and dead[0].q_near(v) != max(up)
            ):
                failing.append(v)
                continue
        if len(near) - near.count(1) - near.count(-1) > 1 and not pairwise_coprime(
            q for q in near if q != 1 and q != -1
        ):
            failing.append(v)
    for v in sorted(failing):
        yield from _axiom5_diagnostics(v, incident[v], parent_edge[v], dead_ends.get(v))

    # in the order of `tree.edges`
    for e, det in sorted(failing_edges):
        yield ValidationDiagnostic(6, (str(e),), f"edge determinant {det} is not negative")


def _Q(nonzero: int, zeros: int, q: int) -> int:
    """The product of a cell's decorations but one, `q`, from the product of
    its nonzero decorations and the count of its zero ones."""
    if q == 0:
        return 0 if zeros > 1 else nonzero
    return 0 if zeros else nonzero // q


def _axiom5_diagnostics(
    v: CellRef, inc: Sequence[Edge], down: Edge | None, dead: Sequence[Edge] | None
) -> Iterator[ValidationDiagnostic]:
    """Axiom 5's diagnostics at `v`, whose edges are `inc` with parent edge
    `down` and dead ends `dead`."""
    near = [e.q[0] if e.ends[0] == v else e.q[1] for e in inc]
    yield from _coprime_diagnostics(v, inc, near)
    exceeding = 0
    top = None  # the maximum upward decoration
    for e, q in zip(inc, near):
        if e is down:
            continue
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
    if dead is not None and top is not None:
        q = dead[0].q_near(v)
        if q != top:
            yield ValidationDiagnostic(
                5,
                (v, str(dead[0])),
                f"dead-end decoration {q} is not the maximum {top}",
            )
