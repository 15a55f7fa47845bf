"""Cell multiplicities, the tree multiplicity, and the dicritical classification.

For a cell v and a (1)-arrow b, x(v,b) is the product of the decorations,
taken near the path from v to b, of all edges incident to but not in that
path; the hatted variant drops the edges incident to v itself.  N_v sums
x(v,b) over all (1)-arrows.  Multiplicity tables are computed with one
product-carrying walk per source cell so shared path prefixes are not
recomputed; the oracle module recomputes everything per arrow.  Each visit
costs O(deg): the product over the other outgoing edges comes from prefix
and suffix products, and edges are compared by identity (a tree holds one
`Edge` object per edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .tree_model import CellRef, DecoratedRootedTree, Edge, products_but_one


@dataclass(frozen=True)
class MultiplicityTable:
    """N over vertices and (0)-arrows, the x/x-hat tables, M(T), and the
    number of points at infinity."""

    N: Mapping[CellRef, int]
    x: Mapping[tuple[CellRef, CellRef], int]
    x_hat: Mapping[tuple[CellRef, CellRef], int]
    M_of_T: int
    points_at_infinity: int


def multiplicities(tree: DecoratedRootedTree) -> MultiplicityTable:
    """Compute the full multiplicity table for a structurally valid tree.

    The dead-end relation N_v = q(e,v) * N_alpha is not re-checked here; the
    audit check `dead-end-multiplicity` owns it.
    """
    sources = sorted(tree.vertices | tree.arrows0)
    ones = tree.arrows1
    x: dict[tuple[CellRef, CellRef], int] = {}
    x_hat: dict[tuple[CellRef, CellRef], int] = {}

    for v in sources:
        # One walk from v visits every path prefix exactly once, carrying the
        # product of decorations contributed by the cells already passed.
        stack: list[tuple[CellRef, Edge | None, int, int]] = [(v, None, 1, 1)]
        while stack:
            c, e_in, full, hat = stack.pop()
            if c in ones:
                x[(v, c)] = full
                x_hat[(v, c)] = hat
                continue
            outgoing = [e for e in tree.incident_edges(c) if e is not e_in]
            heres = products_but_one([e.q_near(c) for e in outgoing])
            for e_out, here in zip(outgoing, heres):
                d = e_out.other(c)
                if c == v:
                    stack.append((d, e_out, full * here, hat))
                else:
                    stack.append((d, e_out, full * here, hat * here))

    N = {v: sum(x[(v, b)] for b in ones) for v in sources}
    M = -sum(N[v] * (tree.valency(v) - 2) for v in sources)

    root = tree.root
    points = tree.valency(root) - (1 if tree.dead_ends(root) else 0)

    return MultiplicityTable(
        N=N, x=x, x_hat=x_hat, M_of_T=M, points_at_infinity=points
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


def classify(
    tree: DecoratedRootedTree, table: MultiplicityTable | None = None
) -> DicriticalInfo:
    """Genericity, completeness and minimal completeness of a validated tree."""
    if table is None:
        table = multiplicities(tree)
    reasons: list[str] = []

    dicriticals = frozenset(v for v in tree.vertices if table.N[v] == 0)
    degree = {
        u: sum(1 for n in tree.neighbors(u) if n in tree.arrows1)
        for u in sorted(dicriticals)
    }

    generic = True
    for v in sorted(tree.vertices):
        if table.N[v] < 0:
            generic = False
            reasons.append(f"vertex {v!r} has negative multiplicity {table.N[v]}")

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
