"""Parse and serialize the `.ntree` file format; DOT export; fixture corpus.

An `.ntree` document is JSON with the exact keys of the in-memory model:

    {
      "root": "v0",
      "cells": [{"id": "u", "kind": "vertex"},
                {"id": "t1", "kind": "arrow", "decoration": 1}],
      "edges": [{"ends": ["u", "v0"], "q": [0, 1]}]
    }

`q[i]` decorates `ends[i]`.  Serialization is canonical: cells sorted by id,
edges by their sorted end pair, so `parse(serialize(t))` reproduces `t` and
`serialize` is byte-deterministic.  File decorations must fit in a signed
64-bit integer even though internal arithmetic is unbounded.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import ParseError
from .multiplicity import source_multiplicities
from .tree_model import (
    ARROW,
    VERTEX,
    Cell,
    DecoratedRootedTree,
    Edge,
    build_tree,
    make_edge,
)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _expect_int(value: Any, where: str) -> int:
    # bool is an int subclass; reject it explicitly along with floats/strings
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    if not (_I64_MIN <= value <= _I64_MAX):
        raise ParseError(f"{where}: decoration {value} exceeds signed 64-bit range")
    return value


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    return value


def parse(text: str) -> DecoratedRootedTree:
    """Parse an `.ntree` document.

    Syntax errors carry the line/column of the JSON decoder; shape errors
    carry the JSON path of the offending entry.  Semantic errors (not a tree,
    bad classification, ...) propagate from :func:`build_tree`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("document: JSON nested too deeply") from exc

    if not isinstance(doc, dict):
        raise ParseError("document: expected a JSON object")
    for key in ("root", "cells", "edges"):
        if key not in doc:
            raise ParseError(f"document: missing key {key!r}")
    unknown = sorted(set(doc) - {"root", "cells", "edges"})
    if unknown:
        raise ParseError(f"document: unknown keys {unknown}")

    root = _expect_str(doc["root"], "root")
    if not isinstance(doc["cells"], list):
        raise ParseError("cells: expected a list")
    if not isinstance(doc["edges"], list):
        raise ParseError("edges: expected a list")

    cells: list[Cell] = []
    for i, raw in enumerate(doc["cells"]):
        where = f"cells[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        cid = _expect_str(raw.get("id"), f"{where}.id")
        kind = _expect_str(raw.get("kind"), f"{where}.kind")
        if kind not in (VERTEX, ARROW):
            raise ParseError(f"{where}.kind: expected 'vertex' or 'arrow', got {kind!r}")
        deco = None
        if "decoration" in raw:
            deco = _expect_int(raw["decoration"], f"{where}.decoration")
            if deco not in (0, 1):
                raise ParseError(f"{where}.decoration: expected 0 or 1, got {deco}")
        if kind == ARROW and deco is None:
            raise ParseError(f"{where}: arrow cell is missing its 0/1 decoration")
        if kind == VERTEX and deco is not None:
            raise ParseError(f"{where}: vertex cell must not carry a decoration")
        extra = sorted(set(raw) - {"id", "kind", "decoration"})
        if extra:
            raise ParseError(f"{where}: unknown keys {extra}")
        cells.append(Cell(cid, kind, deco))

    edges: list[Edge] = []
    for i, raw in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        ends = raw.get("ends")
        q = raw.get("q")
        if not (isinstance(ends, list) and len(ends) == 2):
            raise ParseError(f"{where}.ends: expected a pair of cell ids")
        if not (isinstance(q, list) and len(q) == 2):
            raise ParseError(f"{where}.q: expected a pair of integers")
        a = _expect_str(ends[0], f"{where}.ends[0]")
        b = _expect_str(ends[1], f"{where}.ends[1]")
        qa = _expect_int(q[0], f"{where}.q[0]")
        qb = _expect_int(q[1], f"{where}.q[1]")
        extra = sorted(set(raw) - {"ends", "q"})
        if extra:
            raise ParseError(f"{where}: unknown keys {extra}")
        edges.append(make_edge(a, qa, b, qb))

    return build_tree(cells, edges, root)


def to_document(tree: DecoratedRootedTree) -> dict[str, Any]:
    """The canonical JSON-compatible document for `tree`."""
    cells = []
    for cid in tree.cell_ids():
        cell = tree.cells[cid]
        entry: dict[str, Any] = {"id": cid, "kind": cell.kind}
        if cell.kind == ARROW:
            entry["decoration"] = cell.arrow_decoration
        cells.append(entry)
    edges = [
        {"ends": [e.ends[0], e.ends[1]], "q": [e.q[0], e.q[1]]}
        for e in sorted(tree.edges)
    ]
    return {"root": tree.root, "cells": cells, "edges": edges}


def serialize(tree: DecoratedRootedTree) -> str:
    """Canonical `.ntree` text (deterministic; file-range decorations enforced)."""
    for e in tree.edges:
        for q in e.q:
            if not (_I64_MIN <= q <= _I64_MAX):
                raise ValueError(f"decoration {q} on {e} exceeds the file format range")
    return json.dumps(to_document(tree), indent=2) + "\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_escape(text: str) -> str:
    """`text` fit to stand between double quotes in DOT."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(tree: DecoratedRootedTree, report: Any = None) -> str:
    """Graphviz text for `tree`: filled circles are dicriticals, open circles
    other vertices, and 0/1-decorated arrowheads the arrows.  Each edge shows
    its two decorations; with a `report`, vertices also show N and the local
    genus defect.  Cell ids are escaped wherever they are quoted.
    """
    if report is not None:
        n_of = report.table.N
        dt_of = {v: d.delta_tilde for v, d in report.ledger.per_vertex.items()}
    else:
        n_of = source_multiplicities(tree, tree.arrows1)[0]
        dt_of = {}

    lines = ["digraph ntree {"]
    lines.append('  graph [rankdir=LR];')
    lines.append('  node [fontsize=10];')
    lines.append('  edge [dir=none, fontsize=8];')
    for cid in tree.cell_ids():
        cell = tree.cells[cid]
        quoted = _dot_escape(cid)
        if cell.kind == ARROW:
            lines.append(
                f'  "{quoted}" [shape=none, label="({cell.arrow_decoration})"];'
            )
            continue
        label = quoted
        if cid in n_of:
            label += f"\\nN={n_of[cid]}"
        if cid in dt_of:
            label += f"\\ndt={dt_of[cid]}"
        if n_of.get(cid) == 0:
            lines.append(
                f'  "{quoted}" [shape=circle, style=filled, fillcolor=black,'
                f' fontcolor=white, label="{label}"];'
            )
        else:
            lines.append(f'  "{quoted}" [shape=circle, label="{label}"];')
    for e in sorted(tree.edges):
        a, b = e.ends
        attrs = [f'taillabel="{e.q[0]}"', f'headlabel="{e.q[1]}"']
        if tree.is_arrow(b):
            attrs += ["dir=forward", "arrowhead=normal"]
        elif tree.is_arrow(a):
            # orient toward the arrow cell
            a, b = b, a
            attrs = [f'taillabel="{e.q[1]}"', f'headlabel="{e.q[0]}"']
            attrs += ["dir=forward", "arrowhead=normal"]
        a, b = _dot_escape(a), _dot_escape(b)
        lines.append(f'  "{a}" -> "{b}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


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
    """The named fixtures shipped with the repository."""
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
