"""Parse and serialize the `.ntree` file format; DOT export.

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

`parse` decodes the text with `json.loads`, shape-checks the cells in one
loop and the edges in another, and hands the `Cell`s and `Edge`s it made to
`build_tree`, which keeps them.  Every malformed document is a `ParseError`
naming the first fault in document order, including an integer literal too
long for the interpreter to convert and a cell id (root, cell or edge end)
that cannot be written as UTF-8; a well-formed one that is not a tree is a
`TreeStructureError`.

`json_text` is the one JSON writer of the program: `serialize` writes the
tree with it in document order (root, cells, edges), and the CLI writes its
key-sorted JSON reports, whose `tree` section is the tree itself, with it.
Its output is byte-identical to `json.dumps(doc, indent=2, sort_keys=...)`,
where a tree stands for its canonical document (`to_document`): the key
order and the depth fix the text of every cell and edge but its values, so
the writer fills one template per cell and per edge from the tree, and one
per list of flat rows, such as a report's audit rows.
"""

from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager
from typing import Any, Iterator

from .errors import ParseError
from .multiplicity import multiplicities
from .tree_model import (
    ARROW,
    VERTEX,
    Cell,
    CellRef,
    DecoratedRootedTree,
    Edge,
    build_tree,
    make_edge,
)

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


def _utf8(text: str) -> bool:
    """Whether `text` can be written out as UTF-8.  A JSON escape such as
    \\ud800 decodes to a lone surrogate, which no UTF-8 stream can carry."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _string_error(where: str, value: Any) -> ParseError:
    if type(value) is str:
        return ParseError(f"{where}: expected a string encodable as UTF-8, got {value!r}")
    return ParseError(f"{where}: expected a string, got {value!r}")


def _int_error(where: str, value: Any) -> ParseError:
    """The error for a value that is not an integer in the signed 64-bit
    range.  A JSON true/false decodes to bool, an int subclass, which
    `type(value) is int` rejects along with floats and strings."""
    if type(value) is not int:
        return ParseError(f"{where}: expected an integer, got {value!r}")
    return ParseError(f"{where}: decoration {value} exceeds signed 64-bit range")


def _unknown_keys_error(where: str, raw: dict, known: set[str]) -> ParseError:
    return ParseError(f"{where}: unknown keys {sorted(set(raw) - known)}")


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, then restore it as it was."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def parse(text: str) -> DecoratedRootedTree:
    """Parse an `.ntree` document.

    Syntax errors carry the line/column of the JSON decoder; shape errors
    carry the JSON path of the offending entry, the first in document order
    (cells before edges, each entry's fields in the order `_read_document`
    tests them).  Semantic errors (not a tree, bad classification, ...)
    propagate from :func:`build_tree`, which reads the lists of checked
    `Cell`s and `Edge`s that `_read_document` makes, so a shape error
    anywhere wins over every semantic one.  Handing `build_tree` generators
    that check each entry as it is read, with no lists between, measured
    slower: resuming a generator once per entry costs more than appending
    to a list and reading it back.

    The cyclic garbage collector is paused meanwhile (`collector_paused`).
    Neither the decoded document nor the tree holds a reference cycle, so a
    collection would free none of their objects, yet each full one walks
    every object alive, and a tree of n cells allocates enough objects to
    set off several: on a 48k-cell file they took about a third of the time.
    """
    with collector_paused():
        # the decoded document is dropped on return, before the tree is built
        cells, edges, root = _read_document(text)
        return build_tree(cells, edges, root)


def _read_document(text: str) -> tuple[list[Cell], list[Edge], CellRef]:
    """The cells, edges and root of an `.ntree` document, shape-checked.

    The entries come from `json.loads`, so each value is exactly a dict,
    list, str, int, float, bool or None, and `type(x) is ...` tests its
    shape.  An entry's JSON path and its list of unknown keys are written
    only when it fails: it has an unknown key exactly when it has more keys
    than its kind allows.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("document: JSON nested too deeply") from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter converts to int
        raise ParseError(
            "document: integer literal exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc

    if type(doc) is not dict:
        raise ParseError("document: expected a JSON object")
    for key in ("root", "cells", "edges"):
        if key not in doc:
            raise ParseError(f"document: missing key {key!r}")
    if len(doc) != 3:
        raise _unknown_keys_error("document", doc, {"root", "cells", "edges"})

    root, raw_cells, raw_edges = doc["root"], doc["cells"], doc["edges"]
    if type(root) is not str or not (root.isascii() or _utf8(root)):
        raise _string_error("root", root)
    if type(raw_cells) is not list:
        raise ParseError("cells: expected a list")
    if type(raw_edges) is not list:
        raise ParseError("edges: expected a list")

    new_tuple = tuple.__new__  # see `tree_model.make_edge`
    cells: list[Cell] = []
    add_cell = cells.append
    for i, raw in enumerate(raw_cells):
        if type(raw) is not dict:
            raise ParseError(f"cells[{i}]: expected an object")
        cid = raw.get("id")
        if type(cid) is not str or not (cid.isascii() or _utf8(cid)):
            raise _string_error(f"cells[{i}].id", cid)
        kind = raw.get("kind")
        if kind == VERTEX and len(raw) == 2:  # exactly the keys id and kind
            add_cell(new_tuple(Cell, (cid, VERTEX, None)))
            continue
        if kind != VERTEX and kind != ARROW:
            if type(kind) is not str:
                raise _string_error(f"cells[{i}].kind", kind)
            raise ParseError(f"cells[{i}].kind: expected 'vertex' or 'arrow', got {kind!r}")
        deco = raw.get("decoration")
        if deco is not None or "decoration" in raw:
            if type(deco) is not int or not _I64_MIN <= deco <= _I64_MAX:
                raise _int_error(f"cells[{i}].decoration", deco)
            if deco != 0 and deco != 1:
                raise ParseError(f"cells[{i}].decoration: expected 0 or 1, got {deco}")
            if kind == VERTEX:
                raise ParseError(f"cells[{i}]: vertex cell must not carry a decoration")
        elif kind == ARROW:
            raise ParseError(f"cells[{i}]: arrow cell is missing its 0/1 decoration")
        # a vertex reaches this line only with a key besides id and kind
        if kind == VERTEX or len(raw) != 3:
            raise _unknown_keys_error(f"cells[{i}]", raw, {"id", "kind", "decoration"})
        add_cell(new_tuple(Cell, (cid, ARROW, deco)))

    edges: list[Edge] = []
    add_edge = edges.append
    for i, raw in enumerate(raw_edges):
        if type(raw) is not dict:
            raise ParseError(f"edges[{i}]: expected an object")
        ends, q = raw.get("ends"), raw.get("q")
        if type(ends) is not list or len(ends) != 2:
            raise ParseError(f"edges[{i}].ends: expected a pair of cell ids")
        if type(q) is not list or len(q) != 2:
            raise ParseError(f"edges[{i}].q: expected a pair of integers")
        a, b = ends
        if type(a) is not str or not (a.isascii() or _utf8(a)):
            raise _string_error(f"edges[{i}].ends[0]", a)
        if type(b) is not str or not (b.isascii() or _utf8(b)):
            raise _string_error(f"edges[{i}].ends[1]", b)
        qa, qb = q
        if type(qa) is not int or not _I64_MIN <= qa <= _I64_MAX:
            raise _int_error(f"edges[{i}].q[0]", qa)
        if type(qb) is not int or not _I64_MIN <= qb <= _I64_MAX:
            raise _int_error(f"edges[{i}].q[1]", qb)
        if len(raw) != 2:
            raise _unknown_keys_error(f"edges[{i}]", raw, {"ends", "q"})
        add_edge(make_edge(a, qa, b, qb))

    return cells, edges, root


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
    return json_text(tree, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# JSON text
#
# On Python 3.11 `json.dumps` leaves its C encoder whenever `indent` is set
# and writes every token through generators in Python, which cost about twice
# what the loops below do.  The strings still go through the C quoting
# function that `json.dumps` uses for `ensure_ascii`.

_quote = json.encoder.encode_basestring_ascii

# The text of a scalar by its exact type; a bool indexes the pair.
_SCALAR_TEXT = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def json_text(value: Any, *, sort_keys: bool) -> str:
    """`json.dumps(value, indent=2, sort_keys=sort_keys)`, byte for byte, for
    a value built of dicts with str keys, lists, strs, ints, bools and None,
    each of exactly that type.  Any other type raises `TypeError`; a tuple
    too, which `json.dumps` would write as a list.  Reports sort their keys;
    `.ntree` documents keep theirs in document order.

    A `DecoratedRootedTree` anywhere in the value is written as its
    canonical document, the text `to_document(tree)` would give at the same
    depth, with one formatted string per cell and per edge (`_tree_text`).
    """
    chunks: list[str] = []
    _write(value, "\n", sort_keys, chunks.append)
    return "".join(chunks)


def _write(value: Any, newline: str, sort_keys: bool, put) -> None:
    text_of = _SCALAR_TEXT.get(type(value))
    if text_of is not None:
        put(text_of(value))
        return
    if type(value) is dict:
        keys = sorted(value) if sort_keys else value
        opening, closing = "{", "}"
    elif type(value) is list:
        text = value and type(value[0]) is dict and _rows_text(value, newline, sort_keys)
        if text:
            put(text)
            return
        keys = None
        opening, closing = "[", "]"
    elif type(value) is DecoratedRootedTree:
        put(_tree_text(value, newline, sort_keys))
        return
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        put(opening + closing)
        return
    inner = newline + "  "
    sep, comma = opening + inner, "," + inner
    for item in value if keys is None else keys:
        if keys is not None:
            if type(item) is not str:
                raise TypeError(f"keys must be str, not {type(item).__name__}")
            sep = f"{sep}{_quote(item)}: "
            item = value[item]
        text_of = _SCALAR_TEXT.get(type(item))
        if text_of is None:
            put(sep)
            _write(item, inner, sort_keys, put)
        else:
            put(sep + text_of(item))
        sep = comma
    put(newline + closing)


def _rows_text(rows: list, newline: str, sort_keys: bool) -> str | None:
    """The text `_write` gives for `rows` closed at `newline` if they are flat:
    dicts with the first row's str keys, in its order, and scalar values.
    The keys and the depth fix a flat row's text but its values, so the list
    is one %-template filled with the texts of all the values at once.  None
    for any other list."""
    order = list(rows[0])
    if (
        set(map(type, rows)) != {dict}
        or set(map(type, order)) != {str}
        or not all(map(order.__eq__, map(list, rows)))
    ):
        return None
    keys = sorted(order) if sort_keys else order
    try:  # a value that is not a scalar raises
        texts = [_SCALAR_TEXT[type(v)](v) for v in [row[k] for row in rows for k in keys]]
    except KeyError:
        return None
    inner = newline + "  "
    row = "{" + ",".join([f"{inner}  {_quote(k).replace('%', '%%')}: %s" for k in keys])
    template = ("," + inner).join([row + inner + "}"] * len(rows))
    return "[" + inner + template % tuple(texts) + newline + "]"


def _tree_text(tree: DecoratedRootedTree, newline: str, sort_keys: bool) -> str:
    """The text `_write` gives for `to_document(tree)` closed at `newline`.

    The key order and the depth fix the layout of every cell and edge, so
    each is one %-template: a cell's chosen by its decoration (None on a
    vertex, 0 or 1 on an arrow, as `build_tree` guarantees) and filled with
    its quoted id, an edge's filled with its quoted ends and its two
    decorations written by `int.__repr__`.  The cells come in id order and
    the edges sorted, as `build_tree` keeps them.
    """
    quote = _quote

    def obj(fields: list[tuple[str, str]], inner: str, outer: str) -> str:
        if sort_keys:
            fields = sorted(fields)
        return "{" + ",".join(f"{inner}{quote(k)}: {v}" for k, v in fields) + outer + "}"

    def array(items: list[str], inner: str, outer: str) -> str:
        if not items:
            return "[]"
        return "[" + inner + ("," + inner).join(items) + outer + "]"

    n1 = newline + "  "
    n2 = n1 + "  "
    n3 = n2 + "  "
    n4 = n3 + "  "
    cell = {None: obj([("id", "%s"), ("kind", quote(VERTEX))], n3, n2)}
    for deco in (0, 1):
        cell[deco] = obj(
            [("id", "%s"), ("kind", quote(ARROW)), ("decoration", str(deco))], n3, n2
        )
    pair = array(["%s", "%s"], n4, n3)
    edge = obj([("ends", pair), ("q", pair)], n3, n2)
    num = int.__repr__
    cells = [cell[deco] % quote(cid) for cid, _, deco in tree.cells.values()]
    edges = [
        edge % (quote(a), quote(b), num(qa), num(qb)) for (a, b), (qa, qb) in tree.edges
    ]
    return obj(
        [
            ("root", quote(tree.root)),
            ("cells", array(cells, n2, n1)),
            ("edges", array(edges, n2, n1)),
        ],
        n1,
        newline,
    )


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
        n_of = multiplicities(tree).N
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

