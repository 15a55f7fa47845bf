import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import newton_forest
from newton_forest.errors import ParseError, TreeStructureError
from newton_forest.report import Analysis
from newton_forest.tree_io import (
    export_dot,
    fixture_T_A,
    fixture_T_B,
    fixture_T_C,
    fixture_T_D,
    fixture_corpus,
    parse,
    serialize,
)
from newton_forest.tree_model import ARROW, VERTEX, Cell, build_tree, make_edge
from test_cli import _broom

FIXture_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def test_round_trip_is_identity_on_canonical_form():
    for name, tree in fixture_corpus().items():
        text = serialize(tree)
        again = parse(text)
        assert serialize(again) == text, name


def test_serialize_idempotent_T_D():
    t = fixture_T_D()
    assert serialize(parse(serialize(t))) == serialize(t)


def test_serialize_deterministic():
    a = serialize(fixture_T_C((1, 2, 3)))
    b = serialize(fixture_T_C((1, 2, 3)))
    assert a == b


def test_parse_rejects_non_integer_decoration():
    doc = json.loads(serialize(fixture_T_A()))
    doc["edges"][0]["q"][0] = 1.5
    with pytest.raises(ParseError, match="expected an integer"):
        parse(json.dumps(doc))


def test_parse_rejects_bool_decoration():
    doc = json.loads(serialize(fixture_T_A()))
    doc["edges"][0]["q"][0] = True
    with pytest.raises(ParseError, match="expected an integer"):
        parse(json.dumps(doc))


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError, match=r"line \d+ column \d+"):
        parse('{"root": "v0", ')


def test_parse_oversized_decoration():
    doc = json.loads(serialize(fixture_T_A()))
    doc["edges"][0]["q"][0] = 2**63
    with pytest.raises(ParseError, match="64-bit"):
        parse(json.dumps(doc))


def test_parse_forwards_semantic_errors():
    doc = json.loads(serialize(fixture_T_A()))
    doc["edges"] = doc["edges"][1:]
    with pytest.raises(TreeStructureError, match="disconnected"):
        parse(json.dumps(doc))


def test_parse_unknown_keys():
    doc = json.loads(serialize(fixture_T_A()))
    doc["extra"] = 1
    with pytest.raises(ParseError, match="unknown keys"):
        parse(json.dumps(doc))


# Exact error texts of `parse`, each on T_A's document with a few edits.  An
# edit is (path, value): the value replaces the entry at the path, is
# appended when the path ends one past a list, or deletes it when _DROP.
# T_A lists its cells as o1, t1, u, v0 and its edges as {o1,u}, {t1,u},
# {u,v0}.  Where a document has two faults, the first in document order wins.
_T_A_TEXT = (FIXture_DIR / "T_A.ntree").read_text()
_DROP = object()
_I64 = 2**63

PARSE_ERRORS = [
    # the document
    ('{"root": "v0", ',
     "line 1 column 16: Expecting property name enclosed in double quotes"),
    ("[" * 100000 + "]" * 100000, "document: JSON nested too deeply"),
    ("[1, 2]", "document: expected a JSON object"),
    ([(("root",), _DROP)], "document: missing key 'root'"),
    ([(("cells",), _DROP)], "document: missing key 'cells'"),
    ([(("edges",), _DROP)], "document: missing key 'edges'"),
    ([(("zeta",), 1), (("extra",), 2)], "document: unknown keys ['extra', 'zeta']"),
    ([(("root",), 5)], "root: expected a string, got 5"),
    ([(("cells",), {})], "cells: expected a list"),
    ([(("edges",), "x")], "edges: expected a list"),
    # each cell field
    ([(("cells", 2), ["u"])], "cells[2]: expected an object"),
    ([(("cells", 2, "id"), _DROP)], "cells[2].id: expected a string, got None"),
    ([(("cells", 2, "id"), 7)], "cells[2].id: expected a string, got 7"),
    ([(("cells", 2, "kind"), _DROP)], "cells[2].kind: expected a string, got None"),
    ([(("cells", 2, "kind"), ["vertex"])],
     "cells[2].kind: expected a string, got ['vertex']"),
    ([(("cells", 2, "kind"), "node")],
     "cells[2].kind: expected 'vertex' or 'arrow', got 'node'"),
    ([(("cells", 1, "decoration"), 1.0)],
     "cells[1].decoration: expected an integer, got 1.0"),
    ([(("cells", 1, "decoration"), True)],
     "cells[1].decoration: expected an integer, got True"),
    ([(("cells", 1, "decoration"), None)],
     "cells[1].decoration: expected an integer, got None"),
    ([(("cells", 1, "decoration"), "1")],
     "cells[1].decoration: expected an integer, got '1'"),
    ([(("cells", 1, "decoration"), _I64)],
     "cells[1].decoration: decoration 9223372036854775808 exceeds signed 64-bit range"),
    ([(("cells", 1, "decoration"), -_I64 - 1)],
     "cells[1].decoration: decoration -9223372036854775809 exceeds signed 64-bit range"),
    ([(("cells", 1, "decoration"), 2)], "cells[1].decoration: expected 0 or 1, got 2"),
    ([(("cells", 1, "decoration"), -1)], "cells[1].decoration: expected 0 or 1, got -1"),
    ([(("cells", 1, "decoration"), _DROP)],
     "cells[1]: arrow cell is missing its 0/1 decoration"),
    ([(("cells", 2, "decoration"), 0)],
     "cells[2]: vertex cell must not carry a decoration"),
    ([(("cells", 2, "zz"), 1), (("cells", 2, "label"), "x")],
     "cells[2]: unknown keys ['label', 'zz']"),
    ([(("cells", 1, "label"), "x")], "cells[1]: unknown keys ['label']"),
    # each edge field
    ([(("edges", 1), None)], "edges[1]: expected an object"),
    ([(("edges", 1, "ends"), _DROP)], "edges[1].ends: expected a pair of cell ids"),
    ([(("edges", 1, "ends"), "t1,u")], "edges[1].ends: expected a pair of cell ids"),
    ([(("edges", 1, "ends"), ["t1"])], "edges[1].ends: expected a pair of cell ids"),
    ([(("edges", 1, "ends", 2), "v0")], "edges[1].ends: expected a pair of cell ids"),
    ([(("edges", 1, "q"), _DROP)], "edges[1].q: expected a pair of integers"),
    ([(("edges", 1, "q"), {"a": 1})], "edges[1].q: expected a pair of integers"),
    ([(("edges", 1, "q", 2), 1)], "edges[1].q: expected a pair of integers"),
    ([(("edges", 1, "ends", 0), 1)], "edges[1].ends[0]: expected a string, got 1"),
    ([(("edges", 1, "ends", 1), None)], "edges[1].ends[1]: expected a string, got None"),
    ([(("edges", 1, "q", 0), 1.5)], "edges[1].q[0]: expected an integer, got 1.5"),
    ([(("edges", 1, "q", 0), True)], "edges[1].q[0]: expected an integer, got True"),
    ([(("edges", 1, "q", 1), "1")], "edges[1].q[1]: expected an integer, got '1'"),
    ([(("edges", 1, "q", 0), _I64)],
     "edges[1].q[0]: decoration 9223372036854775808 exceeds signed 64-bit range"),
    ([(("edges", 1, "q", 1), -_I64 - 1)],
     "edges[1].q[1]: decoration -9223372036854775809 exceeds signed 64-bit range"),
    ([(("edges", 1, "zz"), 1), (("edges", 1, "w"), 2)],
     "edges[1]: unknown keys ['w', 'zz']"),
    # ids that no UTF-8 output can carry: lone surrogates from JSON escapes
    ([(("root",), "\ud800")], "root: expected a string encodable as UTF-8, got '\\ud800'"),
    ([(("cells", 2, "id"), "u\udfff")],
     "cells[2].id: expected a string encodable as UTF-8, got 'u\\udfff'"),
    ([(("edges", 1, "ends", 0), "\ud800")],
     "edges[1].ends[0]: expected a string encodable as UTF-8, got '\\ud800'"),
    ([(("edges", 1, "ends", 1), "x\udbff")],
     "edges[1].ends[1]: expected a string encodable as UTF-8, got 'x\\udbff'"),
    # two faults
    ([(("edges",), _DROP), (("extra",), 1)], "document: missing key 'edges'"),
    ([(("root",), None), (("cells",), None)], "root: expected a string, got None"),
    ([(("cells",), 1), (("edges",), 1)], "cells: expected a list"),
    ([(("cells", 3, "kind"), "x"), (("edges", 0, "q", 0), 0.5)],
     "cells[3].kind: expected 'vertex' or 'arrow', got 'x'"),
    ([(("cells", 0, "extra"), 1), (("cells", 3, "id"), 0)],
     "cells[0]: unknown keys ['extra']"),
    ([(("cells", 2, "id"), None), (("cells", 2, "kind"), None)],
     "cells[2].id: expected a string, got None"),
    ([(("cells", 1, "kind"), "x"), (("cells", 1, "decoration"), 5)],
     "cells[1].kind: expected 'vertex' or 'arrow', got 'x'"),
    ([(("cells", 1, "decoration"), 5), (("cells", 1, "extra"), 1)],
     "cells[1].decoration: expected 0 or 1, got 5"),
    ([(("edges", 1, "ends"), None), (("edges", 1, "q"), None)],
     "edges[1].ends: expected a pair of cell ids"),
    ([(("edges", 1, "ends", 1), 5), (("edges", 1, "q"), [1])],
     "edges[1].q: expected a pair of integers"),
    ([(("edges", 1, "ends", 1), 5), (("edges", 1, "q", 0), 1.5)],
     "edges[1].ends[1]: expected a string, got 5"),
    ([(("edges", 1, "q"), [2**64, "x"])],
     "edges[1].q[0]: decoration 18446744073709551616 exceeds signed 64-bit range"),
    ([(("edges", 1, "q", 1), 0.5), (("edges", 1, "extra"), 1)],
     "edges[1].q[1]: expected an integer, got 0.5"),
    ([(("edges", 0, "extra"), 1), (("edges", 2, "q", 1), 1.5)],
     "edges[0]: unknown keys ['extra']"),
    ([(("cells", 4), {"id": "u", "kind": "vertex"}), (("edges", 2, "q", 0), "x")],
     "edges[2].q[0]: expected an integer, got 'x'"),
    ([(("cells", 3, "id"), "\udc00"), (("cells", 0, "decoration"), 7)],
     "cells[0].decoration: expected 0 or 1, got 7"),
    ([(("cells", 0, "id"), "\udc00"), (("edges", 0, "q", 0), 0.5)],
     "cells[0].id: expected a string encodable as UTF-8, got '\\udc00'"),
    # a structure fault before a shape fault: the shape fault wins
    ([(("edges", 1, "ends"), ["u", "zz"]), (("edges", 3), {"ends": ["u", "v0"], "q": [0.5, 1]})],
     "edges[3].q[0]: expected an integer, got 0.5"),
    ([(("root",), "zz"), (("cells", 3, "kind"), "node")],
     "cells[3].kind: expected 'vertex' or 'arrow', got 'node'"),
    (
        [
            (("edges", 1, "ends"), ["u", "u"]),
            (("edges", 3), {"ends": ["t1", "v0"], "q": [1, 1]}),
            (("edges", 4), {"ends": ["o1", "v0"], "q": [1, 1], "w": 1}),
        ],
        "edges[4]: unknown keys ['w']",
    ),
]

STRUCTURE_ERRORS = [
    ([(("cells", 4), {"id": "u", "kind": "vertex"})], "duplicate cell id 'u'"),
    ([(("root",), "zz")], "root 'zz' is not a cell"),
    ([(("edges", 1, "ends"), ["u", "u"])], "self-loop at 'u'"),
    ([(("edges", 1, "q"), [_I64 - 1, -_I64]), (("edges", 1, "ends"), ["t1", "t1"])],
     "self-loop at 't1'"),
    ([(("edges", 1, "ends"), ["u", "zz"])], "edge {u,zz} mentions an unknown cell"),
    ([(("edges", 3), {"ends": ["u", "t1"], "q": [1, 1]})],
     "not a tree: duplicate edge {t1,u}"),
    (
        [
            (("cells", 4), {"id": "o1", "kind": "arrow", "decoration": 0}),
            (("root",), "r"),
            (("edges", 3), {"ends": ["v0", "v0"], "q": [1, 1]}),
            (("edges", 4), {"ends": ["r", "v0"], "q": [1, 1]}),
            (("edges", 5), {"ends": ["u", "t1"], "q": [1, 1]}),
        ],
        "duplicate cell id 'o1'; root 'r' is not a cell; self-loop at 'v0';"
        " edge {r,v0} mentions an unknown cell; not a tree: duplicate edge {t1,u}",
    ),
    ([(("edges", 0), _DROP)],
     "not a tree: 4 cells need 3 edges, got 2; disconnected: unreachable cells ['o1']"),
    (
        [
            (("cells", 4), {"id": "w", "kind": "vertex"}),
            (("edges", 3), {"ends": ["v0", "w"], "q": [1, 1]}),
            (("edges", 4), {"ends": ["u", "w"], "q": [1, 1]}),
        ],
        "not a tree: 5 cells need 4 edges, got 5",
    ),
    (
        [
            (("cells", 4), {"id": "w", "kind": "vertex"}),
            (("edges", 2, "ends"), ["t1", "w"]),
            (("edges", 3), {"ends": ["o1", "t1"], "q": [1, 1]}),
        ],
        "disconnected: unreachable cells ['o1', 't1', 'u', 'w']",
    ),
    ([(("cells", 2, "kind"), "arrow"), (("cells", 2, "decoration"), 1)],
     "cell 'u' declared 'arrow' but classifies as 'vertex';"
     " vertex 'u' carries an arrow decoration"),
    ([(("cells", 1, "kind"), "vertex"), (("cells", 1, "decoration"), _DROP)],
     "cell 't1' declared 'vertex' but classifies as 'arrow';"
     " arrow 't1' must be decorated 0 or 1, got None"),
    (
        [
            (("cells", 3, "kind"), "arrow"),
            (("cells", 3, "decoration"), 1),
            (("cells", 0, "kind"), "vertex"),
            (("cells", 0, "decoration"), _DROP),
        ],
        "cell 'o1' declared 'vertex' but classifies as 'arrow';"
        " arrow 'o1' must be decorated 0 or 1, got None;"
        " cell 'v0' declared 'arrow' but classifies as 'vertex';"
        " vertex 'v0' carries an arrow decoration",
    ),
]


def _edited(edits) -> str:
    if isinstance(edits, str):
        return edits
    doc = json.loads(_T_A_TEXT)
    for path, value in edits:
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        if value is _DROP:
            del target[last]
        elif isinstance(target, list) and last == len(target):
            target.append(value)
        else:
            target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "error, edits, want",
    [(ParseError, e, w) for e, w in PARSE_ERRORS]
    + [(TreeStructureError, e, w) for e, w in STRUCTURE_ERRORS],
    ids=[w for _, w in PARSE_ERRORS + STRUCTURE_ERRORS],
)
def test_parse_error_texts_pinned(error, edits, want):
    with pytest.raises(error) as info:
        parse(_edited(edits))
    assert type(info.value) is error
    assert str(info.value) == want


def test_parse_keeps_non_ascii_ids():
    # an escaped surrogate pair is one character, which UTF-8 carries
    text = _T_A_TEXT.replace('"v0"', '"\\u00e9\\ud83d\\ude00"')
    assert parse(text).root == "\u00e9\U0001f600"


def test_build_tree_arrow_decoration_text_pinned():
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX), Cell("t1", ARROW, 2)]
    edges = [make_edge("v0", 1, "u", 1), make_edge("u", 1, "t1", 1)]
    with pytest.raises(TreeStructureError) as info:
        build_tree(cells, edges, "v0")
    assert info.value.problems == ["arrow 't1' must be decorated 0 or 1, got 2"]


# Times `json.loads` and `parse` on the text of the file named by argv[1],
# best of three runs each, interleaved so that a drift in host speed meets
# both, and prints the two best times.
_PARSE_TIMING = """
import json, sys, time
from newton_forest.tree_io import parse
with open(sys.argv[1], encoding="utf-8") as fh:
    text = fh.read()
loads, parses = [], []
for _ in range(3):
    start = time.perf_counter()
    json.loads(text)
    loads.append(time.perf_counter() - start)
    start = time.perf_counter()
    parse(text)
    parses.append(time.perf_counter() - start)
print(min(parses), min(loads))
"""


def test_parse_stays_near_json_loads(tmp_path):
    # the 48k-cell broom of test_validate_axioms_large_broom, timed in a
    # fresh interpreter: a tracer or profiler running the tests slows the
    # Python parse several times over but not the C decoder
    path = tmp_path / "broom.ntree"
    path.write_text(serialize(_broom(16000)), encoding="utf-8")
    package_root = Path(newton_forest.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(package_root))
    out = subprocess.run(
        [sys.executable, "-c", _PARSE_TIMING, str(path)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    parse_s, loads_s = map(float, out.split())
    assert parse_s <= 4 * loads_s, (parse_s, loads_s)


def test_parse_T_C_1_2_3_decorations():
    t = fixture_T_C((1, 2, 3))
    assert t.edge_between("v0", "u1").q_near("u1") == -5
    assert t.edge_between("v0", "u2").q_near("u2") == -2
    assert t.edge_between("v0", "u3").q_near("u3") == -1
    from newton_forest.tree_model import validate_axioms

    assert validate_axioms(t) == []


def test_shipped_fixture_files_match_builders():
    for name, tree in fixture_corpus().items():
        path = FIXture_DIR / f"{name}.ntree"
        assert path.exists(), f"missing shipped fixture {name}"
        assert parse(path.read_text()) == tree
        assert path.read_text() == serialize(tree)


def test_dot_T_A_shape_counts():
    dot = export_dot(fixture_T_A())
    assert dot.count("style=filled") == 1  # one dicritical
    assert dot.count("shape=circle") == 2  # both vertices (one open, one filled)
    assert dot.count("arrowhead=normal") == 2  # two arrows


def test_dot_T_C_1_1_1_shape_counts():
    dot = export_dot(fixture_T_C((1, 1, 1)))
    assert dot.count("style=filled") == 3
    assert dot.count('label="(1)"') == 3
    assert dot.count('label="(0)"') == 3


def test_dot_with_report_labels():
    t = fixture_T_D()
    dot = export_dot(t, Analysis.build(t))
    assert "N=6" in dot and "dt=-5" in dot and "dt=1" in dot


def test_T_B_requires_coprime_parameters():
    with pytest.raises(ValueError):
        fixture_T_B(2, 4)


def test_T_C_requires_divisibility():
    with pytest.raises(ValueError):
        fixture_T_C((2, 3, 4))
