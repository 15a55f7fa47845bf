"""Property-based checks over generated trees, the rational gcd and the JSON
writer."""

import hashlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from newton_forest.characteristic import rational_divides, rational_gcd
from newton_forest.classify_audit import audit_analysis, audit_failures, theorem_audit
from newton_forest.cli import run
from newton_forest.multiplicity import multiplicities
from newton_forest.oracle_gen import GeneratorConfig
from newton_forest.report import Analysis
from newton_forest.tree_io import json_text, parse, serialize, to_document
from newton_forest.tree_model import (
    ARROW,
    VERTEX,
    Cell,
    build_tree,
    make_edge,
    validate_axioms,
)

import corpora
from corpora import CORPUS_120_6, CORPUS_A, CORPUS_B, FIXTURES
from oracles import Q, oracle_F

TREE_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@given(st.lists(rationals, max_size=6))
def test_rational_gcd_generates_the_module(xs):
    g = rational_gcd(xs)
    assert g >= 0
    for x in xs:
        assert rational_divides(g, x)
    # g itself is an integer combination witness: gcd(xs + [g]) == g
    assert rational_gcd(list(xs) + [g]) == g


@given(rationals, st.lists(rationals, min_size=1, max_size=5))
def test_rational_gcd_scales(a, xs):
    assert rational_gcd([a * x for x in xs]) == abs(a) * rational_gcd(xs)


@given(rationals, st.lists(st.integers(-9, 9), min_size=1, max_size=5))
def test_rational_gcd_of_multiples(x, ms):
    values = [x] + [m * x for m in ms]
    assert rational_gcd(values) == abs(x)


# ints and Fractions of both signs, zeros among them, mostly small so that
# numerators and denominators share factors, and values built as a multiple
# of another so that divisibility holds often
_divisibility_values = st.one_of(
    st.integers(-6, 6),
    st.integers(),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.fractions(max_denominator=10**6),
    st.sampled_from([0, Fraction(0)]),
)


@st.composite
def _divisibility_pairs(draw):
    a = draw(_divisibility_values)
    if draw(st.booleans()):
        return a, draw(_divisibility_values)
    b = a * draw(st.integers(-6, 6))
    return a, Fraction(b) if draw(st.booleans()) else b


@settings(max_examples=300)
@given(_divisibility_pairs())
def test_rational_divides_matches_its_definition(pair):
    a, b = pair
    want = b == 0 if a == 0 else (Fraction(b) / Fraction(a)).denominator == 1
    assert rational_divides(a, b) is want


def _config(seed: int):
    return GeneratorConfig(seed=seed, max_cells=36)


def _tree(seed: int):
    return corpora.tree(_config(seed))


@TREE_SETTINGS
@given(st.integers(0, 5000))
def test_generated_trees_are_valid_and_roundtrip(seed):
    tree = _tree(seed)
    assert validate_axioms(tree) == []
    assert serialize(parse(serialize(tree))) == serialize(tree)


@TREE_SETTINGS
@given(st.integers(0, 5000))
def test_path_properties(seed):
    tree = _tree(seed)
    ids = tree.cell_ids()
    for x in ids[:6]:
        assert tree.path(x, x) == (x,)
        for y in ids[:6]:
            p = tree.path(x, y)
            assert p[0] == x and p[-1] == y
            assert tree.path(y, x) == p[::-1]
            # a simple path: consecutive cells are adjacent, none repeats
            assert len(set(p)) == len(p)
            for b, c in zip(p, p[1:]):
                assert tree.parent(b) == c or tree.parent(c) == b


@TREE_SETTINGS
@given(st.integers(0, 5000))
def test_x_factorization_property(seed):
    # F(c->d) is the oracle's x-hat sum beyond the vertex d; N_c = sum of
    # Q(e,c) F(c->d) over c's vertex edges, plus c's (1)-arrows' terms Q(e,c)
    tree = _tree(seed)
    table = multiplicities(tree)
    for c in sorted(tree.vertices)[:5]:
        edges = [e for e in tree.incident_edges(c) if e.other(c) in tree.vertices]
        for e in edges:
            assert table.F[c, e.other(c)] == oracle_F(tree, c, e.other(c))
        ones = [e for e in tree.incident_edges(c) if e.other(c) in tree.arrows1]
        vertex_terms = sum(Q(tree, e, c) * table.F[c, e.other(c)] for e in edges)
        assert table.N[c] == vertex_terms + sum(Q(tree, e, c) for e in ones)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 5000))
def test_audits_hold_on_arbitrary_generated_trees(seed):
    tree = _tree(seed)
    assert audit_failures(theorem_audit(tree)) == []


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 5000))
def test_decomposition_covering_property(seed):
    a = corpora.analysis(_config(seed))
    for z, dec in a.decompositions.items():
        covered = set()
        for cls in dec.classes:
            assert not (covered & cls.Y)
            covered |= cls.Y
        if dec.classes:
            assert covered == set(a.glob.script_N) - set(a.struct.V_bar[z])


def _renamed(tree, new_id):
    cells = [
        Cell(new_id[c.id], c.kind, c.arrow_decoration) for c in tree.cells.values()
    ]
    edges = [
        make_edge(new_id[e.ends[0]], e.q[0], new_id[e.ends[1]], e.q[1])
        for e in tree.edges
    ]
    return build_tree(cells, edges, new_id[tree.root])


def _bijections(tree, key):
    """Two seeded bijections of the cell ids: a shuffle of the ids themselves,
    and fresh ids whose sort order is random."""
    rng = random.Random(key)
    ids = sorted(tree.cells)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    fresh = rng.sample(range(10 * len(ids)), len(ids))
    return [dict(zip(ids, shuffled)), {c: f"{k:x}_" for c, k in zip(ids, fresh)}]


def _invariants(a, rename=lambda c: c):
    """The analysis `a` and its audit, each cell id passed through
    `rename`, and no order kept that comes from sorting cell ids."""
    results = audit_analysis(a)
    st_ = a.struct
    return {
        "delta_tilde_N": a.glob.delta_tilde_N,
        "M_of_T": a.table.M_of_T,
        "points_at_infinity": a.table.points_at_infinity,
        "N": {rename(c): n for c, n in a.table.N.items()},
        "pairs": Counter(
            (d.c, d.M, d.p, d.p_prime, d.eta, d.nonpositive)
            for d in a.chars.pairs.values()
        ),
        "S": {rename(c) for c in st_.S},
        "Omega": {rename(c) for c in st_.Omega},
        "W": {rename(c) for c in st_.W},
        "In": {rename(c) for c in st_.In},
        "class_sizes": {
            rename(z): sorted(len(cls.pairs) for cls in dec.classes)
            for z, dec in a.decompositions.items()
        },
        "checks": {r.check_id for r in results},
        "failures": audit_failures(results),
    }


def test_renaming_changes_no_invariant():
    # renaming the cells by a bijection must map every invariant along with it
    names = [(name, name) for name in FIXTURES]
    names += [(f"seed {key.seed}", key) for key in CORPUS_A[:300]]
    for name, key in names:
        a = corpora.analysis(key)
        bijections = _bijections(a.tree, name)
        want = [_invariants(a, new_id.get) for new_id in bijections]
        assert want[0]["failures"] == [], name
        for k, new_id in enumerate(bijections):
            renamed = Analysis.build(_renamed(a.tree, new_id))
            assert _invariants(renamed) == want[k], (name, k)


# sha256 over the stdout and exit code of `combs` on generator seeds 0..199
# at max_cells=40 and 0..39 at max_cells=120, max_dicritical_degree=6, each
# tree with its cell ids shuffled.  Comb classes whose nearest vertices lie
# equally far from z are listed by their least cell id.  Generated ids follow
# depth, so only shuffled ids tell that order from the search order (seed 15
# at 120 cells does).
PINNED_RELABELED_COMBS_SHA256 = "58475f6ee622025f46bb53de2ed334312ae9595328a49014fef0de8ef6729fd0"


def test_relabeled_combs_pinned(tmp_path, capsys):
    path = tmp_path / "relabeled.ntree"
    digest = hashlib.sha256()
    for config in CORPUS_A[:200] + CORPUS_120_6[:40]:
        tree = corpora.tree(config)
        shuffle = _bijections(tree, f"seed {config.seed} at {config.max_cells}")[0]
        path.write_text(serialize(_renamed(tree, shuffle)))
        code = run(["combs", str(path)])
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update(f"\0exit {code}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_RELABELED_COMBS_SHA256


# Strings with every kind of character the JSON writer must escape, lone
# surrogates included (the default alphabet leaves out category Cs).
_json_strings = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\ud800\udfffé€\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=8,
)
_DIGITS = sys.get_int_max_str_digits()  # the widest int json prints
_json_ints = st.one_of(
    st.integers(),
    st.integers(-(2**64), 2**64),
    st.sampled_from([10**_DIGITS - 1, 1 - 10**_DIGITS, 10 ** (_DIGITS - 1)]),
)
_json_documents = st.recursive(
    st.one_of(_json_strings, _json_ints, st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(_json_strings, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=100, deadline=None)
@given(_json_documents)
def test_json_text_matches_json_dumps(doc):
    for sort_keys in (False, True):
        assert json_text(doc, sort_keys=sort_keys) == json.dumps(
            doc, indent=2, sort_keys=sort_keys
        )


# Texts for keys and witnesses: the escapes of `_json_strings`, and the
# characters a %-template reads.
_row_texts = st.one_of(
    _json_strings,
    st.sampled_from(["%", "%s", "%%s", "%(x)s", "%d", 'a"b\\c%s', "\ud800%s\U0001f600"]),
)
_row_values = st.one_of(
    _row_texts,
    st.booleans(),
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 0]),
)


@st.composite
def _row_lists(draw):
    """A nonempty list of dict rows: audit-like rows (check, passed, witness)
    that pass or fail, or rows over drawn keys, some of them broken by
    another key order or key set, an empty dict, a nested value or an item
    that is not a dict."""
    audit = draw(st.booleans())
    if audit:
        keys = ["check", "passed", "witness"]
    else:
        keys = draw(st.lists(_row_texts, min_size=1, max_size=4, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {k: draw(_row_values) for k in keys}
        if audit:
            row["passed"] = passed = draw(st.booleans())
            row["witness"] = "" if passed else draw(_row_texts)
        changes = ["none"] * 6 + ["order", "drop", "add", "empty", "nested", "item"]
        change = draw(st.sampled_from(changes))
        if change == "order":
            row = dict(reversed(row.items()))
        elif change == "drop":
            del row[keys[0]]
        elif change == "add":
            row[draw(_row_texts)] = draw(_row_values)
        elif change == "empty":
            row = {}
        elif change == "nested":
            row[keys[-1]] = draw(_json_documents)
        elif change == "item":
            row = draw(_json_documents)
        rows.append(row)
    return rows


@settings(max_examples=150, deadline=None)
@given(_row_lists())
def test_json_text_writes_rows_as_json_dumps(rows):
    # the list at depth 0, 1 and 2
    for doc in (rows, {"audit": rows}, [{"rows": rows}]):
        for sort_keys in (False, True):
            assert json_text(doc, sort_keys=sort_keys) == json.dumps(
                doc, indent=2, sort_keys=sort_keys
            )


_I64 = (-(2**63), 2**63 - 1)
_decorations = st.one_of(
    st.integers(*_I64), st.sampled_from([_I64[0], _I64[1], -1, 0, 1])
)


@st.composite
def _any_trees(draw):
    """A tree of up to 12 cells in any shape, no axiom asked of it: ids with
    quotes, backslashes, control, non-ASCII and astral characters, arrows
    decorated 0 or 1 and edge decorations up to the int64 bounds."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(_json_strings, min_size=n, max_size=n, unique=True))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    valency = Counter(parents) + Counter(range(1, n))
    cells = [
        Cell(c, ARROW, draw(st.integers(0, 1)))
        if i and valency[i] == 1
        else Cell(c, VERTEX)
        for i, c in enumerate(ids)
    ]
    edges = [
        make_edge(ids[p], draw(_decorations), ids[i], draw(_decorations))
        for i, p in enumerate(parents, start=1)
    ]
    return build_tree(cells, edges, ids[0])


def _assert_tree_text_is_dumps(tree):
    # the tree at depth 0, and at depth 1 in a dict and in a list
    doc = to_document(tree)
    for sort_keys in (False, True):
        for value, want in ((tree, doc), ({"tree": tree}, {"tree": doc}), ([tree], [doc])):
            assert json_text(value, sort_keys=sort_keys) == json.dumps(
                want, indent=2, sort_keys=sort_keys
            )


@settings(max_examples=200, deadline=None)
@given(_any_trees())
def test_json_text_writes_a_tree_as_json_dumps_of_its_document(tree):
    _assert_tree_text_is_dumps(tree)


def test_json_text_writes_the_corpora_as_json_dumps():
    for tree in corpora.trees(FIXTURES + CORPUS_A[:300] + CORPUS_B):
        _assert_tree_text_is_dumps(tree)


def test_json_text_rejects_other_types():
    # json.dumps writes a tuple as a list; the writer takes lists only
    for bad in (Fraction(1, 2), 0.5, (1, 2)):
        for doc in (bad, [1, bad], {"a": {"b": bad}}):
            for sort_keys in (False, True):
                with pytest.raises(TypeError):
                    json_text(doc, sort_keys=sort_keys)
