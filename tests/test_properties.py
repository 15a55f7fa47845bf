"""Property-based checks over generated trees, the rational gcd and the JSON
writer."""

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
from newton_forest.multiplicity import multiplicities
from newton_forest.oracle_gen import GeneratorConfig, generate, oracle_F
from newton_forest.report import Analysis
from newton_forest.tree_io import fixture_corpus, json_text, parse, serialize
from newton_forest.tree_model import Cell, build_tree, make_edge, validate_axioms

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


def _tree(seed: int):
    return generate(GeneratorConfig(seed=seed, max_cells=36))


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
    root = tree.root
    for x in ids[:6]:
        assert tree.path(x, x) == (x,)
        for y in ids[:6]:
            p = tree.path(x, y)
            assert p[0] == x and p[-1] == y
            assert tree.path(y, x) == p[::-1]
            if x != y:
                below = tree.less_than(x, y)
                above = tree.less_than(y, x)
                assert not (below and above)
                assert below == (x in tree.path(root, y)[:-1])


@TREE_SETTINGS
@given(st.integers(0, 5000))
def test_x_factorization_property(seed):
    # F(c->d) is the oracle's x-hat sum beyond d; N_c = sum of Q(e,c) F(c->d)
    tree = _tree(seed)
    table = multiplicities(tree)
    for c in sorted(tree.vertices)[:5]:
        edges = tree.incident_edges(c)
        for e in edges:
            assert table.F[c, e.other(c)] == oracle_F(tree, c, e.other(c))
        assert table.N[c] == sum(tree.Q(e, c) * table.F[c, e.other(c)] for e in edges)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 5000))
def test_audits_hold_on_arbitrary_generated_trees(seed):
    tree = _tree(seed)
    assert audit_failures(theorem_audit(tree)) == []


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 5000))
def test_decomposition_covering_property(seed):
    tree = _tree(seed)
    a = Analysis.build(tree)
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


def _invariants(tree, rename=lambda c: c):
    """The analysis and audit of `tree`, each cell id passed through
    `rename`, and no order kept that comes from sorting cell ids."""
    a = Analysis.build(tree)
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
    trees = list(fixture_corpus().items()) + [
        (f"seed {s}", generate(GeneratorConfig(seed=s, max_cells=40)))
        for s in range(300)
    ]
    for name, tree in trees:
        bijections = _bijections(tree, name)
        want = [_invariants(tree, new_id.get) for new_id in bijections]
        assert want[0]["failures"] == [], name
        for k, new_id in enumerate(bijections):
            assert _invariants(_renamed(tree, new_id)) == want[k], (name, k)


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


def test_json_text_rejects_other_types():
    # json.dumps writes a tuple as a list; the writer takes lists only
    for bad in (Fraction(1, 2), 0.5, (1, 2)):
        for doc in (bad, [1, bad], {"a": {"b": bad}}):
            for sort_keys in (False, True):
                with pytest.raises(TypeError):
                    json_text(doc, sort_keys=sort_keys)
