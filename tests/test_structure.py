import inspect

import pytest

from newton_forest import characteristic, local_invariants, multiplicity, structure
from newton_forest.report import Analysis
from newton_forest.structure import (
    comb_decomposition,
    quotient_tree_H,
    rooted_tree_H,
    structure_ledger,
)
from newton_forest.tree_model import DecoratedRootedTree

import corpora
from corpora import CORPUS_A, CORPUS_B, FIXTURES
from oracles import comb_steps, fixture_T_A, fixture_T_D, reference_comb_step


def test_structure_T_D():
    t = fixture_T_D()
    st = Analysis.build(t).struct
    assert st.Z == {"v0"}
    assert st.Gamma == ()
    assert st.W == frozenset()
    assert st.Omega == {"v0"}
    assert not st.is_brush
    assert st.S == {"v0", "w"}
    assert st.In == {"v0"}
    assert st.teeth == frozenset()


def test_structure_T_A():
    t = fixture_T_A()
    st = Analysis.build(t).struct
    assert st.Z == frozenset()  # epsilon(v0) = 0, never 1
    assert st.Omega == frozenset()
    assert st.S == {"v0"}
    assert st.In == {"v0"}
    assert st.delta_star["v0"] == 0


def test_decomposition_T_D():
    t = fixture_T_D()
    dec = Analysis.build(t, z="v0").decompositions["v0"]
    assert len(dec.classes) == 1
    cls = dec.classes[0]
    e = t.edge_between("v0", "w")
    assert cls.pairs == (("w", e),)
    assert dec.u0 == "w"
    assert cls.c_dot == 0
    assert cls.Y == {"w"}
    assert cls.t_count == 0
    assert dec.stats is None


def test_decomposition_T_A_empty():
    dec = Analysis.build(fixture_T_A(), z="v0").decompositions["v0"]
    assert dec.O == ()
    assert dec.classes == ()
    assert dec.u0 is None


def test_decomposition_rejects_non_initial():
    with pytest.raises(ValueError, match="not an initial vertex"):
        Analysis.build(fixture_T_D(), z="w")


def test_two_loose_ends_decomposition():
    # generated two-ended chain: single class from either end, zero drop
    found = None
    for key in CORPUS_A[:200]:
        a = corpora.analysis(key)
        if len(a.struct.Omega) == 2:
            found = a
            break
    assert found is not None
    assert found.struct.In == found.struct.Omega
    for z, dec in found.decompositions.items():
        assert len(dec.classes) == 1
        assert dec.classes[0].c_dot == 0
        (other,) = sorted(found.struct.Omega - {z})
        assert dec.u0 == other


# Frozen H values for every rooted quotient shape on 2..5 vertices, keyed by
# (vertex count, sorted edge list); root is vertex 0.
SHAPE_TABLE = [
    (2, [(0, 1)], 2),
    (3, [(0, 1), (0, 2)], 2),
    (3, [(0, 1), (1, 2)], 3),
    (4, [(0, 1), (0, 2), (0, 3)], 4),
    (4, [(0, 1), (0, 2), (2, 3)], 3),
    (4, [(0, 1), (1, 2), (1, 3)], 4),
    (4, [(0, 1), (1, 2), (2, 3)], 4),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 6),
    (5, [(0, 1), (0, 2), (0, 3), (3, 4)], 5),
    (5, [(0, 1), (0, 2), (2, 3), (2, 4)], 4),
    (5, [(0, 1), (0, 2), (2, 3), (3, 4)], 4),
    (5, [(0, 1), (1, 2), (0, 3), (3, 4)], 4),
    (5, [(0, 1), (1, 2), (1, 3), (1, 4)], 6),
    (5, [(0, 1), (1, 2), (1, 3), (3, 4)], 5),
    (5, [(0, 1), (1, 2), (2, 3), (2, 4)], 5),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)], 5),
]


def test_rooted_tree_H_table():
    for n, edges, want in SHAPE_TABLE:
        assert rooted_tree_H(n, edges, 0) == want, (n, edges)


def test_rooted_tree_H_examples():
    assert rooted_tree_H(2, [(0, 1)], 0) == 2  # single edge
    assert rooted_tree_H(3, [(0, 1), (1, 2)], 0) == 3  # path rooted at an end
    assert rooted_tree_H(3, [(0, 1), (0, 2)], 0) == 2  # fork at the root


def test_quotient_H_needs_two_classes():
    with pytest.raises(ValueError):
        quotient_tree_H(Analysis.build(fixture_T_D(), z="v0").decompositions["v0"])


def test_quotient_H_on_generated_multicomb():
    seen = 0
    for key in CORPUS_A[:300]:
        a = corpora.analysis(key)
        for dec in a.decompositions.values():
            if len(dec.classes) > 1:
                h = quotient_tree_H(dec)
                assert h == dec.stats.H >= 2
                seen += 1
        if seen >= 5:
            break
    assert seen >= 5


def test_gamma_paths_on_brush():
    from newton_forest.oracle_gen import GeneratorConfig, _attempt_brush
    import random

    tree = _attempt_brush(random.Random(3), GeneratorConfig(seed=3))[0]
    st = Analysis.build(tree).struct
    assert st.is_brush
    assert st.W == {"v0"}
    assert st.S == {"v0"}
    assert st.Omega == frozenset()
    assert len(st.Gamma) == 2
    assert st.V_bar["v0"] == {"v0", "y0", "y1"}
    assert st.t["v0"] == 2


def test_stage_inputs_required():
    # Analysis.build, through Analysis.from_classification, alone sequences
    # the stages: no stage recomputes a missing upstream input, and the
    # downstream modules cannot reach the upstream stage functions
    stages = (
        multiplicity.classify,
        local_invariants.vertex_ledger,
        local_invariants.global_ledger,
        characteristic.characteristic_numbers,
        structure.structure_ledger,
        structure.comb_decomposition,
    )
    for fn in stages:
        for param in inspect.signature(fn).parameters.values():
            assert param.default is inspect.Parameter.empty, (fn.__name__, param.name)
    upstream = ("multiplicities", "classify", "vertex_ledger", "characteristic_numbers")
    for module in (structure, characteristic, local_invariants):
        for name in upstream:
            found = getattr(module, name, None)
            # a module may define a stage, but imports none
            assert found is None or found.__module__ == module.__name__, (
                module.__name__,
                name,
            )


def test_structure_walks_script_E(monkeypatch):
    # the trivial walks and the comb search follow the positive subtree's
    # edges (`chars.edges_at`), and R is read from its one table: no
    # neighbour list or tree path
    keys = FIXTURES + CORPUS_A[:50] + CORPUS_B[:12]
    analyses = [Analysis.build(corpora.fresh(key)) for key in keys]

    def refused(*args, **kwargs):
        raise AssertionError("the structure stage walked the tree")

    for name in ("neighbors", "path"):
        monkeypatch.setattr(DecoratedRootedTree, name, refused)
    decompositions = 0
    for a in analyses:
        struct = structure_ledger(a.tree, a.ledger, a.chars)
        assert struct == a.struct
        for z in sorted(struct.In):
            dec = comb_decomposition(z, a.ledger, a.chars, struct)
            assert dec == a.decompositions[z]
            decompositions += 1
    assert (len(analyses), decompositions) == (70, 107)


def _count_comb_steps(trees):
    steps = eps3 = by_tooth = 0
    for tree in trees:
        a = Analysis.build(tree)
        for upper, pair in comb_steps(a):
            want = reference_comb_step(a.ledger, a.chars, a.struct, upper, pair)
            assert (pair in a.struct.combs) == want, (upper, pair)
            steps += 1
            if a.ledger.per_vertex[pair[0]].epsilon == 3:
                eps3 += 1
                by_tooth += want
    return steps, eps3, by_tooth


def test_comb_pairs_match_the_step_test(monkeypatch):
    # `struct.combs` holds the one comb test; on every step of every chain it
    # agrees with the test written against the pair above
    # (steps, steps at three positive neighbours, those passed by a tooth).
    # The analyses are built here, the second time under the patch.
    trees = [corpora.fresh(key) for key in FIXTURES + CORPUS_A[:300] + CORPUS_B[:12]]
    assert _count_comb_steps(trees) == (242, 75, 0)

    # R = 0 at every vertex of three positive neighbours opens the tooth
    # clause, which honest trees of this size never reach
    real = structure.R_of

    def forced(ledger, chars, v, A):
        if ledger.per_vertex[v].epsilon == 3:
            return 0
        return real(ledger, chars, v, A)

    monkeypatch.setattr(structure, "R_of", forced)
    assert _count_comb_steps(trees) == (242, 75, 3)
