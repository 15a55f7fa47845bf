import math

from newton_forest.multiplicity import classify, multiplicities
from newton_forest.tree_model import ARROW, VERTEX, Cell, build_tree, make_edge

import corpora
from corpora import CORPUS_A, CORPUS_B, FIXTURES
from oracles import (
    Q,
    fixture_T_A,
    fixture_T_B,
    fixture_T_C,
    fixture_T_D,
    oracle_F,
    oracle_N,
)


def _assert_F_sums_x(tree, table):
    # F(c->d) sums x-hat(c, .) over the (1)-arrows beyond the vertex d, and
    # N_c = sum over the vertex edges e = {c, d} at c of Q(e, c) F(c->d),
    # plus c's arrow terms: the fold's S[c] times the product of c's
    # vertex-edge decorations
    for c in tree.vertices:
        edges = [e for e in tree.incident_edges(c) if e.other(c) in tree.vertices]
        for e in edges:
            assert table.F[c, e.other(c)] == oracle_F(tree, c, e.other(c))
        arrows = math.prod(e.q_near(c) for e in edges) * table.fold.S[c]
        vertex_terms = sum(Q(tree, e, c) * table.F[c, e.other(c)] for e in edges)
        assert table.N[c] == vertex_terms + arrows


def test_x_values_T_A():
    t = fixture_T_A()
    tab = multiplicities(t)
    assert tab.F["v0", "u"] == 1  # x(v0, t1) = 1
    _assert_F_sums_x(t, tab)


def test_x_values_T_B():
    t = fixture_T_B(1, 2)
    tab = multiplicities(t)
    assert tab.F["v0", "u1"] == 1  # x(v0, t1) = a1
    # x(u1, t2) = a1 * a2 along (u1, v0, u2, t2); t2 is the one arrow beyond v0
    assert Q(t, t.edge_between("u1", "v0"), "u1") * tab.F["u1", "v0"] == 2
    _assert_F_sums_x(t, tab)
    t = fixture_T_B(2, 3)
    tab = multiplicities(t)
    assert tab.F["v0", "u1"] == 2
    assert tab.F["u1", "v0"] == 3
    assert Q(t, t.edge_between("u1", "v0"), "u1") * tab.F["u1", "v0"] == 6
    _assert_F_sums_x(t, tab)


def test_x_hat_T_D():
    t = fixture_T_D()
    tab = multiplicities(t)
    # x-hat(v0, b) = 2 for each of the three arrows, all beyond w
    assert tab.F["v0", "w"] == 3 * 2
    assert tab.F["w", "u"] == 3
    _assert_F_sums_x(t, tab)


def test_x_rejects_zero_arrows():
    # only (1)-arrows are summed over: u's (0)-arrow o1 adds no term to its
    # fold, whose S would read 2 were o1 a (1)-arrow
    tab = multiplicities(fixture_T_A())
    assert tab.fold.ones["u"] == 1 and tab.fold.S["u"] == 1


def test_x_factorization():
    for t in (fixture_T_B(2, 3), fixture_T_C((1, 2, 3)), fixture_T_D()):
        _assert_F_sums_x(t, multiplicities(t))


def test_multiplicities_T_A():
    tab = multiplicities(fixture_T_A())
    assert tab.N["v0"] == 1 and tab.N["u"] == 0
    assert tab.M_of_T == 1
    assert tab.points_at_infinity == 1


def test_multiplicities_T_C_1_2_3():
    tab = multiplicities(fixture_T_C((1, 2, 3)))
    assert tab.N["v0"] == 6
    assert tab.N["u1"] == tab.N["u2"] == tab.N["u3"] == 0


def test_multiplicities_T_D():
    tab = multiplicities(fixture_T_D())
    assert tab.N["v0"] == 6 and tab.N["w"] == 6 and tab.N["u"] == 0
    assert tab.N["ow"] == 3 and tab.N["ou"] == 0  # zero-arrows carry N too
    assert tab.M_of_T == 3
    assert tab.points_at_infinity == 1


def test_points_at_infinity_T_B():
    assert multiplicities(fixture_T_B(1, 1)).points_at_infinity == 2


def test_classify_T_A():
    t = fixture_T_A()
    info = classify(t, multiplicities(t))
    assert info.generic and info.complete and info.minimally_complete
    assert info.dicriticals == {"u"}
    assert info.degree["u"] == 1


def test_classify_T_D():
    t = fixture_T_D()
    info = classify(t, multiplicities(t))
    assert info.minimally_complete
    assert info.degree == {"u": 3}


def test_classify_valency_two_dicritical():
    # T_A without the dead end: the dicritical has valency 2 and no dead end
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX), Cell("t1", ARROW, 1)]
    edges = [make_edge("v0", 1, "u", 0), make_edge("u", 1, "t1", 1)]
    t = build_tree(cells, edges, "v0")
    info = classify(t, multiplicities(t))
    assert info.generic and info.complete
    assert not info.minimally_complete
    assert any("no dead end" in r for r in info.reasons)
    assert any("valency 2" in r for r in info.reasons)


def test_classify_non_generic():
    # positive decoration near the dicritical gives it positive multiplicity,
    # so the (1)-arrows hang off a non-dicritical: not complete
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX),
             Cell("t1", ARROW, 1), Cell("o1", ARROW, 0)]
    edges = [make_edge("v0", 1, "u", -1),
             make_edge("u", 1, "t1", 1), make_edge("u", 1, "o1", 1)]
    t = build_tree(cells, edges, "v0")
    info = classify(t, multiplicities(t))
    assert not info.generic
    assert not info.minimally_complete


def test_source_multiplicities_match_oracle():
    # generated trees carry zero decorations, which the pass must keep
    # exact; N covers the vertices and the dead ends
    for tree in corpora.trees(FIXTURES + CORPUS_A[:60] + CORPUS_B[:4]):
        N = multiplicities(tree).N
        assert N == {v: oracle_N(tree, v) for v in tree.vertices | tree.arrows0}
