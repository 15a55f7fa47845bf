import pytest

from newton_forest.errors import NotMinimallyCompleteError
from newton_forest.report import Analysis
from newton_forest.tree_model import ARROW, VERTEX, Cell, build_tree, make_edge

import corpora
from oracles import fixture_T_A, fixture_T_B, fixture_T_C, fixture_T_D


def test_vertex_ledger_T_B_1_2():
    led = Analysis.build(fixture_T_B(1, 2)).ledger
    v0 = led.per_vertex["v0"]
    assert v0.is_node and v0.type == (1, 1)
    assert v0.k == {"u1": 3, "u2": 3}
    assert v0.sigma == 4
    assert v0.epsilon == 0
    assert v0.delta_tilde == 0


def test_vertex_ledger_T_C_1_1_2():
    led = Analysis.build(fixture_T_C((1, 1, 2))).ledger
    v0 = led.per_vertex["v0"]
    assert v0.type == (1, 1, 2)
    assert sorted(v0.k.values(), reverse=True) == [4, 4, 2]
    assert v0.sigma == 8
    assert v0.delta_tilde == 2


def test_vertex_ledger_T_D():
    led = Analysis.build(fixture_T_D()).ledger
    w = led.per_vertex["w"]
    assert w.is_node and w.type == (3,)
    assert w.k == {"u": 2}
    assert w.sigma == 3
    assert w.a == 2
    assert w.epsilon == 1
    assert w.delta_tilde == 1
    v0 = led.per_vertex["v0"]
    assert not v0.is_node
    assert v0.delta_tilde == -5


def test_global_ledger_routes():
    g = Analysis.build(fixture_T_A()).glob
    assert g.delta_tilde_N == 0 == 2 - 1 - 1
    assert g.genus == 0

    g = Analysis.build(fixture_T_D()).glob
    assert g.delta_tilde_N == -4 == g.delta_N - g.D_prime_of_T
    assert g.genus is None

    g = Analysis.build(fixture_T_C((1, 1, 1))).glob
    assert g.delta_tilde_N == 2
    assert g.genus == 1


def test_fixture_defect_table():
    expected = {
        "T_A": 0,
        "T_B_1_1": 0,
        "T_B_1_2": 0,
        "T_B_2_3": 0,
        "T_C_1_1_1": 2,
        "T_C_1_1_2": 2,
        "T_C_1_2_3": 2,
    }
    for name, want in expected.items():
        assert corpora.analysis(name).glob.delta_tilde_N == want, name


def test_nd_star_and_xi():
    t = fixture_T_A()
    g = Analysis.build(t).glob
    assert g.nd_star == {"v0"}
    assert Analysis.build(t).ledger.per_vertex["v0"].xi == 1
    assert g.xi_N == 1

    g = Analysis.build(fixture_T_D()).glob
    assert g.nd_star == frozenset()
    assert g.xi_N == 0

    t = fixture_T_B(1, 1)
    assert Analysis.build(t).glob.nd_star == {"v0"}
    assert Analysis.build(t).ledger.per_vertex["v0"].xi == 2  # two unit entries in the type


def test_epsilon_prime_components():
    led = Analysis.build(fixture_T_D()).ledger
    w = led.per_vertex["w"]
    assert w.a_star == 1  # dead end decorated 2
    # b = 1: its one dicritical has degree 3 < N_w = 6
    assert w.epsilon_prime - w.a_star - w.epsilon == 1
    assert w.epsilon_prime == 3


def test_requires_minimal_completeness():
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX), Cell("t1", ARROW, 1)]
    edges = [make_edge("v0", 1, "u", 0), make_edge("u", 1, "t1", 1)]
    t = build_tree(cells, edges, "v0")
    with pytest.raises(NotMinimallyCompleteError):
        Analysis.build(t)


def test_d_value_and_purity():
    led = Analysis.build(fixture_T_D()).ledger
    assert led.per_vertex["v0"].d == 6  # not a node: d = N
    assert led.per_vertex["w"].d == 3
    assert not led.per_vertex["w"].pure  # type (3,) with N = 6
    assert led.per_vertex["v0"].pure  # vacuously
