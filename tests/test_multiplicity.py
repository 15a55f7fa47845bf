from newton_forest.multiplicity import classify, multiplicities, source_multiplicities
from newton_forest.oracle_gen import GeneratorConfig, generate, oracle_N
from newton_forest.tree_io import (
    fixture_corpus,
    fixture_T_A,
    fixture_T_B,
    fixture_T_C,
    fixture_T_D,
)
from newton_forest.tree_model import ARROW, VERTEX, Cell, build_tree, make_edge


def test_x_values_T_A():
    x = multiplicities(fixture_T_A()).x
    assert x[("v0", "t1")] == 1
    assert x[("u", "t1")] == 0


def test_x_values_T_B():
    x = multiplicities(fixture_T_B(1, 2)).x
    assert x[("v0", "t1")] == 1  # a1
    assert x[("u1", "t2")] == 2  # a1 * a2 along (u1, v0, u2, t2)
    x = multiplicities(fixture_T_B(2, 3)).x
    assert x[("v0", "t1")] == 2
    assert x[("u1", "t2")] == 6


def test_x_hat_T_D():
    x_hat = multiplicities(fixture_T_D()).x_hat
    for b in ("t1", "t2", "t3"):
        assert x_hat[("v0", b)] == 2


def test_x_rejects_zero_arrows():
    # x is indexed by (1)-arrows only: a (0)-arrow never appears as a target
    tab = multiplicities(fixture_T_A())
    assert ("v0", "o1") not in tab.x and ("v0", "o1") not in tab.x_hat
    assert {b for _, b in tab.x} == {"t1"}


def test_x_factorization():
    # x(v, b) = Q(e, v) * x-hat(v, b) with e the first path edge
    for t in (fixture_T_B(2, 3), fixture_T_C((1, 2, 3)), fixture_T_D()):
        tab = multiplicities(t)
        for v in sorted(t.vertices):
            for b in sorted(t.arrows1):
                e = t.edge_between(v, t.path(v, b)[1])
                assert tab.x[(v, b)] == t.Q(e, v) * tab.x_hat[(v, b)]


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
    info = classify(t)
    assert info.generic and info.complete and info.minimally_complete
    assert info.dicriticals == {"u"}
    assert info.degree["u"] == 1


def test_classify_T_D():
    info = classify(fixture_T_D())
    assert info.minimally_complete
    assert info.degree == {"u": 3}


def test_classify_valency_two_dicritical():
    # T_A without the dead end: the dicritical has valency 2 and no dead end
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX), Cell("t1", ARROW, 1)]
    edges = [make_edge("v0", 1, "u", 0), make_edge("u", 1, "t1", 1)]
    t = build_tree(cells, edges, "v0")
    info = classify(t)
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
    info = classify(t)
    assert not info.generic
    assert not info.minimally_complete


def test_source_multiplicities_match_oracle():
    # generated trees carry zero decorations, which the pass must keep exact
    trees = list(fixture_corpus().values())
    trees += [generate(GeneratorConfig(seed=s, max_cells=40)) for s in range(60)]
    trees += [
        generate(GeneratorConfig(seed=s, max_cells=400, max_dicritical_degree=120))
        for s in range(4)
    ]
    for tree in trees:
        N = source_multiplicities(tree)
        assert N == {v: oracle_N(tree, v) for v in tree.vertices | tree.arrows0}
        assert list(N) == sorted(N)
