import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from newton_forest.characteristic import (
    R_of,
    characteristic_numbers,
    rational_divides,
    rational_gcd,
)
from newton_forest.cli import run
from newton_forest.errors import InternalInconsistencyError
from newton_forest.local_invariants import VertexLedger, vertex_ledger
from newton_forest.multiplicity import classify, multiplicities
from newton_forest.report import Analysis
from newton_forest.tree_io import serialize
from newton_forest.tree_model import DecoratedRootedTree

import corpora
from corpora import CORPUS_A, CORPUS_B, FIXTURES
from oracles import (
    R_definition,
    _oracle_x,
    delta_bar,
    fixture_T_A,
    fixture_T_B,
    fixture_T_C,
    fixture_T_D,
    oracle_h,
    path_dead_end_product,
)


def test_rational_gcd_basic():
    assert rational_gcd([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)
    assert rational_gcd([]) == 0
    assert rational_gcd([Fraction(0)]) == 0


def test_rational_gcd_multiples():
    for x in (Fraction(3, 7), Fraction(-5, 4), Fraction(2)):
        assert rational_gcd([x, 2 * x, 5 * x]) == abs(x)


def test_rational_gcd_with_integers_matches_int_gcd():
    assert rational_gcd([6, 10, 15]) == 1
    assert rational_gcd([6, 10]) == 2
    assert rational_gcd([0, 4, 6]) == 2


def test_rational_divides():
    assert rational_divides(Fraction(3, 2), 6)
    assert not rational_divides(Fraction(3, 2), 2)
    assert rational_divides(0, 0)
    assert not rational_divides(0, 1)


def test_rational_divides_ints_match_fractions():
    # two ints take the integer path; any Fraction argument takes the other
    for a in range(-7, 8):
        for b in range(-30, 31):
            want = b == 0 if a == 0 else b % a == 0
            assert rational_divides(a, b) is want, (a, b)
            assert rational_divides(Fraction(a), Fraction(b)) is want, (a, b)
            assert rational_divides(Fraction(a), b) is want, (a, b)
    assert rational_divides(-3, 6) and rational_divides(3, -6)
    assert rational_divides(-4, 0) and not rational_divides(0, -4)
    assert not rational_divides(-4, 6) and not rational_divides(4, -6)


def test_poset_T_A_empty():
    assert Analysis.build(fixture_T_A()).chars.pairs == {}


def test_poset_T_D():
    t = fixture_T_D()
    chars = Analysis.build(t).chars
    e = t.edge_between("v0", "w")
    assert list(chars.pairs) == [("v0", e), ("w", e)]
    assert chars.pairs[("v0", e)].n_side == {"w"}
    assert chars.pairs[("w", e)].n_side == {"v0"}
    assert not chars.precedes(("v0", e), ("w", e))
    assert not chars.precedes(("w", e), ("v0", e))


def test_alpha_products_T_D():
    t = fixture_T_D()
    # a(v0) = 1 and a(w) = 2; the far end of the path is left out
    assert path_dead_end_product(t, "v0", "w") == 1
    assert path_dead_end_product(t, "w", "v0") == 2
    assert path_dead_end_product(t, "w", "w") == 1
    assert path_dead_end_product(t, "v0", "v0") == 1


def test_characteristic_numbers_T_D():
    t = fixture_T_D()
    chars = Analysis.build(t).chars
    e = t.edge_between("v0", "w")
    w, v0 = chars.pairs[("w", e)], chars.pairs[("v0", e)]
    assert (w.c, w.M, w.eta) == (6, 1, 0)
    assert (v0.c, v0.M, v0.eta) == (Fraction(3, 2), 4, Fraction(3, 2))
    assert w.nonpositive and not v0.nonpositive


def test_minimal_pair_at_bare_root():
    # the far end of the only positive edge is a non-node root of valency 1,
    # so the characteristic number equals its multiplicity
    t = fixture_T_D()
    chars = Analysis.build(t).chars
    e = t.edge_between("v0", "w")
    assert chars.pairs[("w", e)].c == 6  # N at the root


def test_p_and_p_prime_split():
    t = fixture_T_D()
    chars = Analysis.build(t).chars
    e = t.edge_between("v0", "w")
    assert chars.pairs[("v0", e)].p == 6
    assert chars.pairs[("v0", e)].p_prime == 0
    assert chars.pairs[("w", e)].p == 0
    assert chars.pairs[("w", e)].p_prime == 6


def _far_side(tree, u, v):
    """Cells reached from v without crossing the edge back to u."""
    seen, stack = {v}, [v]
    while stack:
        c = stack.pop()
        for n in tree.neighbors(c):
            if n not in seen and n != u:
                seen.add(n)
                stack.append(n)
    return seen


def test_p_and_p_prime_match_oracle():
    # p(u, e) sums x-hat(u, .) over the (1)-arrows beyond e, p'(u, e) sums
    # x-hat(v, .) over the rest, for e = {u, v}
    checked = 0
    for a in corpora.analyses(FIXTURES + CORPUS_A[:60] + CORPUS_B[:4]):
        tree = a.tree
        for (u, e), data in a.chars.pairs.items():
            v = e.other(u)
            beyond = _far_side(tree, u, v)
            ones = sorted(tree.arrows1)
            p = sum(_oracle_x(tree, u, b, hat=True) for b in ones if b in beyond)
            p_prime = sum(_oracle_x(tree, v, b, hat=True) for b in ones if b not in beyond)
            assert (data.p, data.p_prime) == (p, p_prime), (u, str(e))
            checked += 1
    assert checked > 100


def test_R_and_delta_bar_T_D():
    t = fixture_T_D()
    a = Analysis.build(t)
    ledger, chars = a.ledger, a.chars
    e = t.edge_between("v0", "w")
    assert R_of(ledger, chars, "w", [e]) == 1
    assert delta_bar(ledger, chars, "w", [e]) == -4
    assert R_of(ledger, chars, "v0", [e]) == Fraction(3, 4)
    assert R_of(ledger, chars, "v0", []) == 0
    assert delta_bar(ledger, chars, "v0", []) == -5


def test_R_table_matches_its_definition():
    # R(u, A) from base(u) and the pair terms, and Delta-bar(u, A) from
    # Delta-tilde(u) and the side defects, against their definitions for
    # every A of at most three edges and for all edges at u
    subsets = 0
    for a in corpora.analyses(FIXTURES + CORPUS_A[:300] + CORPUS_B[:12]):
        per = a.ledger.per_vertex
        for u, edges in a.chars.edges_at.items():
            sets = [A for size in range(min(3, len(edges)) + 1) for A in combinations(edges, size)]
            for A in sets + [edges]:
                assert R_of(a.ledger, a.chars, u, A) == R_definition(a.ledger, a.chars, u, A)
                bar = per[u].delta_tilde + sum(a.chars.pairs[u, e].side_dt for e in A)
                assert bar == delta_bar(a.ledger, a.chars, u, A), (u, A)
                subsets += 1
    assert subsets == 2377


def test_R_rejects_foreign_edges():
    t = fixture_T_D()
    a = Analysis.build(t)
    ledger, chars = a.ledger, a.chars
    dead = t.edge_between("w", "ow")
    with pytest.raises(ValueError):
        R_of(ledger, chars, "w", [dead])


def test_h_products_singleton_is_x():
    for t in (fixture_T_B(1, 2), fixture_T_C((1, 2, 3)), fixture_T_D()):
        for w in sorted(t.vertices):
            for alpha in sorted(t.arrows1):
                h, h_hat = oracle_h(t, w, [alpha])
                assert h == _oracle_x(t, w, alpha, hat=False)
                assert h_hat == _oracle_x(t, w, alpha, hat=True)


def test_h_products_T_B_both_arrows():
    t = fixture_T_B(1, 2)
    h, h_hat = oracle_h(t, "v0", ["t1", "t2"])
    assert h == 1 and h_hat == 1


def test_h_products_T_C_own_fan():
    t = fixture_T_C((1, 2, 3))
    h, h_hat = oracle_h(t, "u2", ["t2_1", "t2_2"])
    assert h == -2  # dead end (1) times the root-edge decoration (-2)
    assert h_hat == 1


def test_h_products_need_arrows():
    with pytest.raises(ValueError):
        oracle_h(fixture_T_A(), "v0", [])


def test_monotonicity_on_chain():
    # three-vertex skeleton from the analysis pipeline of a generated tree
    a = corpora.analysis(CORPUS_A[11])
    for top in a.chars.pairs:
        for bot in a.chars.pairs:
            if a.chars.precedes(bot, top):
                assert a.chars.pairs[top].c <= a.chars.pairs[bot].c
                assert a.chars.pairs[top].eta >= a.chars.pairs[bot].eta


def _table_text(chars):
    """Every pair in listing order with all its data, then script-E."""
    rows = [
        f"{u}|{e} {d.c} {d.M} {d.p} {d.p_prime} {d.eta} {d.nonpositive} "
        f"{sorted(d.n_side)}"
        for (u, e), d in chars.pairs.items()
    ]
    rows += [f"{u}: {' '.join(map(str, es))}" for u, es in chars.edges_at.items()]
    return "\n".join(rows) + "\n"


# sha256 over `_table_text` of the characteristic table of every fixture,
# generator seeds 0..49 at max_cells=40 and corpus B seeds 0..11, taken from
# the flood-fill construction the induction replaced.
PINNED_TABLES_SHA256 = "247acd60910b7b9aea2b0c6339510d2b4abf32800969f1b065ed71e7649eab02"


def test_induction_walks_no_paths(monkeypatch):
    # the table comes from the breadth-first order and script-E alone: no
    # neighbour list, path or edge lookup per pair
    inputs = []
    for tree in map(corpora.fresh, FIXTURES + CORPUS_A[:50] + CORPUS_B[:12]):
        table = multiplicities(tree)
        inputs.append((tree, table, vertex_ledger(tree, table, classify(tree, table))))

    def refused(*args, **kwargs):
        raise AssertionError("the induction walked the tree")

    for name in ("neighbors", "path", "edge_between"):
        monkeypatch.setattr(DecoratedRootedTree, name, refused)
    digest = hashlib.sha256()
    for args in inputs:
        digest.update(_table_text(characteristic_numbers(*args)).encode("utf-8"))
    assert digest.hexdigest() == PINNED_TABLES_SHA256


def test_induction_needs_a_positive_subtree_holding_the_root(
    tmp_path, monkeypatch, capsys
):
    # seed 34 has the positive chain v0 - v1 - v2 under the root v0
    tree = corpora.fresh(CORPUS_A[34])
    table = multiplicities(tree)
    ledger = vertex_ledger(tree, table, classify(tree, table))
    assert sorted(ledger.per_vertex) == ["v0", "v1", "v2"]
    assert tree.path("v0", "v2") == ("v0", "v1", "v2")

    def without(cell):
        return VertexLedger(
            per_vertex={v: d for v, d in ledger.per_vertex.items() if v != cell}
        )

    for cell in ("v0", "v1"):
        with pytest.raises(InternalInconsistencyError, match="subtree"):
            characteristic_numbers(tree, table, without(cell))

    # through the command line it is exit 3, with no traceback
    import newton_forest.report as report

    monkeypatch.setattr(
        report,
        "characteristic_numbers",
        lambda tree, table, ledger: characteristic_numbers(tree, table, without("v1")),
    )
    path = tmp_path / "seed34.ntree"
    path.write_text(serialize(tree))
    assert run(["analyze", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: the positive vertices")
