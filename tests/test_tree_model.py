import hashlib
import math
import random

import pytest

from newton_forest.errors import TreeStructureError
from newton_forest.multiplicity import multiplicities
from newton_forest.tree_model import (
    ARROW,
    VERTEX,
    Cell,
    Edge,
    build_tree,
    make_edge,
    validate_axioms,
)

import corpora
from corpora import CORPUS_A, CORPUS_B, FIXTURES
from oracles import Q, fixture_T_A, fixture_T_B, fixture_T_C, fixture_T_D


def ta_parts():
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
    return cells, edges


def test_build_T_A_counts():
    t = fixture_T_A()
    assert len(t.vertices) == 2
    assert len(t.arrows) == 2
    assert t.arrows0 == {"o1"}
    assert t.arrows1 == {"t1"}


def test_build_disconnected():
    cells, edges = ta_parts()
    with pytest.raises(TreeStructureError, match="disconnected"):
        build_tree(cells, edges[1:], "v0")


def test_build_duplicate_edge():
    cells, edges = ta_parts()
    with pytest.raises(TreeStructureError, match="not a tree"):
        build_tree(cells, edges + [make_edge("v0", 1, "u", 0)], "v0")


def test_build_duplicate_id():
    cells, edges = ta_parts()
    with pytest.raises(TreeStructureError, match="duplicate cell id"):
        build_tree(cells + [Cell("u", VERTEX)], edges, "v0")


def test_build_kind_cross_check():
    cells, edges = ta_parts()
    cells[2] = Cell("t1", VERTEX)  # valency-1 non-root cell cannot be a vertex
    with pytest.raises(TreeStructureError, match="classifies as"):
        build_tree(cells, edges, "v0")


def test_root_is_vertex_even_at_valency_one():
    t = fixture_T_A()
    assert t.valency("v0") == 1
    assert "v0" in t.vertices


def test_missing_arrow_decoration():
    cells, edges = ta_parts()
    cells[3] = Cell("o1", ARROW, None)
    with pytest.raises(TreeStructureError, match="decorated 0 or 1"):
        build_tree(cells, edges, "v0")


def test_Q_values():
    t = fixture_T_A()
    e = t.edge_between("v0", "u")
    assert Q(t, e, "u") == 1  # product over the two arrow edges
    assert Q(t, e, "v0") == 1  # empty product
    assert multiplicities(t).fold.near("u", "v0") == (0, 1)
    tb = fixture_T_B(1, 2)
    e = tb.edge_between("v0", "u1")
    assert Q(tb, e, "u1") == 1  # dead end (a1=1) times arrow edge
    assert multiplicities(tb).fold.near("u1", "v0") == (-2, 1)
    with pytest.raises(ValueError):
        Q(t, e, "t1")  # not an end of the edge


def test_Q_is_product_of_other_decorations():
    # at every vertex c: near(c, n) gives the decoration near c on the
    # vertex edge {c, n} and Q, the product of those on c's other edges
    trees = [fixture_T_B(2, 3), fixture_T_C((1, 2, 3)), fixture_T_D()]
    trees += corpora.trees(CORPUS_A[:20])
    for t in trees:
        fold = multiplicities(t).fold
        for c in sorted(t.cells):
            for e in t.incident_edges(c):
                others = [f.q_near(c) for f in t.incident_edges(c) if f != e]
                assert Q(t, e, c) == math.prod(others), (c, str(e))
                if c in t.vertices and e.other(c) in t.vertices:
                    n = e.other(c)
                    assert fold.near(c, n) == (e.q_near(c), Q(t, e, c)), (c, str(e))


def test_edge_determinants():
    fold = multiplicities(fixture_T_A()).fold
    assert fold.determinant("v0", "u") == -1
    fb = multiplicities(fixture_T_B(1, 2)).fold
    assert fb.determinant("v0", "u1") == -3
    with pytest.raises(KeyError):
        fold.determinant("u", "t1")  # an arrow is no vertex of the fold


def test_determinant_symmetric_in_ends():
    # q(e,x) q(e,y) - Q(e,x) Q(e,y) on every vertex edge e = {x, y}, from
    # either end and from the definition of Q
    for name in FIXTURES:
        t = corpora.tree(name)
        fold = multiplicities(t).fold
        for y, (x, _, _) in fold.parent.items():
            e = t.edge_between(x, y)
            want = e.q_near(x) * e.q_near(y) - Q(t, e, x) * Q(t, e, y)
            assert fold.determinant(x, y) == fold.determinant(y, x) == want, (name, str(e))


def test_paths_and_order():
    td = fixture_T_D()
    assert td.path("v0", "t1") == ("v0", "w", "u", "t1")
    assert td.path("t1", "v0") == ("t1", "u", "w", "v0")
    assert td.path("w", "w") == ("w",)

    ta = fixture_T_A()
    assert ta.less_than("v0", "u")
    assert not ta.less_than("u", "v0")

    tb = fixture_T_B(1, 1)
    assert not tb.less_than("u1", "u2")
    assert not tb.less_than("u2", "u1")


def test_order_trichotomy():
    t = fixture_T_C((1, 2, 3))
    ids = t.cell_ids()
    for x in ids:
        for y in ids:
            flags = [t.less_than(x, y), t.less_than(y, x), x == y]
            comparable = sum(flags)
            assert comparable <= 1 or (x == y and comparable == 1)


def test_connected_subsets():
    t = fixture_T_D()
    assert t.connected({"v0", "w", "u"})
    assert not t.connected({"v0", "u"})
    assert t.connected({"w"})
    assert t.connected(set())


def test_axioms_pass_on_fixtures():
    for t in (fixture_T_A(), fixture_T_B(1, 1), fixture_T_B(2, 3),
              fixture_T_C((1, 2, 3)), fixture_T_D()):
        assert validate_axioms(t) == []


def test_axiom3_violation():
    cells, edges = ta_parts()
    edges[0] = make_edge("v0", 2, "u", 0)
    t = build_tree(cells, edges, "v0")
    diags = validate_axioms(t)
    assert any(d.axiom_id == 3 for d in diags)


def test_axiom1_violation():
    # a (0)-arrow only: no (1)-arrow above any vertex
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX),
             Cell("o1", ARROW, 0), Cell("o2", ARROW, 0), Cell("o3", ARROW, 0)]
    edges = [make_edge("v0", 1, "u", 1), make_edge("u", 1, "o1", 1),
             make_edge("u", 1, "o2", 1), make_edge("u", 1, "o3", 1)]
    t = build_tree(cells, edges, "v0")
    assert any(d.axiom_id == 1 for d in validate_axioms(t))
    assert any(d.axiom_id == 2 for d in validate_axioms(t))


def test_axiom5_coprime_violation():
    td = fixture_T_D()
    cells = list(td.cells.values())
    edges = [e for e in td.edges if e.ends != ("v0", "w")]
    edges.append(make_edge("v0", 1, "w", 0))  # gcd(0, 2) with the dead end
    t = build_tree(cells, edges, "v0")
    assert any(d.axiom_id == 5 for d in validate_axioms(t))


def test_axiom6_violation():
    cells = [Cell("v0", VERTEX), Cell("u", VERTEX),
             Cell("t1", ARROW, 1), Cell("o1", ARROW, 0)]
    edges = [make_edge("v0", 1, "u", 1),  # det = 1*1 - 1*1 = 0
             make_edge("u", 1, "t1", 1), make_edge("u", 1, "o1", 1)]
    t = build_tree(cells, edges, "v0")
    assert any(d.axiom_id == 6 for d in validate_axioms(t))


def test_validation_reports_all_diagnostics():
    cells, edges = ta_parts()
    edges[0] = make_edge("v0", 2, "u", 4)  # axiom 3 and axiom 6 (det=8-1>0)
    t = build_tree(cells, edges, "v0")
    ids = {d.axiom_id for d in validate_axioms(t)}
    assert 3 in ids and 6 in ids


def test_valency_rules_on_validated_trees():
    for t in (fixture_T_B(2, 3), fixture_T_C((1, 1, 2)), fixture_T_D()):
        assert validate_axioms(t) == []
        for v in t.vertices:
            if v != t.root:
                assert t.valency(v) >= 2


# sha256 over the outcome of every mutant of generator seeds 0..59 at
# max_cells=40: each edge end's decoration set to each of MUTANT_DECORATIONS,
# each arrow's 0/1 decoration flipped, and each edge dropped.  The outcome is
# the `validate_axioms` diagnostics in order, or the `TreeStructureError`
# text.  Any change to a diagnostic's text or order moves it.
PINNED_VALIDATE_SHA256 = "2f6b809e6fb30ceff10d6189f23fc295a2ae077170e8f69ac5117aa92bf85078"
MUTANT_DECORATIONS = (-2, 0, 2, 3, 6)


def _mutants(tree):
    cells = list(tree.cells.values())
    edges = list(tree.edges)
    for i, e in enumerate(edges):
        for end in (0, 1):
            for q in MUTANT_DECORATIONS:
                qs = list(e.q)
                qs[end] = q
                yield cells, edges[:i] + [Edge(e.ends, tuple(qs))] + edges[i + 1:]
    for i, c in enumerate(cells):
        if c.kind == ARROW:
            flipped = Cell(c.id, ARROW, 1 - c.arrow_decoration)
            yield cells[:i] + [flipped] + cells[i + 1:], edges
    for i in range(len(edges)):
        yield cells, edges[:i] + edges[i + 1:]


def test_validate_bytes_pinned():
    digest = hashlib.sha256()
    for tree in corpora.trees(CORPUS_A[:60]):
        for cells, edges in _mutants(tree):
            try:
                lines = [str(d) for d in validate_axioms(build_tree(cells, edges, tree.root))]
            except TreeStructureError as exc:
                lines = [f"structure: {exc}"]
            digest.update(("\n".join(lines) + "\0").encode("utf-8"))
    assert digest.hexdigest() == PINNED_VALIDATE_SHA256


# The definitions of the classification sets: cells by their declared kind,
# and arrows by their declared decoration.  A tree that builds has declared
# every kind and decoration as the search classifies it.
def _reference_sets(tree):
    return {
        "vertices": frozenset(c for c, cell in tree.cells.items() if cell.kind == VERTEX),
        "arrows": frozenset(c for c, cell in tree.cells.items() if cell.kind == ARROW),
        "arrows0": frozenset(
            c for c, cell in tree.cells.items()
            if cell.kind == ARROW and cell.arrow_decoration == 0
        ),
        "arrows1": frozenset(
            c for c, cell in tree.cells.items()
            if cell.kind == ARROW and cell.arrow_decoration == 1
        ),
    }


def test_classification_sets_match_their_definition():
    small = corpora.trees(FIXTURES + CORPUS_A[:100])
    trees = small + corpora.trees(CORPUS_B[:12])
    mutants = []
    for tree in small:
        for cells, edges in _mutants(tree):
            try:
                mutants.append(build_tree(cells, edges, tree.root))
            except TreeStructureError:
                pass
    assert len(mutants) > 10000
    for tree in trees + mutants:
        want = _reference_sets(tree)
        assert {name: getattr(tree, name) for name in want} == want
    # the depths, derived from the search on first use
    for tree in trees:
        for c in tree.cells:
            assert tree._depth[c] == len(tree.path(tree.root, c)) - 1


# sha256 over the outcome of 2000 single-decoration mutants of roadmap corpus
# B (seeds 0..39 at max_cells=400, max_dicritical_degree=120), drawn with
# random.Random(0) from the edge ends at vertices, so most land on the large
# fans: the decoration near that vertex set to one of MUTANT_DECORATIONS.  The
# outcome is as in PINNED_VALIDATE_SHA256.
PINNED_FAN_VALIDATE_SHA256 = "73d8ba3dcd18482d88df8035940fc8049ef4f12536b9b1048624b67d2e2dbb1e"


def test_validate_fan_mutants_pinned():
    trees = corpora.trees(CORPUS_B)
    slots = [
        (t, i, end)
        for t, tree in enumerate(trees)
        for i, e in enumerate(tree.edges)
        for end in (0, 1)
        if e.ends[end] in tree.vertices
    ]
    rng = random.Random(0)
    digest = hashlib.sha256()
    for t, i, end in sorted(rng.sample(slots, 2000)):
        tree = trees[t]
        edges = list(tree.edges)
        qs = list(edges[i].q)
        qs[end] = rng.choice(MUTANT_DECORATIONS)
        edges[i] = Edge(edges[i].ends, tuple(qs))
        try:
            built = build_tree(list(tree.cells.values()), edges, tree.root)
            lines = [str(d) for d in validate_axioms(built)]
        except TreeStructureError as exc:
            lines = [f"structure: {exc}"]
        digest.update(("\n".join(lines) + "\0").encode("utf-8"))
    assert digest.hexdigest() == PINNED_FAN_VALIDATE_SHA256
