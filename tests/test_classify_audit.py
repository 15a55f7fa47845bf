import dataclasses
import hashlib
import time
from collections import Counter
from itertools import combinations

import pytest

from newton_forest.classify_audit import (
    REGISTRY,
    _dead_end_products,
    _dicritical_sums,
    audit_analysis,
    audit_failures,
    divisor_trichotomy,
    is_rational_tree,
    rational_structure_report,
    recognize_canonical,
    root_fan_data,
    theorem_audit,
)
from newton_forest.local_invariants import VertexLedger
from newton_forest.oracle_gen import _assemble, _skeleton_near, _solve_supports, _VertexPlan
from newton_forest.report import Analysis

import corpora
from corpora import CORPUS_120_6, CORPUS_A, CORPUS_B, FIXTURES, RATIONAL
from oracles import (
    a_value,
    cell_node_h_products,
    cell_source_multiplicities,
    fixture_T_A,
    fixture_T_B,
    fixture_T_C,
    fixture_T_D,
    path_dead_end_product,
)


def analysis(tree):
    return Analysis.build(tree)


def test_is_rational_tree():
    assert is_rational_tree(analysis(fixture_T_A()))
    assert not is_rational_tree(analysis(fixture_T_C((1, 1, 1))))  # defect 2
    assert not is_rational_tree(analysis(fixture_T_D()))  # defect -4


def test_root_fan_data_T_A():
    fan = root_fan_data(analysis(fixture_T_A()))
    assert fan.delta == 1 and fan.N == 1
    (entry,) = fan.entries
    assert (entry.a, entry.d, entry.k, entry.x) == (1, 1, 1, 0)


def test_root_fan_data_T_C_1_2_3():
    fan = root_fan_data(analysis(fixture_T_C((1, 2, 3))))
    assert fan.delta == 3 and fan.N == 6
    rows = sorted((e.d, e.k, e.a) for e in fan.entries)
    assert rows == [(1, 6, 1), (2, 3, 1), (3, 2, 1)]


def test_root_fan_data_T_B_1_1():
    fan = root_fan_data(analysis(fixture_T_B(1, 1)))
    assert fan.delta == 2
    assert sorted((e.a, e.d) for e in fan.entries) == [(1, 1), (1, 1)]


def test_root_fan_data_needs_single_skeleton():
    with pytest.raises(ValueError):
        root_fan_data(analysis(fixture_T_D()))


def test_recognize_canonical_families():
    assert str(recognize_canonical(analysis(fixture_T_A()))) == "T_A"
    assert str(recognize_canonical(analysis(fixture_T_B(2, 3)))) == "T_B(2,3)"
    assert str(recognize_canonical(analysis(fixture_T_C((1, 1, 2))))) == "T_C(1,1,2)"
    assert recognize_canonical(analysis(fixture_T_D())) is None


def test_recognition_requires_exact_family_data():
    # a single degree-2 dicritical is a valid fan but matches no family
    from newton_forest.tree_model import ARROW, VERTEX, Cell, build_tree, make_edge

    cells = [Cell("v0", VERTEX), Cell("u", VERTEX), Cell("t1", ARROW, 1),
             Cell("t2", ARROW, 1), Cell("o1", ARROW, 0)]
    edges = [make_edge("v0", 1, "u", 0), make_edge("u", 1, "t1", 1),
             make_edge("u", 1, "t2", 1), make_edge("u", 1, "o1", 1)]
    t = build_tree(cells, edges, "v0")
    a = analysis(t)
    assert a.info.minimally_complete
    assert recognize_canonical(a) is None


def test_divisor_trichotomy_cases():
    a = analysis(fixture_T_A())
    assert divisor_trichotomy(a, "v0") == "a"  # N = 1

    a = analysis(fixture_T_B(2, 3))
    assert divisor_trichotomy(a, "v0") == "b"  # two unit degrees, N = 5


def test_rational_structure_report_canonical():
    rep = rational_structure_report(analysis(fixture_T_B(1, 2)))
    assert str(rep.recognized) == "T_B(1,2)"
    assert rep.chain == ()
    assert rep.failures == ()


def test_rational_structure_report_chain():
    # find a generated rational tree with a nontrivial skeleton
    found = None
    for key in CORPUS_A[:400]:
        a = corpora.analysis(key)
        if is_rational_tree(a) and len(a.struct.S) > 1:
            found = a
            break
    assert found is not None
    rep = rational_structure_report(found)
    assert rep.failures == ()
    assert len(rep.chain) > 1
    assert rep.trichotomy_case in ("a", "b", "c")


def test_rational_structure_report_rejects_non_rational():
    with pytest.raises(ValueError):
        rational_structure_report(analysis(fixture_T_D()))


def test_rational_report_survives_tampered_omega():
    # a tampered Omega is reported as a failing clause, never raised
    a = corpora.analysis(RATIONAL[0])
    assert is_rational_tree(a) and len(a.struct.S) > 1
    for omega in (frozenset(), frozenset({"v1"})):
        assert "v1" not in a.decompositions
        corrupt = dataclasses.replace(
            a, struct=dataclasses.replace(a.struct, Omega=omega)
        )
        failures = audit_failures(audit_analysis(corrupt))
        assert "rational-structure" in {f.check_id for f in failures}, omega
        rep = rational_structure_report(corrupt)
        assert rep.chain == () and rep.failures, omega


def test_theorem_audit_clean_on_fixtures():
    for name in FIXTURES:
        assert audit_failures(theorem_audit(corpora.tree(name))) == [], name


def test_audit_catches_corrupted_report():
    a = analysis(fixture_T_D())
    w = a.ledger.per_vertex["w"]
    tampered = dict(a.ledger.per_vertex)
    tampered["w"] = dataclasses.replace(w, delta_tilde=w.delta_tilde + 1)
    corrupt = dataclasses.replace(a, ledger=VertexLedger(per_vertex=tampered))
    failures = audit_failures(audit_analysis(corrupt))
    assert failures, "tampered defect went unnoticed"
    assert any("w" in f.witness for f in failures)


def test_audit_catches_corrupted_sigma():
    a = analysis(fixture_T_C((1, 2, 3)))
    v0 = a.ledger.per_vertex["v0"]
    tampered = dict(a.ledger.per_vertex)
    tampered["v0"] = dataclasses.replace(v0, sigma=v0.sigma + 1)
    corrupt = dataclasses.replace(a, ledger=VertexLedger(per_vertex=tampered))
    assert audit_failures(audit_analysis(corrupt))


def test_delta2_suite_gating():
    # defect-2 checks apply to the canonical fans, defect suites skip T_D
    results = {r.check_id for r in theorem_audit(fixture_T_C((1, 1, 2)))}
    assert "defect-two-structure" in results
    results = {r.check_id for r in theorem_audit(fixture_T_D())}
    assert "defect-two-structure" not in results
    assert "defect-four-structure" not in results


def test_root_degree_bound_gated_out_on_T_D():
    # defect -4 at root valency 1: the bound is false there and must not run
    results = {r.check_id for r in theorem_audit(fixture_T_D())}
    assert "root-degree-bound" not in results
    results = {r.check_id for r in theorem_audit(fixture_T_C((1, 2, 3)))}
    assert "root-degree-bound" in results


def _generated(predicate):
    for key in CORPUS_A[:300]:
        a = corpora.analysis(key)
        if predicate(a):
            return a
    raise AssertionError("no generated tree has the wanted shape")


def _dead_end_N():
    a = analysis(fixture_T_D())  # w carries the dead end ow
    N = {**a.table.N, "w": a.table.N["w"] + 1}
    return dataclasses.replace(a, table=dataclasses.replace(a.table, N=N))


def _linear_path_N():
    a = analysis(fixture_T_D())  # v0..w is a linear path: one edge
    N = {**a.table.N, "v0": a.table.N["v0"] + 1}
    return dataclasses.replace(a, table=dataclasses.replace(a.table, N=N))


def _node_d():
    a = analysis(fixture_T_D())  # w is the one node, with d = 3
    per = a.ledger.per_vertex
    w = dataclasses.replace(per["w"], d=4)  # 4 does not divide N_w = 6
    ledger = dataclasses.replace(a.ledger, per_vertex={**per, "w": w})
    return dataclasses.replace(a, ledger=ledger)


def _D_prime():
    a = analysis(fixture_T_D())
    glob = dataclasses.replace(a.glob, D_prime_of_T=a.glob.D_prime_of_T + 1)
    return dataclasses.replace(a, glob=glob)


def _gamma_walk_dropped():
    a = _generated(lambda a: a.struct.Gamma)
    struct = dataclasses.replace(a.struct, Gamma=a.struct.Gamma[1:])
    return dataclasses.replace(a, struct=struct)


def _comb_class_split():
    def multi_pair(dec):
        return any(len(cls.pairs) > 1 for cls in dec.classes)

    a = _generated(lambda a: any(map(multi_pair, a.decompositions.values())))
    z = next(z for z, dec in sorted(a.decompositions.items()) if multi_pair(dec))
    dec = a.decompositions[z]
    i = next(i for i, cls in enumerate(dec.classes) if len(cls.pairs) > 1)
    cls = dec.classes[i]
    head = dataclasses.replace(cls, pairs=cls.pairs[:1])
    tail = dataclasses.replace(cls, pairs=cls.pairs[1:])
    classes = dec.classes[:i] + (head,) + dec.classes[i + 1 :] + (tail,)
    split = dataclasses.replace(dec, classes=classes)
    return dataclasses.replace(a, decompositions={**a.decompositions, z: split})


def _comb_stat_bumped(field):
    a = _generated(lambda a: any(dec.stats for dec in a.decompositions.values()))
    z = next(z for z, dec in sorted(a.decompositions.items()) if dec.stats)
    dec = a.decompositions[z]
    stats = dataclasses.replace(dec.stats, **{field: getattr(dec.stats, field) + 1})
    bumped = dataclasses.replace(dec, stats=stats)
    return dataclasses.replace(a, decompositions={**a.decompositions, z: bumped})


def _fan_degree(d):
    a = analysis(fixture_T_C((1, 2, 3)))
    (u,) = [u for u in sorted(a.info.dicriticals) if a.info.degree[u] == 1]
    assert u in a.tree.neighbors(a.tree.root)
    degree = {**a.info.degree, u: d}
    return dataclasses.replace(a, info=dataclasses.replace(a.info, degree=degree))


def _fan_defect():
    # defect 4 keeps the defect/valency equivalence at root valency 3, so
    # only the fan defect identity ties the defect to the fan entries
    a = analysis(fixture_T_C((1, 2, 3)))
    glob = dataclasses.replace(a.glob, delta_tilde_N=a.glob.delta_tilde_N + 2)
    return dataclasses.replace(a, glob=glob)


@pytest.mark.parametrize(
    "corrupt, owner",
    [
        pytest.param(_dead_end_N, "dead-end-multiplicity", id="dead-end-N"),
        pytest.param(_linear_path_N, "linear-path-determinants", id="linear-path-N"),
        pytest.param(_node_d, "dicritical-sum-divisibility", id="node-d"),
        pytest.param(_D_prime, "global-defect-routes", id="D-prime"),
        pytest.param(_gamma_walk_dropped, "tooth-facts", id="gamma-walk-dropped"),
        pytest.param(_comb_class_split, "comb-relation", id="comb-class-split"),
        pytest.param(lambda: _comb_stat_bumped("x0"), "comb-decomposition", id="stats-x0"),
        pytest.param(lambda: _comb_stat_bumped("H"), "comb-decomposition", id="quotient-H"),
        pytest.param(lambda: _fan_degree(2), "single-skeleton-fan", id="fan-degree"),
        # 4 does not divide N = 6, so root_fan_data raises inside the check
        pytest.param(lambda: _fan_degree(4), "defect-two-structure", id="fan-degree-not-dividing"),
        pytest.param(_fan_defect, "single-skeleton-fan", id="fan-defect"),
    ],
)
def test_moved_identity_owned_by_registry(corrupt, owner):
    failed = {r.check_id for r in audit_failures(audit_analysis(corrupt()))}
    assert owner in failed, failed


_CHECKS = {check_id: run for check_id, _, run in REGISTRY}
_REWRITTEN = ("dicritical-sum-divisibility", "linear-path-determinants")


def _tampered_analyses():
    """Each analysis, then copies with N[v] moved by +1 and -2 for up to 12
    vertices, then copies with each node's d set to d+1, 2d and 7."""
    for a in corpora.analyses(FIXTURES + CORPUS_A[:150] + CORPUS_B[:12]):
        yield a
        for v in sorted(a.tree.vertices)[:12]:
            for step in (1, -2):
                N = {**a.table.N, v: a.table.N[v] + step}
                yield dataclasses.replace(a, table=dataclasses.replace(a.table, N=N))
        per = a.ledger.per_vertex
        for z in sorted(a.glob.nd):
            d = per[z].d
            for new in (d + 1, 2 * d, 7):
                node = dataclasses.replace(per[z], d=new)
                ledger = dataclasses.replace(a.ledger, per_vertex={**per, z: node})
                yield dataclasses.replace(a, ledger=ledger)


def test_registry_witnesses_pinned():
    # every witness of the two checks that read F, h and Q, in order, on
    # honest and tampered analyses; the digest was taken on the code that
    # called the path-by-path h and re-multiplied Q on every call
    digest = hashlib.sha256()
    cases = witnesses = 0
    for a in _tampered_analyses():
        cases += 1
        for check_id in _REWRITTEN:
            for witness in _CHECKS[check_id](a):
                witnesses += 1
                digest.update(witness.encode() + b"\n")
        digest.update(b"--\n")
    assert (cases, witnesses) == (3092, 12932)
    assert digest.hexdigest() == (
        "f3c5430da5f6edb5a040e0d6e52c09f19aff8084993f605b78a42c0dbf744e5b"
    )


def test_defect_two_witnesses_pinned():
    # every witness of `defect-two-structure` on seeds 0..299 at 40 cells,
    # each analysis with its global defect set to 2 so that the check runs.
    # No honest defect-2 tree in the corpora has more than one comb class;
    # 48 of these carry a decomposition with 2 or 3 classes, so both hub
    # branches and their side-class loop run.  The digest was taken while
    # each hub branch still had its own copy of that loop.
    run = _CHECKS["defect-two-structure"]
    digest = hashlib.sha256()
    multi = witnesses = 0
    for a in corpora.analyses(CORPUS_A[:300]):
        multi += any(len(d.classes) in (2, 3) for d in a.decompositions.values())
        a = dataclasses.replace(a, glob=dataclasses.replace(a.glob, delta_tilde_N=2))
        for witness in run(a):
            witnesses += 1
            digest.update(witness.encode() + b"\n")
    assert (multi, witnesses) == (48, 539)
    assert digest.hexdigest() == (
        "f27f6642319047e7ec4b731a5ac772c1a6841878f36f91458f6722a33604df26"
    )


def _comb_tampered_analyses():
    """The fixtures, seeds 0..299 at 40 cells and corpus B's seeds 0..11, each
    honest, then with one class of one decomposition split at every cut, then
    with every two classes of one decomposition merged."""
    for a in corpora.analyses(FIXTURES + CORPUS_A[:300] + CORPUS_B[:12]):
        yield a
        for z, dec in sorted(a.decompositions.items()):
            tampered = []
            for i, cls in enumerate(dec.classes):
                for cut in range(1, len(cls.pairs)):
                    head = dataclasses.replace(cls, pairs=cls.pairs[:cut])
                    tail = dataclasses.replace(cls, pairs=cls.pairs[cut:])
                    rest = dec.classes[i + 1 :]
                    tampered.append(dec.classes[:i] + (head, tail) + rest)
            for i, j in combinations(range(len(dec.classes)), 2):
                ci, cj = dec.classes[i], dec.classes[j]
                merged = dataclasses.replace(ci, pairs=ci.pairs + cj.pairs)
                rest = tuple(c for k, c in enumerate(dec.classes) if k not in (i, j))
                tampered.append((merged,) + rest)
            for classes in tampered:
                bad = {**a.decompositions, z: dataclasses.replace(dec, classes=classes)}
                yield dataclasses.replace(a, decompositions=bad)


def test_comb_relation_witnesses_pinned():
    # every `comb-relation` witness, in order, on honest analyses and on
    # copies whose comb classes were split or merged; the digest was taken
    # while the check walked each chain through the poset's predecessors
    run = _CHECKS["comb-relation"]
    digest = hashlib.sha256()
    cases = witnesses = 0
    for a in _comb_tampered_analyses():
        cases += 1
        for witness in run(a):
            witnesses += 1
            digest.update(witness.encode() + b"\n")
        digest.update(b"--\n")
    assert (cases, witnesses) == (698, 380)
    assert digest.hexdigest() == (
        "8d0365b3403936b30f750dbca64f23d2c374b98a299e805ed94b09da7a71f11f"
    )


def _moved_analyses():
    """The fixtures, seeds 0..149 at 40 cells and corpus B's seeds 0..11, each
    honest, then with a, delta-tilde and the first k moved by +1 at each of
    its first six positive vertices, then with M moved by -1 (to 0 where it
    is 1) and eta and the side defect by +1 at each of its first six pairs."""
    for a in corpora.analyses(FIXTURES + CORPUS_A[:150] + CORPUS_B[:12]):
        yield a
        per = a.ledger.per_vertex
        for v in sorted(per)[:6]:
            d = per[v]
            moved = [dict(a=d.a + 1), dict(delta_tilde=d.delta_tilde + 1)]
            if d.dicriticals:
                x = d.dicriticals[0]
                moved.append(dict(k={**d.k, x: d.k[x] + 1}))
            for change in moved:
                node = dataclasses.replace(d, **change)
                ledger = dataclasses.replace(a.ledger, per_vertex={**per, v: node})
                yield dataclasses.replace(a, ledger=ledger)
        pairs = a.chars.pairs
        for p in list(pairs)[:6]:
            data = pairs[p]
            for change in (
                dict(M=data.M - 1), dict(eta=data.eta + 1), dict(side_dt=data.side_dt + 1)
            ):
                moved_pairs = {**pairs, p: dataclasses.replace(data, **change)}
                chars = dataclasses.replace(a.chars, pairs=moved_pairs)
                yield dataclasses.replace(a, chars=chars)


_READ_R_OR_ORDER = (
    "root-facts",
    "unit-quotient-order",
    "local-R-identity",
    "global-R-identity",
    "tooth-facts",
    "loose-end-bound",
    "single-skeleton-fan",
    "comb-decomposition",
    "defect-two-structure",
    "rational-structure",
)


def test_R_and_order_witnesses_pinned():
    # every witness of the checks that read R, the a-values, the dead ends
    # or the tree order, each behind its gate, in order, on honest analyses
    # and on copies with one value moved.  R is read from the a, k and M
    # the report prints, so a moved one fails the R identities, and an M
    # moved to 0 leaves R undefined.
    checks = [(cid, gate, run) for cid, gate, run in REGISTRY if cid in _READ_R_OR_ORDER]
    assert len(checks) == len(_READ_R_OR_ORDER)
    digest = hashlib.sha256()
    cases = witnesses = undefined = 0
    for a in _moved_analyses():
        cases += 1
        for check_id, applies, run in checks:
            if applies(a):
                for witness in run(a):
                    witnesses += 1
                    undefined += witness.endswith("R undefined")
                    digest.update(f"{check_id}: {witness}\n".encode())
        digest.update(b"--\n")
    assert (cases, witnesses, undefined) == (2330, 5863, 96)
    assert digest.hexdigest() == (
        "3b9a4208131b11633367491ebf8e16808453564f10345e4eb3a6303a8c919625"
    )


def test_zero_multiplicity_gives_witnesses():
    # N set to 0 at each positive vertex in turn: the audit lists failures
    # and raises nothing, where `sigma-ratio` once divided sigma by N for
    # its witness and `single-skeleton-fan` 1 by the fan's k = N/d
    failed = Counter()
    copies = 0
    for a in corpora.analyses(FIXTURES + CORPUS_A[:200]):
        for v in sorted(a.ledger.per_vertex):
            N = {**a.table.N, v: 0}
            copy = dataclasses.replace(a, table=dataclasses.replace(a.table, N=N))
            copies += 1
            for r in audit_analysis(copy):
                if not r.passed and r.check_id in ("sigma-ratio", "single-skeleton-fan"):
                    failed[r.check_id] += 1
                    if r.check_id == "sigma-ratio":
                        assert r.witness.startswith(f"{v!r}: sigma/N=") and "/0 != " in r.witness
    assert copies == 443
    assert failed == {"sigma-ratio": 362, "single-skeleton-fan": 66}


def test_zero_a_or_k_gives_witnesses():
    # a set to 0 at each positive vertex in turn, then the first k at each
    # vertex with a dicritical: the audit lists failures and raises nothing,
    # where `defect-formulas` once took N // a, `trivial-chain-characteristics`
    # d / a, `rational-structure` N // a in `divisor_trichotomy`, and
    # `sigma-ratio` L // k with L = lcm(k, ...) = 0
    failed = {"a": Counter(), "k": Counter()}
    copies = Counter()
    for a in corpora.analyses(FIXTURES + CORPUS_A[:100]):
        per = a.ledger.per_vertex
        for v in sorted(per):
            d = per[v]
            changes = [("a", dict(a=0))]
            if d.dicriticals:
                changes.append(("k", dict(k={**d.k, d.dicriticals[0]: 0})))
            for kind, change in changes:
                node = dataclasses.replace(d, **change)
                ledger = dataclasses.replace(a.ledger, per_vertex={**per, v: node})
                copies[kind] += 1
                for r in audit_analysis(dataclasses.replace(a, ledger=ledger)):
                    if r.passed:
                        continue
                    failed[kind][r.check_id] += 1
                    if r.check_id == "defect-formulas":
                        assert f"{v!r}: N/a undefined" in r.witness
                    if r.check_id == "sigma-ratio":
                        assert r.witness == f"{v!r}: 1/k undefined"
    assert copies == {"a": 223, "k": 217}
    assert failed["a"] == {
        "defect-formulas": 223,
        "local-R-identity": 223,
        "global-R-identity": 223,
        "trivial-chain-characteristics": 161,
        "low-end-vertices": 93,
        "unit-node-budget": 47,
        "rational-structure": 46,
        "single-skeleton-fan": 42,
        "unit-multiplicity-vertex": 23,
    }
    assert failed["k"] == {
        "node-factorization": 217,
        "sigma-ratio": 217,
        "local-R-identity": 217,
        "global-R-identity": 217,
        "single-skeleton-fan": 42,
    }


def test_rational_report_same_at_every_initial_vertex():
    # `analyze --z z` decomposes at z alone; the rational report must not
    # depend on which initial vertex the analysis was built at
    rational = wide = pairs = 0
    for a in corpora.analyses(FIXTURES + RATIONAL[:40]):
        tree = a.tree
        if not is_rational_tree(a):
            continue
        rational += 1
        wide += len(a.struct.S) > 1
        want = rational_structure_report(a)
        for z in sorted(a.struct.In):
            assert rational_structure_report(Analysis.build(tree, z=z)) == want, z
            pairs += 1
    assert (rational, wide, pairs) == (44, 31, 71)


def test_wide_fan_audit_clean_and_linear():
    # 128 degree-1 dicriticals on one root.  On a 2-core VM with Python
    # 3.11 the two checks take 0.11-0.19 s when h is taken path by path and
    # Q re-multiplied per call, and under 0.01 s with one walk per node and
    # the Q table, so the bound leaves 5x headroom and still fails the former.
    plan = [_VertexPlan(None, 1, 1, None, 0, [(1, 1)] * 128)]
    a = analysis(_assemble(plan, _solve_supports(plan, _skeleton_near(plan))))
    results = audit_analysis(a)
    assert {r.check_id for r in results} >= set(_REWRITTEN)
    assert audit_failures(results) == []
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for check_id in _REWRITTEN:
            assert _CHECKS[check_id](a) == []
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


def test_comb_checks_read_the_comb_pairs(monkeypatch):
    # once the analysis is built, `comb-relation` and the rational report's
    # chain clause read `struct.combs`: neither computes R, and
    # `comb-relation` takes one tree path per pair of each decomposition
    from newton_forest import classify_audit, structure
    from newton_forest.tree_model import DecoratedRootedTree

    keys = FIXTURES + CORPUS_A[:100] + RATIONAL[:40]
    analyses = [analysis(corpora.fresh(key)) for key in keys]

    def no_R(*args):
        raise AssertionError("R recomputed")

    monkeypatch.setattr(structure, "R_of", no_R)
    monkeypatch.setattr(classify_audit, "R_of", no_R)
    calls = 0
    path = DecoratedRootedTree.path

    def counted(self, x, y):
        nonlocal calls
        calls += 1
        return path(self, x, y)

    monkeypatch.setattr(DecoratedRootedTree, "path", counted)
    rational = interior = pairs = 0
    for a in analyses:
        calls = 0
        assert _CHECKS["comb-relation"](a) == []
        bound = sum(len(dec.O) for dec in a.decompositions.values())
        assert calls <= bound
        pairs += bound
        if is_rational_tree(a):
            rep = rational_structure_report(a)
            assert rep.failures == ()
            rational += 1
            interior += sum(c.check_id == "interior-comb" for c in rep.clauses)
    assert (rational, interior, pairs) == (75, 2, 252)


def test_divisor_trichotomy_case_c():
    # the (2, b, b) shape with b = 3 odd and N = 2b: give T_C((1,1,1))'s
    # dicriticals the degrees (2, 3, 3) and the root N = 6
    a = analysis(fixture_T_C((1, 1, 1)))
    degree = dict(zip(sorted(a.info.dicriticals), (2, 3, 3)))
    a = dataclasses.replace(
        a,
        info=dataclasses.replace(a.info, degree=degree),
        table=dataclasses.replace(a.table, N={**a.table.N, "v0": 6}),
    )
    assert divisor_trichotomy(a, "v0") == "c"


def test_dicritical_sums_match_the_cell_level_passes():
    # N, the sum of F, h and h-hat at every (node, base), from the passes
    # over the vertices, equal one pass over every cell per node
    checked = 0
    for a in corpora.analyses(FIXTURES + CORPUS_A[:300] + CORPUS_B + CORPUS_120_6):
        tree = a.tree
        want = []
        for z in sorted(a.glob.nd):
            A = frozenset(
                alpha
                for u in a.ledger.per_vertex[z].dicriticals
                for alpha in tree.neighbors(u)
                if alpha in tree.arrows1
            )
            N, F = cell_source_multiplicities(tree, A)
            hs = cell_node_h_products(tree, A)
            for w in sorted(tree.vertices):
                sxh = sum(F[w, n] for n in tree.neighbors(w))
                want.append((z, w, N[w], sxh, *hs[w]))
        assert list(_dicritical_sums(a)) == want
        checked += len(want)
    assert checked > 7500  # 7976 (node, base) pairs


def test_carried_dead_end_products_match_the_path_products():
    # `characteristic-chain-divisibility` carries the dead-end products out
    # from each pair's vertex u; at every comparable pair below (u, e), and
    # at every node on its n-side, the carried product is the one walked
    # along the tree path to u, u left out.  Where a(x) or a(u) exceeds 1, a
    # product that left out x or took in u would differ.
    checked = Counter()
    for a in corpora.analyses(FIXTURES + CORPUS_A + CORPUS_B):
        pairs = a.chars.pairs
        for top, dtop in pairs.items():
            u = top[0]
            alpha = _dead_end_products(a.table.fold, u)
            below = [bot[0] for bot in pairs if a.chars.precedes(bot, top)]
            for kind, xs in (("pairs", below), ("nodes", a.glob.nd & dtop.n_side)):
                for x in xs:
                    want = path_dead_end_product(a.tree, x, u)
                    assert alpha[x] == want, (top, x)
                    checked[kind] += 1
                    checked[kind, "a(x) > 1"] += a_value(a.tree, x) > 1
                    checked[kind, "a(u) > 1"] += a_value(a.tree, u) > 1
    assert checked == {
        "pairs": 1294,
        ("pairs", "a(x) > 1"): 148,
        ("pairs", "a(u) > 1"): 313,
        "nodes": 3683,
        ("nodes", "a(x) > 1"): 768,
        ("nodes", "a(u) > 1"): 745,
    }
