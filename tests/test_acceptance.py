"""Acceptance suite: each criterion prints one pass/fail line (run with -s).

The corpus for criteria 3-5 is the fixed seed set 0..999 at up to 40 cells.
"""

import hashlib
import json
import math
import time

import pytest

from newton_forest.classify_audit import (
    audit_analysis,
    audit_failures,
    is_rational_tree,
    rational_structure_report,
    recognize_canonical,
    theorem_audit,
)
from newton_forest.errors import TreeStructureError
from newton_forest.multiplicity import classify, multiplicities
from newton_forest.report import Analysis
from newton_forest.tree_io import parse, serialize
from newton_forest.tree_model import validate_axioms

import corpora
from corpora import CORPUS_A, CORPUS_B
from oracles import (
    comb_steps,
    fixture_corpus,
    fixture_T_B,
    fixture_T_C,
    fixture_T_D,
    oracle_c,
    oracle_delta_tilde_N,
    oracle_N,
    reference_comb_step,
)

CORPUS_SEEDS = range(len(CORPUS_A))

_timings: dict[str, float] = {}


def _line(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    trees = corpora.trees(CORPUS_A)
    _timings["generate"] = time.perf_counter() - t0
    return trees


def _serialized_sha256(trees) -> str:
    digest = hashlib.sha256()
    for tree in trees:
        digest.update(serialize(tree).encode("utf-8"))
    return digest.hexdigest()


def test_generator_corpus_a_pinned(corpus):
    """The seed->tree mapping of the default config: seeds 0..999 at 40 cells.

    Equal to the benchmark's `corpus-small` input digest for seed 0."""
    assert _serialized_sha256(corpus) == (
        "bf5ccd8a6619b4256d5724e7cc51e9afea25f3e67c498010fe5d39fab4667498"
    )


def test_generator_corpus_b_pinned():
    """Wide fans: seeds 0..39 at 400 cells and dicritical degree up to 120."""
    assert _serialized_sha256(corpora.trees(CORPUS_B)) == (
        "3a82e618fdf162b8a29867b1ac1ef049491b9341e7b3d2c9db4aec7c3f11127c"
    )


def test_criterion_1_fixture_exactness():
    expected = {
        "T_A": 0,
        "T_B_1_1": 0,
        "T_B_1_2": 0,
        "T_B_2_3": 0,
        "T_C_1_1_1": 2,
        "T_C_1_1_2": 2,
        "T_C_1_2_3": 2,
    }
    t0 = time.perf_counter()
    corpus = fixture_corpus()
    for name, want in expected.items():
        tree = corpus[name]
        assert validate_axioms(tree) == [], name
        info = classify(tree, multiplicities(tree))
        assert info.minimally_complete, name
        degrees = [info.degree[u] for u in sorted(info.dicriticals)]
        assert math.gcd(*degrees) == 1, name
        assert Analysis.build(tree).glob.delta_tilde_N == want, name
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _line("1 (fixture exactness)", ok, f"7 fixtures, {elapsed:.3f}s")
    assert ok


def test_criterion_2_T_D_ledger():
    tree = fixture_T_D()
    a = Analysis.build(tree)
    e = tree.edge_between("v0", "w")
    checks = {
        "N_v0": (a.table.N["v0"], 6),
        "N_w": (a.table.N["w"], 6),
        "M_of_T": (a.table.M_of_T, 3),
        "dt_v0": (a.ledger.per_vertex["v0"].delta_tilde, -5),
        "dt_w": (a.ledger.per_vertex["w"].delta_tilde, 1),
        "c_w": (a.chars.pairs[("w", e)].c, 6),
        "c_v0": (str(a.chars.pairs[("v0", e)].c), "3/2"),
        "M_v0": (a.chars.pairs[("v0", e)].M, 4),
        "eta_v0": (str(a.chars.pairs[("v0", e)].eta), "3/2"),
        "eta_w": (a.chars.pairs[("w", e)].eta, 0),
        "Omega": (set(a.struct.Omega), {"v0"}),
        "n_classes": (len(a.decompositions["v0"].classes), 1),
        "c_dot": (a.decompositions["v0"].classes[0].c_dot, 0),
    }
    bad = {k: got for k, (got, want) in checks.items() if got != want}
    _line("2 (T_D ledger)", not bad, "13 exact values" if not bad else str(bad))
    assert not bad


def test_criterion_3_theorem_suite(corpus):
    t0 = time.perf_counter()
    failures = []
    for seed, key in zip(CORPUS_SEEDS, CORPUS_A):
        bad = audit_failures(audit_analysis(corpora.analysis(key)))
        if bad:
            failures.append((seed, [(r.check_id, r.witness) for r in bad]))
    audit_time = time.perf_counter() - t0
    total = _timings.get("generate", 0.0) + audit_time
    ok = not failures and total < 60.0
    _line(
        "3 (theorem suite, 1000 trees)",
        ok,
        f"generate {_timings.get('generate', 0.0):.1f}s + audit {audit_time:.1f}s,"
        f" {len(failures)} failing trees",
    )
    assert not failures, failures[:3]
    assert total < 60.0


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    for seed, key in zip(CORPUS_SEEDS, CORPUS_A):
        a = corpora.analysis(key)
        tree = a.tree
        for v in sorted(tree.vertices | tree.arrows0):
            assert oracle_N(tree, v) == a.table.N[v], (seed, v)
        for (u, e), data in a.chars.pairs.items():
            assert oracle_c(tree, u, e) == data.c, (seed, u, e)
        assert oracle_delta_tilde_N(tree) == a.glob.delta_tilde_N, seed
        for upper, pair in comb_steps(a):
            want = reference_comb_step(a.ledger, a.chars, a.struct, upper, pair)
            assert (pair in a.struct.combs) == want, (seed, upper, pair)
    _line(
        "4 (oracle equivalence)",
        True,
        f"1000 trees, {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_5_rational_structure():
    rational = 0
    canonical = 0
    for seed, key in zip(CORPUS_SEEDS, CORPUS_A):
        a = corpora.analysis(key)
        if not is_rational_tree(a):
            continue
        rational += 1
        rep = rational_structure_report(a)
        assert rep.failures == (), (seed, [(c.check_id, c.witness) for c in rep.failures])
        if rep.recognized is not None:
            canonical += 1
    assert rational >= 50, "corpus has too few rational trees to be meaningful"

    # every canonical tree is recognized
    recognized = []
    for tree, want in [
        (corpora.tree("T_A"), "T_A"),
        (fixture_T_B(1, 1), "T_B(1,1)"),
        (fixture_T_B(2, 3), "T_B(2,3)"),
        (fixture_T_B(3, 4), "T_B(3,4)"),
        (fixture_T_B(5, 7), "T_B(5,7)"),
        (fixture_T_C((1, 1, 1)), "T_C(1,1,1)"),
        (fixture_T_C((1, 1, 2)), "T_C(1,1,2)"),
        (fixture_T_C((1, 2, 3)), "T_C(1,2,3)"),
    ]:
        got = recognize_canonical(Analysis.build(tree))
        recognized.append(str(got) == want)
    ok = all(recognized)
    _line(
        "5 (rational structure)",
        ok,
        f"{rational} rational corpus trees ({canonical} canonical), 8/8 recognitions"
        if ok
        else "recognition failure",
    )
    assert ok


def _perturbations_of_T_D():
    """Every single-decoration +/-1 perturbation of T_D, as raw documents."""
    base = json.loads(serialize(fixture_T_D()))
    out = []
    for i, edge in enumerate(base["edges"]):
        for side in (0, 1):
            for delta in (-1, 1):
                doc = json.loads(json.dumps(base))
                doc["edges"][i]["q"][side] += delta
                ends = edge["ends"]
                label = f"edge {{{ends[0]},{ends[1]}}} near {ends[side]}: {edge['q'][side]} -> {doc['edges'][i]['q'][side]}"
                out.append((label, doc))
    for i, cell in enumerate(base["cells"]):
        if cell["kind"] != "arrow":
            continue
        for delta in (-1, 1):
            doc = json.loads(json.dumps(base))
            doc["cells"][i]["decoration"] += delta
            label = f"arrow {cell['id']}: {cell['decoration']} -> {doc['cells'][i]['decoration']}"
            out.append((label, doc))
    return out


def test_criterion_6_fault_injection():
    """Corrupting any single decoration of T_D is caught by validation,
    classification, or the audits -- except for exactly one perturbation.

    Raising the dead-end decoration at w from 2 to 3 produces a DIFFERENT
    tree that itself satisfies every axiom and every minimal-completeness
    clause (the test re-verifies this from scratch), so no correct engine can
    flag it: every theorem genuinely holds there.  The criterion as stated
    assumes all perturbations are detectable; this one perturbation is a
    counterexample to that premise, not an engine gap, and the test pins it
    down exactly so any regression (a second undetected case, or this case
    becoming detected for a wrong reason) fails loudly.
    """
    uncaught = []
    per_kind = {"structural": 0, "axioms": 0, "classification": 0, "audit": 0}
    for label, doc in _perturbations_of_T_D():
        text = json.dumps(doc)
        try:
            tree = parse(text)
        except TreeStructureError:
            per_kind["structural"] += 1
            continue
        except Exception:
            per_kind["structural"] += 1
            continue
        if validate_axioms(tree):
            per_kind["axioms"] += 1
            continue
        info = classify(tree, multiplicities(tree))
        if not info.minimally_complete:
            per_kind["classification"] += 1
            continue
        bad = audit_failures(theorem_audit(tree))
        if bad:
            per_kind["audit"] += 1
        else:
            uncaught.append((label, tree))

    expected_exception = "edge {ow,w} near w: 2 -> 3"
    labels = [label for label, _ in uncaught]
    ok = labels == [expected_exception]
    detail = (
        f"{sum(per_kind.values())}/{sum(per_kind.values()) + len(uncaught)} caught "
        f"({per_kind}); the one uncaught perturbation is a valid tree"
    )
    _line("6 (fault injection)", ok, detail)
    assert labels == [expected_exception], labels

    # prove the exception really is a different valid minimally complete tree
    _, valid_tree = uncaught[0]
    assert validate_axioms(valid_tree) == []
    info = classify(valid_tree, multiplicities(valid_tree))
    assert info.generic and info.complete and info.minimally_complete
    assert Analysis.build(valid_tree).glob.delta_tilde_N == -4
    assert valid_tree != fixture_T_D()
