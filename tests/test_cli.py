import contextlib
import errno
import gc
import hashlib
import json
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

from newton_forest import cli, oracle_gen
from newton_forest.classify_audit import audit_analysis, audit_failures
from newton_forest.cli import run
from newton_forest.errors import GenerationError, InternalInconsistencyError
from newton_forest.oracle_gen import GeneratorConfig, generate, generate_verdict
from newton_forest.report import Analysis
from newton_forest.tree_io import parse, serialize
from newton_forest.tree_model import (
    ARROW,
    VERTEX,
    Cell,
    build_tree,
    make_edge,
    validate_axioms,
)

import corpora
from corpora import CORPUS_A, CORPUS_B

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_validate_ok(capsys):
    assert run(["validate", str(FIXTURES / "T_A.ntree")]) == 0
    assert "minimally complete" in capsys.readouterr().out


def _axiom_breaking(tmp_path) -> str:
    """T_A with the root's decoration on {u, v0} set to 2, against axiom 3."""
    doc = json.loads((FIXTURES / "T_A.ntree").read_text())
    for e in doc["edges"]:
        if sorted(e["ends"]) == ["u", "v0"]:
            e["q"] = [2, 0] if e["ends"][0] == "v0" else [0, 2]
    bad = tmp_path / "bad.ntree"
    bad.write_text(json.dumps(doc))
    return str(bad)


def test_validate_diagnostics_exit_1(tmp_path, capsys):
    assert run(["validate", _axiom_breaking(tmp_path)]) == 1
    assert "axiom 3" in capsys.readouterr().out


def test_analysis_commands_reject_axiom_violations(tmp_path, capsys):
    # every command that builds an analysis stops at validation: exit 1, the
    # diagnostics on stderr and nothing on stdout
    bad = _axiom_breaking(tmp_path)
    for argv in (
        ["analyze", bad],
        ["analyze", bad, "--format", "json"],
        ["combs", bad],
        ["audit", bad],
        ["dot", bad, "--with-report"],
    ):
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == (
            "axiom 3 at ({u,v0}, v0): decoration near root is 2, not 1\n"
        ), argv


def test_audit_without_file_or_gen_exit_2(capsys):
    assert run(["audit"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "audit: give a file or --gen N\n"


def test_validate_prints_weaker_classifications(tmp_path, capsys):
    # v0 -(1, q)- u, with a dead end and a (1)-arrow at u and a dead end
    # decorated 1 at v0; q sets N(u) = q
    reasons = {
        -3: [
            "vertex 'u' has negative multiplicity -3",
            "(1)-arrow 't1' is not adjacent to a dicritical",
            "dead end decorated 1 at non-dicritical 'u'",
            "dead end decorated 1 at non-dicritical 'v0'",
        ],
        0: ["dead end decorated 1 at non-dicritical 'v0'"],
    }
    for q, line in (
        (-3, "valid axioms (not generic)"),
        (0, "complete (not minimally complete)"),
    ):
        tree = build_tree(
            [
                Cell("v0", VERTEX),
                Cell("u", VERTEX),
                Cell("o0", ARROW, 0),
                Cell("o1", ARROW, 0),
                Cell("t1", ARROW, 1),
            ],
            [
                make_edge("v0", 1, "u", q),
                make_edge("v0", 1, "o0", 1),
                make_edge("u", 1, "o1", 1),
                make_edge("u", 1, "t1", 1),
            ],
            "v0",
        )
        path = tmp_path / f"q{q}.ntree"
        path.write_text(serialize(tree))
        assert run(["validate", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [line] + [f"  - {r}" for r in reasons[q]]
        assert captured.err == ""


def test_usage_error_exit_2(capsys):
    assert run(["analyze"]) == 2
    capsys.readouterr()


def test_missing_file_exit_2(capsys):
    assert run(["validate", "no-such-file.ntree"]) == 2
    capsys.readouterr()


def test_directory_exit_2(tmp_path, capsys):
    assert run(["validate", str(tmp_path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_undecodable_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "latin1.ntree"
    bad.write_bytes((FIXTURES / "T_A.ntree").read_bytes() + b"\xff\xfe")
    assert run(["validate", str(bad)]) == 1
    assert "UTF-8" in capsys.readouterr().err


def test_overlong_integer_exit_1(tmp_path, capsys):
    # json.loads refuses an integer literal longer than the interpreter's
    # digit limit with a plain ValueError; it is a parse error, not a fault
    limit = sys.get_int_max_str_digits()
    assert limit > 0
    text = json.dumps(json.loads((FIXTURES / "T_A.ntree").read_text()))
    long = text.replace('"q": [0, 1]', '"q": [' + "9" * (limit + 1) + ", 1]")
    assert long != text
    path = tmp_path / "long.ntree"
    path.write_text(long)
    for command in ("validate", "analyze"):
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"document: integer literal exceeds the limit of {limit} digits\n"
        )


def test_surrogate_cell_id_exit_1(tmp_path, capsys):
    # T_D with v0 renamed to a lone surrogate, which is valid JSON but cannot
    # be printed as UTF-8; the second file also makes validate name the id
    text = (FIXTURES / "T_D.ntree").read_text().replace('"v0"', '"\\ud800"')
    doc = json.loads(text)
    for edge in doc["edges"]:
        if "\ud800" in edge["ends"]:
            edge["q"] = [4, 4]
    plain, decorated = tmp_path / "plain.ntree", tmp_path / "decorated.ntree"
    plain.write_text(text)
    decorated.write_text(json.dumps(doc))
    want = "root: expected a string encodable as UTF-8, got '\\ud800'\n"
    argvs = [["validate", str(plain)], ["validate", str(decorated)]]
    argvs += [["analyze", str(plain)], ["analyze", str(plain), "--format", "json"]]
    argvs += [["dot", str(plain)], ["dot", str(plain), "--with-report"]]
    for argv in argvs:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == want, argv


def test_deeply_nested_json_exit_1(tmp_path, capsys):
    deep = tmp_path / "deep.ntree"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert run(["validate", str(deep)]) == 1
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err


# Large inputs: validation is linear in the number of cells, so each of these
# takes a second or two; a check quadratic in depth or degree would take about
# a minute on the caterpillar or the star.
LARGE_INPUT_SECONDS = 5.0


def _caterpillar(spine):
    """Spine v0..v{spine-1} with one (1)-arrow per spine vertex, and a side
    vertex w whose only arrow is a dead end: axiom 1 fails at w alone."""
    cells = [Cell(f"v{i}", VERTEX) for i in range(spine)]
    cells += [Cell(f"t{i}", ARROW, 1) for i in range(spine)]
    cells += [Cell("w", VERTEX), Cell("o", ARROW, 0)]
    edges = [make_edge(f"v{i}", 1, f"t{i}", 1) for i in range(spine)]
    # decorations near v{i} on its parent edge fall, so each determinant is < 0
    edges += [make_edge(f"v{i - 1}", 1, f"v{i}", -i) for i in range(1, spine)]
    j = spine // 2
    edges += [make_edge(f"v{j}", 1, "w", -j - 1), make_edge("w", 1, "o", 1)]
    return build_tree(cells, edges, "v0")


def _star(arms):
    """Root r over a vertex c with `arms` (1)-arrows; near c the root edge is
    decorated -2 and one arm 2, so axiom 5 fails at that one pair."""
    k = arms // 3
    cells = [Cell("r", VERTEX), Cell("c", VERTEX)]
    cells += [Cell(f"t{i}", ARROW, 1) for i in range(arms)]
    edges = [make_edge("r", 1, "c", -2)]
    edges += [make_edge("c", 2 if i == k else 1, f"t{i}", 1) for i in range(arms)]
    return build_tree(cells, edges, "r"), k


def _broom(handles):
    """A root with `handles` children, each carrying a (1)-arrow and a dead
    end, decorated like T_A: a valid tree."""
    cells = [Cell("r", VERTEX)]
    edges = []
    for i in range(handles):
        cells += [Cell(f"u{i}", VERTEX), Cell(f"t{i}", ARROW, 1), Cell(f"o{i}", ARROW, 0)]
        edges += [
            make_edge("r", 1, f"u{i}", 0),
            make_edge(f"u{i}", 1, f"t{i}", 1),
            make_edge(f"u{i}", 1, f"o{i}", 1),
        ]
    return build_tree(cells, edges, "r")


def _timed_validate(tmp_path, tree):
    path = tmp_path / "large.ntree"
    path.write_text(serialize(tree))
    start = time.perf_counter()
    code = run(["validate", str(path)])
    return code, time.perf_counter() - start


def test_validate_large_caterpillar(tmp_path, capsys):
    tree = _caterpillar(16000)
    assert len(tree.cells) == 32002
    code, seconds = _timed_validate(tmp_path, tree)
    assert code == 1
    assert capsys.readouterr().out == (
        "axiom 1 at (w): no arrow decorated (1) above this vertex\n"
    )
    assert seconds < LARGE_INPUT_SECONDS


def test_validate_large_star(tmp_path, capsys):
    tree, k = _star(16000)
    code, seconds = _timed_validate(tmp_path, tree)
    assert code == 1
    assert capsys.readouterr().out == (
        f"axiom 5 at (c, {{c,r}}, {{c,t{k}}}): decorations -2 and 2 are not coprime\n"
    )
    assert seconds < LARGE_INPUT_SECONDS


class _LineCounter:
    """A stdout that counts lines and keeps none of them."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def flush(self):
        pass


def test_validate_streams_diagnostics(tmp_path):
    # a root with 400 arrows decorated 2 near it: 400 axiom-3 lines, 79800
    # non-coprime pairs and one "more than one upward" line.  Printed as
    # found, the peak stays near the size of the tree (0.4-0.7 MB);
    # collecting the diagnostics into a list first peaks at about 20.8 MB,
    # over ten times the bound.
    arms = 400
    cells = [Cell("r", VERTEX)] + [Cell(f"t{i}", ARROW, 1) for i in range(arms)]
    edges = [make_edge("r", 2, f"t{i}", 1) for i in range(arms)]
    path = tmp_path / "star.ntree"
    path.write_text(serialize(build_tree(cells, edges, "r")))
    out = _LineCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = run(["validate", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out.lines == 80201
    assert peak < 2_000_000, peak


def test_validate_large_valid_broom(tmp_path, capsys):
    # classifying a valid tree reads N only; no x table is built
    tree = _broom(1000)
    assert len(tree.cells) == 3001
    code, seconds = _timed_validate(tmp_path, tree)
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "generic (not complete)"
    assert out[1] == "  - (1)-arrow 't0' is not adjacent to a dicritical"
    assert out[-1] == "  - dead end decorated 1 at non-dicritical 'u999'"
    assert len(out) == 2001
    assert seconds < LARGE_INPUT_SECONDS


def test_validate_axioms_large_broom():
    text = serialize(_broom(16000))
    start = time.perf_counter()
    tree = parse(text)
    assert validate_axioms(tree) == []
    assert time.perf_counter() - start < LARGE_INPUT_SECONDS
    assert len(tree.cells) == 48001


def test_engine_value_error_exit_3(monkeypatch, capsys):
    import newton_forest.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli, "audit_analysis", broken)
    assert run(["analyze", str(FIXTURES / "T_D.ntree")]) == 3
    assert "engine fault" in capsys.readouterr().err


def test_analyze_json_T_D(capsys):
    assert run(["analyze", str(FIXTURES / "T_D.ntree"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["global"]["delta_tilde_N"] == -4
    assert doc["characteristic"]["v0|{v0,w}"]["c"] == "3/2"
    assert doc["characteristic"]["w|{v0,w}"]["c"] == "6"
    assert doc["global"]["genus"] == "no genus interpretation"
    assert doc["structure"]["Omega"] == ["v0"]
    assert all(entry["passed"] for entry in doc["audit"])


def test_analyze_genus_marker(capsys):
    assert run(["analyze", str(FIXTURES / "T_C_1_1_1.ntree"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["global"]["genus"] == 1
    assert doc["global"]["delta_tilde_N"] == 2


def test_analyze_rational_report_included(capsys):
    assert run(["analyze", str(FIXTURES / "T_B_2_3.ntree"), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rational_structure"]["recognized"] == "T_B(2,3)"


def test_analyze_builds_one_rational_report(monkeypatch, capsys):
    # counted through a wrapper put, as perfbench's tracer puts its own, into
    # every package module that holds the function: the audit's
    # `rational-structure` check and the report read one report per call
    import newton_forest.classify_audit as classify_audit

    original = classify_audit.rational_structure_report
    calls = []

    def counted(analysis):
        calls.append(analysis)
        return original(analysis)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "newton_forest":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    for name, fmt, want in (("T_A", "json", 1), ("T_A", "text", 1), ("T_D", "json", 0)):
        calls.clear()
        assert run(["analyze", str(FIXTURES / f"{name}.ntree"), "--format", fmt]) == 0
        assert ("rational_structure" in capsys.readouterr().out) == bool(want)
        assert len(calls) == want, (name, fmt)


def test_analyze_writes_failing_rows_as_json_dumps(monkeypatch, capsys, tmp_path):
    # a rational tree whose Omega was tampered with fails the audit and the
    # rational report's clauses; both lists of rows come out as json.dumps
    # writes them
    import dataclasses

    good = corpora.analysis(corpora.RATIONAL[0])
    bad = dataclasses.replace(
        good, struct=dataclasses.replace(good.struct, Omega=frozenset({"v1"}))
    )
    monkeypatch.setattr(cli.Analysis, "build", staticmethod(lambda tree, z=None: bad))
    path = tmp_path / "rational.ntree"
    path.write_text(serialize(good.tree))
    assert run(["analyze", str(path), "--format", "json"]) == 3
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert not all(row["passed"] for row in doc["audit"])
    assert not all(row["passed"] for row in doc["rational_structure"]["clauses"])
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_analyze_byte_identical(capsys):
    run(["analyze", str(FIXTURES / "T_D.ntree"), "--format", "json"])
    first = capsys.readouterr().out
    run(["analyze", str(FIXTURES / "T_D.ntree"), "--format", "json"])
    assert capsys.readouterr().out == first
    run(["analyze", str(FIXTURES / "T_D.ntree"), "--format", "text"])
    text_a = capsys.readouterr().out
    run(["analyze", str(FIXTURES / "T_D.ntree"), "--format", "text"])
    assert capsys.readouterr().out == text_a


# sha256 over the stdout and exit code of `analyze --format json` on every
# fixture and on generator seeds 0..99 at max_cells=40, then `audit` on every
# fixture.  Any change to a report byte, a verdict or the seed->tree mapping
# moves it.
PINNED_OUTPUT_SHA256 = "ff076e1abbca659950e0322cdd6c68206299b6b0508f0fb25bb680515bd59ed3"


def _pinned_argvs(directory: Path) -> list[list[str]]:
    fixtures = sorted(FIXTURES.glob("*.ntree"))
    argvs = [["analyze", str(f), "--format", "json"] for f in fixtures]
    for seed, key in enumerate(CORPUS_A[:100]):
        path = directory / f"seed{seed}.ntree"
        path.write_text(serialize(corpora.tree(key)))
        argvs.append(["analyze", str(path), "--format", "json"])
    argvs += [["audit", str(f)] for f in fixtures]
    return argvs


def test_output_bytes_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for argv in _pinned_argvs(tmp_path):
        code = run(argv)
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update(f"\0exit {code}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_OUTPUT_SHA256


# The same digest over roadmap corpus B (seeds 0..39 at max_cells=400,
# max_dicritical_degree=120), whose large fans carry most of p, p' and the
# sums of x-hat that the audit reads.
PINNED_CORPUS_B_SHA256 = "621de4b97f0fcd0cf5f6ed74fac025084c4e6357efebde062a049f3fb0da99b7"


def test_corpus_b_bytes_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for seed, key in enumerate(CORPUS_B):
        path = tmp_path / f"seed{seed}.ntree"
        path.write_text(serialize(corpora.tree(key)))
        code = run(["analyze", str(path), "--format", "json"])
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update(f"\0exit {code}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_CORPUS_B_SHA256


def test_analyze_not_minimally_complete_exit_1(tmp_path, capsys):
    doc = {
        "root": "v0",
        "cells": [
            {"id": "v0", "kind": "vertex"},
            {"id": "u", "kind": "vertex"},
            {"id": "t1", "kind": "arrow", "decoration": 1},
        ],
        "edges": [
            {"ends": ["u", "v0"], "q": [0, 1]},
            {"ends": ["t1", "u"], "q": [1, 1]},
        ],
    }
    f = tmp_path / "thin.ntree"
    f.write_text(json.dumps(doc))
    assert run(["analyze", str(f)]) == 1
    assert "minimally complete" in capsys.readouterr().err


def test_combs_T_D(capsys):
    assert run(["combs", str(FIXTURES / "T_D.ntree")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["In"] == ["v0"]
    classes = doc["decompositions"]["v0"]["classes"]
    assert len(classes) == 1 and classes[0]["c_dot"] == 0


def test_combs_z_flag(capsys):
    assert run(["combs", str(FIXTURES / "T_D.ntree"), "--z", "v0"]) == 0
    capsys.readouterr()
    assert run(["combs", str(FIXTURES / "T_D.ntree"), "--z", "w"]) == 2
    assert "not an initial vertex" in capsys.readouterr().err
    assert run(["analyze", str(FIXTURES / "T_D.ntree"), "--z", "w"]) == 2
    assert "not an initial vertex" in capsys.readouterr().err


# sha256 over the stdout and exit code of `combs` on every fixture and on
# generator seeds 0..99 at max_cells=40.
PINNED_COMBS_SHA256 = "1d12a187186e490ab00ffb033280eaf80febc0de61892ea2606130313063e079"


def test_combs_bytes_pinned(tmp_path, capsys):
    paths = sorted(FIXTURES.glob("*.ntree"))
    for seed, key in enumerate(CORPUS_A[:100]):
        path = tmp_path / f"seed{seed}.ntree"
        path.write_text(serialize(corpora.tree(key)))
        paths.append(path)
    digest = hashlib.sha256()
    for path in paths:
        code = run(["combs", str(path)])
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update(f"\0exit {code}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_COMBS_SHA256


def test_audit_file(capsys):
    assert run(["audit", str(FIXTURES / "T_B_1_2.ntree")]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


@pytest.mark.own_generation
def test_audit_gen(capsys):
    assert run(["audit", "--gen", "12", "--seed", "3", "--max-cells", "40"]) == 0
    out = capsys.readouterr().out
    assert "12 trees audited, 0 failures" in out


def _distinct_trees(n_seeds, max_cells=40):
    """The number of distinct trees that seeds 0..n_seeds-1 generate."""
    return len(
        {serialize(generate(GeneratorConfig(seed=s, max_cells=max_cells))) for s in range(n_seeds)}
    )


@pytest.mark.own_generation
def test_audit_gen_validates_each_tree_once(monkeypatch, capsys):
    # the generator's screen validates each distinct tree it keeps, once per
    # command; the analysis is built from the screen's classification and
    # does not validate the tree again
    import newton_forest.tree_model as tree_model

    distinct = _distinct_trees(30)
    assert distinct < 30
    checked = []
    real = tree_model.iter_axiom_diagnostics

    def counted(tree):
        checked.append(tree)
        return real(tree)

    monkeypatch.setattr(tree_model, "iter_axiom_diagnostics", counted)
    assert run(["audit", "--gen", "30"]) == 0
    assert capsys.readouterr().out == "30 trees audited, 0 failures\n"
    assert len(checked) == distinct


def _count_classifications(monkeypatch):
    """Counts of the `multiplicities` and `classify` calls of this process,
    in whichever package module makes them."""
    from newton_forest import multiplicity

    calls = {"multiplicities": 0, "classify": 0}
    for name in calls:
        real = getattr(multiplicity, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "newton_forest":
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.own_generation
def test_audit_gen_classifies_each_tree_once(monkeypatch, capsys):
    # the analysis starts from the multiplicity table and classification
    # that the generator's screen computed: one call of each per distinct
    # tree (60 seeds run in process)
    distinct = _distinct_trees(60)
    assert distinct < 60
    calls = _count_classifications(monkeypatch)
    assert cli._audit_workers(60) == 0
    assert run(["audit", "--gen", "60"]) == 0
    assert capsys.readouterr().out == "60 trees audited, 0 failures\n"
    assert calls == {"multiplicities": distinct, "classify": distinct}


@pytest.mark.own_generation
def test_audit_gen_negative_exit_2(capsys):
    # no plan fits in 3 cells: a usage error at once, not 3000 attempts
    for argv, message in (
        (["audit", "--gen", "-3"], "must not be negative"),
        (["audit", "--gen", "1", "--max-cells", "-3"], "must not be negative"),
        (["gen", "--seed", "1", "--max-cells", "-3"], "must not be negative"),
        (["gen", "--seed", "0", "--max-cells", "3"], "fewer than 4 cells"),
        (["gen", "--seed", "-7"], "must not be negative"),
        (["audit", "--gen", "10", "--seed", "-5"], "must not be negative"),
        (["audit", "--gen", "2", "--max-cells", "3"], "fewer than 4 cells"),
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    assert run(["audit", "--gen", "0"]) == 0
    assert capsys.readouterr().out == "0 trees audited, 0 failures\n"


def test_audit_file_with_gen_exit_2(tmp_path, capsys):
    for path in (tmp_path / "missing.ntree", FIXTURES / "T_B_1_2.ntree"):
        assert run(["audit", str(path), "--gen", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not both" in captured.err


# `audit --gen` at the smallest N that two usable CPUs split over two workers
POOLED_GEN = 2 * cli.SEEDS_PER_WORKER


def _cpus(monkeypatch, n):
    """Make `n` CPUs usable, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _audit_gen(capsys, seed=0, n=POOLED_GEN):
    code = run(["audit", "--gen", str(n), "--seed", str(seed), "--max-cells", "20"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_generated(monkeypatch):
    """The seeds that this process generates from; a worker counts in its own copy."""
    seeds = []
    real = cli.generate_verdict

    def counted(config, verdict, memo):
        seeds.append(config.seed)
        return real(config, verdict, memo)

    monkeypatch.setattr(cli, "generate_verdict", counted)
    return seeds


@pytest.mark.own_generation
def test_audit_gen_pool_prints_the_in_process_bytes(monkeypatch, capsys):
    seeds = _count_generated(monkeypatch)
    for seed in (0, 41):
        _cpus(monkeypatch, 2)
        pooled = _audit_gen(capsys, seed)
        assert seeds == []  # every tree was audited in a worker
        _cpus(monkeypatch, 1)
        alone = _audit_gen(capsys, seed)
        assert len(seeds) == POOLED_GEN
        seeds.clear()
        assert pooled == alone
        assert pooled == (0, f"{POOLED_GEN} trees audited, 0 failures\n", "")
    _assert_no_child()


def _fail_odd_trees(monkeypatch):
    """Make the first check also fail on every tree with an odd number of
    cells; its id."""
    import newton_forest.classify_audit as classify_audit

    check_id, applies, check = classify_audit.REGISTRY[0]

    def odd(analysis):
        return check(analysis) + ([] if len(analysis.tree.cells) % 2 == 0 else ["odd"])

    registry = ((check_id, applies, odd),) + classify_audit.REGISTRY[1:]
    monkeypatch.setattr(classify_audit, "REGISTRY", registry)
    return check_id


@pytest.mark.own_generation
def test_audit_gen_pool_keeps_seed_order(monkeypatch, capsys):
    # also with eight workers racing for 32 chunks on fewer cores: a chunk
    # claimed twice or never would show as a line out of place
    check_id = _fail_odd_trees(monkeypatch)
    for cpus in (2, 8):
        n = cpus * cli.SEEDS_PER_WORKER
        _cpus(monkeypatch, cpus)
        assert cli._audit_workers(n) == cpus
        pooled = _audit_gen(capsys, n=n)
        _cpus(monkeypatch, 1)
        assert _audit_gen(capsys, n=n) == pooled
        code, out, err = pooled
        failed = [int(line.split(":")[0].split()[1]) for line in out.splitlines()[:-1]]
        assert code == 3 and err == ""
        assert 0 < len(failed) < n
        assert failed == sorted(set(failed))
        assert out.endswith(f"{n} trees audited, {len(failed)} failures\n")
        assert f"seed {failed[0]}: FAIL {check_id} [odd]" in out
        _assert_no_child()


def _fail_at_seed(monkeypatch, seeds, fault):
    """Make generation fault at each seed in `seeds`, a container the
    caller may change."""
    real = cli.generate_verdict

    def failing(config, verdict, memo):
        if config.seed in seeds:
            fault()
        return real(config, verdict, memo)

    monkeypatch.setattr(cli, "generate_verdict", failing)


def _raise(exc):
    def fault():
        raise exc

    return fault


@pytest.mark.own_generation
def test_audit_gen_worker_errors_exit_as_in_process(monkeypatch, capsys):
    for exc, code in (
        (InternalInconsistencyError("N(v) = 0 at v3"), 3),
        (ValueError("math domain error"), 3),
        (GenerationError(3000, "no tree satisfied the filters"), 1),
    ):
        _fail_at_seed(monkeypatch, {50}, _raise(exc))
        _cpus(monkeypatch, 2)
        pooled = _audit_gen(capsys)
        _cpus(monkeypatch, 1)
        assert _audit_gen(capsys) == pooled
        assert pooled[0] == code
        assert pooled[2].count("\n") == 1 and str(exc) in pooled[2]
    _assert_no_child()


@pytest.mark.own_generation
def test_audit_gen_pool_keeps_the_lines_before_a_fault(monkeypatch, capsys):
    # a worker maps its seeds in chunks (48..55 is one at two workers); a
    # seed that raises mid-chunk keeps the lines of the seeds before it
    _fail_odd_trees(monkeypatch)
    fault = set()
    _fail_at_seed(monkeypatch, fault, _raise(InternalInconsistencyError("at the fault")))
    mid_chunk = 0
    for seed in range(48, 56):
        fault.add(seed)
        _cpus(monkeypatch, 2)
        pooled = _audit_gen(capsys)
        _cpus(monkeypatch, 1)
        assert _audit_gen(capsys) == pooled
        code, out, err = pooled
        assert code == 3 and err == "internal inconsistency: at the fault\n"
        failed = [int(line.split(":")[0].split()[1]) for line in out.splitlines()]
        assert failed and max(failed) < seed
        mid_chunk += max(failed) >= 48
        fault.clear()
    assert mid_chunk >= 4
    _assert_no_child()


def _memo_free_lines(seeds, max_cells):
    """The lines of `audit --gen` over `seeds`, each tree generated,
    analysed and audited on its own."""
    lines = []
    for seed in seeds:
        config = GeneratorConfig(seed=seed, max_cells=max_cells)
        tree, table, info = generate_verdict(config, lambda s: s, {})
        results = audit_analysis(Analysis.from_classification(tree, table, info, None))
        lines += [f"seed {seed}: FAIL {r.check_id} [{r.witness}]" for r in audit_failures(results)]
    return lines


@pytest.mark.own_generation
def test_audit_gen_memo_changes_no_output(monkeypatch, capsys):
    # a repeated tree takes its failures from the memo: the output is the
    # seed-by-seed output, pooled or not, with the memo bounded or not
    check_id = _fail_odd_trees(monkeypatch)
    lines = _memo_free_lines(range(300), 40)
    want = "".join(f"{line}\n" for line in lines)
    want += f"300 trees audited, {len(lines)} failures\n"
    texts = {}
    for seed in range(300):
        texts.setdefault(serialize(generate(GeneratorConfig(seed=seed))), []).append(seed)
    failed = {int(line.split(":")[0].split()[1]) for line in lines}
    repeats = [seeds for seeds in texts.values() if len(seeds) > 1 and seeds[0] in failed]
    assert repeats
    for seeds in repeats:  # each seed of a failing tree prints its own line
        assert all(f"seed {s}: FAIL {check_id} [odd]" in want for s in seeds)

    argv = ["audit", "--gen", "300", "--max-cells", "40"]
    sizes = []
    real = cli.generate_verdict

    def watched(config, verdict, memo):
        found = real(config, verdict, memo)
        sizes.append(len(memo))
        return found

    monkeypatch.setattr(cli, "generate_verdict", watched)
    calls = _count_classifications(monkeypatch)
    _cpus(monkeypatch, 1)
    for _ in range(2):  # a second command reads nothing the first stored
        assert run(argv) == 3
        assert capsys.readouterr() == (want, "")
        assert calls == {"multiplicities": len(texts), "classify": len(texts)}
        assert max(sizes) == len(texts) and cli._verdicts == {}
        calls.update(dict.fromkeys(calls, 0))
        sizes.clear()
    monkeypatch.setattr(oracle_gen, "MEMO_BOUND", 2)
    assert run(argv) == 3
    assert capsys.readouterr() == (want, "")
    assert max(sizes) == 2 and len(sizes) == 300
    _cpus(monkeypatch, 2)
    assert run(argv) == 3
    assert capsys.readouterr() == (want, "")
    _assert_no_child()


@pytest.mark.own_generation
def test_audit_gen_dead_worker_exit_3(monkeypatch, capsys):
    _fail_at_seed(monkeypatch, {50}, lambda: os._exit(1))
    _cpus(monkeypatch, 2)
    code, out, err = _audit_gen(capsys)
    assert code == 3
    assert err.startswith("internal inconsistency: an audit worker died")
    assert err.count("\n") == 1
    assert "trees audited" not in out
    _assert_no_child()


@pytest.mark.own_generation
def test_audit_gen_needs_no_semaphores(monkeypatch, capsys):
    # the workers share only pipes: without POSIX semaphores they still run
    import _multiprocessing

    def no_semaphores(*args, **kwargs):
        raise OSError(errno.ENOSYS, "Function not implemented")

    _cpus(monkeypatch, 1)
    alone = _audit_gen(capsys)
    monkeypatch.setattr(_multiprocessing, "SemLock", no_semaphores)
    seeds = _count_generated(monkeypatch)
    _cpus(monkeypatch, 2)
    assert _audit_gen(capsys) == alone
    assert seeds == []  # every tree was audited in a worker
    _assert_no_child()


@pytest.mark.own_generation
def test_audit_gen_without_fork_runs_in_process(monkeypatch, capsys):
    _cpus(monkeypatch, 1)
    alone = _audit_gen(capsys)
    real = os.fork
    forks = []

    def fork_fails_after(n):
        def fork():
            forks.append(n)
            if len(forks) > n:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        return fork

    seeds = _count_generated(monkeypatch)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork_fails_after(0))
    assert _audit_gen(capsys) == alone
    assert len(seeds) == POOLED_GEN and len(forks) == 1
    _assert_no_child()
    # a fork that fails after the first leaves the seeds to the one worker
    seeds.clear()
    forks.clear()
    monkeypatch.setattr(os, "fork", fork_fails_after(1))
    assert _audit_gen(capsys) == alone
    assert seeds == [] and len(forks) == 2
    _assert_no_child()


class _Stuck(BaseException):
    """Raised by the alarm of a test that waited too long."""


@pytest.mark.own_generation
def test_audit_gen_fault_stops_the_workers(monkeypatch, capsys):
    # the command exits at the first fault in seed order: it neither waits
    # for the seeds after it nor leaves their workers running
    _fail_odd_trees(monkeypatch)
    argv = ["audit", "--gen", "50", "--max-cells", "20"]
    _cpus(monkeypatch, 1)
    assert run(argv) == 3
    before = capsys.readouterr().out.splitlines(keepends=True)[:-1]
    assert before
    _fail_at_seed(monkeypatch, {50}, _raise(InternalInconsistencyError("at the fault")))
    _fail_at_seed(monkeypatch, range(200, 640), lambda: time.sleep(30))

    def stuck(signum, frame):
        raise _Stuck

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(40)
    try:
        _cpus(monkeypatch, 2)
        started = time.monotonic()
        code = run(["audit", "--gen", "640", "--max-cells", "20"])
        elapsed = time.monotonic() - started
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and elapsed < 10
    assert capsys.readouterr() == ("".join(before), "internal inconsistency: at the fault\n")
    _assert_no_child()


@pytest.mark.own_generation
def test_audit_gen_pool_outgrows_a_pipe(monkeypatch, capsys):
    # every tree fails with a 500-byte witness, so each worker's lines
    # exceed a pipe's 64 KB; while seed 0 holds up the first chunk, the
    # other worker fills its pipe and waits for the parent to read it
    import newton_forest.classify_audit as classify_audit

    check_id, applies, check = classify_audit.REGISTRY[0]

    def long_witness(analysis):
        return check(analysis) + ["w" * 500]

    registry = ((check_id, applies, long_witness),) + classify_audit.REGISTRY[1:]
    monkeypatch.setattr(classify_audit, "REGISTRY", registry)
    _fail_at_seed(monkeypatch, {0}, lambda: time.sleep(1))
    argv = ["audit", "--gen", "320", "--max-cells", "20"]
    _cpus(monkeypatch, 2)
    pooled = run(argv), capsys.readouterr()
    _cpus(monkeypatch, 1)
    assert (run(argv), capsys.readouterr()) == pooled
    code, (out, err) = pooled
    assert code == 3 and err == ""
    assert out.endswith("320 trees audited, 320 failures\n")
    assert len(out) > 2 * 64 * 1024
    _assert_no_child()


@pytest.mark.own_generation
def test_audit_gen_in_process_while_threads_run(monkeypatch, capsys):
    # a forked worker would inherit the locks the other thread holds
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        seeds = _count_generated(monkeypatch)
        _cpus(monkeypatch, 2)
        assert _audit_gen(capsys)[0] == 0
        assert len(seeds) == POOLED_GEN
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_dot_output(capsys):
    assert run(["dot", str(FIXTURES / "T_A.ntree")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.count("style=filled") == 1
    assert run(["dot", str(FIXTURES / "T_A.ntree"), "--with-report"]) == 0
    assert "N=1" in capsys.readouterr().out


# sha256 over the stdout and exit code of `dot`, without and then with
# `--with-report`, on every fixture.
PINNED_DOT_SHA256 = "7200e632d3c5d4b4ea2ed2a6515896e6670b434650be04f5459abded69b209b0"


def test_dot_bytes_pinned(capsys):
    digest = hashlib.sha256()
    for f in sorted(FIXTURES.glob("*.ntree")):
        for extra in ([], ["--with-report"]):
            code = run(["dot", str(f)] + extra)
            digest.update(capsys.readouterr().out.encode("utf-8"))
            digest.update(f"\0exit {code}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_DOT_SHA256


# `dot` on T_D with the dead end `ow` renamed `zow`, which sorts after its
# vertex `w`, so the arrow is the second end of its edge.
DOT_T_D_ZOW = """\
digraph ntree {
  graph [rankdir=LR];
  node [fontsize=10];
  edge [dir=none, fontsize=8];
  "ou" [shape=none, label="(0)"];
  "t1" [shape=none, label="(1)"];
  "t2" [shape=none, label="(1)"];
  "t3" [shape=none, label="(1)"];
  "u" [shape=circle, style=filled, fillcolor=black, fontcolor=white, label="u\\nN=0"];
  "v0" [shape=circle, label="v0\\nN=6"];
  "w" [shape=circle, label="w\\nN=6"];
  "zow" [shape=none, label="(0)"];
  "u" -> "ou" [taillabel="1", headlabel="1", dir=forward, arrowhead=normal];
  "u" -> "t1" [taillabel="1", headlabel="1", dir=forward, arrowhead=normal];
  "u" -> "t2" [taillabel="1", headlabel="1", dir=forward, arrowhead=normal];
  "u" -> "t3" [taillabel="1", headlabel="1", dir=forward, arrowhead=normal];
  "u" -> "w" [taillabel="0", headlabel="1"];
  "v0" -> "w" [taillabel="1", headlabel="1"];
  "w" -> "zow" [taillabel="2", headlabel="1", dir=forward, arrowhead=normal];
}
"""


def test_dot_arrow_sorting_after_its_vertex(tmp_path, capsys):
    text = (FIXTURES / "T_D.ntree").read_text()
    assert text.count('"ow"') == 2
    path = tmp_path / "zow.ntree"
    path.write_text(text.replace('"ow"', '"zow"'))
    for extra in ([], ["--with-report"]):
        assert run(["dot", str(FIXTURES / "T_D.ntree")] + extra) == 0
        renamed = capsys.readouterr().out.replace('"ow"', '"zow"')
        assert run(["dot", str(path)] + extra) == 0
        out = capsys.readouterr().out
        if not extra:
            assert out == DOT_T_D_ZOW
        # the same lines as T_D's, in the order of the new ids
        assert sorted(out.splitlines()) == sorted(renamed.splitlines())


def test_dot_escapes_cell_ids(tmp_path, capsys):
    # T_A with v0 renamed to an id holding both a quote and a backslash
    odd = 'v"0\\'
    doc = json.loads((FIXTURES / "T_A.ntree").read_text())
    doc = json.loads(json.dumps(doc).replace('"v0"', json.dumps(odd)))
    path = tmp_path / "odd.ntree"
    path.write_text(json.dumps(doc))
    assert parse(path.read_text()).root == odd
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    for extra, label in (([], r'v\"0\\\nN=1'), (["--with-report"], r'v\"0\\\nN=1\ndt=0')):
        assert run(["dot", str(path)] + extra) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f'  "v\\"0\\\\" [shape=circle, label="{label}"];' in lines
        assert '  "u" -> "v\\"0\\\\" [taillabel="0", headlabel="1"];' in lines
        for line in lines:  # no quote or backslash outside a quoted string
            rest = quoted.sub("", line)
            assert '"' not in rest and "\\" not in rest, line


@pytest.mark.own_generation
def test_gen_roundtrip(capsys):
    assert run(["gen", "--seed", "9", "--max-cells", "30"]) == 0
    text = capsys.readouterr().out
    from newton_forest.tree_io import parse
    from newton_forest.tree_model import validate_axioms

    tree = parse(text)
    assert validate_axioms(tree) == []
    assert len(tree.cells) <= 30


@pytest.mark.own_generation
def test_gen_rational(capsys):
    assert run(["gen", "--seed", "4", "--rational"]) == 0
    from newton_forest.tree_io import parse
    from oracles import oracle_delta_tilde_N

    tree = parse(capsys.readouterr().out)
    assert oracle_delta_tilde_N(tree) == 0


# sha256 over the stdout and exit code of `analyze FILE` (text format) on
# every fixture and on generator seeds 0..99 at max_cells=40.
PINNED_TEXT_SHA256 = "e57b1f6a6a56969da110cb44917c43f2e583c092386281baa9b59baa88f93a11"


def test_text_output_bytes_pinned(tmp_path, capsys):
    paths = sorted(FIXTURES.glob("*.ntree"))
    for seed, key in enumerate(CORPUS_A[:100]):
        path = tmp_path / f"seed{seed}.ntree"
        path.write_text(serialize(corpora.tree(key)))
        paths.append(path)
    digest = hashlib.sha256()
    for path in paths:
        code = run(["analyze", str(path)])
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update(f"\0exit {code}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_TEXT_SHA256


# Good calls interleaved with usage errors and help requests, each answered
# by argparse from the parser of the calls before it.
USAGE_ARGVS = (
    ["analyze", str(FIXTURES / "T_D.ntree"), "--format", "json"],
    ["analyze"],
    ["validate", str(FIXTURES / "T_A.ntree")],
    ["analyze", str(FIXTURES / "T_D.ntree"), "--format", "xml"],
    ["combs", str(FIXTURES / "T_D.ntree")],
    ["audit", "--gen", "-3"],
    ["audit", str(FIXTURES / "T_B_1_2.ntree")],
    ["gen", "--seed", "0", "--max-cells", "3"],
    ["gen", "--seed", "0", "--max-cells", "12"],
    ["frobnicate", str(FIXTURES / "T_A.ntree")],
    ["dot", str(FIXTURES / "T_A.ntree"), "--with-report"],
    ["--help"],
    ["analyze", str(FIXTURES / "T_C_1_1_2.ntree")],
    ["audit", "--help"],
    ["analyze", str(FIXTURES / "T_D.ntree"), "--format", "json"],
)

# sha256 over the exit code, stdout and stderr of each call of USAGE_ARGVS
# in turn, at a help width of 80 columns.
PINNED_USAGE_SHA256 = "266cac183d9f6089a56da07fdfc5fb0b4a028d48224b42519fd5702925f8f90f"


def _usage_outputs(capsys, argvs, fresh):
    outputs = []
    for argv in argvs:
        if fresh:
            cli._parser.cache_clear()
        code = run(argv)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    return outputs


@pytest.mark.own_generation
def test_usage_bytes_pinned(monkeypatch, capsys):
    # argparse wraps usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    kept = _usage_outputs(capsys, USAGE_ARGVS, fresh=False)
    assert kept == _usage_outputs(capsys, USAGE_ARGVS, fresh=True)
    digest = hashlib.sha256()
    for code, out, err in kept:
        digest.update(f"{code}\0{out}\0{err}\0".encode("utf-8"))
    assert digest.hexdigest() == PINNED_USAGE_SHA256


@pytest.mark.own_generation
def test_parser_built_once(monkeypatch, capsys):
    built = 0
    real = cli.build_parser

    def counted():
        nonlocal built
        built += 1
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(20):
            for argv in USAGE_ARGVS:
                run(argv)
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert built == 1


@pytest.mark.own_generation
def test_calls_leave_no_cyclic_garbage(tmp_path, capsys):
    # a command's objects go when their count drops to zero, so the cyclic
    # collector finds nothing to free after any of them; usage errors are
    # left out, since a caught `SystemExit` keeps its frames in a cycle
    paths = sorted(FIXTURES.glob("*.ntree"))
    for seed, key in enumerate(CORPUS_A[:50]):
        path = tmp_path / f"seed{seed}.ntree"
        path.write_text(serialize(corpora.tree(key)))
        paths.append(path)
    argvs = [["gen", "--seed", str(seed)] for seed in range(10)]
    for path in map(str, paths):
        argvs += [
            ["analyze", path, "--format", "json"],
            ["analyze", path],
            ["validate", path],
            ["combs", path],
            ["audit", path],
            ["dot", path, "--with-report"],
        ]
    run(argvs[0])  # builds the parser, which holds cycles for good
    capsys.readouterr()
    gc.collect()
    gc.disable()
    try:
        for argv in argvs:
            assert run(argv) == 0, argv
            capsys.readouterr()
        assert gc.collect() == 0
    finally:
        gc.enable()
