"""The benchmark's four workloads: how each builds its inputs from the seed,
which layer it stresses and which it bypasses, and how its verdicts are checked.

Every input reaches the program as a command line for ``cli.run``; the tree
files it names are written during set-up, so each timed call parses its input
afresh (``DecoratedRootedTree`` fills ``cached_property`` values lazily, and a
reused tree object would hide parse and first-touch costs).

corpus-small
    ``analyze --format json`` on the trees of 1000 consecutive generator seeds
    at ``max_cells=40``, starting at the workload seed.  Seed 0 is the
    acceptance corpus (mean 15 cells, max 38).  Many small trees, so per-call
    overheads dominate: argparse (``build_parser`` is about a quarter of a
    call), the 42-check audit registry (about 45% of a call; the
    ``dicritical-sum-divisibility``, ``local-R-identity`` and
    ``linear-path-determinants`` checks lead it) and rendering (about 14%).
    Multiplicities are about 18%, validation about 4%.
fan-wide
    ``analyze --format json`` on corpus B of the roadmap: generator seeds
    0..39 at ``max_cells=400`` and ``max_dicritical_degree=120``, up to 391
    cells.  A few high-degree fans make ``multiplicities`` (quadratic in the
    dicritical degree) most of a pass; the audit and rendering matter little.
    The corpus is the same for every workload seed, which only permutes the
    order of the inputs: the analysis time of a window of 40 consecutive
    generator seeds at this configuration varies fourfold (0.6 s to 2.7 s over
    the windows of seeds 0..199), because six or so large fans carry it, and
    no run length steadies that.  Only six of the 40 trees have more than 30
    cells, so the tail (p75 of a 40-input pass) lands on small trees; lifting
    it onto the large fans would take about 150 seeds.
reject-large
    ``validate`` on invalid trees whose violated axiom is known by
    construction: deep caterpillars (a spine with one (1)-arrow per vertex
    and one side vertex with only a dead end above it, violating axiom 1) and
    wide stars (one vertex with thousands of (1)-arrows, two of whose
    decorations are not coprime, violating axiom 5) at about 1k, 2k and 4k
    cells.  This is validation on the reject path: no analysis layer runs.  It
    exposes the quadratic axiom-1 path walks, the quadratic axiom-5 pairwise
    gcd loop, and the ``list.pop(0)`` breadth-first search in ``build_tree``.
    The seed places the violation and picks the decorations; sizes are fixed.
audit-gen
    ``audit --gen 300 --seed S --max-cells 40``, the batch command the
    roadmap names.  The generator does most of the work (about 75%), the
    audit about 10%; nothing is rendered.  This is the only workload that
    times generation; elsewhere generation falls in set-up.  One call brings
    300 trees to a verdict, so its latency metrics are per call, not per tree.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from newton_forest.oracle_gen import (
    GeneratorConfig,
    generate,
    oracle_N,
    oracle_delta_tilde_N,
)
from newton_forest.tree_io import serialize
from newton_forest.tree_model import ARROW, VERTEX, Cell, build_tree, make_edge

# stdout -> a description of what is wrong, or None.
Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One ``cli.run`` invocation and the verdict it must reach."""

    argv: list[str]
    exit_code: int
    trees: int
    check: Check
    cells: int  # size of the input, for ordering; 0 when there is no file


@dataclass(frozen=True)
class Inputs:
    calls: list[Call]
    input_sha256: str  # of the generated input text, in call order
    warmup: list[str]  # argv of a cheap first call, paid in set-up


# sha256 of the input text and of all report stdout bytes of one pass, for
# the default seed 0.  A change that alters the seed->tree mapping or the
# report bytes fails the run.
PINNED: dict[str, tuple[str, str]] = {
    "corpus-small": (
        "bf5ccd8a6619b4256d5724e7cc51e9afea25f3e67c498010fe5d39fab4667498",
        "1818c8b0d061a5357a3560bbda0d6ac20b23823668a322f29111a144a515bd34",
    ),
    "fan-wide": (
        "0d734ceb125b3805485fab2c7e99fc45576741b164a067e12de04b038105db01",
        "0035b707a870b37b114f6d054adf82099791170cd7caae19b68f3c0ec9b067cd",
    ),
    "reject-large": (
        "5dbd00c6fd365e62e79b6bd2c654a406d26a899fa04b3f3f47a2b181456c4e57",
        "dcf24d92c42bb3cc1622158c9a2e84be732cc05bc9c9d0315ffcc7a7c7254783",
    ),
    "audit-gen": (
        "b028788b3c0e8e91b7da3e84dc67a65818e2dc59f3f99f3afeea4eaeb875304e",
        "9211a03a4908f9757d5b6913669a8e9c42921a3535c89aceb98ff2cfd2e9184d",
    ),
}


def _report_check(tree) -> Check:
    """Zero audit failures, and N per vertex and delta_tilde_N equal to the
    brute-force oracles."""

    def check(out: str) -> str | None:
        doc = json.loads(out)
        failed = [a["check"] for a in doc["audit"] if not a["passed"]]
        if failed:
            return f"audit failures {failed}"
        # The report has one row per vertex of positive multiplicity.
        oracle = {v: oracle_N(tree, v) for v in tree.vertices}
        rows = doc["vertices"]
        if set(rows) != {v for v, n in oracle.items() if n > 0}:
            return "vertex rows differ from the vertices of positive oracle N"
        for v, row in rows.items():
            if row["N"] != oracle[v]:
                return f"N of {v!r} is {row['N']}, oracle {oracle[v]}"
        want = oracle_delta_tilde_N(tree)
        if doc["global"]["delta_tilde_N"] != want:
            return f"delta_tilde_N {doc['global']['delta_tilde_N']}, oracle {want}"
        return None

    return check


def _exact_check(want_out: str) -> Check:
    def check(out: str) -> str | None:
        if out != want_out:
            return f"stdout {out!r}, expected {want_out!r}"
        return None

    return check


def _write_trees(items, directory: Path, argv_of, exit_code: int) -> tuple[list[Call], str]:
    """Write each (tree, check) pair's tree to a file; one call per file."""
    digest = hashlib.sha256()
    calls = []
    for i, (tree, check) in enumerate(items):
        text = serialize(tree)
        path = directory / f"{i:04d}.ntree"
        path.write_text(text, encoding="utf-8")
        digest.update(text.encode("utf-8"))
        calls.append(Call(argv_of(str(path)), exit_code, 1, check, len(tree.cells)))
    return calls, digest.hexdigest()


def _analyze_argv(path: str) -> list[str]:
    return ["analyze", path, "--format", "json"]


def _analyze_corpus(configs: list[GeneratorConfig], directory: Path) -> Inputs:
    trees = [generate(cfg) for cfg in configs]
    items = [(tree, _report_check(tree)) for tree in trees]
    calls, sha = _write_trees(items, directory, _analyze_argv, 0)
    smallest = min(calls, key=lambda c: c.cells)
    return Inputs(calls, sha, smallest.argv)


def build_corpus_small(seed: int, directory: Path) -> Inputs:
    configs = [GeneratorConfig(seed=s, max_cells=40) for s in range(seed, seed + 1000)]
    return _analyze_corpus(configs, directory)


def build_fan_wide(seed: int, directory: Path) -> Inputs:
    order = list(range(40))
    random.Random(seed).shuffle(order)
    configs = [
        GeneratorConfig(seed=s, max_cells=400, max_dicritical_degree=120) for s in order
    ]
    return _analyze_corpus(configs, directory)


# -- reject-large -------------------------------------------------------------


def caterpillar(spine: int, rng: random.Random):
    """A spine v0..v{spine-1} rooted at v0, one (1)-arrow t{i} per spine
    vertex, and a side vertex ``w`` hanging off a seeded spine vertex with only
    a dead end ``o`` above it.  Decorations near each spine vertex on its
    parent edge strictly decrease, so every vertex-vertex determinant is
    negative; the only violated clause is axiom 1 at ``w``.
    """
    cells = [Cell(f"v{i}", VERTEX) for i in range(spine)]
    cells += [Cell(f"t{i}", ARROW, 1) for i in range(spine)]
    edges = [make_edge(f"v{i}", 1, f"t{i}", 1) for i in range(spine)]
    down = [1]  # decoration near v{i} on its parent edge; v0 has none
    for i in range(1, spine):
        down.append((0 if i == 1 else down[-1]) - rng.randint(1, 3))
        edges.append(make_edge(f"v{i - 1}", 1, f"v{i}", down[i]))
    j = rng.randrange(1, spine - 1)
    cells += [Cell("w", VERTEX), Cell("o", ARROW, 0)]
    edges.append(make_edge(f"v{j}", 1, "w", down[j] - 1))
    edges.append(make_edge("w", 1, "o", 1))
    tree = build_tree(cells, edges, "v0")
    return tree, "axiom 1 at (w): no arrow decorated (1) above this vertex\n"


def star(arms: int, rng: random.Random):
    """A root ``r`` over one vertex ``c`` carrying ``arms`` (1)-arrows.  The
    decoration near ``c`` is b on a seeded arrow's edge and -b on the edge to
    the root; the only violated clause is axiom 5 (b and -b share a factor).
    """
    b = 2 * rng.randint(1, 3)
    k = rng.randrange(arms)
    cells = [Cell("r", VERTEX), Cell("c", VERTEX)]
    edges = [make_edge("r", 1, "c", -b)]
    for i in range(arms):
        cells.append(Cell(f"t{i}", ARROW, 1))
        edges.append(make_edge("c", b if i == k else 1, f"t{i}", 1))
    tree = build_tree(cells, edges, "r")
    want = (
        f"axiom 5 at (c, {{c,r}}, {{c,t{k}}}): decorations {-b} and {b} are not coprime\n"
    )
    return tree, want


def build_reject_large(seed: int, directory: Path) -> Inputs:
    rng = random.Random(seed)
    made = [caterpillar(n, rng) for n in (500, 1000, 2000)]
    made += [star(n, rng) for n in (998, 1998, 3998)]
    items = [(tree, _exact_check(want)) for tree, want in made]
    calls, sha = _write_trees(items, directory, lambda path: ["validate", path], 1)
    return Inputs(calls, sha, calls[0].argv)


# -- audit-gen ------------------------------------------------------------------


def build_audit_gen(seed: int, directory: Path) -> Inputs:
    argv = ["audit", "--gen", "300", "--seed", str(seed), "--max-cells", "40"]
    call = Call(argv, 0, 300, _exact_check("300 trees audited, 0 failures\n"), 0)
    sha = hashlib.sha256(" ".join(argv).encode("utf-8")).hexdigest()
    warmup = ["audit", "--gen", "1", "--seed", str(seed), "--max-cells", "40"]
    return Inputs([call], sha, warmup)


# Workload name -> builder of its inputs from the seed into a directory.
WORKLOADS: dict[str, Callable[[int, Path], Inputs]] = {
    "corpus-small": build_corpus_small,
    "fan-wide": build_fan_wide,
    "reject-large": build_reject_large,
    "audit-gen": build_audit_gen,
}
