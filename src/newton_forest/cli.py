"""Command-line front end.

Subcommands: validate, analyze, combs, audit, dot, gen.  Exit codes:
0 success, 1 invalid input (unparsable or undecodable file, or validation
diagnostics printed), 2 usage error (bad arguments such as `audit FILE
--gen N`, unreadable path, a `--z` that is not an initial vertex), 3
internal inconsistency (an audit failed on valid input, the engine raised,
or an `audit --gen` worker process died).

Reports are byte-deterministic for a given input and flags; rationals print
reduced as "p/q" and mappings are key-sorted.
"""

from __future__ import annotations

import argparse
import functools
# Reports go through `tree_io.json_text`, so nothing here calls `json`; the
# name stays because perfbench's tracer reads `cli.json` and puts a shim in
# its place when it installs.
import json  # noqa: F401
import os
import sys
import threading
from itertools import repeat

from .classify_audit import (
    audit_analysis,
    audit_failures,
    theorem_audit,
)
from .errors import (
    InternalInconsistencyError,
    NewtonForestError,
    NotInitialVertexError,
    ParseError,
)
from .multiplicity import classify, multiplicities
from .oracle_gen import GeneratorConfig, generate, generate_classified
from .report import (
    Analysis,
    ValidationFailedError,
    analysis_to_dict,
    decompositions_to_dict,
    render_text,
)
from .tree_io import collector_paused, export_dot, json_text, parse, serialize
from .tree_model import iter_axiom_diagnostics


def _read_tree(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse(text)


def _classification_line(info) -> str:
    if info.minimally_complete:
        return "minimally complete"
    if info.complete:
        return "complete (not minimally complete)"
    if info.generic:
        return "generic (not complete)"
    return "valid axioms (not generic)"


def _validate(tree) -> int:
    # printed as found, so memory stays flat however many there are
    failed = False
    for d in iter_axiom_diagnostics(tree):
        print(str(d))
        failed = True
    if failed:
        return 1
    info = classify(tree, multiplicities(tree))
    print(_classification_line(info))
    for reason in info.reasons:
        print(f"  - {reason}")
    return 0


def _cmd_validate(args) -> int:
    # The collector stays paused from the parse to the verdict, and until the
    # tree is freed: a young collection while the fresh tree is alive would
    # walk all its objects, which hold no cycle, and free nothing.
    with collector_paused():
        return _validate(_read_tree(args.file))


def _cmd_analyze(args) -> int:
    analysis = Analysis.build(_read_tree(args.file), z=args.z)
    audits = audit_analysis(analysis)
    doc = analysis_to_dict(analysis, audits)
    if args.format == "json":
        print(json_text(doc, sort_keys=True))
    else:
        sys.stdout.write(render_text(doc))
    return 3 if audit_failures(audits) else 0


def _cmd_combs(args) -> int:
    tree = _read_tree(args.file)
    analysis = Analysis.build(tree, z=args.z)
    out = {
        "In": sorted(analysis.struct.In),
        "decompositions": decompositions_to_dict(analysis),
    }
    print(json_text(out, sort_keys=True))
    return 0


def _audit_one_file(args) -> int:
    tree = _read_tree(args.file)
    results = theorem_audit(tree)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        line = f"{status}  {r.check_id}"
        if not r.passed:
            line += f"  [{r.witness}]"
        print(line)
    bad = audit_failures(results)
    print(f"{len(results)} checks, {len(bad)} failures")
    return 3 if bad else 0


# A worker process pays for its fork and its share of the result traffic only
# when it audits at least this many seeds.
SEEDS_PER_WORKER = 32


def _audit_seed(seed: int, max_cells: int) -> list[str]:
    """The `seed S: FAIL` lines of the tree generated from `seed`, analysed
    from the multiplicity table and classification that the generator's
    screen computed for it."""
    tree, table, info = generate_classified(
        GeneratorConfig(seed=seed, max_cells=max_cells)
    )
    analysis = Analysis.from_classification(tree, table, info, None)
    return [
        f"seed {seed}: FAIL {r.check_id} [{r.witness}]"
        for r in audit_failures(audit_analysis(analysis))
    ]


def _audit_workers(n_seeds: int) -> int:
    """Worker processes for auditing `n_seeds` seeds: one per usable CPU while
    each gets `SEEDS_PER_WORKER` seeds, and 0 (audit in process) when fewer
    than two would.  Also 0 while the process runs other threads: a forked
    worker inherits no thread but every lock they held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 0
    workers = min(len(os.sched_getaffinity(0)), n_seeds // SEEDS_PER_WORKER)
    return workers if workers >= 2 else 0


def _print_audits(n_seeds: int, lines_per_seed) -> int:
    failures = 0
    for lines in lines_per_seed:
        failures += len(lines)
        for line in lines:
            print(line)
    print(f"{n_seeds} trees audited, {failures} failures")
    return 3 if failures else 0


def _audit_generated(args) -> int:
    seeds = range(args.seed, args.seed + args.gen)
    cells = repeat(args.max_cells)
    workers = _audit_workers(len(seeds))
    if workers:
        # imported here, so that no other command pays for the pool
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        try:
            # forked, a worker starts with the package already imported
            pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
        except (OSError, NotImplementedError):
            pass  # no POSIX semaphores for the pool's queues: audit in process
        else:
            chunk = len(seeds) // (4 * workers)
            with pool:
                # map yields each seed's lines in seed order, and re-raises a
                # worker's exception when its seed comes up
                try:
                    lines = pool.map(_audit_seed, seeds, cells, chunksize=chunk)
                    return _print_audits(len(seeds), lines)
                except BrokenProcessPool as exc:
                    raise InternalInconsistencyError(
                        f"an audit worker died: {exc}"
                    ) from exc
    return _print_audits(len(seeds), map(_audit_seed, seeds, cells))


def _cmd_audit(args) -> int:
    if args.gen is not None:
        if args.file is not None:
            print("audit: give a file or --gen N, not both", file=sys.stderr)
            return 2
        return _audit_generated(args)
    if not args.file:
        print("audit: give a file or --gen N", file=sys.stderr)
        return 2
    return _audit_one_file(args)


def _cmd_dot(args) -> int:
    tree = _read_tree(args.file)
    report = None
    if args.with_report:
        report = Analysis.build(tree)
    sys.stdout.write(export_dot(tree, report))
    return 0


def _cmd_gen(args) -> int:
    config = GeneratorConfig(
        seed=args.seed, max_cells=args.max_cells, rational=args.rational
    )
    tree = generate(config)
    sys.stdout.write(serialize(tree))
    return 0


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _cell_budget(text: str) -> int:
    # the smallest plan: a root and one degree-1 dicritical with its dead end
    # and its arrow
    value = _count(text)
    if value < 4:
        raise argparse.ArgumentTypeError(
            f"no tree fits in fewer than 4 cells, got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newton-forest",
        description="Exact invariants and theorem audits for decorated rooted trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the axioms and classify")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="full invariant report")
    p.add_argument("file")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--z", default=None, help="initial vertex for the decomposition")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("combs", help="comb decompositions only")
    p.add_argument("file")
    p.add_argument("--z", default=None)
    p.set_defaults(func=_cmd_combs)

    p = sub.add_parser("audit", help="run the theorem audits")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--gen", type=_count, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--max-cells", type=_cell_budget, default=40, metavar="K")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("file")
    p.add_argument("--with-report", action="store_true")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("gen", help="emit a generated tree document")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--max-cells", type=_cell_budget, default=40, metavar="K")
    p.add_argument("--rational", action="store_true")
    p.set_defaults(func=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `run` in this process, built on first use.  A
    parser, its subparsers and its actions point at each other, so each
    build would also leave about 250 objects for the cyclic collector."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationFailedError as exc:
        for d in exc.diagnostics:
            print(str(d), file=sys.stderr)
        return 1
    except (NotInitialVertexError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (InternalInconsistencyError, ValueError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except NewtonForestError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
