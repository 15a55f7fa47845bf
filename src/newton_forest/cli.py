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
from .oracle_gen import GeneratorConfig, generate, generate_verdict
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


# A forked worker pays for its fork and for pickling its outcomes to the
# parent only when it audits at least this many seeds.
SEEDS_PER_WORKER = 32

# The failures of each distinct tree that this `audit --gen` command has
# audited in this process, by its assembly (`generate_verdict`).  Emptied when
# the command returns, so a worker forked for a command starts with it empty
# and no command reads another's.
_verdicts: dict = {}


def _failures(screened) -> tuple[tuple[str, str], ...]:
    """(check id, witness) of each audit check that fails on the tree,
    analysed from the multiplicity table and classification that the
    generator's screen computed for it."""
    analysis = Analysis.from_classification(*screened, None)
    return tuple((r.check_id, r.witness) for r in audit_failures(audit_analysis(analysis)))


def _audit_outcome(seed: int, max_cells: int) -> list[str] | Exception:
    """The `seed S: FAIL` lines of the tree generated from `seed`, audited
    once per distinct tree in this process, or the exception that raised.
    A worker sends the parent each seed's outcome and stops at its first
    exception, so the parent prints the lines of every seed before the
    faulting one and raises there, as in process."""
    try:
        failures = generate_verdict(
            GeneratorConfig(seed=seed, max_cells=max_cells), _failures, _verdicts
        )
    except Exception as exc:
        return exc
    return [f"seed {seed}: FAIL {check_id} [{witness}]" for check_id, witness in failures]


def _lines(outcome: list[str] | Exception) -> list[str]:
    """An `_audit_outcome`'s lines; raises the exception it holds."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _audit_workers(n_seeds: int) -> int:
    """Worker processes for auditing `n_seeds` seeds: one per usable CPU while
    each gets `SEEDS_PER_WORKER` seeds, and 0 (audit in process) when fewer
    than two would.  At most 255, so that a worker's number fits in a byte.
    Also 0 while the process runs other threads: a forked worker inherits no
    thread but every lock they held."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 0
    workers = min(len(os.sched_getaffinity(0)), n_seeds // SEEDS_PER_WORKER, 255)
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
    try:
        return _audit_seeds(range(args.seed, args.seed + args.gen), args.max_cells)
    finally:
        _verdicts.clear()


def _audit_seeds(seeds: range, max_cells: int) -> int:
    workers = _audit_workers(len(seeds))
    if workers:
        code = _audit_in_workers(seeds, max_cells, workers)
        if code is not None:
            return code
    outcomes = map(_audit_outcome, seeds, repeat(max_cells))
    return _print_audits(len(seeds), map(_lines, outcomes))


def _audit_in_workers(seeds: range, max_cells: int, workers: int) -> int | None:
    """Audit `seeds` in up to `workers` forked processes and print what the
    in-process audit prints, or return None, having started none, when the
    first pipe or fork fails.

    The seeds are cut into `min(255, 4 * workers)` chunks, one byte each in
    the task pipe.  A worker takes the next byte, posts (chunk, worker) on
    the claims pipe, writes each seed's pickled `_audit_outcome` to its own
    pipe, flushed after each chunk and with nothing after its first
    exception, and leaves when the bytes run out.  The parent learns from
    the claims which worker holds each chunk and reads the chunks in seed
    order, so a worker whose pipe is full waits while the parent reads the
    chunks before its own.  Whatever way the command ends, every worker is
    killed and reaped."""
    import pickle

    chunks = min(255, 4 * workers)
    bounds = [len(seeds) * c // chunks for c in range(chunks + 1)]

    def work(worker: int, w: int) -> None:
        """The whole life of the forked worker `worker`: claim chunks until
        the task pipe runs out, and write their outcomes to the pipe end `w`."""
        try:
            out = open(w, "wb")
            failed = False
            while not failed and (task := os.read(tasks, 1)):
                os.write(claim_w, bytes((task[0], worker)))
                for seed in seeds[bounds[task[0]] : bounds[task[0] + 1]]:
                    outcome = _audit_outcome(seed, max_cells)
                    pickle.dump(outcome, out)
                    if failed := isinstance(outcome, Exception):
                        break
                out.flush()
        finally:
            os._exit(0)

    def lines_per_seed():
        holder = {}  # chunk -> the worker that claimed it
        for chunk in range(chunks):
            while chunk not in holder:
                claim = os.read(claims, 2)
                if len(claim) < 2:
                    raise InternalInconsistencyError("an audit worker died")
                holder[claim[0]] = claim[1]
            for _ in range(bounds[chunk], bounds[chunk + 1]):
                try:
                    outcome = pickle.load(readers[holder[chunk]])
                except (EOFError, pickle.UnpicklingError):
                    raise InternalInconsistencyError("an audit worker died") from None
                yield _lines(outcome)

    held: list[int] = []  # the read ends that this process holds
    pids: list[int] = []
    readers = []  # each worker's pipe, buffered
    try:
        try:
            tasks, task_w = os.pipe()
            held.append(tasks)
            with open(task_w, "wb") as fh:  # closed before any fork: the tasks run out
                fh.write(bytes(range(chunks)))
            claims, claim_w = os.pipe()
            held.append(claims)
            try:
                for worker in range(workers):
                    r, w = os.pipe()
                    held.append(r)
                    try:
                        if (pid := os.fork()) == 0:
                            work(worker, w)
                    finally:
                        os.close(w)
                    pids.append(pid)
                    readers.append(open(r, "rb", closefd=False))
            finally:
                os.close(claim_w)
        except OSError:
            if not pids:
                return None  # no pipe or no process to spare: audit in process
        return _print_audits(len(seeds), lines_per_seed())
    finally:
        for fd in held:
            os.close(fd)
        _reap(pids)


def _reap(pids: list[int]) -> None:
    """Kill each worker, done or not, and wait for it, so that none outlives
    the command."""
    import signal

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pid in pids:
        os.waitpid(pid, 0)


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
    p.add_argument("--seed", type=_count, default=0, metavar="S")
    p.add_argument("--max-cells", type=_cell_budget, default=40, metavar="K")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("dot", help="Graphviz export")
    p.add_argument("file")
    p.add_argument("--with-report", action="store_true")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("gen", help="emit a generated tree document")
    p.add_argument("--seed", type=_count, required=True, metavar="S")
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
