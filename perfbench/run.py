"""Benchmark entry point for newton-forest.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from ``src/``
of the current directory.  Inputs are built from ``--seed`` into
``.perfbench/`` and every timed operation is one in-process ``cli.run`` call
with stdout captured, one input each.  The load is a closed loop with one
client: each call starts after the previous verdict, with no added threads and
``NEWTON_FOREST_THREADS`` unset.

``--trace 0`` builds the inputs three times (``setup_s`` takes the median) and
after each build measures whole passes over the inputs until a third more of
``--seconds`` has been measured.  Spreading the measurement over the run this
way averages out slow drifts in host CPU speed.  It reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` builds once, makes one untraced
and one traced pass and reports the per-layer metrics; the spans go to
``.perfbench/spans-<workload>.jsonl``.  Outputs are checked after
the timed region; a wrong verdict counts as failed.  The last line of stdout is
the JSON result.  The exit code is 0 when every output was correct, 1 when one
was not, and 2 when the program or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(samples: list[float], per_pass: int) -> tuple[str, float]:
    """The highest percentile of the ladder that has at least ten samples
    beyond it within one pass, read (nearest rank) over all passes.  Fixing
    it by the pass size keeps it on the same inputs however many passes fit
    in the run.  With fewer than 20 inputs per pass it is the maximum."""
    ordered = sorted(samples)
    for q in TAIL_LADDER:
        if per_pass * (100 - q) / 100 >= 10:
            return f"p{q:g}", ordered[math.ceil(q / 100 * len(ordered)) - 1]
    return "max", ordered[-1]


def run_pass(cli, calls, tracer=None):
    """One closed-loop pass: returns (seconds per call, (exit code, stdout, stderr) per call)."""
    durations, results = [], []
    for i, call in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.input_id = str(i)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.run(call.argv)
            end = time.perf_counter()
        durations.append(end - start)
        results.append((code, out.getvalue(), err.getvalue()))
    return durations, results


def check_pass(calls, results) -> list[tuple[int, str]]:
    """(input index, what is wrong) for each wrong verdict."""
    problems = []
    for i, (call, (code, out, err)) in enumerate(zip(calls, results)):
        if code != call.exit_code:
            problems.append((i, f"exit {code}, expected {call.exit_code}: {err.strip()[:200]}"))
            continue
        wrong = call.check(out)
        if wrong:
            problems.append((i, wrong))
    return problems


def output_sha256(results) -> str:
    digest = hashlib.sha256()
    for _, out, _ in results:
        digest.update(out.encode("utf-8"))
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    src = root / "src"
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    try:
        import newton_forest.cli as cli
    except ImportError as exc:
        print(f"perfbench: cannot import newton_forest from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: newton_forest was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    import tracer as tracing
    import workloads
    from newton_forest.classify_audit import REGISTRY

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.environ.pop("NEWTON_FOREST_THREADS", None)
    build = workloads.WORKLOADS[args.workload]
    work_dir = root / ".perfbench" / args.workload
    rounds = 1 if args.trace else SETUP_REPEATS
    setup_times, input_digests = [], set()
    durations, first, later = [], None, []  # later: (input index, same output as first pass)
    passes, measured = 0, 0.0
    try:
        for k in range(1, rounds + 1):
            shutil.rmtree(work_dir, ignore_errors=True)
            work_dir.mkdir(parents=True)
            start = time.perf_counter()
            inputs = build(args.seed, work_dir)
            setup_times.append(time.perf_counter() - start)
            input_digests.add(inputs.input_sha256)
            if k == 1:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.run(inputs.warmup)
                warmup_s = time.perf_counter() - start
            # The inputs and their oracle checks stay alive for the whole run;
            # a process that handles one input would not scan them in every
            # collection of the oldest generation.
            gc.collect()
            gc.freeze()
            calls = inputs.calls
            while passes == 0 or (not args.trace and measured < args.seconds * k / rounds):
                start = time.perf_counter()
                more, results = run_pass(cli, calls)
                measured += time.perf_counter() - start
                durations += more
                if first is None:
                    first = results
                else:
                    later += [(i, a == b) for i, (a, b) in enumerate(zip(first, results))]
                passes += 1
        if args.trace:
            recorder = tracing.Tracer()
            recorder.install()
            try:
                traced_durations, traced = run_pass(cli, calls, recorder)
            finally:
                recorder.uninstall()
            later += [(i, a == b) for i, (a, b) in enumerate(zip(first, traced))]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setup_s = import_s + statistics.median(setup_times) + warmup_s

    problems = check_pass(calls, first)
    bad = {i for i, _ in problems}
    attempted = len(calls) + len(later)
    failed = len(bad) + sum(1 for i, same in later if i in bad or not same)
    problems = [f"input {i}: {what}" for i, what in problems]
    changed = sum(1 for i, same in later if not same)
    if changed:
        problems.append(f"{changed} calls printed other output than in the first pass")
    if len(input_digests) > 1:
        problems.append("the input builds of one seed differ")
    out_sha = output_sha256(first)
    pinned = workloads.PINNED[args.workload]
    if args.seed == 0 and pinned != (inputs.input_sha256, out_sha):
        problems.append(
            f"digests for seed 0 are input {inputs.input_sha256} output {out_sha},"
            f" pinned input {pinned[0]} output {pinned[1]}"
        )
    for line in problems[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    print(
        f"# workload={args.workload} seed={args.seed} nproc={os.cpu_count()}"
        f" python={sys.version.split()[0]} input_sha256={inputs.input_sha256}"
        f" output_sha256={out_sha} failed_ratio={failed}/{attempted}"
    )
    if args.trace:
        metrics = recorder.metrics(check_id for check_id, _, _ in REGISTRY)
        metrics["trace.overhead_s"] = sum(traced_durations) - sum(durations)
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".s"))
        print(
            f"# untraced pass {sum(durations):.4f} s; traced self times {self_sum:.4f} s"
            f" - overhead {metrics['trace.overhead_s']:.4f} s = {self_sum - metrics['trace.overhead_s']:.4f} s"
        )
        spans_path = root / ".perfbench" / f"spans-{args.workload}.jsonl"
        recorder.write(spans_path)
        print(f"# {len(recorder.spans)} spans written to {spans_path.relative_to(root)}")
        wanted = spec["per_layer"]
    else:
        label, tail_s = tail(durations, len(calls))
        trees = sum(call.trees for call in calls) * passes
        metrics = {
            "trees_per_s": trees / measured,
            "verdict_ms_p50": statistics.median(durations) * 1000,
            "verdict_ms_tail": tail_s * 1000,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"# passes={passes} samples={len(durations)} verdict_ms_tail={label}"
            f" setup: import {import_s:.4f} s, build {', '.join(f'{t:.4f}' for t in setup_times)} s,"
            f" warm-up {warmup_s:.4f} s"
        )
        wanted = spec["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for metrics {missing}", file=sys.stderr)
        return 2
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
