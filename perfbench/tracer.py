"""Spans around the calls into each module's public functions, from outside.

``Tracer.install`` rebinds each traced function, in every loaded
``newton_forest`` module that holds it, to a wrapper that records a span;
``uninstall`` restores the originals.  Because the program looks its callees up
by name at call time, the traced run goes through the real ``cli.run`` and calls
the stage functions in the program's own order (``Analysis.build``, then
``_full_report``).  Spans are kept in memory as (name, start, end, parent,
input id, work, cells) and written out when the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.  ``cli.run`` is traced too, so its self time holds argparse, file reads
and stdout; the self time of every span then sums to the traced pass.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

def _length(args, out) -> int:
    return len(out)


# (module, function, span name, name of the work count or None, work function).
# The work function gets the call's positional arguments and its result.
TARGETS = (
    ("cli", "run", "cli.run", None, None),
    ("tree_io", "parse", "tree_io.parse", "bytes", lambda args, out: len(args[0])),
    ("tree_model", "validate_axioms", "tree_model.validate_axioms", "diagnostics", _length),
    ("multiplicity", "multiplicities", "multiplicity.multiplicities", None, None),
    ("multiplicity", "classify", "multiplicity.classify", None, None),
    ("local_invariants", "vertex_ledger", "local_invariants.vertex_ledger", None, None),
    ("local_invariants", "global_ledger", "local_invariants.global_ledger", None, None),
    (
        "characteristic",
        "characteristic_numbers",
        "characteristic.characteristic_numbers",
        "pairs",
        lambda args, out: len(out.pairs),
    ),
    ("structure", "structure_ledger", "structure.structure_ledger", None, None),
    (
        "structure",
        "comb_decomposition",
        "structure.comb_decomposition",
        "classes",
        lambda args, out: len(out.classes),
    ),
    ("classify_audit", "audit_analysis", "classify_audit.audit", None, None),
    (
        "classify_audit",
        "rational_structure_report",
        "classify_audit.rational_structure_report",
        None,
        None,
    ),
    ("report", "analysis_to_dict", "report.render", None, None),
    ("oracle_gen", "generate", "oracle_gen.generate", "trees", lambda args, out: 1),
)

# Span name -> name of its work count.
WORK = {span: suffix for _, _, span, suffix, _ in TARGETS if suffix}
WORK["report.render"] = "bytes"

# Spans whose duration against tree size gives a `.growth` slope.
GROWTH = ("tree_model.validate_axioms", "multiplicity.multiplicities")

# Metric names for self time where `<span>.s` would misread.
SELF_METRIC = {
    "cli.run": "cli.self.s",
    "classify_audit.audit": "classify_audit.audit.self.s",
}

CHECK_PREFIX = "classify_audit.audit."


class _JsonShim:
    """Stands in for the ``json`` module inside ``cli`` so that the report
    encoding is a ``report.render`` span."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.input_id = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sized = name in GROWTH

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name,
                    start,
                    end,
                    parent,
                    self.input_id,
                    work(args, out) if work and out is not None else 0,
                    len(args[0].cells) if sized else 0,
                )

        return traced

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "newton_forest" and not mod_name.startswith("newton_forest."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for mod, fn_name, span, _, work in TARGETS:
            original = getattr(sys.modules[f"newton_forest.{mod}"], fn_name)
            self._rebind(original, self._wrap(span, original, work))
        audit = sys.modules["newton_forest.classify_audit"]
        self._undo.append((audit, "REGISTRY", audit.REGISTRY))
        audit.REGISTRY = tuple(
            (check_id, applies, self._wrap(CHECK_PREFIX + check_id, run, _length))
            for check_id, applies, run in audit.REGISTRY
        )
        cli = sys.modules["newton_forest.cli"]
        self._undo.append((cli, "json", cli.json))
        cli.json = _JsonShim(
            self._wrap("report.render", json.dumps, lambda args, out: len(out.encode("utf-8")))
        )

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def write(self, path: Path) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, input_id, work, cells) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start - base,
                            "end": end - base,
                            "parent": parent,
                            "input": input_id,
                            "work": work,
                            "cells": cells,
                        }
                    )
                    + "\n"
                )

    def metrics(self, check_ids) -> dict[str, float]:
        """Per-layer metrics of the recorded spans: self seconds per span name,
        work counts, and growth slopes.  Layers that did not run read 0."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(metric_names(check_ids), 0.0)
        points = defaultdict(list)
        for i, (name, start, end, parent, _, work, cells) in enumerate(self.spans):
            key = SELF_METRIC.get(name, name + ".s")
            out[key] = out.get(key, 0.0) + end - start - covered[i]
            if name.startswith(CHECK_PREFIX):
                out[CHECK_PREFIX + "applied"] += 1
                out[CHECK_PREFIX + "witnesses"] += work
            elif name in WORK:
                out[f"{name}.{WORK[name]}"] += work
            if name in GROWTH:
                points[name].append((cells, end - start))
        for name in GROWTH:
            out[name + ".growth"] = _slope(points[name])
        return out


def metric_names(check_ids) -> list[str]:
    """Every per-layer metric the tracer reports."""
    names = [SELF_METRIC.get(span, span + ".s") for _, _, span, _, _ in TARGETS]
    names += [f"{span}.{suffix}" for span, suffix in WORK.items()]
    names += [name + ".growth" for name in GROWTH]
    names += [CHECK_PREFIX + check_id + ".s" for check_id in check_ids]
    names += [CHECK_PREFIX + "applied", CHECK_PREFIX + "witnesses"]
    return names


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(duration) against log(cells): 1 is linear,
    2 quadratic.  0 when fewer than two sizes were seen."""
    pts = [(math.log(c), math.log(d)) for c, d in points if c > 0 and d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
