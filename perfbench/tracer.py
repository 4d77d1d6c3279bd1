"""Spans and counts at the boundaries between geocert's layers.

The tracer replaces a few module attributes with timing wrappers for the
duration of a traced pass and restores them afterwards; nothing under
``src/`` changes.  Each span records its name, start, end, parent and self
time (its duration minus the time its child spans cover).  Spans stay in
memory; per-pass aggregates are folded as passes end, and the raw spans of
the first traced pass are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter

# Raw spans beyond this many are aggregated but not written out.
MAX_WRITTEN_SPANS = 20_000


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, self seconds, root]
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._patches: list[tuple] = []
        self.nodes = 0  # expression nodes under top-level evaluate calls
        self._node_counts: dict[int, tuple] = {}
        # (name, parent name, root name) -> [calls, seconds, self seconds], summed over passes
        self.aggregate: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.passes = 0
        self.first_pass_spans: list[list] | None = None

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str):
        parent = self._stack[-1][0] if self._stack else -1
        root = self.spans[self._stack[0][0]][0] if self._stack else name
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, _now(), 0.0, parent, 0.0, root])

    def end(self):
        end = _now()
        index, covered = self._stack.pop()
        rec = self.spans[index]
        rec[2] = end
        duration = end - rec[1]
        rec[4] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn, name: str):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced

    # -- installation -----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, wrapper=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, (wrapper or self.wrap)(original, name))

    def _wrap_evaluate(self, fn, name: str):
        """Top-level ``evaluate`` calls, also counting the nodes they visit."""
        begin, end, counts = self.begin, self.end, self._node_counts

        @functools.wraps(fn)
        def traced(e, env):
            entry = counts.get(id(e))
            if entry is None:
                # keep ``e`` alive so its id cannot be reused within the pass
                entry = counts[id(e)] = (e, e.node_count())
            self.nodes += entry[1]
            begin(name)
            try:
                return fn(e, env)
            finally:
                end()

        return traced

    def install(self):
        """Wrap every layer boundary the per-layer metrics are read from."""
        import numpy as np

        import geocert.cli
        import geocert.oracle
        import geocert.solver
        import geocert.spd

        cli, oracle, spd = geocert.cli, geocert.oracle, geocert.spd
        self.patch(cli, "load_problem", "problems.load")
        self.patch(cli, "analyze", "analysis.analyze")
        self.patch(oracle, "analyze", "analysis.analyze")
        self.patch(cli, "cross_validate", "oracle.cross_validate")
        self.patch(cli, "gradient_descent", "solver.gradient_descent")
        self.patch(geocert.solver.Objective, "gradient", "solver.gradient")
        self.patch(cli, "evaluate", "expr.evaluate", self._wrap_evaluate)
        self.patch(oracle, "evaluate", "expr.evaluate", self._wrap_evaluate)
        self.patch(spd, "geodesic_path", "spd.geodesic_path")
        self.patch(spd, "distance", "spd.distance")
        self.patch(np.linalg, "eigh", "numpy.eigh")
        self.patch(np.linalg, "eigvalsh", "numpy.eigvalsh")
        self.patch(np.linalg, "qr", "numpy.qr")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- passes -------------------------------------------------------------------

    def end_pass(self):
        """Fold the pass's spans into the aggregate and start a fresh pass."""
        if self._stack:
            raise RuntimeError("a pass ended with open spans")
        for name, _start, _end, parent, self_s, root in self.spans:
            key = (name, self.spans[parent][0] if parent >= 0 else "", root)
            acc = self.aggregate[key]
            acc[0] += 1
            acc[1] += _end - _start
            acc[2] += self_s
        if self.first_pass_spans is None:
            self.first_pass_spans = self.spans
        self.spans = []
        self._node_counts.clear()
        self.passes += 1

    def write(self, path: Path, header: dict):
        spans = self.first_pass_spans or []
        origin = spans[0][1] if spans else 0.0
        doc = dict(header)
        doc["passes"] = self.passes
        doc["aggregate"] = [
            {"name": n, "parent": p, "root": r, "calls": c, "seconds": s, "self_seconds": ss}
            for (n, p, r), (c, s, ss) in sorted(self.aggregate.items())
        ]
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "self_s"]
        doc["spans_written"] = min(len(spans), MAX_WRITTEN_SPANS)
        doc["spans_in_first_pass"] = len(spans)
        doc["spans"] = [
            [n, s - origin, e - origin, p, ss] for n, s, e, p, ss, _r in spans[:MAX_WRITTEN_SPANS]
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


# Roots of the operations that run the falsifier.
FUZZ_ROOTS = ("cli.fuzz", "oracle.check")
ORACLE_SPANS = ("oracle.cross_validate", "oracle.check")
EIGH_SPANS = ("numpy.eigh", "numpy.eigvalsh")

PER_LAYER_UNITS = {
    "problems.load_ms": "ms",
    "analysis.analyze_ms": "ms",
    "cli.self_ms": "ms",
    "expr.evaluate_calls": "count",
    "expr.evaluate_us": "us",
    "expr.evaluate_us_per_node": "us",
    "spd.eigh_calls_per_trial": "count",
    "spd.eigh_us": "us",
    "spd.geodesic_path_us": "us",
    "spd.distance_us": "us",
    "oracle.trials": "count",
    "oracle.self_us_per_trial": "us",
    "oracle.points_per_trial": "count",
    "oracle.skip_ratio": "ratio",
    "solver.solves": "count",
    "solver.iterations": "count",
    "solver.evals_per_iter": "count",
    "solver.grad_ms_per_iter": "ms",
    "solver.linesearch_ms_per_iter": "ms",
    "solver.halvings_per_iter": "count",
    "solver.grad_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: dict, overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metrics, per traced pass, from the aggregate and pass counts.

    ``counts`` holds per-pass totals the workload read from the program's own
    reports: ``trials``, ``skipped`` and ``iterations``.  A layer that does
    not run on a workload reports 0.
    """
    agg = tracer.aggregate
    passes = max(tracer.passes, 1)

    def total(pred, field):
        return sum(v[field] for k, v in agg.items() if pred(*k))

    def by_name(name, field):
        return total(lambda n, p, r: n == name, field)

    def mean_ms(name):
        return 1e3 * _ratio(by_name(name, 1), by_name(name, 0))

    def mean_us(names):
        calls = total(lambda n, p, r: n in names, 0)
        return 1e6 * _ratio(total(lambda n, p, r: n in names, 1), calls)

    trials = counts.get("trials", 0)
    iterations = counts.get("iterations", 0)
    cli_roots = lambda n, p, r: n == r and n.startswith("cli.")
    eval_calls = by_name("expr.evaluate", 0)
    under_gd = lambda n, p, r: n == "expr.evaluate" and p == "solver.gradient_descent"
    under_grad = lambda n, p, r: n == "expr.evaluate" and p == "solver.gradient"
    linesearch_evals = total(under_gd, 0) / passes
    solves = by_name("solver.gradient_descent", 0) / passes
    grad_s = by_name("solver.gradient", 1) / passes
    fuzz_eigh = total(lambda n, p, r: n in EIGH_SPANS and r in FUZZ_ROOTS, 0) / passes
    fuzz_qr = total(lambda n, p, r: n == "numpy.qr" and r in FUZZ_ROOTS, 0) / passes
    oracle_self = total(lambda n, p, r: n in ORACLE_SPANS, 2) / passes
    values = {
        "problems.load_ms": mean_ms("problems.load"),
        "analysis.analyze_ms": mean_ms("analysis.analyze"),
        "cli.self_ms": 1e3 * _ratio(total(cli_roots, 2), total(cli_roots, 0)),
        "expr.evaluate_calls": eval_calls / passes,
        "expr.evaluate_us": mean_us(("expr.evaluate",)),
        "expr.evaluate_us_per_node": 1e6 * _ratio(by_name("expr.evaluate", 1), tracer.nodes),
        "spd.eigh_calls_per_trial": _ratio(fuzz_eigh, trials),
        "spd.eigh_us": mean_us(EIGH_SPANS),
        "spd.geodesic_path_us": mean_us(("spd.geodesic_path",)),
        "spd.distance_us": mean_us(("spd.distance",)),
        "oracle.trials": trials,
        "oracle.self_us_per_trial": 1e6 * _ratio(oracle_self, trials),
        "oracle.points_per_trial": _ratio(fuzz_qr, trials),
        "oracle.skip_ratio": _ratio(counts.get("skipped", 0), trials),
        "solver.solves": solves,
        "solver.iterations": iterations,
        "solver.evals_per_iter": _ratio((total(under_gd, 0) + total(under_grad, 0)) / passes, iterations),
        "solver.grad_ms_per_iter": 1e3 * _ratio(grad_s, iterations),
        "solver.linesearch_ms_per_iter": 1e3 * _ratio(total(under_gd, 1) / passes, iterations),
        # Line-search evaluations beyond the first trial step of each accepted
        # iteration (the starting-point evaluation of each solve excluded).
        "solver.halvings_per_iter": _ratio(max(linesearch_evals - solves - iterations, 0.0), iterations),
        "solver.grad_share": _ratio(grad_s, by_name("solver.gradient_descent", 1) / passes),
        "trace.overhead_s": overhead_s,
        "trace.overhead_pct": 100.0 * _ratio(overhead_s, untraced_s),
    }
    return {k: {"value": float(v), "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
