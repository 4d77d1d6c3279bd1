"""geocert benchmark: one closed-loop client running one named workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload problem-files --seed 1 --seconds 30 --trace 0

Workloads: problem-files, atom-sweep, solve-family (see ``workloads.py``).
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the same inputs
and reports the per-layer metrics plus the tracing overhead.  End-to-end
timings are scaled to a reference machine speed measured by a fixed gauge
kernel (``harness.Gauge``) timed between operations; the raw values are
printed beside them.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The package is imported from ``src/`` of the checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

harness.pin_single_thread()  # before anything imports numpy

ROOT = Path(__file__).resolve().parents[1]
_now = time.perf_counter

# A run does a fixed number of passes, so ``attempted`` and ``failed``
# repeat exactly for a seed; it stops early only past this many seconds of
# measuring, on a machine several times slower than the reference.
MAX_MEASURE_S = 120.0
# The gauge kernel's median time on the machine the bounds were set on (a
# 2-core x86-64 VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread).
# Each operation's time is reported at that speed, scaled by GAUGE_REF_S /
# the gauge time of the samples taken nearest to it, and rates follow.
# Set-up is dominated by starting an interpreter and reading files, which
# the kernel does not track, so it stays as measured.
GAUGE_REF_S = 0.018
SETUP_REPEATS = 9

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "work_per_s": "1/s",
}

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import geocert; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time ``import geocert`` (numpy and PyYAML included) in a fresh interpreter."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload, seed: int):
    """Import, input generation and warm-up, repeated; returns (seconds, state).

    The seconds are the median import time plus the median in-process set-up
    time, so a burst of load that hits one part of a repeat moves neither.
    """
    imports, builds, state = [], [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        imports.append(import_seconds())
        start = _now()
        state = workload.setup(ROOT, seed)
        workload.warm_up(state)
        builds.append(_now() - start)
    return statistics.median(imports) + statistics.median(builds), state


def measure(workload, state, seconds: float, gauge):
    """Untraced passes: as many as fill ``seconds`` at the reference speed,
    and at least enough to sample the tail."""
    from workloads import NO_SPAN, clear_point_caches

    passes = []
    gauge.sample()
    start = _now()
    target = harness.pass_count(seconds, workload.ref_pass_s)
    need = harness.MIN_BEYOND * 10  # samples for a p90 with ten beyond it
    while True:
        sampled = len(workload.latencies(passes, workload.floor_kinds))
        if len(passes) >= target and sampled >= need:
            break
        if _now() - start >= MAX_MEASURE_S:
            break
        clear_point_caches()
        passes.append(workload.run_pass(state, len(passes), NO_SPAN, gauge.tick))
    gauge.sample()
    return passes


def at_reference_speed(passes, gauge):
    """``passes`` with every operation's time scaled to the reference speed."""
    return [
        dataclasses.replace(p, ops=[
            dataclasses.replace(op, seconds=op.seconds * GAUGE_REF_S / gauge.seconds_near(op.at))
            for op in p.ops
        ])
        for p in passes
    ]


def measure_traced(workload, state, seconds: float):
    """Alternate an untraced and a traced pass over the same inputs, in as
    many pairs as fill ``seconds`` at the reference speed."""
    from tracer import Tracer
    from workloads import NO_SPAN, clear_point_caches

    tracer = Tracer()
    passes, untraced, traced = [], [], []
    counts = {"trials": 0, "skipped": 0, "iterations": 0}
    pairs = harness.pass_count(seconds, 2.0 * workload.ref_pass_s)
    start = _now()
    while len(traced) < pairs and (not traced or _now() - start < MAX_MEASURE_S):
        clear_point_caches()
        plain = workload.run_pass(state, 0, NO_SPAN)
        clear_point_caches()
        tracer.install()
        try:
            spanned = workload.run_pass(state, 0, tracer.span)
        finally:
            tracer.uninstall()
        tracer.end_pass()
        passes += [plain, spanned]
        untraced.append(plain.seconds)
        traced.append(spanned.seconds)
        for key in counts:
            counts[key] += getattr(spanned, key)
    per_pass = {k: v / len(traced) for k, v in counts.items()}
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    return passes, tracer, per_pass, overhead, statistics.median(untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geocert").is_dir() or not (ROOT / "problems").is_dir():
        print(f"error: {ROOT} is not a geocert checkout (no src/geocert or problems/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = harness.environment(args.seed, workload.name)
    print("# env " + json.dumps(env, sort_keys=True))
    setup_s, state = set_up(workload, args.seed)
    gauge = harness.Gauge()
    try:
        if args.trace:
            passes, tracer, per_pass, overhead, untraced_s = measure_traced(
                workload, state, args.seconds)
        else:
            passes = measure(workload, state, args.seconds, gauge)
    finally:
        workload.teardown(state)

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.failed]
    wrong = [op for op in ops if op.wrong]
    for note in sorted({f"{op.label}: {op.note}" for op in failed}):
        print(f"# failed {note}")
    print(f"# {workload.name}: passes={len(passes)} attempted={len(ops)} "
          f"failed={len(failed)} fail_rate={len(failed) / len(ops):.6g} wrong={len(wrong)} "
          f"solver_iterations_per_pass={sum(p.iterations for p in passes) / len(passes):g}")

    if args.trace:
        from tracer import layer_metrics

        metrics = layer_metrics(tracer, per_pass, overhead, untraced_s)
        out = ROOT / "perfbench" / "_out" / f"trace-{workload.name}-{args.seed}.json"
        tracer.write(out, {"env": env, "metrics": metrics})
        print(f"# trace written to {out.relative_to(ROOT)}")
    else:
        for line in workload.report_lines(passes):
            print(f"# {workload.name}: {line}")
        scaled = at_reference_speed(passes, gauge)
        lat = workload.latencies(scaled)
        print(f"# gauge: kernel {1e3 * gauge.seconds():.4g} ms (median of {len(gauge.samples)}, "
              f"{1e3 * min(gauge.samples):.4g}-{1e3 * max(gauge.samples):.4g}); operation "
              f"timings scaled by {GAUGE_REF_S:g} s / kernel time near each operation")
        try:
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": harness.peak_rss_mb(),
                "op_ms_p50": 1e3 * harness.percentile(lat, 0.5),
                "op_ms_p90": 1e3 * harness.percentile(lat, 0.9),
                "work_per_s": workload.rate(scaled),
            }
        except harness.TooFewSamples as exc:
            print(f"error: {exc} after {MAX_MEASURE_S:g} s of measuring", file=sys.stderr)
            return 1
        metrics = {k: harness.metric(v, E2E_UNITS[k]) for k, v in values.items()}
    print(harness.result_line(not wrong, len(ops), len(failed), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
