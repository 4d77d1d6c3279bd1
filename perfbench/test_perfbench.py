"""Tests for the benchmark's own helpers: percentiles, seeds, numpy references.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import math
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import refs
from harness import MIN_BEYOND, TooFewSamples, derive_seed, percentile
from tracer import PER_LAYER_UNITS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent


# -- percentile rule ------------------------------------------------------------

def test_p90_needs_ten_samples_beyond():
    assert percentile(range(1, 101), 0.9) == 90.0  # ranks 91..100 lie beyond
    with pytest.raises(TooFewSamples):
        percentile(range(1, 100), 0.9)  # 99 samples leave only 9 beyond rank 90


def test_upper_percentile_counts_samples_beyond_its_rank():
    for n in (100, 137, 1000):
        data = list(range(n))
        value = percentile(data, 0.9)
        assert sum(1 for v in data if v > value) >= MIN_BEYOND
    assert percentile(range(1, 41), 0.75) == 30.0
    with pytest.raises(TooFewSamples):
        percentile(range(1, 40), 0.75)


def test_median_is_the_midpoint_median():
    assert percentile([3, 1, 2, 10], 0.5) == statistics.median([3, 1, 2, 10])
    assert percentile([5.0], 0.5) == 5.0


def test_percentile_rejects_empty_and_bad_q():
    with pytest.raises(TooFewSamples):
        percentile([], 0.5)
    for q in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], q)


def test_gauge_samples_at_most_once_per_interval():
    gauge = harness.Gauge(every_s=3600.0)
    gauge.sample()
    gauge.tick()
    gauge.tick()
    assert len(gauge.samples) == 1
    gauge.every_s = 0.0
    gauge.tick()
    assert len(gauge.samples) == 2
    assert gauge.seconds() == statistics.median(gauge.samples) > 0.0


def test_gauge_time_near_a_moment_uses_the_nearest_samples():
    gauge = harness.Gauge()
    gauge.samples = [1.0, 1.0, 5.0, 2.0, 2.0]
    gauge.stamps = [0.0, 1.0, 2.0, 10.0, 11.0]
    assert gauge.seconds_near(0.4, k=3) == 1.0  # samples at 0, 1 and 2
    assert gauge.seconds_near(10.6, k=2) == 2.0
    assert gauge.seconds_near(10.6, k=5) == 2.0


def test_pass_count_fills_the_seconds_without_a_clock():
    assert harness.pass_count(25, 11.5) == 3
    assert harness.pass_count(25, 2.5) == 10  # exact multiples take no extra pass
    assert harness.pass_count(1, 60.0) == 1
    with pytest.raises(ValueError):
        harness.pass_count(25, 0.0)


# -- seed derivation ----------------------------------------------------------------

def test_derive_seed_is_stable_and_label_sensitive():
    a = derive_seed(7, "problem-files", 0)
    assert a == derive_seed(7, "problem-files", 0)
    assert 0 <= a < 2 ** 63
    others = {derive_seed(7, "problem-files", 1), derive_seed(8, "problem-files", 0),
              derive_seed(7, "atom-sweep", 0)}
    assert a not in others and len(others) == 3


def test_derive_seed_ignores_hash_randomization():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import harness; "
            "print(harness.derive_seed(3, 'solve-family', 'sqrt', 5))")
    outs = {
        subprocess.run([sys.executable, "-c", code, str(HERE)], capture_output=True, text=True,
                       check=True, env={"PYTHONHASHSEED": h}).stdout.strip()
        for h in ("0", "1", "12345")
    }
    assert outs == {str(derive_seed(3, "solve-family", "sqrt", 5))}


def test_solve_family_seed_moves_all_but_the_fixed_instances():
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        import workloads
    finally:
        sys.path.remove(str(HERE.parent / "src"))
    one, two = (workloads.family_instances(seed) for seed in (1, 2))
    assert [x[0] for x in one] == [x[0] for x in two]
    for (label, c1, *_), (_, c2, *_) in zip(one, two):
        fixed = (label.startswith("karcher") and "-c10000-" in label) or label.startswith("cone-exit")
        same = all(np.array_equal(c1[k], c2[k]) for k in c1)
        assert same == fixed, label


# -- numpy references ------------------------------------------------------------------

def _spd(seed, d, cond=100.0):
    return refs.random_spd(np.random.default_rng(seed), d, cond)


def test_random_spd_respects_the_condition_bound():
    for seed in range(20):
        a = _spd(seed, 4, 1e4)
        lam = np.linalg.eigvalsh(a)
        assert np.allclose(a, a.T)
        assert lam[0] > 0 and lam[-1] / lam[0] <= 1e4 * (1 + 1e-9)


def test_eigh_sqrt_squares_back():
    a = _spd(1, 5)
    r = refs.eigh_sqrt(a)
    assert np.allclose(r, r.T)
    assert np.all(np.linalg.eigvalsh(r) > 0)
    assert refs.rel_err(r @ r, a) < 1e-12


def test_midpoint_closed_form():
    # commuting case: the midpoint of diagonals is the elementwise geometric mean
    a, b = np.diag([1.0, 4.0, 9.0]), np.diag([16.0, 1.0, 4.0])
    assert np.allclose(refs.midpoint(a, b), np.diag([4.0, 2.0, 6.0]))
    # general case: M = A # B is the SPD solution of M A^-1 M = B, symmetric in A, B
    a, b = _spd(2, 4), _spd(3, 4)
    m = refs.midpoint(a, b)
    assert refs.rel_err(m @ np.linalg.solve(a, m), b) < 1e-10
    assert refs.rel_err(refs.midpoint(b, a), m) < 1e-10


def test_karcher_residual_vanishes_at_the_mean():
    a, b = _spd(4, 3), _spd(5, 3)
    assert refs.karcher_residual(refs.midpoint(a, b), [a, b]) < 1e-10
    assert refs.karcher_residual(np.eye(3), [a, np.linalg.inv(a)]) < 1e-10
    assert refs.karcher_residual(a, [a, b]) > 1e-2


def test_matrix_sqrt_objective_reference():
    # sdivergence(X, A) + sdivergence(X, I) is minimized at the midpoint A # I = A^1/2
    a = _spd(6, 5)
    assert refs.rel_err(refs.midpoint(a, np.eye(5)), refs.eigh_sqrt(a)) < 1e-10


# -- per-layer metrics -------------------------------------------------------------------

def test_layer_metrics_report_zero_for_layers_that_did_not_run():
    tracer = Tracer()
    with tracer.span("oracle.check"):
        with tracer.span("numpy.qr"):
            pass
    tracer.end_pass()
    out = layer_metrics(tracer, {"trials": 4, "skipped": 1, "iterations": 0}, 0.0, 1.0)
    assert set(out) == set(PER_LAYER_UNITS)
    assert out["oracle.points_per_trial"]["value"] == 0.25
    assert out["oracle.skip_ratio"]["value"] == 0.25
    assert out["expr.evaluate_calls"]["value"] == 0
    assert out["solver.iterations"]["value"] == 0
    assert all(math.isfinite(v["value"]) for v in out.values())


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    outer, inner = tracer.spans
    assert inner[3] == 0 and outer[3] == -1
    assert outer[4] == pytest.approx((outer[2] - outer[1]) - (inner[2] - inner[1]))
