"""Benchmark plumbing shared by every workload: seeds, percentiles, the speed
gauge and the result line.

Nothing here imports geocert, so the helpers can be tested and reused
without the package on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

# An upper percentile is reported only when at least this many samples lie
# beyond it; otherwise the run is too short to say anything about the tail.
MIN_BEYOND = 10

_SEED_BITS = 63


def derive_seed(seed: int, *labels) -> int:
    """Stable 63-bit seed for ``labels`` under the workload ``seed``.

    Uses a cryptographic hash of the labels' text, so the result does not
    depend on ``PYTHONHASHSEED``, the platform or the Python version.
    """
    text = "/".join([str(int(seed))] + [str(label) for label in labels])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & ((1 << _SEED_BITS) - 1)


def pass_count(seconds: float, pass_s: float) -> int:
    """Whole passes of ``pass_s`` seconds each that fill ``seconds``; at least one.

    The count depends on the arguments alone, never on a clock, so runs of
    one workload and seed do the same operations however fast the machine is.
    """
    if not pass_s > 0:
        raise ValueError(f"pass_s must be positive, got {pass_s}")
    return max(1, math.ceil(seconds / pass_s - 1e-9))


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than ``MIN_BEYOND`` samples beyond it."""


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``.

    The value at rank ``ceil(q * n)`` in sorted order.  For ``q > 0.5`` it
    requires at least ``MIN_BEYOND`` samples ranked above it and raises
    ``TooFewSamples`` otherwise.  The median (``q == 0.5``) is the usual
    midpoint median instead.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    data = sorted(float(v) for v in values)
    n = len(data)
    if n == 0:
        raise TooFewSamples("no samples")
    if q == 0.5:
        return statistics.median(data)
    rank = max(1, math.ceil(q * n))
    if q > 0.5 and n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples has {n - rank} beyond it, needs {MIN_BEYOND}"
        )
    return data[rank - 1]


class Gauge:
    """Samples a fixed numpy-only kernel between operations to track machine speed.

    On a shared machine, neighbours slow every process by tens of percent,
    for seconds or minutes at a time.  The kernel -- a small expression-tree
    walk over 5x5 SPD matrices with eigendecompositions, much like geocert's
    own mix of interpreter work and small LAPACK calls -- never touches
    geocert, so no change to the package moves it; its time around a moment
    of the run measures how fast the machine ran then.
    """

    def __init__(self, every_s: float = 0.5):
        import numpy as np

        rng = np.random.default_rng(20240705)
        self._mats = []
        for _ in range(8):
            g = rng.normal(size=(5, 5))
            self._mats.append(g @ g.T + 5.0 * np.eye(5))
        self.every_s = every_s
        self.samples: list[float] = []
        self.stamps: list[float] = []  # midpoint of each sample
        self._last = 0.0

    def _kernel(self) -> float:
        import numpy as np

        acc = 0.0
        for round_ in range(40):
            for i, a in enumerate(self._mats):
                b = self._mats[(i + round_) % len(self._mats)]
                w, q = np.linalg.eigh(a)
                inv_sq = (q / np.sqrt(w)) @ q.T
                lam = np.linalg.eigvalsh((inv_sq @ b @ inv_sq + (inv_sq @ b @ inv_sq).T) / 2.0)
                terms = [float(x) for x in np.log(lam)]
                acc += math.sqrt(sum(t * t for t in terms)) + max(terms) - min(terms)
        return acc

    def sample(self):
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.stamps.append((start + end) / 2.0)
        self._last = end

    def tick(self):
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def seconds(self) -> float:
        return statistics.median(self.samples)

    def seconds_near(self, t: float, k: int = 3) -> float:
        """Median kernel time of the ``k`` samples taken nearest to time ``t``."""
        nearest = sorted(range(len(self.stamps)), key=lambda i: abs(self.stamps[i] - t))[:k]
        return statistics.median(self.samples[i] for i in nearest)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, workload: str) -> dict:
    """Machine and toolchain facts recorded beside every result."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "workload": workload,
        "seed": int(seed),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


# Every variable a BLAS or OpenMP runtime reads for its thread count.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_single_thread():
    """Pin BLAS and OpenMP to one thread; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_single_thread must run before numpy is imported")
    for key in THREAD_ENV:
        os.environ[key] = "1"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The last line of a run: a JSON object with exactly these four keys."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
