"""Randomized falsification of curvature and monotonicity claims.

Sampling can only refute: a clean run corroborates a claim, it does not
prove it.  Geodesic convexity is probed through the midpoint condition and
its dyadic refinements plus uniform parameters; Euclidean convexity along
straight segments (which stay inside the cone); monotonicity on ordered
pairs ``A >= B`` built by subtracting a PSD perturbation small enough to
keep ``B`` positive definite.

Every trial derives its randomness from ``(seed, trial index)``, so reports
are independent of evaluation order and identical configurations give
identical reports.  Known counterexample pairs can be injected as the
leading trials of a run.  Violation thresholds are relative to the value
scale ``max(1, |f(A)|, |f(B)|)``; claims of geodesic linearity are checked
as two-sided equalities at a looser tolerance.

All three checks run through one trial loop, ``_trial_loop``, which works
on blocks of ``BLOCK`` consecutive trials.  For each block it makes a few
stacked numpy calls: one QR for every sample point (the random draws stay
per trial, from the trial's own stream), one ``eigh`` pair per argument for
every geodesic of the block at all of its t-samples (a broadcast for
straight segments).  The judge turns the block's values of ``f``, of every
kind, into float64 stacks (``(k,)`` for scalars, ``(k, d, d)`` for
matrices; an ``f`` that returns ``np.float32`` is judged as if it returned
``float``), and one ``_gaps``/``_scales`` pair measures them: array
arithmetic for scalars, one ``eigvalsh`` each for the value scales and the
Loewner gaps of matrices.  Stacked numpy calls give the same bits as one
call per value, so reports equal those of a trial-at-a-time loop.  The
public checks call ``f`` per point; it receives one read-only ``(d, d)``
array per argument.  Each injected pair runs as a block of one.

``cross_validate`` goes further: it evaluates its expression once per
block, over stacks of all the block's points (``expr._evaluate_stacked``,
through ``_stacked_trials``).  Every value and ``DomainError`` outcome
equals the per-point one bit for bit.  A block the stacked evaluation
cannot decide (some point would raise another error, or numpy would
report a floating-point event) runs point by point instead, which raises
exactly what a trial-at-a-time loop raises.
Injected pairs always run point by point.

Generated points are cached per block: ``_cached_points`` (segment
endpoints and t-samples) and ``_cached_ordered_pair`` keep up to
``_CACHE_BLOCKS`` blocks each, so checks of several functions at one seed
share them.  Both caches expose ``cache_clear``.

Trial order is kept exactly:

* ``f`` is called in trial order: the endpoints, then the t-samples in
  order, and nothing more of a trial after a ``DomainError``;
* the first violation in ``(trial, t)`` order is the witness;
* both producers, ``_pointwise_trials`` and ``_stacked_trials``, return one
  per-point layout: a stack of values over the endpoints A, then the
  endpoints B, then the t-samples in ``(trial, t)`` order, with NaN at
  every dead point, plus the mask of existing paths;
* ``_read_trials`` alone reads the trials off that layout, so the skip
  rule is stated once: a trial is skipped if A is dead, then if B is dead,
  then if its path is missing, then at its first dead t-sample, and the
  t-samples before it still count toward ``worst_residual`` and may supply
  the witness;
* a point is dead when ``f`` raised ``DomainError`` there or its value
  holds a NaN (after a NaN, ``f`` is still called at the trial's later
  points); an infinite value is judged as it is;
* more than 50% skipped trials raises ``InconclusiveError``;
* any other error of an injected pair (a shape or symmetry gate) is raised
  once ``f`` has seen that pair's endpoints, as a trial-at-a-time loop
  would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import spd
from .analysis import analyze, AnalysisReport
from .errors import DomainError, InconclusiveError, RangeError
from .expr import Expression, GCurvature, Manifold, _evaluate_stacked, evaluate

_SEED_MASK = (1 << 63) - 1

EQUALITY_TOL = 1e-8

# Trials per block: the unit of stacked numpy work and of the point caches.
BLOCK = 64
# Blocks each point cache keeps; 32768 trials, as the per-trial caches did.
_CACHE_BLOCKS = 32768 // BLOCK


@dataclass(frozen=True)
class FuzzConfig:
    trials: int = 1000
    dim: int = 3
    cond_max: float = 10.0
    t_samples: int = 5
    tol: float = 1e-9
    seed: int = 0
    injected: tuple = ()

    def __post_init__(self):
        if self.trials < 1:
            raise RangeError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.tol < math.inf:
            raise RangeError(f"tol must be positive and finite, got {self.tol}")
        if self.dim < 1:
            raise RangeError(f"dim must be >= 1, got {self.dim}")
        if not 1.0 <= self.cond_max < math.inf:
            raise RangeError(f"cond_max must be finite and >= 1, got {self.cond_max}")
        if self.t_samples < 0:
            raise RangeError(f"t_samples must be >= 0, got {self.t_samples}")


@dataclass(frozen=True, eq=False)
class Witness:
    """A concrete violating configuration, reproducible by re-evaluation."""

    point_a: tuple
    point_b: tuple
    t: float
    lhs: float
    rhs: float
    residual: float  # relative to scale
    scale: float

    def __eq__(self, other):
        return (
            isinstance(other, Witness)
            and (self.t, self.lhs, self.rhs, self.residual, self.scale)
            == (other.t, other.lhs, other.rhs, other.residual, other.scale)
            and len(self.point_a) == len(other.point_a)
            and all(np.array_equal(p, q) for p, q in zip(self.point_a, other.point_a))
            and all(np.array_equal(p, q) for p, q in zip(self.point_b, other.point_b))
        )

    def __hash__(self):
        return hash((self.t, self.lhs, self.rhs, self.residual, self.scale))

    def to_dict(self):
        return {
            "point_a": [a.tolist() for a in self.point_a],
            "point_b": [b.tolist() for b in self.point_b],
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class FuzzReport:
    verdict: str  # "NoViolationFound" | "ViolationFound"
    trials_run: int
    skipped: int
    worst_residual: float
    witness: Witness | None = None

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "trials_run": self.trials_run,
            "skipped": self.skipped,
            "worst_residual": self.worst_residual,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def _rng(seed: int, index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & _SEED_MASK, int(index), int(stream)])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _trial_ts(seed: int, index: int, t_samples: int) -> tuple[float, ...]:
    base = (0.5, 0.25, 0.75)
    if t_samples == 0:
        return base
    rng = _rng(seed, index, 2)
    return base + tuple(float(t) for t in rng.uniform(0.0, 1.0, t_samples))


@lru_cache(maxsize=_CACHE_BLOCKS)
def _cached_points(seed: int, start: int, stop: int, dim: int, cond_max: float, nargs: int,
                   t_samples: int):
    """Endpoints and t-samples of the generated segment trials ``start..stop-1``.

    Returns ``(a, b, ts)``: ``a`` and ``b`` hold one ``(n, dim, dim)`` stack
    per argument, ``ts`` is ``(n, 3 + t_samples)``.  Each trial draws from its
    own ``(seed, index, 1)`` stream, ``spd._spd_draws`` per matrix, then one
    stacked QR turns every draw of the block into a matrix.
    """
    n, m = stop - start, 2 * nargs
    g = np.empty((n, m, dim, dim))
    u = np.empty((n, m, dim))
    for row in range(n):
        rng = _rng(seed, start + row, 1)
        for j in range(m):
            g[row, j], u[row, j] = spd._spd_draws(dim, cond_max, rng)
    mats = _read_only(spd._spd_from_draws(g, u))
    ts = np.array([_trial_ts(seed, i, t_samples) for i in range(start, stop)])
    return (tuple(mats[:, j] for j in range(nargs)),
            tuple(mats[:, nargs + j] for j in range(nargs)),
            _read_only(ts))


@lru_cache(maxsize=_CACHE_BLOCKS)
def _cached_ordered_pair(seed: int, start: int, stop: int, dim: int, cond_max: float):
    """Ordered pairs ``A >= B`` of the generated trials ``start..stop-1``, as two stacks.

    ``B = A - s P`` with ``P`` a random PSD matrix and ``s`` small enough to
    keep ``B`` positive definite; draws come from each trial's
    ``(seed, index, 3)`` stream.
    """
    n = stop - start
    g = np.empty((n, dim, dim))
    u = np.empty((n, dim))
    w = np.empty((n, dim, dim))
    for row in range(n):
        rng = _rng(seed, start + row, 3)
        g[row], u[row] = spd._spd_draws(dim, cond_max, rng)
        w[row] = rng.normal(size=(dim, dim))
    a = spd._spd_from_draws(g, u)
    p = (w @ spd._mT(w)) / dim
    s = 0.5 * np.linalg.eigvalsh(a)[:, 0] / np.maximum(np.linalg.eigvalsh(p)[:, -1], spd.PD_FLOOR)
    b = a - s[:, None, None] * p
    return _read_only(a), _read_only(b)


def _normalize_injected(entry, nargs: int):
    a, b = entry
    if isinstance(a, (list, np.ndarray)) or isinstance(a, spd.SPDMatrix):
        a = (a,)
        b = (b,)
    if len(a) != nargs or len(b) != nargs:
        raise RangeError(f"injected pair arity {len(a)} does not match {nargs} arguments")
    conv = lambda ms: tuple(_read_only(np.array(spd._as_array(m), dtype=float)) for m in ms)
    return conv(a), conv(b)


@dataclass(frozen=True)
class _Batch:
    """Consecutive trials of one check, as stacks with the trial on axis 0.

    ``a`` and ``b`` hold the endpoints, one stack per argument of ``f``.
    ``paths()`` returns the path points at every ``(trial, t)`` pair (one
    ``(n, T, ...)`` stack per argument; empty for ordered pairs) and the mask
    of trials whose path exists.
    """

    a: tuple
    b: tuple
    ts: np.ndarray | None
    paths: Callable[[], tuple]
    injected: bool = False


def _segment_points(geodesic: bool, a: tuple, b: tuple, ts: np.ndarray, checked: bool = False):
    """Path points of a batch at every ``(trial, t)`` pair, with the mask of existing paths.

    Geodesics take one stacked eigendecomposition pair per argument,
    straight segments one broadcast.  With ``checked`` (a batch of one
    caller-supplied pair) each argument first passes the gates of
    ``spd.geodesic_path`` and a missing path raises ``DomainError``.
    """
    points, ok = [], np.ones(len(ts), dtype=bool)
    for x, y in zip(a, b):
        if geodesic:
            if checked:
                spd._geodesic_inputs(x[0], y[0])
            frame, logs, good = spd._geodesic_frames(x, y)
            if checked and not good[0]:
                raise DomainError("geodesic endpoint is not positive definite")
            ok &= good
            p = spd._geodesic_points(frame, logs, ts)
        else:
            t = ts.reshape(ts.shape + (1,) * (x.ndim - 1))
            p = (1.0 - t) * x[:, None] + t * y[:, None]
        points.append(_read_only(p))
    return tuple(points), ok


def _segment_batches(cfg: FuzzConfig, nargs: int, geodesic: bool):
    """The trials of a segment check in order: each injected pair alone, then blocks."""
    injected = min(len(cfg.injected), cfg.trials)
    for i in range(injected):
        pa, pb = _normalize_injected(cfg.injected[i], nargs)
        a, b = tuple(x[None] for x in pa), tuple(y[None] for y in pb)
        ts = np.array([_trial_ts(cfg.seed, i, cfg.t_samples)])
        yield _Batch(a, b, ts, partial(_segment_points, geodesic, a, b, ts, checked=True), True)
    for start, stop in _blocks(injected, cfg.trials):
        a, b, ts = _cached_points(cfg.seed, start, stop, cfg.dim, float(cfg.cond_max), nargs,
                                  cfg.t_samples)
        yield _Batch(a, b, ts, partial(_segment_points, geodesic, a, b, ts))


def _ordered_batches(cfg: FuzzConfig):
    """The trials of a monotonicity check in order: each injected pair alone, then blocks."""
    injected = min(len(cfg.injected), cfg.trials)
    for i in range(injected):
        (a,), (b,) = _normalize_injected(cfg.injected[i], 1)
        yield _Batch((a[None],), (b[None],), None, partial(_no_paths, 1), True)
    for start, stop in _blocks(injected, cfg.trials):
        a, b = _cached_ordered_pair(cfg.seed, start, stop, cfg.dim, float(cfg.cond_max))
        yield _Batch((a,), (b,), None, partial(_no_paths, stop - start))


def _no_paths(n: int):
    return (), np.ones(n, dtype=bool)


def _blocks(start: int, stop: int):
    """``[start, stop)`` cut at multiples of ``BLOCK``, so cache keys repeat across checks."""
    while start < stop:
        end = min((start // BLOCK + 1) * BLOCK, stop)
        yield start, end
        start = end


def _scalarize(v):
    if isinstance(v, np.ndarray):
        return float(np.linalg.eigvalsh((v + v.T) / 2.0)[0])
    return float(v)


def _stack(values: list) -> np.ndarray:
    """Values of ``f`` as one float64 stack: ``(k,)`` for scalars, ``(k, d, d)`` for matrices."""
    return np.array(values, dtype=float)


def _scales(fa: np.ndarray, fb: np.ndarray) -> list:
    """Value scale ``max(1, |f(A)|, |f(B)|)`` of each pair; matrices by spectral norm."""
    if fa.ndim > 1:
        fa = np.abs(np.linalg.eigvalsh(fa)).max(axis=-1)
        fb = np.abs(np.linalg.eigvalsh(fb)).max(axis=-1)
    return np.fmax(np.fmax(1.0, np.abs(fa)), np.abs(fb)).tolist()


def _gaps(values: np.ndarray, refs: np.ndarray, two_sided: bool) -> list:
    """Signed amount by which each value exceeds its reference, or its size with ``two_sided``.

    Scalars are compared as reals, matrices in the Loewner order by one
    stacked ``eigvalsh`` of ``sym(refs - values)``.
    """
    if values.ndim == 1:
        diff = values - refs
        return (np.abs(diff) if two_sided else diff).tolist()
    w = np.linalg.eigvalsh(spd._sym(refs - values))
    return (np.abs(w).max(axis=-1) if two_sided else -w[:, 0]).tolist()


def _segment_gaps(fa: np.ndarray, fb: np.ndarray, owner: np.ndarray, ts: np.ndarray,
                  values: np.ndarray, two_sided: bool):
    """Chord and gap of each t-sample: ``values[k]`` at ``ts[k]`` on trial ``owner[k]``."""
    t = ts.reshape(ts.shape + (1,) * (values.ndim - 1))
    chords = (1.0 - t) * fa[owner] + t * fb[owner]
    return chords, _gaps(values, chords, two_sided)


def _segment_judge(two_sided: bool):
    """Relative gaps of the t-samples above their chords, in ``(trial, t)`` order."""

    def judge(batch: _Batch, done: list):
        owner, ts, values = [], [], []
        for k, (row, _, _, vals) in enumerate(done):
            owner += [k] * len(vals)
            ts += batch.ts[row, :len(vals)].tolist()
            values += vals
        if not values:
            return
        fa, fb = _endpoint_values(done)
        values = _stack(values)
        chords, gaps = _segment_gaps(fa, fb, np.array(owner), np.array(ts), values, two_sided)
        scales = _scales(fa, fb)
        for k, t, v, chord, gap in zip(owner, ts, values, chords, gaps):
            yield gap / scales[k], scales[k], done[k][0], t, v, chord

    return judge


def _monotone_judge(increasing: bool):
    """Relative gaps of ``g(lo) <= g(hi)`` over each ordered pair, in trial order."""

    def judge(batch: _Batch, done: list):
        ga, gb = _endpoint_values(done)
        hi, lo = (ga, gb) if increasing else (gb, ga)
        gaps = _gaps(lo, hi, False)
        for (row, *_), scale, gap, v, r in zip(done, _scales(ga, gb), gaps, lo, hi):
            yield gap / scale, scale, row, 1.0, v, r

    return judge


def _endpoint_values(done: list):
    return _stack([d[1] for d in done]), _stack([d[2] for d in done])


def _pointwise_trials(f, batch: _Batch):
    """A batch's points with ``f`` called point by point, in the layout of ``_read_trials``.

    ``f`` sees each trial's endpoints, then its path points in t order, in
    trial order, and nothing more of a trial after a ``DomainError``.  The
    paths are built once ``f`` has seen the batch's first endpoints, so the
    gates of an injected pair raise where a trial-at-a-time loop would; a
    ``DomainError`` there marks the path missing.  A point where ``f``
    raised ``DomainError`` or was not called holds NaN, a dead point.
    """
    n = len(batch.a[0])
    t = 0 if batch.ts is None else batch.ts.shape[1]
    values = [None] * (2 * n + n * t)
    points, ok = None, np.zeros(n, dtype=bool)
    for row, (ends_a, ends_b) in enumerate(zip(zip(*batch.a), zip(*batch.b))):
        try:
            values[row] = f(*ends_a)
            values[n + row] = f(*ends_b)
        except DomainError:
            continue
        if points is None:
            try:
                points, ok = batch.paths()
            except DomainError:
                points = ()
        if t and ok[row]:
            try:
                for i, args in enumerate(zip(*(p[row] for p in points)), 2 * n + row * t):
                    values[i] = f(*args)
            except DomainError:
                pass
    dead = np.full(np.shape(next((v for v in values if v is not None), math.nan)), math.nan)
    return _stack([dead if v is None else v for v in values]), ok


def _stacked_trials(evaluate_block, batch: _Batch):
    """A generated segment batch's points from one stacked evaluation, in ``_read_trials``' layout.

    ``evaluate_block(stacks, alive)`` evaluates ``f`` at every point of the
    batch at once, one stack per argument, and returns the values with the
    mask of points whose per-point evaluation would not raise
    ``DomainError``; the other points become NaN, dead points.  Returns None
    when the stacked evaluation cannot decide (it raised ``spd.Undecided``),
    so the batch runs point by point instead.
    """
    n, t = batch.ts.shape
    points, ok = batch.paths()
    stacks = tuple(
        _read_only(np.concatenate((a, b, p.reshape((n * t,) + a.shape[1:]))))
        for a, b, p in zip(batch.a, batch.b, points)
    )
    del points  # the stacks hold copies
    alive = np.concatenate((np.ones(2 * n, dtype=bool), np.repeat(ok, t)))
    try:
        values, alive = evaluate_block(stacks, alive)
    except spd.Undecided:
        return None
    return np.where(alive, values, math.nan), ok


def _read_trials(values: np.ndarray, ok: np.ndarray):
    """A batch's trials from its points: the one statement of the skip rule.

    ``values``, a float64 stack, covers the endpoints A, then the endpoints
    B, then the path points in ``(trial, t)`` order; ``ok`` marks the trials
    whose path exists.  A value holding a NaN is a dead point.  A trial is
    skipped if A is dead, then if B is dead, then if its path is missing,
    then at its first dead path point; the path values before that point
    still count.  Infinite values are judged as they are.  Returns ``(done, skipped, completed)``; ``done`` holds ``(row, f(A),
    f(B), path values)`` for every trial whose endpoints are alive and whose
    path exists.
    """
    n = len(ok)
    t = len(values) // n - 2
    alive = ~np.isnan(values).reshape(len(values), -1).any(axis=1)
    reached = np.logical_and.accumulate(alive[2 * n:].reshape(n, t), axis=1).sum(axis=1)
    ends = alive[:n] & alive[n:2 * n] & ok
    first = 2 * n + t * np.arange(n)
    # Python floats for scalars; matrices stay arrays, which the judges
    # re-stack faster than nested lists.
    values = values.tolist() if values.ndim == 1 else list(values)
    done = [(row, values[row], values[n + row], values[i:i + k]) for row, i, k
            in zip(np.flatnonzero(ends).tolist(), first[ends].tolist(), reached[ends].tolist())]
    completed = int((reached[ends] == t).sum())
    return done, n - completed, completed


def _trial_loop(f, trials: int, batches, tol: float, judge, evaluate_block=None) -> FuzzReport:
    """The one trial loop behind every check.

    Each batch's points come from ``_pointwise_trials``, or, for generated
    batches when ``evaluate_block`` is given, from ``_stacked_trials``,
    which yields the same values and outcomes; ``_read_trials`` reads the
    trials off them.  ``judge`` turns a batch's values into relative gaps
    ``(rel, scale, row, t, value, reference)`` in ``(trial, t)`` order; the
    first gap above ``tol`` becomes the witness.
    """
    skipped = 0
    completed = 0
    worst = float("-inf")
    witness = None
    for batch in batches:
        points = None
        if evaluate_block is not None and not batch.injected:
            points = _stacked_trials(evaluate_block, batch)
        if points is None:
            points = _pointwise_trials(f, batch)
        done, block_skipped, block_completed = _read_trials(*points)
        skipped += block_skipped
        completed += block_completed
        for rel, scale, row, t, value, ref in judge(batch, done):
            if rel > worst:  # max(worst, rel): a NaN never replaces worst
                worst = rel
            # Keep the first violation: injected counterexamples run first, so
            # they become the reported witness deterministically.
            if witness is None and rel > tol:
                witness = Witness(
                    point_a=tuple(x[row] for x in batch.a),
                    point_b=tuple(x[row] for x in batch.b),
                    t=t,
                    lhs=_scalarize(value),
                    rhs=_scalarize(ref),
                    residual=rel,
                    scale=scale,
                )
    if skipped * 2 > trials:
        raise InconclusiveError(f"{skipped} of {trials} trials hit evaluator domain errors")
    if witness is not None:
        return FuzzReport("ViolationFound", completed, skipped, worst, witness)
    return FuzzReport("NoViolationFound", completed, skipped, worst)


def _run_segment_check(f, cfg: FuzzConfig, nargs: int, geodesic: bool, equality: bool,
                       equality_tol: float, evaluate_block=None) -> FuzzReport:
    if not math.isfinite(equality_tol):
        raise RangeError(f"equality_tol must be finite, got {equality_tol}")
    tol = equality_tol if equality else cfg.tol
    batches = _segment_batches(cfg, nargs, geodesic)
    return _trial_loop(f, cfg.trials, batches, tol, _segment_judge(equality), evaluate_block)


def check_gconvex(f, cfg: FuzzConfig, nargs: int = 1, equality: bool = False,
                  equality_tol: float = EQUALITY_TOL) -> FuzzReport:
    """Probe geodesic convexity of ``f`` along random geodesics.

    ``f`` maps ``nargs`` SPD arrays to a float or a symmetric array (matrix
    results are compared in the Loewner order).  With ``equality=True`` the
    check is two-sided, corroborating geodesic linearity.  Trials whose
    evaluation leaves the domain are skipped; more than 50% skips raises
    ``InconclusiveError``.
    """
    return _run_segment_check(f, cfg, nargs, True, equality, equality_tol)


def check_econvex(f, cfg: FuzzConfig, nargs: int = 1, equality: bool = False,
                  equality_tol: float = EQUALITY_TOL) -> FuzzReport:
    """Probe Euclidean convexity of ``f`` along straight segments in the cone."""
    return _run_segment_check(f, cfg, nargs, False, equality, equality_tol)


def check_monotone_loewner(g, direction: str, cfg: FuzzConfig) -> FuzzReport:
    """Probe Loewner monotonicity of ``g`` on ordered pairs ``A >= B``.

    ``direction`` is "increasing" or "decreasing".  Scalar results are
    compared as reals, matrix results in the Loewner order, both within
    ``cfg.tol`` relative to the value scale.
    """
    if direction not in ("increasing", "decreasing"):
        raise RangeError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    judge = _monotone_judge(direction == "increasing")
    return _trial_loop(g, cfg.trials, _ordered_batches(cfg), cfg.tol, judge)


def reevaluate_witness(f, w: Witness, geodesic: bool = True, equality: bool = False) -> float:
    """Recompute a witness's relative residual from its stored points.

    The path point comes from the same block helpers as the check's, as a
    batch of one, so the residual is reproduced bit for bit.
    """
    a = tuple(np.asarray(x, dtype=float)[None] for x in w.point_a)
    b = tuple(np.asarray(y, dtype=float)[None] for y in w.point_b)
    points, _ = _segment_points(geodesic, a, b, np.array([[w.t]]), checked=True)
    fa = _stack([f(*w.point_a)])
    fb = _stack([f(*w.point_b)])
    fmid = _stack([f(*(p[0, 0] for p in points))])
    _, (gap,) = _segment_gaps(fa, fb, np.zeros(1, dtype=int), np.array([w.t]), fmid, equality)
    return gap / _scales(fa, fb)[0]


@dataclass(frozen=True)
class CrossValidation:
    """Comparison between the symbolic verdict and the numeric fuzzers."""

    verdict: str  # "CONSISTENT" | "SOUNDNESS-BUG" | "INFO"
    analysis: AnalysisReport
    checks: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def any_violation(self) -> bool:
        return any(r.verdict == "ViolationFound" for r in self.checks.values())

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "analysis": self.analysis.to_dict(),
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "notes": dict(self.notes),
        }


def cross_validate(e: Expression, cfg: FuzzConfig) -> CrossValidation:
    """Fuzz an analyzed expression against its own curvature verdict.

    Certified verdicts (GConvex, GConcave, GLinear) run the matching
    geodesic fuzzer; a violation is a soundness bug and comes back with a
    witness.  GUnknown runs the geodesic and Euclidean fuzzers informationally
    and reports what was observed.
    """
    names = sorted(e.variables)
    if not names:
        report = analyze(e, Manifold("SPD", cfg.dim))
        return CrossValidation("CONSISTENT", report, {}, {"info": "constant expression"})
    manifolds = [e.variables[n] for n in names]
    dims = {m.dim for m in manifolds}
    if len(dims) != 1:
        raise RangeError("cross validation requires all variables on one manifold")
    d = dims.pop()
    report = analyze(e, manifolds[0])
    cfg = replace(cfg, dim=d)
    nargs = len(names)

    def f(*mats):
        return evaluate(e, dict(zip(names, mats)))

    def block(stacks, alive):
        return _evaluate_stacked(e, dict(zip(names, stacks)), alive)

    def negated_block(stacks, alive):
        values, alive = block(stacks, alive)
        return -values, alive

    def check(fn, evaluate_block, geodesic=True, equality=False):
        return _run_segment_check(fn, cfg, nargs, geodesic, equality, EQUALITY_TOL,
                                  evaluate_block)

    checks: dict[str, FuzzReport] = {}
    notes: dict[str, str] = {}
    g = report.gcurvature
    if g is GCurvature.CONVEX:
        checks["geodesic-convexity"] = check(f, block)
    elif g is GCurvature.CONCAVE:
        checks["geodesic-concavity"] = check(lambda *ms: -f(*ms), negated_block)
    elif g is GCurvature.LINEAR:
        checks["geodesic-linearity"] = check(f, block, equality=True)
    else:
        checks["geodesic-convexity"] = check(f, block)
        checks["euclidean-convexity"] = check(f, block, geodesic=False)
        for key, rep in checks.items():
            notes[key] = (
                "violated empirically" if rep.verdict == "ViolationFound"
                else "no violation observed"
            )
        return CrossValidation("INFO", report, checks, notes)
    if any(r.verdict == "ViolationFound" for r in checks.values()):
        return CrossValidation("SOUNDNESS-BUG", report, checks, notes)
    return CrossValidation("CONSISTENT", report, checks, notes)
