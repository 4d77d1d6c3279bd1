"""Randomized falsification of curvature and monotonicity claims.

Sampling can only refute: a clean run corroborates a claim, it does not
prove it.  Geodesic convexity is probed through the midpoint condition and
its dyadic refinements plus uniform parameters; Euclidean convexity along
straight segments (which stay inside the cone); monotonicity on ordered
pairs ``A >= B`` built by subtracting a PSD perturbation small enough to
keep ``B`` positive definite.

Every trial derives its randomness from ``(seed, trial index)``, so reports
are independent of evaluation order and identical configurations give
identical reports.  Each trial keeps its own ``(seed, index, stream)``
streams (1 for segment endpoints, 2 for t-samples, 3 for ordered pairs),
each bit for bit the generator that
``np.random.default_rng([seed & _SEED_MASK, index, stream])`` gives; one
hash pass seeds every stream a block draws, for all of its trials
(``_trial_rngs``).  A trial draws raw variates, and the block maps them to
numpy's ``normal`` and ``uniform`` once, with their bits.  Known
counterexample pairs can be injected as the leading trials of a run.
Violation thresholds are relative to the value scale
``max(1, |f(A)|, |f(B)|)``; claims of geodesic linearity are checked as
two-sided equalities at a looser tolerance.

All three checks run through one trial loop, ``_trial_loop``, which works
on blocks of ``BLOCK`` consecutive trials.  For each block it makes a few
stacked numpy calls: one QR for every sample point (the random draws stay
per trial, from the trial's own streams), one ``eigh`` pair per argument for
every geodesic of the block at all of its t-samples (a broadcast for
straight segments).  The block's values of ``f``, of every kind, form one
float64 stack (``(k,)`` for scalars, ``(k, d, d)`` for matrices; an ``f``
that returns ``np.float32`` is judged as if it returned ``float``), and
the judge measures the trials' slices of it with one ``_gaps``/``_scales``
pair: array arithmetic for scalars, one ``eigvalsh`` each for the value
scales and the Loewner gaps of matrices.  The loop divides the block's
gaps by their scales as one array and reads the worst residual (the first
of the largest, never a NaN) and the first violation in ``(trial, t)``
order off it; only a witness becomes Python objects.  Stacked numpy calls
give the same bits as one call per value, so reports equal those of a
trial-at-a-time loop.  The public checks call ``f`` per point; it receives
one read-only ``(d, d)`` array per argument.

``cross_validate`` goes further: it evaluates its expression once per
block, over stacks of all the block's points (``expr._evaluate_stacked``,
through ``_stacked_trials``).  Every value and ``DomainError`` outcome
equals the per-point one bit for bit.  A block the stacked evaluation
cannot decide (its tree holds a user atom, which has no stacked
evaluator, some point would raise another error, or numpy would report a
floating-point event) runs point by point instead, which calls ``f`` and
raises exactly as a trial-at-a-time loop does.  Injected pairs run like
any other block.

Every source of trials is a ``_BlockPoints`` (``_batches``).  Generated
blocks are cached: ``_cached_points`` (segment endpoints and t-samples)
and ``_cached_ordered_pair`` keep up to ``_CACHE_BLOCKS`` blocks each, so
checks of several functions at one seed share them, and one routine draws
their matrices (``_block_draws``).  Each injected pair is a block of one
(``_given_block``), new in every check.  A block keeps its paths: each
kind (geodesic or straight) is built on the first check that needs it and
handed to every later check of the block as the same read-only stacks and
``ok`` mask, so the paths live and die with the block.  Both caches
expose ``cache_clear``, which drops the paths too.

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
* every injected pair passes its gates (arity, shape, symmetry and, for
  ``check_monotone_loewner``, the order ``A >= B``) before ``f`` sees a
  point; an endpoint that is not positive definite only skips its trial.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import spd
from .analysis import analyze, AnalysisReport
from .errors import DomainError, InconclusiveError, RangeError, check_range
from .expr import Expression, GCurvature, Manifold, _evaluate_stacked, evaluate

_SEED_MASK = (1 << 63) - 1

EQUALITY_TOL = 1e-8

# Trials per block: the unit of stacked numpy work and of the point caches.
# A power of two no larger than 2**32, so that ``_blocks`` never puts a block
# across 2**32, where a trial index grows a second 32-bit seed word (which
# ``_seed_words`` refuses within one block).
BLOCK = 128
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
        for name in ("trials", "dim", "t_samples", "seed"):
            check_range(name, getattr(self, name), "an integer", lambda n: operator.index(n) == n)
        check_range("trials", self.trials, ">= 1", lambda n: n >= 1)
        check_range("tol", self.tol, "positive and finite", lambda t: 0.0 < t < math.inf)
        check_range("dim", self.dim, ">= 1", lambda n: n >= 1)
        check_range("cond_max", self.cond_max, "finite and >= 1", lambda c: 1.0 <= c < math.inf)
        check_range("t_samples", self.t_samples, ">= 0", lambda n: n >= 0)
        check_range("injected", self.injected, "a tuple or list of pairs",
                    lambda v: isinstance(v, (tuple, list)))


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


# ---------------------------------------------------------------------------
# Trial streams.  Trial ``i`` of stream ``s`` draws from the generator that
# ``np.random.default_rng([seed & _SEED_MASK, i, s])`` returns.  Most of
# building one is ``SeedSequence`` hashing the three integers into PCG64's
# 256-bit seed.  That hash is a fixed function (M. O'Neill's ``seed_seq``,
# which numpy keeps stable so a seed's stream stays the same across
# releases, NEP 19), so ``_trial_rngs`` runs it in ``uint32`` arrays, in one
# pass for every trial of a block and every stream it draws, and hands PCG64
# each trial's words.  A trial then fills its slots with raw variates
# (``standard_normal`` and ``random`` into ``out``), and the block applies
# each distribution's map once (``spd._spd_from_variates``).
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in 32-bit words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# The pool words each source word mixes into, and the pool word of each of
# the eight output words.
_OTHERS = tuple(np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL))
_OUTPUT = np.arange(8) % _POOL


def _words32(v: int) -> list:
    """The little-endian 32-bit words SeedSequence reads from a nonnegative int (0 is one word)."""
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return words


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """The multipliers of ``calls`` hash steps: each step xors with one and multiplies by the next.

    Kept per length once first asked for (a few lengths occur), read-only.
    """
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return _read_only(np.array(consts, dtype=np.uint32))


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``len(consts) - 1`` consecutive steps of SeedSequence's ``hashmix``, one per row.

    Step ``k`` xors with ``consts[k]``, multiplies by ``consts[k + 1]`` and
    folds the high half down.  ``values`` holds one row per step, or is
    one 1-D row that every step takes.
    """
    v = (values ^ consts[:-1, None]) * consts[1:, None]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _seed_words(seed: int, start: int, stop: int, streams) -> np.ndarray:
    """``SeedSequence([seed & _SEED_MASK, i, stream]).generate_state(4, np.uint64)``
    for every ``i`` in ``start..stop-1`` and every stream of ``streams``.

    ``streams`` is one stream, which gives one ``(n, 4)`` array, or a tuple
    of them, which gives ``(len(streams), n, 4)``, all from one hash pass.
    The hash runs in ``(words, columns)`` ``uint32`` arrays, one column per
    trial and stream, whose products wrap as the C code's do.  A step that
    mixes one pool word into the three others leaves that word unchanged,
    so its three hashes are one array operation, as are the four of each
    entropy word past the pool.
    """
    n = stop - start
    index_words = len(_words32(start))
    if len(_words32(stop - 1)) != index_words:
        raise ValueError("a block's indices must have one 32-bit word count")
    seed_words = _words32(int(seed) & _SEED_MASK)
    stream_words = np.array(streams, dtype=np.uint32)
    index = np.arange(start, stop, dtype=np.uint64)
    # One row per entropy word, zero-padded to the pool as SeedSequence pads it.
    used = len(seed_words) + index_words + 1
    entropy = np.zeros((max(used, _POOL), stream_words.size, n), dtype=np.uint32)
    entropy[:len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None, None]
    for k in range(index_words):
        entropy[len(seed_words) + k] = index >> np.uint64(32 * k)
    entropy[used - 1] = stream_words.reshape(-1, 1)
    entropy = entropy.reshape(len(entropy), -1)
    extra = len(entropy) - _POOL
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra)
    with np.errstate(over="ignore"):
        pool = _hash(entropy[:_POOL], consts[:_POOL + 1])
        c = _POOL
        for src, dst in enumerate(_OTHERS):
            pool[dst] = _mix(pool[dst], _hash(pool[src], consts[c:c + _POOL]))
            c += _POOL - 1
        for word in entropy[_POOL:]:
            pool = _mix(pool, _hash(word, consts[c:c + _POOL + 1]))
            c += _POOL
        state = _hash(pool[_OUTPUT], _hash_consts(_INIT_B, _MULT_B, 8))
    # Pairs of little-endian uint32 words as uint64, as generate_state reads them.
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return words.reshape(stream_words.shape + (n, 4))


class _SeedWords:
    """One trial's seed words, already hashed, as the ``ISeedSequence`` PCG64 seeds from.

    ``_trial_rngs`` registers the class as one when it runs, so that
    importing geocert does not import ``numpy.random`` (about 12 ms).
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        """The four ``uint64`` words PCG64 asks for, as ``SeedSequence.generate_state`` gives them."""
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the four uint64 words of a PCG64 seed are kept")
        return self._words.copy()


def _trial_rngs(seed: int, start: int, stop: int, streams) -> list:
    """The ``(seed, i, stream)`` generators of trials ``start..stop-1``: one list
    for one stream, or one list per stream for a tuple of them.

    Each is ``np.random.default_rng([seed & _SEED_MASK, i, stream])`` bit for
    bit: one hash pass covers the whole block and every stream
    (``_seed_words``), and numpy's own PCG64 seeding takes each trial's
    words from there.
    """
    np.random.bit_generator.ISeedSequence.register(_SeedWords)  # a no-op after the first
    words = _seed_words(seed, start, stop, streams)
    rngs = [[np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in block]
            for block in words.reshape(np.size(streams), stop - start, 4)]
    return rngs[0] if words.ndim == 2 else rngs


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _block_ts(seed: int, start: int, stop: int, t_samples: int, rngs=None) -> np.ndarray:
    """The t-samples of trials ``start..stop-1``, ``(n, 3 + t_samples)``: 1/2, 1/4,
    3/4, then ``t_samples`` uniform draws from the trial's ``(seed, i, 2)`` stream,
    whose generators are ``rngs`` when the caller has seeded them already.

    ``uniform(0, 1)`` is ``0 + 1 u``, which is ``u``: the raw ``random`` draws
    are the t-samples as they are.
    """
    ts = np.empty((stop - start, 3 + t_samples))
    ts[:, :3] = (0.5, 0.25, 0.75)
    if t_samples:
        for rng, row in zip(rngs or _trial_rngs(seed, start, stop, 2), ts[:, 3:]):
            rng.random(out=row)
    return ts


def _block_draws(seed: int, start: int, stop: int, stream: int, dim: int, cond_max: float,
                 mats: int, normals: int = 0, t_samples: int | None = None):
    """``(n, mats, dim, dim)`` SPD and ``(n, normals, dim, dim)`` standard normal matrices
    of trials ``start..stop-1``, and their ``_block_ts`` with ``t_samples`` (else None).

    Each trial draws ``spd._spd_draws`` ``mats`` times, then its normal
    matrices, from its ``(seed, i, stream)`` stream, as raw variates; the
    block maps them once and builds its SPD matrices with one stacked QR.
    One hash pass seeds the block's streams, stream 2 of the t-samples
    among them when there are any.
    """
    n = stop - start
    g = np.empty((n, mats, dim, dim))
    u = np.empty((n, mats, dim))
    w = np.empty((n, normals, dim, dim))
    rngs, *ts_rngs = _trial_rngs(seed, start, stop, (stream, 2) if t_samples else (stream,))
    for rng, g_row, u_row, w_row in zip(rngs, g, u, w):
        for j in range(mats):
            spd._spd_draws(rng, g_row[j], u_row[j])
        if normals:
            rng.standard_normal(out=w_row)
    ts = None if t_samples is None else _block_ts(seed, start, stop, t_samples, *ts_rngs)
    return spd._spd_from_variates(g, u, 0.5 * math.log(cond_max)), w + 0.0, ts


class _BlockPoints(tuple):
    """``(a, b, ts)`` of consecutive trials of a check, which keeps its paths once built.

    ``a`` and ``b`` hold the endpoints, one read-only ``(n, dim, dim)``
    stack per argument of ``f``; ``ts`` is ``(n, 3 + t_samples)``, or None
    for ordered pairs.  ``paths(geodesic)`` builds the block's paths
    (``_paths``) on first use and hands every later check of the block the
    same read-only stacks and ``ok`` mask.
    """

    a = property(operator.itemgetter(0))
    b = property(operator.itemgetter(1))
    ts = property(operator.itemgetter(2))

    def __new__(cls, a: tuple, b: tuple, ts: np.ndarray | None):
        block = super().__new__(cls, (a, b, ts))
        block._paths = {}
        return block

    def paths(self, geodesic: bool | None):
        if geodesic not in self._paths:
            self._paths[geodesic] = _paths(geodesic, *self)
        return self._paths[geodesic]


@lru_cache(maxsize=_CACHE_BLOCKS)
def _cached_points(seed: int, start: int, stop: int, dim: int, cond_max: float, nargs: int,
                   t_samples: int):
    """The ``_BlockPoints`` of the generated segment trials ``start..stop-1``: each trial
    draws its endpoints A, then B, from stream 1 and its t-samples from stream 2."""
    mats, _, ts = _block_draws(seed, start, stop, 1, dim, cond_max, 2 * nargs,
                               t_samples=t_samples)
    mats = _read_only(mats)
    return _BlockPoints(tuple(mats[:, j] for j in range(nargs)),
                        tuple(mats[:, nargs + j] for j in range(nargs)), _read_only(ts))


@lru_cache(maxsize=_CACHE_BLOCKS)
def _cached_ordered_pair(seed: int, start: int, stop: int, dim: int, cond_max: float):
    """The ``_BlockPoints`` of the ordered pairs ``A >= B`` of the generated trials ``start..stop-1``.

    ``B = A - s P`` with ``P = W W^T / dim`` a random PSD matrix and ``s``
    small enough to keep ``B`` positive definite; each trial draws ``A``,
    then ``W``, from its stream 3.
    """
    mats, normals, _ = _block_draws(seed, start, stop, 3, dim, cond_max, 1, 1)
    a, w = mats[:, 0], normals[:, 0]
    p = (w @ spd._mT(w)) / dim
    s = 0.5 * spd._eigvalsh(a)[:, 0] / np.maximum(spd._eigvalsh(p)[:, -1], spd.PD_FLOOR)
    b = a - s[:, None, None] * p
    return _BlockPoints((_read_only(a),), (_read_only(b),), None)


def _given_block(name: str, pair, nargs: int, ts: np.ndarray | None) -> _BlockPoints:
    """The block of one caller-supplied pair ``(A, B)`` (one matrix or ``nargs`` each), gated.

    A pair that is not two matrices or tuples of them, or has the wrong
    arity, raises ``RangeError`` naming ``name``; each argument passes the
    gates of ``spd.geodesic_path``, and an ordered pair (``ts`` None) must be
    ordered ``A >= B`` (``RangeError``).  An endpoint that is not positive
    definite passes: its geodesic is missing.
    """
    def conv(ms):
        return tuple(_read_only(np.array(spd._as_array(m), dtype=float))[None] for m in ms)

    try:
        a, b = pair
        if isinstance(a, (list, np.ndarray, spd.SPDMatrix)):
            a, b = (a,), (b,)
        a, b = conv(a), conv(b)
    except (TypeError, ValueError) as exc:
        raise RangeError(f"{name} must be a pair (A, B) of matrices: {exc}") from None
    if len(a) != nargs or len(b) != nargs:
        raise RangeError(f"{name} has arity {len(a)}, which does not match {nargs} arguments")
    for x, y in zip(a, b):
        spd._geodesic_inputs(x[0], y[0])
    if ts is None and not spd.loewner_geq(a[0][0], b[0][0]):
        raise RangeError(f"{name} is not ordered: A >= B fails in the Loewner order")
    return _BlockPoints(a, b, ts)


def _paths(geodesic: bool | None, a: tuple, b: tuple, ts: np.ndarray | None):
    """Path points of a block at every ``(trial, t)`` pair, with the mask of existing paths.

    Geodesics take one stacked eigendecomposition pair per argument,
    straight segments one broadcast; ordered pairs (``geodesic`` None) have
    none.  A geodesic whose endpoint is not positive definite is missing.
    """
    points, ok = [], np.ones(len(a[0]), dtype=bool)
    if geodesic is None:
        return (), _read_only(ok)
    for x, y in zip(a, b):
        if geodesic:
            frame, logs, good = spd._geodesic_frames(x, y)
            ok &= good
            p = spd._geodesic_points(frame, logs, ts)
        else:
            t = ts.reshape(ts.shape + (1,) * (x.ndim - 1))
            p = (1.0 - t) * x[:, None] + t * y[:, None]
        points.append(_read_only(p))
    return tuple(points), _read_only(ok)


def _batches(cfg: FuzzConfig, nargs: int, geodesic: bool | None):
    """The ``_BlockPoints`` of a check in trial order: each injected pair alone, all
    gated before the first is yielded, then generated blocks; ``geodesic`` None
    gives the ordered pairs of a monotonicity check."""
    injected = min(len(cfg.injected), cfg.trials)
    yield from [
        _given_block(f"injected pair {i}", cfg.injected[i], nargs,
                     None if geodesic is None else _block_ts(cfg.seed, i, i + 1, cfg.t_samples))
        for i in range(injected)
    ]
    for start, stop in _blocks(injected, cfg.trials):
        if geodesic is None:
            yield _cached_ordered_pair(cfg.seed, start, stop, cfg.dim, float(cfg.cond_max))
        else:
            yield _cached_points(cfg.seed, start, stop, cfg.dim, float(cfg.cond_max), nargs,
                                 cfg.t_samples)


def _blocks(start: int, stop: int):
    """``[start, stop)`` cut at multiples of ``BLOCK``, so cache keys repeat across checks."""
    while start < stop:
        end = min((start // BLOCK + 1) * BLOCK, stop)
        yield start, end
        start = end


def _scalarize(v):
    if isinstance(v, np.ndarray):
        return float(spd._eigvalsh(spd._sym(v))[0])
    return float(v)


def _stack(values: list) -> np.ndarray:
    """Values of ``f`` as one float64 stack: ``(k,)`` for scalars, ``(k, d, d)`` for matrices."""
    return np.array(values, dtype=float)


# The judge's arithmetic is as quiet as Python floats on inf and NaN (inf - inf
# is NaN), so it warns no more than a trial-at-a-time loop would.
_quiet = np.errstate(over="ignore", invalid="ignore", under="ignore")


def _scales(fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Value scale ``max(1, |f(A)|, |f(B)|)`` of each pair; matrices by spectral norm."""
    if fa.ndim > 1:
        fa = np.abs(spd._eigvalsh(fa)).max(axis=-1)
        fb = np.abs(spd._eigvalsh(fb)).max(axis=-1)
    return np.fmax(np.fmax(1.0, np.abs(fa)), np.abs(fb))


@_quiet
def _gaps(values: np.ndarray, refs: np.ndarray, two_sided: bool) -> np.ndarray:
    """Signed amount by which each value exceeds its reference, or its size with ``two_sided``.

    Scalars are compared as reals, matrices in the Loewner order by one
    stacked ``eigvalsh`` of ``sym(refs - values)``.
    """
    if values.ndim == 1:
        diff = values - refs
        return np.abs(diff) if two_sided else diff
    w = spd._eigvalsh(spd._sym(refs - values))
    return np.abs(w).max(axis=-1) if two_sided else -w[:, 0]


@_quiet
def _segment_gaps(fa: np.ndarray, fb: np.ndarray, owner: np.ndarray, ts: np.ndarray,
                  values: np.ndarray, two_sided: bool):
    """Chord and gap of each t-sample: ``values[k]`` at ``ts[k]`` on trial ``owner[k]``."""
    t = ts.reshape(ts.shape + (1,) * (values.ndim - 1))
    chords = (1.0 - t) * fa[owner] + t * fb[owner]
    return chords, _gaps(values, chords, two_sided)


class _Done(NamedTuple):
    """The trials of a block that reach the judge, as stacks in trial order.

    ``rows`` are their rows in the block, ``fa`` and ``fb`` their endpoint
    values; ``counted`` marks, per trial and t-sample, the path points before
    the trial's first dead one, and ``path`` holds their values in
    ``(trial, t)`` order.
    """

    rows: np.ndarray
    fa: np.ndarray
    fb: np.ndarray
    counted: np.ndarray
    path: np.ndarray


class _Judged(NamedTuple):
    """A block's comparisons in ``(trial, t)`` order, one entry per compared value.

    ``gaps`` are the signed amounts by which the values exceed their
    references (their sizes for two-sided checks), ``scales`` the value
    scales of their trials; ``rows``, ``ts``, ``values`` and ``refs`` locate
    and restate each comparison for a witness.
    """

    gaps: np.ndarray
    scales: np.ndarray
    rows: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    refs: np.ndarray


def _segment_judge(two_sided: bool):
    """Gaps of the counted t-samples above their chords, in ``(trial, t)`` order."""

    def judge(block: _BlockPoints, done: _Done):
        owner, col = np.nonzero(done.counted)
        if not owner.size:
            return None
        ts = block.ts[done.rows[owner], col]
        chords, gaps = _segment_gaps(done.fa, done.fb, owner, ts, done.path, two_sided)
        scales = _scales(done.fa, done.fb)[owner]
        return _Judged(gaps, scales, done.rows[owner], ts, done.path, chords)

    return judge


def _monotone_judge(increasing: bool):
    """Gaps of ``g(lo) <= g(hi)`` over each ordered pair, in trial order."""

    def judge(block: _BlockPoints, done: _Done):
        if not done.rows.size:
            return None
        hi, lo = (done.fa, done.fb) if increasing else (done.fb, done.fa)
        return _Judged(_gaps(lo, hi, False), _scales(done.fa, done.fb), done.rows,
                       np.ones(done.rows.size), lo, hi)

    return judge


def _pointwise_trials(f, block: _BlockPoints, geodesic: bool | None):
    """A block's points with ``f`` called point by point, in the layout of ``_read_trials``.

    ``f`` sees each trial's endpoints, then its ``geodesic`` path points in
    t order, in trial order, and nothing more of a trial after a
    ``DomainError``, and only the endpoints of a trial whose path is
    missing.  A point where ``f`` raised ``DomainError`` or was not called
    holds NaN, a dead point.
    """
    n = len(block.a[0])
    t = 0 if block.ts is None else block.ts.shape[1]
    values = [None] * (2 * n + n * t)
    points, ok = block.paths(geodesic)
    for row, (ends_a, ends_b) in enumerate(zip(zip(*block.a), zip(*block.b))):
        try:
            values[row] = f(*ends_a)
            values[n + row] = f(*ends_b)
        except DomainError:
            continue
        if t and ok[row]:
            try:
                for i, args in enumerate(zip(*(p[row] for p in points)), 2 * n + row * t):
                    values[i] = f(*args)
            except DomainError:
                pass
    dead = np.full(np.shape(next((v for v in values if v is not None), math.nan)), math.nan)
    return _stack([dead if v is None else v for v in values]), ok


def _stacked_trials(evaluate_block, block: _BlockPoints, geodesic: bool):
    """A segment block's points from one stacked evaluation, in ``_read_trials``' layout.

    ``evaluate_block(stacks, alive)`` evaluates ``f`` at every point of the
    block and of its ``geodesic`` paths at once, one stack per argument, and
    returns the values with the mask of points whose per-point evaluation
    would not raise ``DomainError``; the other points become NaN, dead
    points.  Returns None when the stacked evaluation cannot decide (it
    raised ``spd.Undecided``), so the block runs point by point instead.
    """
    n, t = block.ts.shape
    points, ok = block.paths(geodesic)
    stacks = tuple(
        _read_only(np.concatenate((a, b, p.reshape((n * t,) + a.shape[1:]))))
        for a, b, p in zip(block.a, block.b, points)
    )
    alive = np.concatenate((np.ones(2 * n, dtype=bool), np.repeat(ok, t)))
    try:
        values, alive = evaluate_block(stacks, alive)
    except spd.Undecided:
        return None
    return np.where(alive, values, math.nan), ok


def _read_trials(values: np.ndarray, ok: np.ndarray):
    """A block's trials from its points: the one statement of the skip rule.

    ``values``, a float64 stack, covers the endpoints A, then the endpoints
    B, then the path points in ``(trial, t)`` order; ``ok`` marks the trials
    whose path exists.  A value holding a NaN is a dead point.  A trial is
    skipped if A is dead, then if B is dead, then if its path is missing,
    then at its first dead path point; the path values before that point
    still count.  Infinite values are judged as they are.  Returns
    ``(done, skipped, completed)``; ``done`` is the ``_Done`` of every trial
    whose endpoints are alive and whose path exists.
    """
    n = len(ok)
    t = len(values) // n - 2
    alive = ~np.isnan(values).reshape(len(values), -1).any(axis=1)
    ends = alive[:n] & alive[n:2 * n] & ok
    reach = np.logical_and.accumulate(alive[2 * n:].reshape(n, t), axis=1) & ends[:, None]
    counted = reach[ends]
    completed = int(counted.all(axis=1).sum())
    done = _Done(np.flatnonzero(ends), values[:n][ends], values[n:2 * n][ends], counted,
                 values[2 * n:][reach.ravel()])
    return done, n - completed, completed


def _trial_loop(f, trials: int, blocks, geodesic: bool | None, tol: float, judge,
                evaluate_block=None) -> FuzzReport:
    """The one trial loop behind every check.

    Each block's points, on its ``geodesic`` paths, come from
    ``_pointwise_trials``, or, when ``evaluate_block`` is given, from
    ``_stacked_trials``, which yields the same values and outcomes;
    ``_read_trials`` reads the trials off them.  ``judge`` turns a block's
    trials into a ``_Judged`` of gaps and scales in ``(trial, t)`` order
    (None when nothing is compared); the loop reads the relative gaps as
    one array: their largest, never a NaN, updates the worst residual, and
    the first above ``tol`` becomes the witness.
    """
    skipped = 0
    completed = 0
    worst = float("-inf")
    witness = None
    for block in blocks:
        points = None
        if evaluate_block is not None:
            points = _stacked_trials(evaluate_block, block, geodesic)
        if points is None:
            points = _pointwise_trials(f, block, geodesic)
        done, block_skipped, block_completed = _read_trials(*points)
        skipped += block_skipped
        completed += block_completed
        judged = judge(block, done)
        if judged is None:
            continue
        with np.errstate(invalid="ignore", under="ignore"):  # as float division: inf/inf is NaN
            rel = judged.gaps / judged.scales
        top = np.fmax.reduce(rel)  # NaN only when every gap is
        if top > worst:
            # The first of the largest gaps, as a running maximum keeps it
            # (0.0 and -0.0 are equal).
            worst = float(rel[np.argmax(rel == top)])
        # Keep the first violation: injected counterexamples run first, so
        # they become the reported witness deterministically.
        if witness is None:
            k = int(np.argmax(rel > tol))
            if rel[k] > tol:
                row = judged.rows[k]
                witness = Witness(
                    point_a=tuple(x[row] for x in block.a),
                    point_b=tuple(x[row] for x in block.b),
                    t=float(judged.ts[k]),
                    lhs=_scalarize(judged.values[k]),
                    rhs=_scalarize(judged.refs[k]),
                    residual=float(rel[k]),
                    scale=float(judged.scales[k]),
                )
    if skipped * 2 > trials:
        raise InconclusiveError(f"{skipped} of {trials} trials hit evaluator domain errors")
    if witness is not None:
        return FuzzReport("ViolationFound", completed, skipped, worst, witness)
    return FuzzReport("NoViolationFound", completed, skipped, worst)


def _run_segment_check(f, cfg: FuzzConfig, nargs: int, geodesic: bool, equality: bool,
                       evaluate_block=None) -> FuzzReport:
    check_range("nargs", nargs, "an integer >= 1", lambda n: operator.index(n) >= 1)
    tol = EQUALITY_TOL if equality else cfg.tol
    return _trial_loop(f, cfg.trials, _batches(cfg, nargs, geodesic), geodesic, tol,
                       _segment_judge(equality), evaluate_block)


def check_gconvex(f, cfg: FuzzConfig, nargs: int = 1, equality: bool = False) -> FuzzReport:
    """Probe geodesic convexity of ``f`` along random geodesics.

    ``f`` maps ``nargs`` SPD arrays to a float or a symmetric array (matrix
    results are compared in the Loewner order).  With ``equality=True`` the
    check is two-sided within ``EQUALITY_TOL``, corroborating geodesic
    linearity.  Trials whose evaluation leaves the domain are skipped; more
    than 50% skips raises ``InconclusiveError``.
    """
    return _run_segment_check(f, cfg, nargs, True, equality)


def check_econvex(f, cfg: FuzzConfig, nargs: int = 1, equality: bool = False) -> FuzzReport:
    """Probe Euclidean convexity of ``f`` along straight segments in the cone."""
    return _run_segment_check(f, cfg, nargs, False, equality)


def check_monotone_loewner(g, direction: str, cfg: FuzzConfig) -> FuzzReport:
    """Probe Loewner monotonicity of ``g`` on ordered pairs ``A >= B``.

    ``direction`` is "increasing" or "decreasing".  Scalar results are
    compared as reals, matrix results in the Loewner order, both within
    ``cfg.tol`` relative to the value scale.
    """
    if direction not in ("increasing", "decreasing"):
        raise RangeError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    judge = _monotone_judge(direction == "increasing")
    return _trial_loop(g, cfg.trials, _batches(cfg, 1, None), None, cfg.tol, judge)


def reevaluate_witness(f, w: Witness, geodesic: bool = True, equality: bool = False) -> float:
    """Recompute a witness's relative residual from its stored points.

    The path point comes from a block of one that passed an injected pair's
    gates (``_given_block``), so the residual is reproduced bit for bit;
    ``f`` sees the witness's own endpoint arrays.  A missing geodesic
    raises ``DomainError``.
    """
    block = _given_block("witness", (w.point_a, w.point_b), len(w.point_a), np.array([[w.t]]))
    points, ok = block.paths(geodesic)
    if not ok[0]:
        raise DomainError("geodesic endpoint is not positive definite")
    fa = _stack([f(*w.point_a)])
    fb = _stack([f(*w.point_b)])
    fmid = _stack([f(*(p[0, 0] for p in points))])
    _, (gap,) = _segment_gaps(fa, fb, np.zeros(1, dtype=int), np.array([w.t]), fmid, equality)
    return float(gap) / float(_scales(fa, fb)[0])


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
        return _run_segment_check(fn, cfg, nargs, geodesic, equality, evaluate_block)

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
