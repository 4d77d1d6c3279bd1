"""Dense numerics on the manifold of symmetric positive definite matrices.

Every matrix function here goes through a single kernel, the real symmetric
eigendecomposition; there are no Schur or Pade code paths.  Matrices are
symmetrized as ``(M + M.T) / 2`` before decomposition to absorb roundoff,
but only after an explicit asymmetry gate has passed.  SPD validation is
relative to the largest eigenvalue with an absolute floor, and a matrix
that fails validation is rejected, never repaired.

``_pd_tol`` is the one definiteness tolerance: ``SPDMatrix``, the PD and
PSD claims on constants and the PSD gates of atom parameters all use it.
``POINT.pd_eig`` is the one gate of the spectral functions:
``matrix_sqrt``, ``matrix_log``, ``matrix_pow`` and ``matrix_inv``
decompose through it and rebuild with ``_rebuild``; ``matrix_exp`` takes
any symmetric matrix, so it has no gate.

The affine-invariant geometry implemented here:

* geodesic        ``gamma(t) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2)``
* geometric mean  ``A # B = gamma(1/2)``
* distance        ``||log(B^(-1/2) A B^(-1/2))||_F``

The geodesic kernels (``_geodesic_frames``, ``_geodesic_points``) and the
sampler (``_spd_from_draws``) also take stacks ``(..., d, d)``: numpy's
``eigh`` and ``matmul`` loop over leading axes, one LAPACK or BLAS call per
matrix, so a stacked result equals the one-matrix result bit for bit.  The
falsifier relies on that to batch its trials.

The module also carries the numeric evaluator (``eval_<name>``) and the
vector-Jacobian product (``vjp_<name>``) of every built-in atom so that
symbolic metadata and numeric semantics stay in separate layers.  The
evaluators of the atoms that decompose their argument, listed in
``STACKED``, are written once for one point and for a stack of points: a
keyword-only ``rows`` policy runs their gates, decompositions and
finishing reductions.  ``POINT``, the default, decomposes afresh at every
call; a ``Memo`` decomposes each input array of one evaluation once, and
can be seeded with a decomposition its caller already holds (the
``SPDMatrix`` a variable is bound to); a ``Rows`` memoizes the same way
over stacks.  ``distance`` gates both of its arguments, the first
through the policy's ``symmetric``.  Every vector-Jacobian product that
decomposes a matrix is in ``RESIDUAL_VJPS``: it takes the policy its
evaluator ran under and reads the forward pass's decompositions from it,
so a gradient after an evaluation decomposes only what that evaluation
did not (a sum, a whitening the other way round).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError, ShapeError

# Validation tolerances (relative unless noted).
ASYM_RTOL = 1e-12        # symmetry gate before symmetrization
PD_RTOL = 1e-10          # lambda_min must exceed PD_RTOL * lambda_max ...
PD_FLOOR = 1e-300        # ... with this absolute floor
RANK_RTOL = 1e-10        # sigma_min gate for full-rank parameter matrices


def _pd_tol(lam_max: float) -> float:
    """The definiteness tolerance: PD is ``lambda_min > tol``, PSD ``lambda_min >= -tol``."""
    return max(PD_RTOL * max(lam_max, 0.0), PD_FLOOR)


def _as_array(m) -> np.ndarray:
    if isinstance(m, SPDMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of the matrix itself when 2-D)."""
    return a.T if a.ndim == 2 else np.swapaxes(a, -1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    # inlines _mT: this runs several times per atom evaluation
    return (a + (a.T if a.ndim == 2 else np.swapaxes(a, -1, -2))) / 2.0


def _check_symmetric_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{what} has non-finite entries")
    if (a == a.T).all():  # exactly symmetric, so within any tolerance
        return a
    scale = float(np.linalg.norm(a))
    if float(np.linalg.norm(a - a.T)) > ASYM_RTOL * max(scale, PD_FLOOR):
        raise ShapeError(f"{what} is not symmetric within {ASYM_RTOL:g} relative")
    return a


@dataclass(frozen=True)
class EigenPair:
    """Orthogonal eigenvectors ``q`` and eigenvalues ``lam`` sorted descending."""

    q: np.ndarray
    lam: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _sym((self.q * self.lam) @ self.q.T)


def sym_eig(m) -> EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending.

    Raises ``ShapeError`` for non-square or non-symmetric input and
    ``DomainError`` for non-finite entries.
    """
    a = _check_symmetric_square(_as_array(m))
    return _eig_nogate(a)


def _eig_nogate(a: np.ndarray) -> EigenPair:
    # For products of validated matrices whose asymmetry is our own roundoff;
    # the 1e-12 gate applies to inputs, not to internally derived quantities.
    # A stack (..., d, d) gives a pair of stacks.
    w, q = np.linalg.eigh(_sym(a))
    lam = np.ascontiguousarray(w[..., ::-1])
    vec = np.ascontiguousarray(q[..., ::-1])
    return EigenPair(q=vec, lam=lam)


class SPDMatrix:
    """A dense symmetric matrix with a validated positive spectrum.

    Construction symmetrizes the input (after the asymmetry gate), runs one
    eigendecomposition, and rejects the matrix unless
    ``lambda_min > max(PD_RTOL * lambda_max, PD_FLOOR)``.  Instances are
    immutable; the eigendecomposition is cached for reuse by the matrix
    functions below.
    """

    __slots__ = ("_m", "_eig")

    def __init__(self, values):
        a = np.array(_as_array(values), dtype=float, copy=True)
        pair = sym_eig(a)
        lam_max = float(pair.lam[0])
        tol = _pd_tol(lam_max)
        if float(pair.lam[-1]) <= tol:
            raise DomainError(
                f"matrix is not positive definite: lambda_min={pair.lam[-1]:.6g}, "
                f"lambda_max={lam_max:.6g}, tolerance={tol:.6g}"
            )
        m = _sym(a)
        m.setflags(write=False)
        self._m = m
        self._eig = pair

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._m

    @property
    def eig(self) -> EigenPair:
        return self._eig

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._m.astype(dtype)
        return self._m

    def __repr__(self):
        return f"SPDMatrix(dim={self.dim})"


def _eig_of(m) -> EigenPair:
    if isinstance(m, SPDMatrix):
        return m.eig
    return sym_eig(m)


def _rebuild(pair: EigenPair, vals: np.ndarray) -> np.ndarray:
    """``Q diag(vals) Q^T``, also for a stacked pair and ``vals``."""
    return _sym((pair.q * vals[..., None, :]) @ _mT(pair.q))


def matrix_sqrt(m) -> SPDMatrix:
    pair = POINT.pd_eig(m, "matrix_sqrt requires a positive spectrum")
    return SPDMatrix(_rebuild(pair, np.sqrt(pair.lam)))


def matrix_log(m) -> np.ndarray:
    pair = POINT.pd_eig(m, "matrix_log requires a positive spectrum")
    return _rebuild(pair, np.log(pair.lam))


def matrix_exp(m) -> SPDMatrix:
    pair = _eig_of(m)
    return SPDMatrix(_rebuild(pair, np.exp(pair.lam)))


def matrix_pow(m, t: float) -> SPDMatrix:
    pair = POINT.pd_eig(m, "matrix_pow requires a positive spectrum")
    return SPDMatrix(_rebuild(pair, pair.lam ** float(t)))


def matrix_inv(m) -> SPDMatrix:
    pair = POINT.pd_eig(m, "matrix_inv requires a positive spectrum")
    return SPDMatrix(_rebuild(pair, 1.0 / pair.lam))


def _root_pair(q: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Q diag(lam^(1/2)) Q^T`` and ``Q diag(lam^(-1/2)) Q^T``, stacked."""
    root = np.sqrt(lam)[..., None, :]
    qt = _mT(q)
    return _sym((q * root) @ qt), _sym((q / root) @ qt)


def _geodesic_inputs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of two geodesic endpoints, after the shape and symmetry gates."""
    a_arr = _as_array(a)
    b_arr = _as_array(b)
    if a_arr.shape != b_arr.shape:
        raise ShapeError(f"dimension mismatch: {a_arr.shape} vs {b_arr.shape}")
    for m, arr in ((a, a_arr), (b, b_arr)):
        if not isinstance(m, SPDMatrix):
            _check_symmetric_square(arr)
    return a_arr, b_arr


def _geodesic_frames(a: np.ndarray, b: np.ndarray):
    """Geodesics from ``a`` to ``b`` for endpoint stacks of shape ``(..., d, d)``.

    Returns ``(frame, logs, ok)`` such that
    ``gamma(t) = frame diag(exp(t logs)) frame^T``: ``frame = A^(1/2) U`` where
    ``U diag(exp(logs)) U^T`` is the eigendecomposition of
    ``A^(-1/2) B A^(-1/2)``.  Two stacked eigendecompositions in all.  ``ok``
    is False where ``a`` or the whitened ``b`` has an eigenvalue <= 0; the
    frame and logs there are placeholders.  The inputs are not gated.
    """
    pair = _eig_nogate(a)
    ok = ~(pair.lam[..., -1] <= 0.0)
    a_sq, a_inv_sq = _root_pair(pair.q, np.where(ok[..., None], pair.lam, 1.0))
    inner = _eig_nogate(a_inv_sq @ b @ a_inv_sq)
    ok &= ~(inner.lam[..., -1] <= 0.0)
    return a_sq @ inner.q, np.log(np.where(ok[..., None], inner.lam, 1.0)), ok


def _geodesic_points(frame: np.ndarray, logs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``gamma(t)`` for every ``t`` of ``ts`` (shape ``(..., T)``), as ``(..., T, d, d)``."""
    scaled = frame[..., None, :, :] * np.exp(ts[..., :, None] * logs[..., None, :])[..., None, :]
    return _sym(scaled @ _mT(frame)[..., None, :, :])


def geodesic_path(a, b) -> Callable[[float], np.ndarray]:
    """Precompute the geodesic from ``a`` to ``b``.

    Returns a callable mapping ``t`` to the raw symmetric array ``gamma(t)``.
    The two eigendecompositions happen once, so sampling many points along
    one geodesic is cheap.
    """
    frame, logs, ok = _geodesic_frames(*_geodesic_inputs(a, b))
    if not ok:
        raise DomainError("geodesic endpoint is not positive definite")

    def gamma(t: float) -> np.ndarray:
        return _geodesic_points(frame, logs, np.array([t], dtype=float))[0]

    return gamma


def geodesic(a, b, t: float) -> SPDMatrix:
    """Point at parameter ``t`` on the geodesic joining ``a`` to ``b``.

    ``t`` must lie in ``[0, 1]``; extensions beyond the segment are out of
    scope and raise ``RangeError``.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise RangeError(f"geodesic parameter t={t} outside [0, 1]")
    return SPDMatrix(geodesic_path(a, b)(t))


def geometric_mean(a, b) -> SPDMatrix:
    """Geodesic midpoint ``A # B``."""
    return geodesic(a, b, 0.5)


def distance(a, b) -> float:
    """Affine-invariant Riemannian distance ``||log(B^(-1/2) A B^(-1/2))||_F``."""
    a_arr = _as_array(a)
    b_arr = _as_array(b)
    if a_arr.shape != b_arr.shape:
        raise ShapeError(f"dimension mismatch: {a_arr.shape} vs {b_arr.shape}")
    return _distance(a, b, POINT)


def loewner_geq(a, b, tol: float = 1e-9) -> bool:
    """Test ``A >= B`` in the Loewner order within a relative tolerance.

    True iff ``lambda_min(A - B) >= -tol * ||A - B||_2``; in particular true
    when ``A == B``.
    """
    d = _sym(_as_array(a)) - _sym(_as_array(b))
    w = np.linalg.eigvalsh(_sym(d))
    spread = float(np.max(np.abs(w))) if w.size else 0.0
    return float(w[0]) >= -tol * spread


def _as_generator(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)


def _spd_draws(d: int, cond_max: float, rng: np.random.Generator):
    """One random SPD matrix's draws, in order: normal ``(d, d)``, then uniform ``(d,)``."""
    half = 0.5 * math.log(cond_max)
    return rng.normal(size=(d, d)), rng.uniform(-half, half, size=d)


def _spd_from_draws(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Q diag(exp(u)) Q^T`` with ``Q`` the sign-fixed QR factor of ``g``.

    Stacked: ``g`` is ``(..., d, d)`` Gaussian, ``u`` the matching
    ``(..., d)`` uniform log-spectra; one stacked QR serves every matrix.
    """
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return _sym((q * np.exp(u)[..., None, :]) @ _mT(q))


def random_spd(d: int, cond_max: float = 10.0, rng_seed=0) -> SPDMatrix:
    """Random SPD matrix ``Q diag(lam) Q^T`` with condition number <= ``cond_max``.

    ``Q`` comes from the QR factorization of a Gaussian matrix and
    ``log(lam)`` is uniform on ``[-log(cond_max)/2, +log(cond_max)/2]``.
    Deterministic for a fixed seed.
    """
    if d < 1:
        raise RangeError(f"dimension must be >= 1, got {d}")
    if not 1.0 <= cond_max < math.inf:
        raise RangeError(f"cond_max must be finite and >= 1, got {cond_max}")
    rng = _as_generator(rng_seed)
    return SPDMatrix(_spd_from_draws(*_spd_draws(d, float(cond_max), rng)))


# ---------------------------------------------------------------------------
# Row policies: the gates, decompositions and finishing tails of the
# evaluators that take ``rows=``, for one point or for a stack of points.
# ``POINT`` keeps nothing; a ``Memo`` keeps the decompositions of one
# point's evaluation, seeded with those its caller already made; a ``Rows``
# keeps those of one stacked evaluation.
# ---------------------------------------------------------------------------


class Undecided(Exception):
    """The stacked path cannot reproduce some row's per-point outcome."""


class _Point:
    """The row policy of one point: a gate that fails raises ``DomainError``.

    ``eigvalsh`` gives the ascending eigenvalues of ``sym(x)``;
    ``pd_eigvals`` the descending ones and ``pd_eig`` the gated ``sym_eig``
    of ``x``, each after ``require``, which fails unless a descending
    spectrum is positive; ``inv_sqrt`` and ``whiten`` give the gated
    ``Y^-1/2`` and the eigenpairs of ``Y^-1/2 X Y^-1/2``; ``finite`` passes
    the input of an ungated decomposition; ``symmetric`` gates an argument
    as ``sym_eig`` does, but for an ``SPDMatrix``; ``map`` finishes a value
    from its eigenvalues; ``memo`` computes what a memoizing policy would
    keep.  This is the hot path of the public checks, so nothing here
    builds a closure or a message unless a gate fails.
    """

    __slots__ = ()

    def memo(self, tag: str, compute, *arrays):
        return compute(*arrays)

    def finite(self, x: np.ndarray) -> np.ndarray:
        return x

    def symmetric(self, x) -> np.ndarray:
        if isinstance(x, SPDMatrix):
            return x.entries
        return _check_symmetric_square(np.asarray(x, dtype=float))

    def eigvalsh(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(_sym(self.finite(x)))

    def pd_eigvals(self, x: np.ndarray, message: str) -> np.ndarray:
        lam = self.eigvalsh(x)[..., ::-1]
        self.require(lam, message)
        return lam

    def pd_eig(self, x, message: str) -> EigenPair:
        pair = _eig_of(x)
        self.require(pair.lam, message)
        return pair

    def inv_sqrt(self, x) -> np.ndarray:
        pair = self.pd_eig(x, "matrix is not positive definite")
        return _root_pair(pair.q, pair.lam)[1]

    def whiten(self, x, y) -> tuple[np.ndarray, EigenPair]:
        y_inv_sq = self.inv_sqrt(y)
        return y_inv_sq, _eig_nogate(self.finite(y_inv_sq @ x @ y_inv_sq))

    def require(self, lam: np.ndarray, message: str) -> None:
        if float(lam[-1]) <= 0.0:
            raise DomainError(message)

    def map(self, tail, lam: np.ndarray, *params):
        return tail(lam, *params)


POINT = _Point()


class Memo(_Point):
    """The row policy of one point that decomposes each input array once.

    One memo serves one evaluation and the backward pass over it.  Entries
    are keyed by the identity of their input arrays and a tag naming what
    was computed from them, so a hit hands on the bits a fresh computation
    from the same array would give.  ``seed`` records a decomposition the
    caller already holds.  Entries the backward pass adds are never read by
    a forward gate: every forward step of the evaluation comes first.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo = {}

    def memo(self, tag: str, compute, *arrays):
        # The weak references tell an entry of these arrays from one of dead
        # arrays whose ids they reuse, without keeping arrays alive.
        key = (tag, *map(id, arrays))
        hit = self._memo.get(key)
        if hit is not None and all(ref() is a for ref, a in zip(hit[0], arrays)):
            return hit[1]
        value = compute(*arrays)
        self._memo[key] = (tuple(map(weakref.ref, arrays)), value)
        return value

    def seed(self, x: np.ndarray, pair: EigenPair) -> None:
        """Take ``pair`` as ``sym_eig(x)``, without running the gate again.

        The caller vouches that the gate passed on these bits of ``x`` and
        that ``pair`` is their decomposition, as ``SPDMatrix(x).eig`` is.
        """
        self._memo[("sym_eig", id(x))] = ((weakref.ref(x),), pair)

    def eigvalsh(self, x: np.ndarray) -> np.ndarray:
        return self.memo("eigvalsh", super().eigvalsh, x)

    def pd_eig(self, x: np.ndarray, message: str) -> EigenPair:
        pair = self.memo("sym_eig", sym_eig, x)
        self.require(pair.lam, message)
        return pair

    def inv_sqrt(self, x: np.ndarray) -> np.ndarray:
        return self.memo("inv_sqrt", super().inv_sqrt, x)

    def whiten(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, EigenPair]:
        return self.memo("whiten", super().whiten, x, y)


class Rows(Memo):
    """The row policy of a stack: a row whose gate fails dies instead.

    Matrix arguments are ``(n, d, d)`` stacks or one ``(d, d)`` constant
    shared by all rows.  Each decomposition is one stacked call (LAPACK and
    BLAS still run once per matrix, so the bits match) and each tail runs
    per row.  A row dies, leaving ``alive``, where its per-point evaluation
    would raise ``DomainError``, and is never computed further: kernels
    replace dead rows by the identity before any decomposition, so they
    cannot raise or feed NaN into ``eigh``.  A row that would raise
    anything else raises ``Undecided``.  Decompositions are memoized per
    input array as in ``Memo``, so every ``distance`` term of a tree
    decomposes its variable once; rows only ever die, so an entry stays
    valid for every later use.
    """

    __slots__ = ("alive",)

    def __init__(self, alive: np.ndarray):
        super().__init__()
        self.alive = alive

    def kill(self, rows):
        """Mark ``rows`` (a mask over the rows, or one flag for all) as failed."""
        self.alive &= np.logical_not(rows)

    def live(self, x: np.ndarray) -> np.ndarray:
        """``x`` with its dead rows replaced by the identity."""
        if x.ndim == 2 or self.alive.all():
            return x
        return np.where(self.alive[:, None, None], x, np.eye(x.shape[-1]))

    def finite(self, x: np.ndarray) -> np.ndarray:
        """``live(x)``, or ``Undecided`` when an alive row is not finite.

        For the ungated decompositions: per point, ``eigh`` of a non-finite
        matrix raises ``LinAlgError`` or returns NaN.
        """
        x = self.live(x)
        if not np.isfinite(x).all():
            raise Undecided("non-finite input to an ungated decomposition")
        return x

    def pd_eig(self, x: np.ndarray, message: str) -> EigenPair:
        """Rows that are not positive definite die and get eigenvalues 1."""
        pair = self.memo("sym_eig", lambda a: _eig_nogate(self.symmetric(a)), x)
        bad = pair.lam[..., -1] <= 0.0
        self.kill(bad)
        return EigenPair(q=pair.q, lam=np.where(bad[..., None], 1.0, pair.lam))

    # No vector-Jacobian product reads a stacked walk, so it keeps no
    # whitening: each would hold stacks for the whole walk.
    whiten = _Point.whiten

    def require(self, lam: np.ndarray, message: str) -> None:
        self.kill(lam[..., -1] <= 0.0)

    def map(self, tail, lam: np.ndarray, *params) -> np.ndarray:
        """``tail(lam[i], *params)`` for every alive row; a ``DomainError`` kills the row."""
        out = np.zeros(len(self.alive))
        if lam.ndim == 1:  # the eigenvalues of one constant matrix
            lam = np.broadcast_to(lam, (len(self.alive),) + lam.shape)
        for i in np.flatnonzero(self.alive):
            try:
                out[i] = tail(lam[i], *params)
            except DomainError:
                self.alive[i] = False
        return out

    def symmetric(self, a: np.ndarray) -> np.ndarray:
        """``live(a)`` after the gate of ``sym_eig`` per row: non-finite rows
        die, an asymmetric alive row is undecided."""
        if a.ndim == 2:
            try:
                return _check_symmetric_square(a)
            except DomainError:
                self.kill(True)
                return np.eye(a.shape[0])
        self.kill(~np.isfinite(a).all(axis=(-2, -1)))
        a = self.live(a)
        for i in np.flatnonzero(self.alive & ~(a == _mT(a)).all(axis=(-2, -1))):
            try:
                _check_symmetric_square(a[i])
            except ShapeError:
                raise Undecided("asymmetric argument") from None
        return a


# ---------------------------------------------------------------------------
# Numeric atom evaluators.  All take and return raw ndarrays / floats; those
# in ``STACKED`` also take ``rows=`` and then return stacks.
# ---------------------------------------------------------------------------


# The tails below finish an evaluator from its eigenvalues, one row at a
# time.  Each gets the row's own view of the eigenvalues, descending views
# included, never a contiguous copy: numpy's SIMD ``log`` over a contiguous
# array and the libm one it runs over a strided view differ in the last bit
# for some inputs.  For an ndarray, np.sum(a) is np.add.reduce(a, None)
# behind a Python wrapper that costs more than the sum of a few
# eigenvalues; the tails call the reduction.


def _logdet_tail(lam: np.ndarray) -> float:
    return float(np.add.reduce(np.log(lam), None))


def _distance_tail(lam: np.ndarray) -> float:
    logs = np.log(lam)
    return float(math.sqrt(float(np.dot(logs, logs))))


def _eigmax_tail(lam: np.ndarray) -> float:
    return float(lam[-1])


def _eigsummax_tail(lam: np.ndarray, k) -> float:
    return float(np.add.reduce(lam[-int(k):], None))


def _schatten_tail(lam: np.ndarray, p) -> float:
    return float(np.add.reduce(lam ** float(p), None) ** (1.0 / float(p)))


def _sum_log_tail(lam: np.ndarray, k) -> float:
    return float(np.add.reduce(np.log(lam[: int(k)]), None))


def _sum_pow_log_tail(lam: np.ndarray, k, p) -> float:
    logs = np.log(lam[: int(k)])
    p = float(p)
    if not p.is_integer() and np.any(logs < 0.0):
        raise DomainError("sum_pow_log_eigmax with non-integer p needs eigenvalues >= 1")
    return float(np.add.reduce(logs ** p, None))


def eval_logdet(x, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "logdet requires a positive definite argument")
    return rows.map(_logdet_tail, lam)


def eval_tr(x) -> float:
    return float(np.trace(_as_array(x)))


def eval_sum(x) -> float:
    return float(np.sum(_as_array(x)))


def eval_sdivergence(x, y, *, rows=POINT):
    xa, ya = _as_array(x), _as_array(y)
    mid = eval_logdet((xa + ya) / 2.0, rows=rows)
    return mid - 0.5 * (eval_logdet(xa, rows=rows) + eval_logdet(ya, rows=rows))


def eval_distance(x, y, *, rows=POINT):
    # One point goes through the module attribute ``distance``, so that a
    # wrapper installed there (a profiler's) sees every such evaluation.
    return distance(x, y) if rows is POINT else _distance(x, y, rows)


def _distance(x, y, rows):
    w = rows.whiten(rows.symmetric(x), y)[1]
    rows.require(w.lam, "distance requires positive definite arguments")
    return rows.map(_distance_tail, w.lam)


def eval_quad_form(h, x) -> float:
    h = np.asarray(h, dtype=float)
    return float(h @ _as_array(x) @ h)


def eval_eigmax(x, *, rows=POINT):
    return rows.map(_eigmax_tail, rows.eigvalsh(_as_array(x)))


def eval_log_quad_form(hs, x) -> float:
    xa = _as_array(x)
    total = sum(float(h @ xa @ h) for h in hs)
    if total <= 0.0:
        raise DomainError("log_quad_form requires a positive quadratic form sum")
    return float(math.log(total))


def eval_eigsummax(x, k, *, rows=POINT):
    return rows.map(_eigsummax_tail, rows.eigvalsh(_as_array(x)), k)


def eval_schatten_norm(x, p, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "schatten_norm requires a positive definite argument")
    return rows.map(_schatten_tail, lam, p)


def eval_sum_log_eigmax(x, k, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "sum_log_eigmax requires a positive definite argument")
    return rows.map(_sum_log_tail, lam, k)


def eval_sum_pow_log_eigmax(x, k, p, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "sum_pow_log_eigmax requires a positive definite argument")
    return rows.map(_sum_pow_log_tail, lam, k, p)


# Conjugation and the Hadamard product gate nothing and broadcast over a
# stack as they are; they take ``rows`` only to be evaluated stacked.
def eval_conjugation(x, b, *, rows=POINT) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    return _sym(b.T @ _as_array(x) @ b)


def eval_adjoint(x) -> np.ndarray:
    return _as_array(x).T.copy()


def eval_inv(x, *, rows=POINT) -> np.ndarray:
    pair = rows.pd_eig(x, "inv requires a positive definite argument")
    return _rebuild(pair, 1.0 / pair.lam)


def eval_hadamard_product(x, m, *, rows=POINT) -> np.ndarray:
    return _as_array(x) * np.asarray(m, dtype=float)


def eval_diag_matrix(x) -> np.ndarray:
    return np.diag(np.diag(_as_array(x))).copy()


def eval_positive_affine(x, ys, b, r, *, rows=POINT) -> np.ndarray:
    xa = _as_array(x)
    return _affine_sum(xa if int(r) == 1 else eval_inv(xa, rows=rows), ys, b)


def _affine_sum(xr: np.ndarray, ys, b) -> np.ndarray:
    """``sym(B + sum_i Y_i^T xr Y_i)``; ``xr`` may be a stack."""
    m = ys[0].shape[1]
    out = np.zeros((m, m)) if b is None else np.asarray(b, dtype=float).copy()
    for y in ys:
        out = out + y.T @ xr @ y
    return _sym(out)


def elementwise_norm1(x) -> float:
    """Sum of absolute entries; Euclidean-convex but not geodesically convex."""
    return float(np.sum(np.abs(_as_array(x))))


def eval_exp(v) -> float:
    try:
        return float(math.exp(float(v)))
    except OverflowError:
        raise DomainError("exp overflows the double range") from None


def eval_log(v) -> float:
    v = float(v)
    if v <= 0.0:
        raise DomainError("log requires a positive argument")
    return float(math.log(v))


def eval_neg_log(v) -> float:
    return -eval_log(v)


def eval_pow(v, p) -> float:
    v, p = float(v), float(p)
    if v < 0.0 and not p.is_integer():
        raise DomainError("pow with non-integer exponent requires a nonnegative base")
    try:
        return float(v ** p)
    except OverflowError:
        raise DomainError("pow overflows the double range") from None


def eval_abs(v) -> float:
    return float(abs(float(v)))


def _takes_rows(prefix: str) -> frozenset:
    # A set of functions, not of names, so an atom re-registered under a
    # built-in name with other functions never gets a policy.
    return frozenset(
        fn for name, fn in list(globals().items())
        if name.startswith(prefix) and "rows" in (fn.__kwdefaults__ or ())
    )


# The evaluators that take ``rows``: an atom re-registered under a built-in
# name with another evaluator is evaluated per row, never by the built-in's
# code.
STACKED = _takes_rows("eval_")


# ---------------------------------------------------------------------------
# Atom vector-Jacobian products.  ``vjp_<name>(g, out, wrt, *args)`` takes
# the cotangent ``g`` of the atom's output (a float, or a symmetric array for
# matrix-valued atoms), the output ``out`` the evaluator returned at ``args``
# (the evaluator's own arguments, parameters included) and one flag per
# expression argument.  It returns one cotangent per expression argument,
# the Euclidean gradient of ``<g, atom(args)>`` with respect to it; entries
# whose ``wrt`` flag is false may be None.  Each rule is the adjoint of its
# evaluator as written, symmetrizations included, so cotangents of
# non-symmetric intermediate values stay exact.  Closed forms for the
# divergences follow Sra & Hosseini, SIAM J. Optim. 2015; the spectral ones
# are the Daleckii-Krein gradient ``Q diag(f'(lam)) Q^T`` of
# ``sum_i f(lam_i)``.
# ---------------------------------------------------------------------------


def _spectral_grad(x, fprime, rows) -> np.ndarray:
    """``Q diag(f'(lam)) Q^T`` for the eigenvalues of ``x`` sorted descending, ungated."""
    pair = rows.memo("sym_eig", _eig_nogate, _as_array(x))
    return _rebuild(pair, fprime(pair.lam))


def _top(k: int):
    """Derivative mask of a sum over the ``k`` largest eigenvalues."""
    return lambda lam: (np.arange(lam.size) < int(k)) * 1.0


def _whiten_nogate(x, y, rows) -> tuple[np.ndarray, EigenPair]:
    """``Y^-1/2`` and the eigenpairs of ``Y^-1/2 X Y^-1/2``, no gate on ``y``."""
    pair = rows.memo("sym_eig", _eig_nogate, _as_array(y))
    POINT.require(pair.lam, "matrix is not positive definite")
    inv_sq = _root_pair(pair.q, pair.lam)[1]
    return inv_sq, _eig_nogate(inv_sq @ _as_array(x) @ inv_sq)


def _whitened_log(base, other, rows) -> np.ndarray:
    """``B^(-1/2) log(B^(-1/2) A B^(-1/2)) B^(-1/2)`` for ``base`` B, ``other`` A."""
    # Both arguments passed the evaluator's checks on the forward pass, so
    # nothing is gated here; a memo hands on the forward pass's whitening
    # of ``other`` by ``base``, or else its decomposition of ``base``.
    inv_sq, inner = rows.memo("whiten", partial(_whiten_nogate, rows=rows), other, base)
    frame = inv_sq @ inner.q
    return _sym((frame * np.log(inner.lam)) @ frame.T)


def vjp_logdet(g, out, wrt, x, *, rows=POINT):
    return (g * _spectral_grad(x, np.reciprocal, rows),)


def vjp_tr(g, out, wrt, x):
    return (g * np.eye(_as_array(x).shape[0]),)


def vjp_sum(g, out, wrt, x):
    return (np.full(_as_array(x).shape, float(g)),)


def vjp_sdivergence(g, out, wrt, x, y, *, rows=POINT):
    # d/dX [logdet((X+Y)/2) - logdet(X)/2 - logdet(Y)/2] = (X+Y)^-1 - X^-1 / 2
    xa, ya = _as_array(x), _as_array(y)
    mid = _spectral_grad(xa + ya, np.reciprocal, POINT)  # a fresh array, never shared
    return tuple(
        g * (mid - 0.5 * _spectral_grad(v, np.reciprocal, rows)) if need else None
        for v, need in zip((xa, ya), wrt)
    )


def vjp_distance(g, out, wrt, x, y, *, rows=POINT):
    # d delta / dX = -X^-1/2 log(X^-1/2 Y X^-1/2) X^-1/2 / delta, 0 at delta = 0;
    # delta is symmetric in its arguments, and so is the rule.
    if out == 0.0:
        zero = np.zeros(_as_array(x).shape)
        return (zero, zero)
    scale = -g / out
    return (
        scale * _whitened_log(x, y, rows) if wrt[0] else None,
        scale * _whitened_log(y, x, rows) if wrt[1] else None,
    )


def vjp_quad_form(g, out, wrt, h, x):
    h = np.asarray(h, dtype=float)
    return (g * np.outer(h, h),)


def vjp_eigmax(g, out, wrt, x, *, rows=POINT):
    return (g * _spectral_grad(x, _top(1), rows),)


def vjp_log_quad_form(g, out, wrt, hs, x):
    xa = _as_array(x)
    total = sum(float(h @ xa @ h) for h in hs)
    return ((g / total) * sum(np.outer(h, h) for h in hs),)


def vjp_eigsummax(g, out, wrt, x, k, *, rows=POINT):
    return (g * _spectral_grad(x, _top(k), rows),)


def vjp_schatten_norm(g, out, wrt, x, p, *, rows=POINT):
    p = float(p)
    return (g * _spectral_grad(x, lambda lam: out ** (1.0 - p) * lam ** (p - 1.0), rows),)


def vjp_sum_log_eigmax(g, out, wrt, x, k, *, rows=POINT):
    return (g * _spectral_grad(x, lambda lam: _top(k)(lam) / lam, rows),)


def vjp_sum_pow_log_eigmax(g, out, wrt, x, k, p, *, rows=POINT):
    p = float(p)

    def fprime(lam):
        logs = np.log(lam[: int(k)])
        d = np.zeros_like(lam)
        d[: int(k)] = p * logs ** (p - 1.0) / lam[: int(k)]
        return d

    return (g * _spectral_grad(x, fprime, rows),)


def vjp_conjugation(g, out, wrt, x, b):
    b = np.asarray(b, dtype=float)
    return (b @ _sym(g) @ b.T,)


def vjp_adjoint(g, out, wrt, x):
    return (np.asarray(g).T.copy(),)


def vjp_inv(g, out, wrt, x):
    return (-_sym(out @ g @ out),)


def vjp_hadamard_product(g, out, wrt, x, m):
    return (g * np.asarray(m, dtype=float),)


def vjp_diag_matrix(g, out, wrt, x):
    return (np.diag(np.diag(g)).copy(),)


def vjp_positive_affine(g, out, wrt, x, ys, b, r, *, rows=POINT):
    gs = _sym(g)
    pulled = sum(y @ gs @ y.T for y in ys)
    if int(r) == 1:
        return (pulled,)
    x_inv = _spectral_grad(x, np.reciprocal, rows)
    return (-_sym(x_inv @ pulled @ x_inv),)


def vjp_elementwise_norm1(g, out, wrt, x):
    return (g * np.sign(_as_array(x)),)


def vjp_exp(g, out, wrt, v):
    return (g * out,)


def vjp_log(g, out, wrt, v):
    return (g / float(v),)


def vjp_neg_log(g, out, wrt, v):
    return (-g / float(v),)


def vjp_pow(g, out, wrt, v, p):
    v, p = float(v), float(p)
    return (g * p * v ** (p - 1.0),)


def vjp_abs(g, out, wrt, v):
    return (g * float(np.sign(float(v))),)


# The vector-Jacobian products that take ``rows``, the policy their
# evaluator ran under, and read their forward residuals from it: every
# product that decomposes a matrix.
RESIDUAL_VJPS = _takes_rows("vjp_")
