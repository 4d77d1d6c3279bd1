"""Dense numerics on the manifold of symmetric positive definite matrices.

Every matrix function here goes through a single kernel, the real symmetric
eigendecomposition; there are no Schur or Pade code paths.  Every
symmetric eigendecomposition in geocert, here and in the oracle, the
solver and the expression layer, enters LAPACK through one place:
``_eigh`` and ``_eigvalsh`` call the gufuncs behind ``np.linalg.eigh`` and
``np.linalg.eigvalsh`` through ``_lapack``, under numpy's own error state
for them, so their results are numpy's bit for bit without numpy's
Python wrapper (several microseconds a call on the tiny matrices here).
They take float64 arrays only.  Every matrix argument passes one gate,
``_check_symmetric_square``: square, finite, no entry past ``_SYM_MAX``
(DBL_MAX / 2, beyond which symmetrizing can overflow) and symmetric within
``ASYM_RTOL``; it never warns.  Its common case, a matrix symmetric bit for
bit, is one byte comparison and one reduction, and such a matrix is its own
symmetrization.  ``_symmetrized`` alone reads the gate's answer: it keeps
such a matrix as it is and symmetrizes any other that passes as
``(M + M.T) / 2``, to absorb roundoff.  SPD validation is relative to the
largest eigenvalue with an absolute floor, a NaN eigenvalue fails it, and a
matrix that fails validation is rejected, never repaired.

``_pd_tol`` is the one definiteness tolerance: ``SPDMatrix``, the PD and
PSD claims on constants and the PSD gates of atom parameters all use it.
``POINT.pd_eig`` is the one gate of the spectral functions:
``matrix_sqrt``, ``matrix_log``, ``matrix_pow`` and ``matrix_inv``
decompose through it and rebuild with ``_congruence``; ``matrix_exp``
takes any symmetric matrix, so it has no gate.  ``_congruence`` is the one
spectral rebuild, ``sym(F diag(v) F^T)`` for an eigenbasis or a geodesic
frame ``F``, for one matrix or a stack: every spectral value and gradient,
geodesic point, random draw and line-search step goes through it, so a
stacked row gets a point's bits.  Only ``_inv_sqrt`` divides instead.

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
symbolic metadata and numeric semantics stay in separate layers.  Every
built-in evaluator is in ``STACKED``: it is written once for one point and
for a stack of points, and a keyword-only ``rows`` policy runs its gates,
decompositions and finishing steps.  A stack gets the bits each of its
points gets alone: the eigenvalue tails and the reductions run once over
the alive rows in each point's memory layout (``_rowwise``); ``exp``,
``log``, ``pow`` and the finishing log or root of ``neg_log``,
``log_quad_form`` and ``schatten_norm`` run once over the alive rows'
floats through libm, as Python takes one float (``_libm``), and ``abs``
is exact.
``POINT``, the default, decomposes afresh at every call; a ``Memo``
decomposes each input array of one evaluation once, and can be seeded
with a decomposition its caller already holds (the ``SPDMatrix`` a
variable is bound to); a ``Rows`` memoizes the same way over stacks, and
a domain test that fails kills the row instead of raising.  ``distance``
gates both of its arguments, the first through the policy's
``symmetric``.  Every vector-Jacobian product that decomposes a matrix is
in ``RESIDUAL_VJPS``: it takes the policy its evaluator ran under and
reads the forward pass's decompositions from it, so a gradient after an
evaluation decomposes only what that evaluation did not (a sum, a
whitening the other way round).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DomainError, RangeError, ShapeError

# Validation tolerances (relative unless noted).
ASYM_RTOL = 1e-12        # symmetry gate before symmetrization
PD_RTOL = 1e-10          # lambda_min must exceed PD_RTOL * lambda_max ...
PD_FLOOR = 1e-300        # ... with this absolute floor
RANK_RTOL = 1e-10        # sigma_min gate for full-rank parameter matrices


def _pd_tol(lam_max: float) -> float:
    """The definiteness tolerance: PD is ``lambda_min > tol``, PSD ``lambda_min >= -tol``."""
    return max(PD_RTOL * max(lam_max, 0.0), PD_FLOOR)


_FLOAT64 = np.dtype(np.float64)
# Past this magnitude the sum of two entries can overflow, so ``_sym`` of a
# finite matrix could hold an infinity: the gate rejects such a matrix.
_SYM_MAX = float(np.finfo(np.float64).max) / 2.0


def _as_array(m) -> np.ndarray:
    if type(m) is np.ndarray and m.dtype == _FLOAT64:
        return m
    if isinstance(m, SPDMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def _mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (of the matrix itself when 2-D)."""
    return a.T if a.ndim == 2 else np.swapaxes(a, -1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    # inlines _mT: this runs several times per atom evaluation
    return (a + (a.T if a.ndim == 2 else np.swapaxes(a, -1, -2))) / 2.0


def _check_symmetric_square(a: np.ndarray) -> bool:
    """The gate of a float64 matrix argument; True when ``_sym(a)`` is ``a`` bit for bit.

    Raises ``ShapeError`` unless ``a`` is square and symmetric within
    ``ASYM_RTOL`` relative, and ``DomainError`` for an entry that is not
    finite or is past ``_SYM_MAX``.  The common case, a matrix symmetric
    bit for bit (signed zeros included) with every ``|a_ij| <= _SYM_MAX``,
    is one byte comparison and one reduction, which a NaN fails; every
    other matrix takes the full checks and returns False.  No check warns.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"matrix must be square, got shape {a.shape}")
    if a.tobytes() == a.T.tobytes() and np.maximum.reduce(np.abs(a), None, initial=0.0) <= _SYM_MAX:
        return True
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    top = float(np.abs(a).max())
    if top > _SYM_MAX:
        raise DomainError(f"matrix has an entry past {_SYM_MAX:.6g}, where symmetrizing overflows")
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(a))
        if scale == math.inf:  # squares past the double range: measure at a power-of-two scale
            a = np.ldexp(a, -math.frexp(top)[1])
            scale = float(np.linalg.norm(a))
        if float(np.linalg.norm(a - a.T)) > ASYM_RTOL * max(scale, PD_FLOOR):
            raise ShapeError(f"matrix is not symmetric within {ASYM_RTOL:g} relative")
    return False


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """``a`` after the gate, as it is when symmetric bit for bit, else ``_sym(a)``."""
    return a if _check_symmetric_square(a) else _sym(a)


@dataclass(frozen=True)
class EigenPair:
    """Orthogonal eigenvectors ``q`` and eigenvalues ``lam`` sorted descending."""

    q: np.ndarray
    lam: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return _congruence(self.q, self.lam)


def sym_eig(m) -> EigenPair:
    """Eigendecomposition of a symmetric matrix, eigenvalues sorted descending.

    Raises ``ShapeError`` for non-square or non-symmetric input and
    ``DomainError`` for non-finite entries.
    """
    return _eig_symmetric(_symmetrized(_as_array(m)))


def _nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


# numpy's own error state of its eigensolvers: a LAPACK failure (NaN output,
# flagged invalid) raises LinAlgError, the other floating-point events are
# ignored.  Built once; each call enters it as ``np.errstate`` would.
_LAPACK_ERRSTATE = dict(call=_nonconvergence, invalid="call", over="ignore", divide="ignore",
                        under="ignore")
try:
    from numpy._core._ufunc_config import _extobj_contextvar, _make_extobj
except ImportError:  # numpy 1.x keeps the error state elsewhere
    def _lapack(gufunc, a: np.ndarray, signature: str):
        with np.errstate(**_LAPACK_ERRSTATE):
            return gufunc(a, signature=signature)
else:
    _LAPACK_EXTOBJ = _make_extobj(**_LAPACK_ERRSTATE)

    def _lapack(gufunc, a: np.ndarray, signature: str):
        token = _extobj_contextvar.set(_LAPACK_EXTOBJ)
        try:
            return gufunc(a, signature=signature)
        finally:
            _extobj_contextvar.reset(token)


def _stacked_square(a: np.ndarray) -> np.ndarray:
    """``a`` itself, after numpy's stacked-square check and a float64 check."""
    if a.ndim < 2:
        raise LinAlgError(f"{a.ndim}-dimensional array given. Array must be at least "
                          "two-dimensional")
    if a.shape[-2] != a.shape[-1]:
        raise LinAlgError("Last 2 dimensions of the array must be square")
    if a.dtype != _FLOAT64:
        raise TypeError(f"eigendecomposition takes float64 arrays, got {a.dtype}")
    return a


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` of a float64 array, bit for bit, without its wrapper."""
    return _lapack(_umath_linalg.eigh_lo, _stacked_square(a), "d->dd")


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(a)`` of a float64 array, bit for bit, without its wrapper."""
    return _lapack(_umath_linalg.eigvalsh_lo, _stacked_square(a), "d->d")


def _eig_nogate(a: np.ndarray) -> EigenPair:
    # For products of validated matrices whose asymmetry is our own roundoff;
    # the 1e-12 gate applies to inputs, not to internally derived quantities.
    # A stack (..., d, d) gives a pair of stacks.
    return _eig_symmetric(_sym(a))


def _eig_symmetric(a: np.ndarray) -> EigenPair:
    """The descending ``EigenPair`` of ``a`` as it is: ``a`` is symmetric bit for bit."""
    w, q = _eigh(a)
    lam = np.ascontiguousarray(w[..., ::-1])
    vec = np.ascontiguousarray(q[..., ::-1])
    return EigenPair(q=vec, lam=lam)


class SPDMatrix:
    """A dense symmetric matrix with a validated positive spectrum.

    Construction symmetrizes the input (after the asymmetry gate), runs one
    eigendecomposition, and rejects the matrix unless
    ``lambda_min > max(PD_RTOL * lambda_max, PD_FLOOR)``.  Instances are
    immutable; the eigendecomposition is cached for reuse by the matrix
    functions below.  A NaN eigenvalue fails the test.
    """

    __slots__ = ("_m", "_eig")

    def __init__(self, values):
        m = _symmetrized(np.array(_as_array(values), dtype=float, copy=True))
        pair = _eig_symmetric(m)
        lam_max = float(pair.lam[0])
        tol = _pd_tol(lam_max)
        if not float(pair.lam[-1]) > tol:
            raise DomainError(
                f"matrix is not positive definite: lambda_min={pair.lam[-1]:.6g}, "
                f"lambda_max={lam_max:.6g}, tolerance={tol:.6g}"
            )
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


def _congruence(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sym(F diag(v) F^T)``, also for a stack ``f`` ``(..., d, d)`` and ``v`` ``(..., d)``."""
    if f.ndim == 2:
        return _sym((f * v) @ f.T)
    return _sym((f * v[..., None, :]) @ _mT(f))


def matrix_sqrt(m) -> SPDMatrix:
    pair = POINT.pd_eig(m, "matrix_sqrt requires a positive spectrum")
    return SPDMatrix(_congruence(pair.q, np.sqrt(pair.lam)))


def matrix_log(m) -> np.ndarray:
    pair = POINT.pd_eig(m, "matrix_log requires a positive spectrum")
    return _congruence(pair.q, np.log(pair.lam))


def matrix_exp(m) -> SPDMatrix:
    pair = _eig_of(m)
    return SPDMatrix(_congruence(pair.q, np.exp(pair.lam)))


def matrix_pow(m, t: float) -> SPDMatrix:
    pair = POINT.pd_eig(m, "matrix_pow requires a positive spectrum")
    return SPDMatrix(_congruence(pair.q, pair.lam ** float(t)))


def matrix_inv(m) -> SPDMatrix:
    pair = POINT.pd_eig(m, "matrix_inv requires a positive spectrum")
    return SPDMatrix(_congruence(pair.q, 1.0 / pair.lam))


def _root_pair(pair: EigenPair) -> tuple[np.ndarray, np.ndarray]:
    """``Q diag(lam^(1/2)) Q^T`` and ``Q diag(lam^(-1/2)) Q^T``, also stacked."""
    return _congruence(pair.q, np.sqrt(pair.lam)), _inv_sqrt(pair)


def _inv_sqrt(pair: EigenPair) -> np.ndarray:
    """``Q diag(lam^(-1/2)) Q^T``, also stacked."""
    q = pair.q
    if q.ndim == 2:
        return _sym((q / np.sqrt(pair.lam)) @ q.T)
    return _sym((q / np.sqrt(pair.lam)[..., None, :]) @ _mT(q))


def _geodesic_inputs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """The arrays of two geodesic endpoints, or of two matrices ``loewner_geq``
    compares, after the shape and symmetry gates."""
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
    a_sq, a_inv_sq = _root_pair(EigenPair(q=pair.q, lam=np.where(ok[..., None], pair.lam, 1.0)))
    inner = _eig_nogate(a_inv_sq @ b @ a_inv_sq)
    ok &= ~(inner.lam[..., -1] <= 0.0)
    return a_sq @ inner.q, np.log(np.where(ok[..., None], inner.lam, 1.0)), ok


def _geodesic_points(frame: np.ndarray, logs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """``gamma(t)`` for every ``t`` of ``ts`` (shape ``(..., T)``), as ``(..., T, d, d)``."""
    return _congruence(frame[..., None, :, :], np.exp(ts[..., :, None] * logs[..., None, :]))


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
    when ``A == B``.  Both arguments pass the gates of ``geodesic``: square
    and of one shape, else ``ShapeError``; finite, else ``DomainError``;
    symmetric, else ``ShapeError``.
    """
    a_arr, b_arr = _geodesic_inputs(a, b)
    # The difference of two matrices symmetric bit for bit is one too.
    w = _eigvalsh(_sym(a_arr) - _sym(b_arr))
    spread = float(np.max(np.abs(w))) if w.size else 0.0
    return float(w[0]) >= -tol * spread


def _as_generator(rng_seed) -> np.random.Generator:
    if isinstance(rng_seed, np.random.Generator):
        return rng_seed
    return np.random.default_rng(rng_seed)


def _spd_draws(d: int, half: float, rng: np.random.Generator):
    """One random SPD matrix's draws, in order: normal ``(d, d)``, then uniform ``(d,)``
    log-spectrum on ``[-half, half]``, with ``half = log(cond_max) / 2``."""
    return rng.normal(size=(d, d)), rng.uniform(-half, half, size=d)


def _spd_from_draws(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Q diag(exp(u)) Q^T`` with ``Q`` the sign-fixed QR factor of ``g``.

    Stacked: ``g`` is ``(..., d, d)`` Gaussian, ``u`` the matching
    ``(..., d)`` uniform log-spectra; one stacked QR serves every matrix.
    """
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    return _congruence(q, np.exp(u))


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
    return SPDMatrix(_spd_from_draws(*_spd_draws(d, 0.5 * math.log(float(cond_max)), rng)))


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
    of ``x``, each rejected unless the descending spectrum is positive;
    ``inv_sqrt`` and ``whiten`` give the gated ``Y^-1/2`` and the
    eigenpairs of ``Y^-1/2 X Y^-1/2``; ``finite`` passes
    the input of an ungated decomposition; ``symmetric`` gates an argument
    as ``sym_eig`` does, but for an ``SPDMatrix``; ``reject`` fails where a
    domain test does; ``map`` finishes a value from its eigenvalues,
    ``scalar`` from a reduction, ``log``, ``exp`` and ``pow`` from one
    float as ``math.log``, ``math.exp`` and Python's ``**`` take it, an
    overflow failing as a gate does;
    ``memo`` computes what a memoizing policy would keep.  This is the hot
    path of the public checks, so nothing here builds a closure or a
    message unless a gate fails.
    """

    __slots__ = ()

    def memo(self, tag: str, compute, *arrays):
        return compute(*arrays)

    def finite(self, x: np.ndarray) -> np.ndarray:
        return x

    def symmetric(self, x) -> np.ndarray:
        a = _as_array(x)
        if not isinstance(x, SPDMatrix):
            _check_symmetric_square(a)
        return a

    def eigvalsh(self, x: np.ndarray) -> np.ndarray:
        return _eigvalsh(_sym(self.finite(x)))

    def pd_eigvals(self, x: np.ndarray, message: str) -> np.ndarray:
        lam = self.eigvalsh(x)[..., ::-1]
        self.reject(lam[..., -1] <= 0.0, message)
        return lam

    def pd_eig(self, x, message: str) -> EigenPair:
        pair = self.memo("sym_eig", _eig_of, x)
        self.reject(pair.lam[..., -1] <= 0.0, message)
        return pair

    def inv_sqrt(self, x) -> np.ndarray:
        return _inv_sqrt(self.pd_eig(x, "matrix is not positive definite"))

    def whiten(self, x, y) -> tuple[np.ndarray, EigenPair]:
        y_inv_sq = self.inv_sqrt(y)
        return y_inv_sq, _eig_nogate(self.finite(y_inv_sq @ x @ y_inv_sq))

    def reject(self, bad, message: str) -> None:
        """``DomainError(message)`` when ``bad``, the outcome of a domain test."""
        if bad:
            raise DomainError(message)

    def map(self, tail, lam: np.ndarray, *params) -> float:
        return float(tail(lam, *params))

    def scalar(self, v) -> float:
        return float(v)

    def log(self, v) -> float:
        return math.log(v)

    def exp(self, v) -> float:
        try:
            return math.exp(v)
        except OverflowError:
            raise DomainError("exp overflows the double range") from None

    def pow(self, v, p) -> float:
        return _pow(v, p)


POINT = _Point()


class Memo(_Point):
    """The row policy of one point that decomposes each input array once.

    One memo serves one evaluation and the backward pass over it.  Entries
    are keyed by the identity of their input arrays and a tag naming what
    was computed from them, so a hit hands on the bits a fresh computation
    from the same array would give.  An entry keeps its arrays alive, so no
    other array takes their ids while the memo lives.  ``seed`` records a
    decomposition the caller already holds.  Entries the backward pass adds
    are never read by a forward gate: every forward step of the evaluation
    comes first.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo = {}

    def memo(self, tag: str, compute, *arrays):
        key = (tag, *map(id, arrays))
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = (arrays, compute(*arrays))
        return entry[1]

    def seed(self, x: np.ndarray, pair: EigenPair) -> None:
        """Take ``pair`` as ``sym_eig(x)``, without running the gate again.

        The caller vouches that the gate passed on these bits of ``x`` and
        that ``pair`` is their decomposition, as ``SPDMatrix(x).eig`` is;
        a gate memoized as ``"symmetric"`` then passes ``x`` as it is.
        """
        self._memo[("symmetric", id(x))] = ((x,), x)
        self._memo[("sym_eig", id(x))] = ((x,), pair)

    def eigvalsh(self, x: np.ndarray) -> np.ndarray:
        return self.memo("eigvalsh", super().eigvalsh, x)

    def inv_sqrt(self, x: np.ndarray) -> np.ndarray:
        return self.memo("inv_sqrt", super().inv_sqrt, x)

    def whiten(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, EigenPair]:
        return self.memo("whiten", super().whiten, x, y)


class Rows(Memo):
    """The row policy of a stack: a row whose gate fails dies instead.

    Only the built-in evaluators (``STACKED``) run under it; a stacked walk
    meeting any other evaluator is undecided.  Matrix arguments are
    ``(n, d, d)`` stacks or one ``(d, d)`` constant shared by all rows,
    scalar arguments ``(n,)`` stacks or one float.
    Each decomposition is one stacked call (LAPACK and BLAS still run once
    per matrix, so the bits match), each tail one call over the alive
    rows, or one over a constant matrix's eigenvalues, and each scalar
    function one libm call over the alive rows' floats.  A row dies, leaving
    ``alive``, where its per-point evaluation would raise ``DomainError``,
    and is never computed further: kernels replace dead rows by the
    identity before any decomposition, so they cannot raise or feed NaN
    into ``eigh``.  A row that would raise anything else raises
    ``Undecided``, or the point's own ``ZeroDivisionError`` in ``pow``.
    Decompositions are memoized per input array as in
    ``Memo``, so every ``distance`` term of a tree decomposes its
    variable once; rows only ever die, so an entry stays valid for every
    later use.
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

    def reject(self, bad, message: str) -> None:
        self.kill(bad)

    def map(self, tail, lam: np.ndarray, *params) -> np.ndarray:
        """``tail`` over the eigenvalues of the alive rows, in one call.

        The alive rows are gathered so that each keeps its direction in
        memory (a descending view stays reversed), which ``_rowwise`` reads.
        The eigenvalues of one constant matrix (``lam`` 1-D) are every
        row's: the tail runs on them once, for every alive row.
        """
        out = np.zeros(len(self.alive))
        if lam.ndim == 1:
            if self.alive.any():
                out[self.alive] = tail(lam, *params)
            return out
        idx = np.flatnonzero(self.alive)
        out[idx] = tail(lam[:, ::-1][idx][:, ::-1] if lam.strides[-1] < 0 else lam[idx],
                        *params)
        return out

    def scalar(self, v):
        return v

    def log(self, v) -> np.ndarray:
        """``math.log`` of every alive row's float, in one ``np.log`` call."""
        return self._libm_alive(np.log, v)

    def exp(self, v) -> np.ndarray:
        """``POINT.exp`` of every alive row's float, in one ``np.exp`` call."""
        return self._libm_alive(np.exp, v)

    def pow(self, v, p) -> np.ndarray:
        """``_pow(v_i, p)`` of every alive row's float, in one ``np.power`` call.

        Each row gets its point's outcome: a negative base under a
        non-integer ``p``, or an overflow, kills the row; a zero base under
        a negative ``p`` raises ``ZeroDivisionError``, as Python's ``**`` does.
        """
        p = float(p)
        if not p.is_integer():
            self.kill(np.less(v, 0.0))
        if p < 0.0 and (self.alive & np.equal(v, 0.0)).any():
            raise ZeroDivisionError("0.0 cannot be raised to a negative power")
        return self._libm_alive(np.power, v, p)

    def _libm_alive(self, f, v, *params) -> np.ndarray:
        """``f(x, *params)`` of the float ``x`` of every alive row, 0.0 at every other row.

        ``v`` is an ``(n,)`` stack or one value for all rows.  One call runs
        over the alive rows' floats through libm (``_libm``), as Python
        takes one float; each parameter goes in as an array, since numpy
        takes a scalar exponent 2, 0.5 or -1 as ``square``, ``sqrt`` or
        ``reciprocal``, which libm's ``pow`` is not.  Underflow is quiet, as
        in Python; a finite float whose value overflows, where Python raises
        ``OverflowError``, kills its row and gets the dead row's 0.0.
        """
        idx = np.flatnonzero(self.alive)
        x = np.broadcast_to(v, self.alive.shape)[idx]
        with np.errstate(over="ignore", under="ignore"):
            values = _libm(f, x, *(np.full(len(x), a) for a in params))
        over = np.isinf(values) & np.isfinite(x)
        values[over] = 0.0
        self.alive[idx[over]] = False
        out = np.zeros(len(self.alive))
        out[idx] = values
        return out

    def symmetric(self, a: np.ndarray) -> np.ndarray:
        """``live(a)`` after the gate of ``sym_eig`` per row: a row with an entry
        that is not finite or is past ``_SYM_MAX`` dies, an asymmetric alive
        row is undecided."""
        if a.ndim == 2:
            try:
                _check_symmetric_square(a)
                return a
            except DomainError:
                self.kill(True)
                return np.eye(a.shape[0])
        self.kill(~(np.abs(a).max(axis=(-2, -1), initial=0.0) <= _SYM_MAX))
        a = self.live(a)
        for i in np.flatnonzero(self.alive & ~(a == _mT(a)).all(axis=(-2, -1))):
            try:
                _check_symmetric_square(a[i])
            except ShapeError:
                raise Undecided("asymmetric argument") from None
        return a


# ---------------------------------------------------------------------------
# Numeric atom evaluators.  All take and return raw ndarrays / floats, and
# all take ``rows=``, with which they return stacks.
# ---------------------------------------------------------------------------


# The tails below finish an evaluator from its eigenvalues over the last
# axis: ``lam`` is one point's spectrum or, from ``Rows.map``, the stacked
# spectra of the alive rows, and every row gets the bits it would get alone.
# numpy runs its elementwise ``log``, ``exp`` and ``power`` as a SIMD loop
# over a positive stride and as libm's function, element by element, over
# a reversed 1-D array, and the two differ in the last bit for some inputs;
# a point's descending eigenvalues are such a reversed view, and Python's
# ``math.log``, ``math.exp`` and ``**`` on one float are libm's.  ``_rowwise`` applies
# those functions to a stack as each row alone would get them, and
# ``_libm`` to a 1-D stack of floats as each float alone would.
# Reductions over the last axis run row by row in any layout:
# ``np.add.reduce`` sums each row pairwise (for an ndarray, np.sum(a) is
# np.add.reduce(a, None) behind a Python wrapper that costs more than the
# sum of a few eigenvalues) and ``_vecdot`` takes one BLAS ``ddot`` per row.

try:
    _vecdot = np.vecdot
except AttributeError:  # numpy 1.x: a (1, n) by (n, 1) matmul takes the same ddot
    def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _libm(f, x: np.ndarray, *args) -> np.ndarray:
    """``f(x, *args)`` over a 1-D ``x``, each element through libm, as from one Python float."""
    return f(x[::-1], *args)[::-1]


def _rowwise(f, lam: np.ndarray, *args) -> np.ndarray:
    """``f(lam, *args)`` for an elementwise ``f``, each row as ``f`` computes it alone.

    numpy flips a reversed axis of a stack into its SIMD loop, so a stack
    of reversed rows goes through ``f`` as one reversed 1-D array.  The
    result is contiguous in row order, as a point's is, so the next
    elementwise step runs as it would on each row alone.
    """
    if lam.ndim == 1 or lam.strides[-1] >= 0:
        return f(lam, *args)
    return np.ascontiguousarray(_libm(f, lam[:, ::-1].ravel(), *args).reshape(lam.shape)[:, ::-1])


def _logdet_tail(lam: np.ndarray) -> np.ndarray:
    return np.add.reduce(_rowwise(np.log, lam), -1)


def _distance_tail(lam: np.ndarray) -> np.ndarray:
    logs = _rowwise(np.log, lam)
    return np.sqrt(_vecdot(logs, logs))


def _eigmax_tail(lam: np.ndarray) -> np.ndarray:
    return lam[..., -1]


def _eigsummax_tail(lam: np.ndarray, k) -> np.ndarray:
    return np.add.reduce(lam[..., -int(k):], -1)


def _schatten_tail(lam: np.ndarray, p) -> np.ndarray:
    """The sum of the ``p``-th powers; ``eval_schatten_norm`` takes its root."""
    return np.add.reduce(_rowwise(operator.pow, lam, float(p)), -1)


def _sum_log_tail(lam: np.ndarray, k) -> np.ndarray:
    return np.add.reduce(_rowwise(np.log, lam[..., : int(k)]), -1)


def _sum_pow_log_tail(lam: np.ndarray, k, p) -> np.ndarray:
    return np.add.reduce(_rowwise(np.log, lam[..., : int(k)]) ** float(p), -1)


def eval_logdet(x, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "logdet requires a positive definite argument")
    return rows.map(_logdet_tail, lam)


def eval_tr(x, *, rows=POINT):
    return rows.scalar(np.add.reduce(np.diagonal(_as_array(x), 0, -2, -1), -1))


def eval_sum(x, *, rows=POINT):
    return rows.scalar(np.add.reduce(_as_array(x), (-2, -1)))


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
    rows.reject(w.lam[..., -1] <= 0.0, "distance requires positive definite arguments")
    return rows.map(_distance_tail, w.lam)


def _quad(h: np.ndarray, x: np.ndarray):
    """``h^T X h`` for ``X`` and every matrix of a stack, as ``h @ X @ h``: a gemv, then a ddot."""
    return _vecdot(h @ x, h)


def _quad_sum(hs, x: np.ndarray):
    """The sum of the quadratic forms of ``hs``, added left to right from 0.0."""
    total = 0.0
    for h in hs:
        total = total + _quad(h, x)
    return total


def eval_quad_form(h, x, *, rows=POINT):
    return rows.scalar(_quad(np.asarray(h, dtype=float), _as_array(x)))


def eval_eigmax(x, *, rows=POINT):
    return rows.map(_eigmax_tail, rows.eigvalsh(_as_array(x)))


def eval_log_quad_form(hs, x, *, rows=POINT):
    total = _quad_sum(hs, _as_array(x))
    rows.reject(total <= 0.0, "log_quad_form requires a positive quadratic form sum")
    return rows.log(total)


def eval_eigsummax(x, k, *, rows=POINT):
    return rows.map(_eigsummax_tail, rows.eigvalsh(_as_array(x)), k)


def eval_schatten_norm(x, p, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "schatten_norm requires a positive definite argument")
    return rows.pow(rows.map(_schatten_tail, lam, p), 1.0 / float(p))


def eval_sum_log_eigmax(x, k, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "sum_log_eigmax requires a positive definite argument")
    return rows.map(_sum_log_tail, lam, k)


def eval_sum_pow_log_eigmax(x, k, p, *, rows=POINT):
    lam = rows.pd_eigvals(_as_array(x), "sum_pow_log_eigmax requires a positive definite argument")
    # Some log of the k largest eigenvalues is negative exactly when the
    # k-th largest eigenvalue is below 1.
    rows.reject(not float(p).is_integer() and lam[..., int(k) - 1] < 1.0,
                "sum_pow_log_eigmax with non-integer p needs eigenvalues >= 1")
    return rows.map(_sum_pow_log_tail, lam, k, p)


# Conjugation, the adjoint, the Hadamard product and the diagonal gate
# nothing and broadcast over a stack as they are; they take ``rows`` only
# to be evaluated stacked.
def eval_conjugation(x, b, *, rows=POINT) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    return _sym(b.T @ _as_array(x) @ b)


def eval_adjoint(x, *, rows=POINT) -> np.ndarray:
    return _mT(_as_array(x)).copy()


def eval_inv(x, *, rows=POINT) -> np.ndarray:
    pair = rows.pd_eig(x, "inv requires a positive definite argument")
    return _congruence(pair.q, 1.0 / pair.lam)


def eval_hadamard_product(x, m, *, rows=POINT) -> np.ndarray:
    return _as_array(x) * np.asarray(m, dtype=float)


def eval_diag_matrix(x, *, rows=POINT) -> np.ndarray:
    xa = _as_array(x)
    out = np.zeros(xa.shape)
    i = np.arange(xa.shape[-1])
    out[..., i, i] = xa[..., i, i]
    return out


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


def eval_elementwise_norm1(x, *, rows=POINT):
    """Sum of absolute entries; Euclidean-convex but not geodesically convex."""
    return rows.scalar(np.add.reduce(np.abs(_as_array(x)), (-2, -1)))


elementwise_norm1 = eval_elementwise_norm1


def eval_exp(v, *, rows=POINT):
    return rows.exp(v)


def eval_log(v, *, rows=POINT):
    rows.reject(v <= 0.0, "log requires a positive argument")
    return rows.log(v)


def eval_neg_log(v, *, rows=POINT):
    return -eval_log(v, rows=rows)


def eval_pow(v, p, *, rows=POINT):
    return rows.pow(v, p)


def _pow(v, p) -> float:
    v, p = float(v), float(p)
    if v < 0.0 and not p.is_integer():
        raise DomainError("pow with non-integer exponent requires a nonnegative base")
    try:
        return float(v ** p)
    except OverflowError:
        raise DomainError("pow overflows the double range") from None


def eval_abs(v, *, rows=POINT):
    return rows.scalar(abs(v))


def _takes_rows(prefix: str) -> frozenset:
    # A set of functions, not of names, so an atom re-registered under a
    # built-in name with other functions never gets a policy.
    return frozenset(
        fn for name, fn in list(globals().items())
        if name.startswith(prefix) and "rows" in (fn.__kwdefaults__ or ())
    )


# The evaluators that take ``rows``: every built-in one.  An atom
# registered, or re-registered under a built-in name, with another
# evaluator is evaluated point by point, never by the built-in's code.
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
    return _congruence(pair.q, fprime(pair.lam))


def _top(k: int):
    """Derivative mask of a sum over the ``k`` largest eigenvalues."""
    return lambda lam: (np.arange(lam.size) < int(k)) * 1.0


def _whitened_log(base, other, rows) -> np.ndarray:
    """``B^(-1/2) log(B^(-1/2) A B^(-1/2)) B^(-1/2)`` for ``base`` B, ``other`` A."""
    # Both arguments passed the evaluator's gates on the forward pass, so
    # these pass again; a memo hands on the forward pass's whitening of
    # ``other`` by ``base``, or else its decomposition of ``base``.
    inv_sq, inner = rows.whiten(_as_array(other), _as_array(base))
    return _congruence(inv_sq @ inner.q, np.log(inner.lam))


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
    total = _quad_sum(hs, _as_array(x))
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
