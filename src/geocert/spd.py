"""Dense numerics on the manifold of symmetric positive definite matrices.

Every matrix function here goes through a single kernel, the real symmetric
eigendecomposition; there are no Schur or Pade code paths.  Matrices are
symmetrized as ``(M + M.T) / 2`` before decomposition to absorb roundoff,
but only after an explicit asymmetry gate has passed.  SPD validation is
relative to the largest eigenvalue with an absolute floor, and a matrix
that fails validation is rejected, never repaired.

The affine-invariant geometry implemented here:

* geodesic        ``gamma(t) = A^(1/2) (A^(-1/2) B A^(-1/2))^t A^(1/2)``
* geometric mean  ``A # B = gamma(1/2)``
* distance        ``||log(B^(-1/2) A B^(-1/2))||_F``

The module also carries the numeric evaluator (``eval_<name>``) and the
vector-Jacobian product (``vjp_<name>``) of every built-in atom so that
symbolic metadata and numeric semantics stay in separate layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, RangeError, ShapeError

# Validation tolerances (relative unless noted).
ASYM_RTOL = 1e-12        # symmetry gate before symmetrization
PD_RTOL = 1e-10          # lambda_min must exceed PD_RTOL * lambda_max ...
PD_FLOOR = 1e-300        # ... with this absolute floor
RANK_RTOL = 1e-10        # sigma_min gate for full-rank parameter matrices


def _as_array(m) -> np.ndarray:
    if isinstance(m, SPDMatrix):
        return m.entries
    return np.asarray(m, dtype=float)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _check_symmetric_square(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} has non-finite entries")
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
    w, q = np.linalg.eigh(_sym(a))
    lam = np.ascontiguousarray(w[::-1])
    vec = np.ascontiguousarray(q[:, ::-1])
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

    def __init__(self, values, pd_rtol: float = PD_RTOL):
        a = np.array(_as_array(values), dtype=float, copy=True)
        pair = sym_eig(a)
        lam_max = float(pair.lam[0])
        tol = max(pd_rtol * max(lam_max, 0.0), PD_FLOOR)
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
    return _sym((pair.q * vals) @ pair.q.T)


def matrix_function(m, kind: str, t: float | None = None):
    """Apply a spectral function to a symmetric matrix.

    ``kind`` is one of ``sqrt``, ``log``, ``exp_sym``, ``pow`` (requires
    ``t``) or ``inv``.  ``exp_sym`` accepts any symmetric matrix; the others
    require a positive spectrum and raise ``DomainError`` otherwise.  Results
    with guaranteed positive spectra come back as ``SPDMatrix``, the matrix
    logarithm as a plain symmetric array.
    """
    pair = _eig_of(m)
    lam = pair.lam
    if kind == "exp_sym":
        return SPDMatrix(_rebuild(pair, np.exp(lam)))
    if float(lam[-1]) <= 0.0:
        raise DomainError(f"matrix_function '{kind}' requires a positive spectrum")
    if kind == "sqrt":
        return SPDMatrix(_rebuild(pair, np.sqrt(lam)))
    if kind == "log":
        return _rebuild(pair, np.log(lam))
    if kind == "inv":
        return SPDMatrix(_rebuild(pair, 1.0 / lam))
    if kind == "pow":
        if t is None:
            raise RangeError("matrix_function 'pow' requires the exponent t")
        return SPDMatrix(_rebuild(pair, lam ** float(t)))
    raise RangeError(f"unknown matrix function kind '{kind}'")


def matrix_sqrt(m) -> SPDMatrix:
    return matrix_function(m, "sqrt")


def matrix_log(m) -> np.ndarray:
    return matrix_function(m, "log")


def matrix_exp(m) -> SPDMatrix:
    return matrix_function(m, "exp_sym")


def matrix_pow(m, t: float) -> SPDMatrix:
    return matrix_function(m, "pow", t=t)


def matrix_inv(m) -> SPDMatrix:
    return matrix_function(m, "inv")


def _half_powers(pair: EigenPair) -> tuple[np.ndarray, np.ndarray]:
    if float(pair.lam[-1]) <= 0.0:
        raise DomainError("matrix is not positive definite")
    root = np.sqrt(pair.lam)
    sq = _sym((pair.q * root) @ pair.q.T)
    inv_sq = _sym((pair.q / root) @ pair.q.T)
    return sq, inv_sq


def geodesic_path(a, b) -> Callable[[float], np.ndarray]:
    """Precompute the geodesic from ``a`` to ``b``.

    Returns a callable mapping ``t`` to the raw symmetric array ``gamma(t)``.
    The two eigendecompositions happen once, so sampling many points along
    one geodesic is cheap.
    """
    a_arr = _as_array(a)
    b_arr = _as_array(b)
    if a_arr.shape != b_arr.shape:
        raise ShapeError(f"dimension mismatch: {a_arr.shape} vs {b_arr.shape}")
    a_sq, a_inv_sq = _half_powers(_eig_of(a))
    inner = _eig_nogate(a_inv_sq @ b_arr @ a_inv_sq)
    if float(inner.lam[-1]) <= 0.0:
        raise DomainError("geodesic endpoint is not positive definite")
    frame = a_sq @ inner.q
    logs = np.log(inner.lam)

    def gamma(t: float) -> np.ndarray:
        return _sym((frame * np.exp(t * logs)) @ frame.T)

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
    _, b_inv_sq = _half_powers(_eig_of(b))
    w = _eig_nogate(b_inv_sq @ a_arr @ b_inv_sq)
    if float(w.lam[-1]) <= 0.0:
        raise DomainError("distance requires positive definite arguments")
    logs = np.log(w.lam)
    return float(math.sqrt(float(np.dot(logs, logs))))


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


def _random_spd_raw(d: int, cond_max: float, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    half = 0.5 * math.log(cond_max)
    lam = np.exp(rng.uniform(-half, half, size=d))
    return _sym((q * lam) @ q.T)


def random_spd(d: int, cond_max: float = 10.0, rng_seed=0) -> SPDMatrix:
    """Random SPD matrix ``Q diag(lam) Q^T`` with condition number <= ``cond_max``.

    ``Q`` comes from the QR factorization of a Gaussian matrix and
    ``log(lam)`` is uniform on ``[-log(cond_max)/2, +log(cond_max)/2]``.
    Deterministic for a fixed seed.
    """
    if d < 1:
        raise RangeError(f"dimension must be >= 1, got {d}")
    if cond_max < 1.0:
        raise RangeError(f"cond_max must be >= 1, got {cond_max}")
    rng = _as_generator(rng_seed)
    return SPDMatrix(_random_spd_raw(d, float(cond_max), rng))


# ---------------------------------------------------------------------------
# Numeric atom evaluators.  All take and return raw ndarrays / floats.
# ---------------------------------------------------------------------------


def _pd_eigvals(x: np.ndarray, what: str) -> np.ndarray:
    lam = np.linalg.eigvalsh(_sym(x))
    if float(lam[0]) <= 0.0:
        raise DomainError(f"{what} requires a positive definite argument")
    return lam[::-1]


def eval_logdet(x) -> float:
    lam = _pd_eigvals(_as_array(x), "logdet")
    return float(np.sum(np.log(lam)))


def eval_tr(x) -> float:
    return float(np.trace(_as_array(x)))


def eval_sum(x) -> float:
    return float(np.sum(_as_array(x)))


def eval_sdivergence(x, y) -> float:
    xa, ya = _as_array(x), _as_array(y)
    return eval_logdet((xa + ya) / 2.0) - 0.5 * (eval_logdet(xa) + eval_logdet(ya))


def eval_distance(x, y) -> float:
    return distance(x, y)


def eval_quad_form(h, x) -> float:
    h = np.asarray(h, dtype=float)
    return float(h @ _as_array(x) @ h)


def eval_eigmax(x) -> float:
    return float(np.linalg.eigvalsh(_sym(_as_array(x)))[-1])


def eval_log_quad_form(hs, x) -> float:
    xa = _as_array(x)
    total = sum(float(h @ xa @ h) for h in hs)
    if total <= 0.0:
        raise DomainError("log_quad_form requires a positive quadratic form sum")
    return float(math.log(total))


def eval_eigsummax(x, k) -> float:
    lam = np.linalg.eigvalsh(_sym(_as_array(x)))
    return float(np.sum(lam[-int(k):]))


def eval_schatten_norm(x, p) -> float:
    lam = _pd_eigvals(_as_array(x), "schatten_norm")
    return float(np.sum(lam ** float(p)) ** (1.0 / float(p)))


def eval_sum_log_eigmax(x, k) -> float:
    lam = _pd_eigvals(_as_array(x), "sum_log_eigmax")
    return float(np.sum(np.log(lam[: int(k)])))


def eval_sum_pow_log_eigmax(x, k, p) -> float:
    lam = _pd_eigvals(_as_array(x), "sum_pow_log_eigmax")
    logs = np.log(lam[: int(k)])
    p = float(p)
    if not p.is_integer() and np.any(logs < 0.0):
        raise DomainError("sum_pow_log_eigmax with non-integer p needs eigenvalues >= 1")
    return float(np.sum(logs ** p))


def eval_conjugation(x, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    return _sym(b.T @ _as_array(x) @ b)


def eval_adjoint(x) -> np.ndarray:
    return _as_array(x).T.copy()


def eval_inv(x) -> np.ndarray:
    pair = _eig_of(x)
    if float(pair.lam[-1]) <= 0.0:
        raise DomainError("inv requires a positive definite argument")
    return _rebuild(pair, 1.0 / pair.lam)


def eval_hadamard_product(x, m) -> np.ndarray:
    return _as_array(x) * np.asarray(m, dtype=float)


def eval_diag_matrix(x) -> np.ndarray:
    return np.diag(np.diag(_as_array(x))).copy()


def eval_positive_affine(x, ys, b, r) -> np.ndarray:
    xa = _as_array(x)
    xr = xa if int(r) == 1 else eval_inv(xa)
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


def _spectral_grad(x, fprime) -> np.ndarray:
    """``Q diag(f'(lam)) Q^T`` for the eigenvalues of ``x`` sorted descending."""
    pair = _eig_nogate(_as_array(x))
    return _rebuild(pair, fprime(pair.lam))


def _inv_nogate(x) -> np.ndarray:
    return _spectral_grad(x, lambda lam: 1.0 / lam)


def _top(k: int):
    """Derivative mask of a sum over the ``k`` largest eigenvalues."""
    return lambda lam: (np.arange(lam.size) < int(k)) * 1.0


def _whitened_log(base, other) -> np.ndarray:
    """``B^(-1/2) log(B^(-1/2) A B^(-1/2)) B^(-1/2)`` for ``base`` B, ``other`` A."""
    # both arguments passed the evaluator's checks on the forward pass
    _, inv_sq = _half_powers(_eig_nogate(_as_array(base)))
    inner = _eig_nogate(inv_sq @ _as_array(other) @ inv_sq)
    frame = inv_sq @ inner.q
    return _sym((frame * np.log(inner.lam)) @ frame.T)


def vjp_logdet(g, out, wrt, x):
    return (g * _inv_nogate(x),)


def vjp_tr(g, out, wrt, x):
    return (g * np.eye(_as_array(x).shape[0]),)


def vjp_sum(g, out, wrt, x):
    return (np.full(_as_array(x).shape, float(g)),)


def vjp_sdivergence(g, out, wrt, x, y):
    # d/dX [logdet((X+Y)/2) - logdet(X)/2 - logdet(Y)/2] = (X+Y)^-1 - X^-1 / 2
    xa, ya = _as_array(x), _as_array(y)
    mid = _inv_nogate(xa + ya)
    return tuple(
        g * (mid - 0.5 * _inv_nogate(v)) if need else None
        for v, need in zip((xa, ya), wrt)
    )


def vjp_distance(g, out, wrt, x, y):
    # d delta / dX = -X^-1/2 log(X^-1/2 Y X^-1/2) X^-1/2 / delta, 0 at delta = 0;
    # delta is symmetric in its arguments, and so is the rule.
    if out == 0.0:
        zero = np.zeros(_as_array(x).shape)
        return (zero, zero)
    scale = -g / out
    return (
        scale * _whitened_log(x, y) if wrt[0] else None,
        scale * _whitened_log(y, x) if wrt[1] else None,
    )


def vjp_quad_form(g, out, wrt, h, x):
    h = np.asarray(h, dtype=float)
    return (g * np.outer(h, h),)


def vjp_eigmax(g, out, wrt, x):
    return (g * _spectral_grad(x, _top(1)),)


def vjp_log_quad_form(g, out, wrt, hs, x):
    xa = _as_array(x)
    total = sum(float(h @ xa @ h) for h in hs)
    return ((g / total) * sum(np.outer(h, h) for h in hs),)


def vjp_eigsummax(g, out, wrt, x, k):
    return (g * _spectral_grad(x, _top(k)),)


def vjp_schatten_norm(g, out, wrt, x, p):
    p = float(p)
    return (g * _spectral_grad(x, lambda lam: out ** (1.0 - p) * lam ** (p - 1.0)),)


def vjp_sum_log_eigmax(g, out, wrt, x, k):
    return (g * _spectral_grad(x, lambda lam: _top(k)(lam) / lam),)


def vjp_sum_pow_log_eigmax(g, out, wrt, x, k, p):
    p = float(p)

    def fprime(lam):
        logs = np.log(lam[: int(k)])
        d = np.zeros_like(lam)
        d[: int(k)] = p * logs ** (p - 1.0) / lam[: int(k)]
        return d

    return (g * _spectral_grad(x, fprime),)


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


def vjp_positive_affine(g, out, wrt, x, ys, b, r):
    gs = _sym(g)
    pulled = sum(y @ gs @ y.T for y in ys)
    if int(r) == 1:
        return (pulled,)
    x_inv = _inv_nogate(x)
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
