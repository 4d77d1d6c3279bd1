"""The built-in atom catalog.

Importing this module populates the registry with every built-in atom:
scalar functions of an SPD matrix, matrix-valued positive maps (curvature in
the Loewner-order sense), and scalar outer functions used for composition
with scalar subexpressions.  Monotonicity refers to the Loewner partial
order and is metric-independent.

Two divergence-flavored entries carry ``GAnyMono`` because they are not
Loewner-monotone: at d=1 the map x -> logdet((x+y)/2) - (log x + log y)/2
decreases for x < y, and ``(log lam)^p`` dips below lam = 1.
``positive_affine`` refines its monotonicity and Euclidean curvature by the
sign of the exponent ``r``.

Each catalog row pairs a signature with the atom's evaluator and its
vector-Jacobian product, both from ``spd``.  A row without a ``validate``
gets ``apply_atom``'s default result: a scalar, or a matrix of its
argument's dimension.  The scalar outer functions are the atoms without a
``MANIFOLD`` position; ``analysis`` composes every such atom through its
Euclidean curvature, so no list of their names is kept here.

The tables of ``analysis``'s atom-specific rules below are keyed by the
function the catalog registers, looked up by identity (``spd._holds``):
a rule follows the evaluator a node bound under any id, not the name.
"""

from __future__ import annotations

import numpy as np

from . import spd
from .errors import DomainError, ExpressionError
from .expr import (
    ArgKind,
    AtomSignature,
    Definiteness,
    ECurvature,
    GCurvature,
    GMonotonicity,
    Sign,
    _verify_definiteness,
    register_atom,
)

# Atoms that invert their argument, which ``analysis`` composes by
# ``compose_inverse`` instead of their metadata.
INVERSE_ATOMS = frozenset({spd.eval_inv})
# Outer atoms whose domain requires a provably nonnegative argument.
POSITIVE_DOMAIN_ATOMS = frozenset({spd.eval_log, spd.eval_neg_log, spd.eval_pow})
# Of those, the powers t^p (p their first parameter): Positive only over a
# nonnegative t or for an even integer p, which composes without a sign.
POWER_ATOMS = frozenset({spd.eval_pow})


def _even_exponent(p) -> bool:
    """Whether p is an even integer, so that t^p is nonnegative and convex on all of R."""
    return float(p) % 2.0 == 0.0


def _full_column_rank(b: np.ndarray, what: str):
    if not b.shape[1]:
        raise ExpressionError(f"{what} must have at least one column")
    if b.shape[0] < b.shape[1]:
        raise ExpressionError(f"{what} must have at least as many rows as columns")
    s = np.linalg.svd(b, compute_uv=False)
    if s[-1] <= spd.RANK_RTOL * max(s[0], spd.PD_FLOOR):
        raise ExpressionError(f"{what} is numerically rank deficient")


def _require_psd(m: np.ndarray, what: str):
    """The gate of a square parameter matrix that must be symmetric PSD, as a PSD claim is."""
    try:
        _verify_definiteness(m, Definiteness.PSD)
    except DomainError:
        raise ExpressionError(f"{what} must be positive semidefinite") from None
    except ExpressionError:
        raise ExpressionError(f"{what} must be symmetric") from None


def _require_vectors(name: str, hs, d: int, nonzero: str):
    for h in hs:
        if h.shape[0] != d:
            raise ExpressionError(f"{name} vector has length {h.shape[0]}, expected {d}")
        if not np.any(h):
            raise ExpressionError(f"{name} requires {nonzero}")


def _require_top_k(k, d: int):
    if not 1 <= k <= d:
        raise ExpressionError(f"k={k} outside 1..{d}")


def _require_p(name: str, p):
    if p < 1.0:
        raise ExpressionError(f"{name} requires p >= 1, got {p}")


def _validate_quad_form(arg_dims, params):
    _require_vectors("quad_form", params, arg_dims[0], "a nonzero vector")


def _validate_log_quad_form(arg_dims, params):
    _require_vectors("log_quad_form", params[0], arg_dims[0], "nonzero vectors")


def _validate_top_k(arg_dims, params):
    _require_top_k(params[0], arg_dims[0])


def _validate_sum_pow_log(arg_dims, params):
    k, p = params
    _require_top_k(k, arg_dims[0])
    _require_p("sum_pow_log_eigmax", p)


def _validate_p(name: str):
    """The validator of an atom whose one parameter is ``p >= 1``."""
    return lambda arg_dims, params: _require_p(name, params[0])


def _refine_sum_log(params, arg_dims):
    # With the full spectrum the sum of log eigenvalues is the log
    # determinant, which is geodesically linear.
    if arg_dims and params[0] == arg_dims[0]:
        return {"gcurv": GCurvature.LINEAR}
    return {}


def _refine_sum_pow_log(params, arg_dims):
    # Convexity of sum_{i<=k} (log lam_i)^p holds for the full spectrum with a
    # globally convex power (log-majorization with equal totals); a partial sum
    # needs a nondecreasing power, which t^p is not on the whole line.  A
    # random 2x2 pair with k=1, p=2 violates midpoint convexity outright.
    k = params[0]
    p = float(params[1])
    convex_power = p == 1.0 or _even_exponent(p)
    if convex_power and arg_dims and k == arg_dims[0]:
        return {}
    return {"gcurv": GCurvature.UNKNOWN}


def _validate_conjugation(arg_dims, params):
    (b,) = params
    if b.shape[0] != arg_dims[0]:
        raise ExpressionError(
            f"conjugation matrix has {b.shape[0]} rows, expected {arg_dims[0]}"
        )
    _full_column_rank(b, "conjugation matrix")
    return b.shape[1]


def _validate_hadamard(arg_dims, params):
    (m,) = params
    d = arg_dims[0]
    if m.shape != (d, d):
        raise ExpressionError(f"hadamard_product mask has shape {m.shape}, expected {(d, d)}")
    _require_psd(m, "hadamard_product mask")
    if np.any(np.diag(m) <= 0.0):
        raise ExpressionError("hadamard_product mask needs a strictly positive diagonal")
    return d


def _validate_positive_affine(arg_dims, params):
    ys, b, r = params
    d = arg_dims[0]
    if r not in (-1, 1):
        raise ExpressionError(f"positive_affine exponent r must be -1 or +1, got {r}")
    cols = {y.shape[1] for y in ys}
    if len(cols) != 1 or any(y.shape[0] != d for y in ys):
        raise ExpressionError(f"positive_affine maps must all be {d} x m")
    m = cols.pop()
    _full_column_rank(np.vstack(ys), "stacked positive_affine maps")
    if b is not None:
        bb = np.asarray(b, dtype=float)
        if bb.shape != (m, m):
            raise ExpressionError(f"positive_affine offset has shape {bb.shape}, expected {(m, m)}")
        _require_psd(bb, "positive_affine offset")
    return m


def _refine_positive_affine(params, arg_dims):
    _, _, r = params
    if r == 1:
        return {}
    return {"gmono": GMonotonicity.DECREASING, "ecurv": ECurvature.UNKNOWN}


_M = ArgKind.MANIFOLD
_S = ArgKind.SCALAR

_CATALOG = [
    # Scalar-valued atoms of SPD arguments; logdet is negative below I.
    (AtomSignature("logdet", (_M,), "scalar", Sign.ANY, GCurvature.LINEAR,
                   GMonotonicity.INCREASING, ECurvature.CONCAVE),
     spd.eval_logdet, spd.vjp_logdet),
    (AtomSignature("tr", (_M,), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.INCREASING, ECurvature.AFFINE),
     spd.eval_tr, spd.vjp_tr),
    (AtomSignature("sum", (_M,), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.INCREASING, ECurvature.AFFINE),
     spd.eval_sum, spd.vjp_sum),
    (AtomSignature("sdivergence", (_M, _M), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.ANY, ECurvature.UNKNOWN),
     spd.eval_sdivergence, spd.vjp_sdivergence),
    (AtomSignature("distance", (_M, _M), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.ANY, ECurvature.UNKNOWN),
     spd.eval_distance, spd.vjp_distance),
    (AtomSignature("quad_form", (ArgKind.PARAM_VECTOR, _M), "scalar", Sign.POSITIVE,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.AFFINE,
                   _validate_quad_form),
     spd.eval_quad_form, spd.vjp_quad_form),
    (AtomSignature("eigmax", (_M,), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.INCREASING, ECurvature.CONVEX),
     spd.eval_eigmax, spd.vjp_eigmax),
    (AtomSignature("log_quad_form", (ArgKind.PARAM_VECTORS, _M), "scalar", Sign.ANY,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.UNKNOWN,
                   _validate_log_quad_form),
     spd.eval_log_quad_form, spd.vjp_log_quad_form),
    (AtomSignature("eigsummax", (_M, ArgKind.PARAM_INT), "scalar", Sign.POSITIVE,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.CONVEX,
                   _validate_top_k),
     spd.eval_eigsummax, spd.vjp_eigsummax),
    (AtomSignature("schatten_norm", (_M, ArgKind.PARAM_SCALAR), "scalar", Sign.POSITIVE,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.CONVEX,
                   _validate_p("schatten_norm")),
     spd.eval_schatten_norm, spd.vjp_schatten_norm),
    (AtomSignature("sum_log_eigmax", (_M, ArgKind.PARAM_INT), "scalar", Sign.ANY,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.UNKNOWN,
                   _validate_top_k, _refine_sum_log),
     spd.eval_sum_log_eigmax, spd.vjp_sum_log_eigmax),
    (AtomSignature("sum_pow_log_eigmax", (_M, ArgKind.PARAM_INT, ArgKind.PARAM_SCALAR),
                   "scalar", Sign.ANY, GCurvature.CONVEX, GMonotonicity.ANY,
                   ECurvature.UNKNOWN, _validate_sum_pow_log, _refine_sum_pow_log),
     spd.eval_sum_pow_log_eigmax, spd.vjp_sum_pow_log_eigmax),
    # Matrix-valued atoms (Loewner-order curvature).
    (AtomSignature("conjugation", (_M, ArgKind.PARAM_MATRIX), "matrix", Sign.POSITIVE,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.AFFINE,
                   _validate_conjugation),
     spd.eval_conjugation, spd.vjp_conjugation),
    (AtomSignature("adjoint", (_M,), "matrix", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.INCREASING, ECurvature.AFFINE),
     spd.eval_adjoint, spd.vjp_adjoint),
    (AtomSignature("inv", (_M,), "matrix", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.DECREASING, ECurvature.CONVEX),
     spd.eval_inv, spd.vjp_inv),
    (AtomSignature("hadamard_product", (_M, ArgKind.PARAM_MATRIX), "matrix", Sign.POSITIVE,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.AFFINE,
                   _validate_hadamard),
     spd.eval_hadamard_product, spd.vjp_hadamard_product),
    (AtomSignature("diag_matrix", (_M,), "matrix", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.INCREASING, ECurvature.AFFINE),
     spd.eval_diag_matrix, spd.vjp_diag_matrix),
    (AtomSignature("positive_affine",
                   (_M, ArgKind.PARAM_MATRICES, ArgKind.PARAM_MATRIX, ArgKind.PARAM_INT),
                   "matrix", Sign.POSITIVE, GCurvature.CONVEX, GMonotonicity.INCREASING,
                   ECurvature.AFFINE, _validate_positive_affine, _refine_positive_affine),
     spd.eval_positive_affine, spd.vjp_positive_affine),
    # The canonical Euclidean-only example; honestly registered as GUnknown so
    # its geodesic behavior can only come from the fuzzer, never a certificate.
    (AtomSignature("elementwise_norm1", (_M,), "scalar", Sign.POSITIVE, GCurvature.UNKNOWN,
                   GMonotonicity.ANY, ECurvature.CONVEX),
     spd.eval_elementwise_norm1, spd.vjp_elementwise_norm1),
    # Scalar outer functions.
    (AtomSignature("exp", (_S,), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.INCREASING, ECurvature.CONVEX),
     spd.eval_exp, spd.vjp_exp),
    (AtomSignature("log", (_S,), "scalar", Sign.ANY, GCurvature.CONCAVE,
                   GMonotonicity.INCREASING, ECurvature.CONCAVE),
     spd.eval_log, spd.vjp_log),
    (AtomSignature("neg_log", (_S,), "scalar", Sign.ANY, GCurvature.CONVEX,
                   GMonotonicity.DECREASING, ECurvature.CONVEX),
     spd.eval_neg_log, spd.vjp_neg_log),
    (AtomSignature("pow", (_S, ArgKind.PARAM_SCALAR), "scalar", Sign.POSITIVE,
                   GCurvature.CONVEX, GMonotonicity.INCREASING, ECurvature.CONVEX,
                   _validate_p("pow")),
     spd.eval_pow, spd.vjp_pow),
    (AtomSignature("abs", (_S,), "scalar", Sign.POSITIVE, GCurvature.CONVEX,
                   GMonotonicity.ANY, ECurvature.CONVEX),
     spd.eval_abs, spd.vjp_abs),
]

CATALOG_IDS = tuple(sig.id for sig, _, _ in _CATALOG)
# SPD-domain atoms covered by the randomized soundness suite.
SPD_ATOM_IDS = tuple(
    sig.id for sig, _, _ in _CATALOG
    if sig.positions and sig.positions[0] is ArgKind.MANIFOLD
)

for _sig, _fn, _vjp in _CATALOG:
    register_atom(_sig, _fn, _vjp)
