"""Riemannian gradient descent on the SPD manifold, plus problem constructors.

The metric is the affine-invariant one, ``<U, V>_X = tr(X^-1 U X^-1 V)``.
A Euclidean gradient ``G`` converts to the Riemannian gradient
``X sym(G) X``; steps follow exact geodesics through the exponential map

    X_next = X^(1/2) exp(-alpha X^(-1/2) xi X^(-1/2)) X^(1/2)

with Armijo backtracking (factor 0.5, sufficient decrease 1e-4), which keeps
the objective trajectory nonincreasing and every iterate positive definite
by construction.

Objectives built from an expression take their Euclidean gradient from one
reverse-mode pass through it (``expr.value_and_grad``).  Objectives without
a gradient fall back to central finite differences over the symmetric
basis; results are flagged when the fallback was used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import spd
from .errors import DomainError, ExpressionError, RangeError, StagnationError
from .expr import (
    Add,
    Definiteness,
    Expression,
    SPD,
    VariableScope,
    apply_atom,
    differentiable,
    evaluate,
    make_const_matrix,
    value_and_grad,
)


@dataclass
class Objective:
    """A numeric objective over one SPD variable, optionally with its expression."""

    evaluator: Callable[[np.ndarray], float]
    euclidean_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    expression: Expression | None = None
    name: str = ""

    @property
    def has_analytic_gradient(self) -> bool:
        return self.euclidean_gradient is not None

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.euclidean_gradient is not None:
            return self.euclidean_gradient(x)
        return finite_difference_gradient(self.evaluator, x)


@dataclass
class SolveResult:
    minimizer: spd.SPDMatrix
    value: float
    grad_norm: float
    iterations: int
    converged: bool
    trajectory: tuple[float, ...] = field(default_factory=tuple)
    used_fd_gradient: bool = False

    def to_dict(self):
        return {
            "minimizer": self.minimizer.entries.tolist(),
            "value": self.value,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "trajectory": list(self.trajectory),
            "used_fd_gradient": self.used_fd_gradient,
        }


def finite_difference_gradient(fn, x: np.ndarray, h_scale: float = 1e-6) -> np.ndarray:
    """Central-difference Euclidean gradient over the symmetric basis."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = h_scale * max(1.0, float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(d):
        for j in range(i, d):
            delta = np.zeros_like(x)
            if i == j:
                delta[i, i] = 1.0
            else:
                delta[i, j] = delta[j, i] = 0.5
            g[i, j] = g[j, i] = (fn(x + h * delta) - fn(x - h * delta)) / (2.0 * h)
    return g


def fd_directional(fn, x: np.ndarray, direction: np.ndarray, h: float) -> float:
    """Central finite difference of ``fn`` at ``x`` along a symmetric direction."""
    return (fn(x + h * direction) - fn(x - h * direction)) / (2.0 * h)


def riemannian_grad(obj: Objective, x) -> np.ndarray:
    """Riemannian gradient ``X sym(G) X`` under the affine-invariant metric."""
    xa = spd._as_array(x)
    g = spd._sym(np.asarray(obj.gradient(xa), dtype=float))
    if not np.all(np.isfinite(g)):
        raise DomainError("Euclidean gradient has non-finite entries")
    return spd._sym(xa @ g @ xa)


def riemannian_grad_norm(x, xi) -> float:
    """Metric norm ``sqrt(tr(X^-1 xi X^-1 xi))`` of a tangent vector."""
    _, inv_sq = spd._half_powers(spd._eig_of(x))
    c = inv_sq @ np.asarray(xi, dtype=float) @ inv_sq
    return float(np.linalg.norm(spd._sym(c)))


def gradient_descent(
    obj: Objective,
    x0,
    max_iter: int = 500,
    grad_tol: float = 1e-8,
    initial_step: float = 1.0,
    backtrack: float = 0.5,
    sufficient_decrease: float = 1e-4,
    max_halvings: int = 60,
) -> SolveResult:
    """Minimize ``obj`` from ``x0`` by geodesic gradient descent.

    Stops when the Riemannian gradient norm drops below ``grad_tol`` or after
    ``max_iter`` accepted steps.  A line search that exhausts
    ``max_halvings`` halvings raises ``StagnationError`` carrying the partial
    result.
    """
    x = np.array(spd._as_array(x0), dtype=float, copy=True)
    point = spd.SPDMatrix(x)  # validates the start; its eig serves the first step
    f0 = float(obj.evaluator(x))
    if not math.isfinite(f0):
        raise DomainError("objective is not finite at the starting point")
    used_fd = not obj.has_analytic_gradient
    trajectory = [f0]
    gnorm = math.inf
    iterations = 0
    converged = False
    for _ in range(max_iter):
        x_sq, x_inv_sq = spd._half_powers(point.eig)
        xi = riemannian_grad(obj, x)
        c = spd._sym(x_inv_sq @ xi @ x_inv_sq)
        gnorm = float(np.linalg.norm(c))
        if gnorm <= grad_tol:
            converged = True
            break
        # One decomposition of the scaled direction serves every step size.
        cq_pair = np.linalg.eigh(c)
        mu, u = cq_pair
        frame = x_sq @ u
        alpha = initial_step
        accepted = False
        # Below this, the Armijo decrease is smaller than evaluator roundoff;
        # any strict decrease is then accepted so terminal iterations can
        # still drive the gradient norm under tight tolerances.
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(f0))
        for _halving in range(max_halvings + 1):
            candidate = spd._sym((frame * np.exp(-alpha * mu)) @ frame.T)
            # A candidate past the PD tolerance counts as an infinite value;
            # an accepted one carries the decomposition of the next step.
            try:
                trial = spd.SPDMatrix(candidate)
                fc = float(obj.evaluator(candidate))
            except DomainError:
                fc = math.inf
            expected = alpha * gnorm * gnorm
            if math.isfinite(fc) and fc < f0 and (
                fc <= f0 - sufficient_decrease * expected or expected <= noise
            ):
                accepted = True
                break
            alpha *= backtrack
        if not accepted:
            partial = SolveResult(
                minimizer=point,
                value=f0,
                grad_norm=gnorm,
                iterations=iterations,
                converged=False,
                trajectory=tuple(trajectory),
                used_fd_gradient=used_fd,
            )
            raise StagnationError(
                f"line search made no progress after {max_halvings} halvings", partial=partial
            )
        x = candidate
        point = trial
        f0 = fc
        trajectory.append(f0)
        iterations += 1
    else:
        # max_iter exhausted; recompute the gradient norm at the final point.
        xi = riemannian_grad(obj, x)
        gnorm = riemannian_grad_norm(point, xi)
        converged = gnorm <= grad_tol
    return SolveResult(
        minimizer=point,
        value=f0,
        grad_norm=gnorm,
        iterations=iterations,
        converged=converged,
        trajectory=tuple(trajectory),
        used_fd_gradient=used_fd,
    )


# ---------------------------------------------------------------------------
# Problem constructors
# ---------------------------------------------------------------------------


def _expression_objective(expr: Expression, var: str, name: str,
                          evaluate: Callable = evaluate) -> Objective:
    """An objective that evaluates ``expr`` in its one variable ``var``.

    Its gradient comes from one reverse-mode pass through ``expr``, or from
    finite differences when some atom has no vector-Jacobian product.
    ``geocert solve`` passes the ``evaluate`` of its own module, so a
    wrapper installed there (the benchmark's per-layer tracer) sees every
    evaluation of the solve.
    """

    def evaluator(x):
        return evaluate(expr, {var: x})

    def gradient(x):
        return value_and_grad(expr, {var: x})[1][var]

    return Objective(evaluator, gradient if differentiable(expr) else None, expr, name=name)


def make_matrix_sqrt_problem(a) -> Objective:
    """Divergence objective whose minimizer is the square root of ``a``.

    phi(X) = sdiv(X, A) + sdiv(X, I) with Euclidean gradient
    (X+A)^-1 + (X+I)^-1 - X^-1.
    """
    a_mat = a if isinstance(a, spd.SPDMatrix) else spd.SPDMatrix(a)
    d = a_mat.dim
    scope = VariableScope()
    x_var = scope.declare("X", SPD(d))
    expr = Add((
        apply_atom("sdivergence", [x_var, make_const_matrix(a_mat.entries, Definiteness.PD, name="A")]),
        apply_atom("sdivergence", [x_var, make_const_matrix(np.eye(d), Definiteness.PD, name="I")]),
    ))
    return _expression_objective(expr, "X", "matrix_sqrt")


def make_karcher_problem(mats, weights) -> Objective:
    """Weighted sum of squared affine-invariant distances to the anchors."""
    anchors = [m if isinstance(m, spd.SPDMatrix) else spd.SPDMatrix(m) for m in mats]
    if not anchors:
        raise RangeError("karcher problem needs at least one anchor")
    ws = np.asarray(weights, dtype=float)
    if ws.shape != (len(anchors),) or np.any(ws < 0.0):
        raise RangeError("weights must be nonnegative, one per anchor")
    if abs(float(ws.sum()) - 1.0) > 1e-12:
        raise RangeError("weights must sum to 1")
    d = anchors[0].dim
    if any(m.dim != d for m in anchors):
        raise ExpressionError("anchors must share one dimension")
    scope = VariableScope()
    x_var = scope.declare("X", SPD(d))
    terms = [
        apply_atom("pow", [
            apply_atom("distance", [make_const_matrix(m.entries, Definiteness.PD, name=f"A{i+1}"), x_var]),
            2,
        ])
        for i, m in enumerate(anchors)
    ]
    expr = Add(tuple(terms), tuple(float(w) for w in ws))
    return _expression_objective(expr, "X", "karcher")


def make_brascamp_lieb_problem(maps, weights) -> Objective:
    """Log-determinant objective for computing a Brascamp-Lieb constant."""
    mats = [np.asarray(m, dtype=float) for m in maps]
    if not mats:
        raise RangeError("brascamp-lieb problem needs at least one map")
    ws = np.asarray(weights, dtype=float)
    if ws.shape != (len(mats),):
        raise RangeError("one weight per map required")
    d = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape[0] != d:
            raise ExpressionError(f"maps must have {d} rows")
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= spd.RANK_RTOL * max(s[0], spd.PD_FLOOR):
            raise ExpressionError("rank-deficient map")
    scope = VariableScope()
    x_var = scope.declare("X", SPD(d))
    terms = [
        apply_atom("logdet", [apply_atom("conjugation", [x_var, make_const_matrix(m, name=f"A{i+1}")])])
        for i, m in enumerate(mats)
    ]
    terms.append(apply_atom("logdet", [x_var]))
    expr = Add(tuple(terms), tuple(float(w) for w in ws) + (-1.0,))
    return _expression_objective(expr, "X", "brascamp_lieb")


def make_tyler_problem(samples) -> Objective:
    """Negative log-likelihood of the heavy-tailed scatter estimator.

    (1/n) sum_i log(x_i^T S^-1 x_i) + (1/d) logdet(S); exactly invariant
    under S -> cS.
    """
    xs = [np.asarray(v, dtype=float).ravel() for v in samples]
    if not xs:
        raise RangeError("tyler problem needs samples")
    d = xs[0].shape[0]
    n = len(xs)
    if n < d:
        raise RangeError(f"need at least d={d} samples, got {n}")
    for v in xs:
        if v.shape != (d,):
            raise ExpressionError("samples must share one length")
        if not np.any(v):
            raise ExpressionError("zero sample vector")
    scope = VariableScope()
    s_var = scope.declare("Sigma", SPD(d))
    inv_s = apply_atom("inv", [s_var])  # shared by every term, evaluated once
    terms = [apply_atom("log_quad_form", [v, inv_s]) for v in xs]
    terms.append(apply_atom("logdet", [s_var]))
    expr = Add(tuple(terms), (1.0 / n,) * n + (1.0 / d,))
    return _expression_objective(expr, "Sigma", "tyler")
