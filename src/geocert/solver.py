"""Riemannian gradient descent on the SPD manifold, plus problem constructors.

The metric is the affine-invariant one, ``<U, V>_X = tr(X^-1 U X^-1 V)``.
A Euclidean gradient ``G`` converts to the Riemannian gradient
``X sym(G) X``; steps follow exact geodesics through the exponential map

    X_next = X^(1/2) exp(-alpha X^(-1/2) xi X^(-1/2)) X^(1/2)

with Armijo backtracking (factor 0.5, sufficient decrease 1e-4), which keeps
every iterate positive definite by construction.

The first trial step is a Barzilai-Borwein one (BB1, after Iannazzo and
Porcelli, IMA J. Numer. Anal. 38(1), 2018).  A geodesic's velocity is its
own parallel transport, so BB1 reduces to a secant of the slope along the
previous step: ``alpha_k = alpha g^2 / (g^2 + phi'(alpha))``, with ``g`` the
previous gradient norm and ``phi'`` the objective's derivative along that
step (``_slope``), and the step clamped to [1e-12, 1e12].  The first
iteration, and any whose secant denominator is not positive, starts from
``INITIAL_STEP``; halving goes on from the first step as before.  When the
Armijo decrease is below the evaluator's roundoff (``noise``), any strict
decrease is accepted.  In a band of ``_ROUNDOFF_BAND`` times that noise,
where values cannot tell a better point from a worse one, a step is judged
by its slope instead, with the approximate Wolfe conditions of Hager and
Zhang (SIAM J. Optim. 16(1), 2005); the gradient taken there serves the next
iteration.  So the objective trajectory is nonincreasing except by at most
``_ROUNDOFF_BAND * noise`` inside that band.

Objectives built from an expression are evaluated by forward passes
through it, each under a memo seeded with the decomposition the line
search already made of the point, so no matrix is decomposed twice in one
evaluation.  The line search keeps the forward pass of the step it
accepts, and the Euclidean gradient there is one backward pass over that
tape (``expr._backward``).  Objectives without a gradient fall back to
central finite differences over the symmetric basis; results are flagged
when the fallback was used.  Every objective built from an expression is
an ``_ExpressionObjective``, whether a problem constructor or ``geocert
solve`` made it; the latter injects its module's ``evaluate``, so a wrapper
installed there sees the finite-difference evaluations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import spd
from .errors import DomainError, ExpressionError, RangeError, StagnationError, check_range
from .expr import (
    Add,
    Definiteness,
    Expression,
    SPD,
    Variable,
    _backward,
    _forward,
    apply_atom,
    differentiable,
    evaluate,
    make_const_matrix,
    value_and_grad,
)


INITIAL_STEP = 1.0
BACKTRACK = 0.5
SUFFICIENT_DECREASE = 1e-4
MAX_HALVINGS = 60
FD_STEP = 1e-6  # relative to max(1, ||X||_F)
_BB_MIN, _BB_MAX = 1e-12, 1e12  # clamp on the Barzilai-Borwein first step
_ROUNDOFF_BAND = 100.0  # in units of the line search's ``noise``
_WOLFE_DELTA, _WOLFE_SIGMA = 0.1, 0.9  # approximate Wolfe (Hager & Zhang)


@dataclass
class Objective:
    """A numeric objective over one SPD variable, optionally with its expression."""

    evaluator: Callable[[np.ndarray], float]
    euclidean_gradient: Callable[[np.ndarray], np.ndarray] | None = None
    expression: Expression | None = None

    @property
    def has_analytic_gradient(self) -> bool:
        return self.euclidean_gradient is not None

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.euclidean_gradient is not None:
            return self.euclidean_gradient(x)
        return finite_difference_gradient(self.evaluator, x)

    def _value_at(self, x: np.ndarray, eig: spd.EigenPair) -> float:
        """The value at ``x``, given ``eig``, the ``spd.sym_eig`` of ``x``."""
        return float(self.evaluator(x))


class _ExpressionObjective(Objective):
    """An objective that evaluates ``expression`` in its one variable ``var``.

    Every objective built from an expression is one of these: the problem
    constructors below and ``geocert solve`` call this class directly.  Its
    gradient comes from one reverse-mode pass through ``expression``, or
    from finite differences when some atom has no vector-Jacobian product.
    ``evaluator`` calls ``evaluate``: ``geocert solve`` passes the one of
    its own module, so a wrapper installed there (the benchmark's per-layer
    tracer) sees the finite-difference evaluations.  The line search runs
    its own forward passes.

    ``_value_at`` runs one forward pass under a memo seeded with ``eig`` and
    keeps it; the next ``gradient`` at that same array is one backward pass
    over it, and a gradient anywhere else runs a fresh pass.  Only the
    solver calls ``_value_at``, and it never writes to the arrays it passes.
    """

    def __init__(self, expression: Expression, var: str, evaluate: Callable = evaluate):
        def evaluator(x):
            return evaluate(expression, {var: x})

        gradient = self._tape_gradient if differentiable(expression) else None
        super().__init__(evaluator, gradient, expression)
        self._var = var
        self._kept = None  # (array, tape) of the latest _value_at

    def _value_at(self, x: np.ndarray, eig: spd.EigenPair) -> float:
        rows = spd.Memo()
        rows.seed(x, eig)
        tape = _forward(self.expression, {self._var: x}, rows)
        self._kept = (x, tape)
        return float(tape.value)

    def _tape_gradient(self, x: np.ndarray) -> np.ndarray:
        kept, self._kept = self._kept, None
        if kept is not None and kept[0] is x:
            return _backward(self.expression, kept[1])[self._var]
        return value_and_grad(self.expression, {self._var: x})[1][self._var]


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


def fd_directional(fn, x: np.ndarray, direction: np.ndarray, h: float) -> float:
    """Central finite difference of ``fn`` at ``x`` along a symmetric direction."""
    return (fn(x + h * direction) - fn(x - h * direction)) / (2.0 * h)


def finite_difference_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference Euclidean gradient over the symmetric basis."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    h = FD_STEP * max(1.0, float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(d):
        for j in range(i, d):
            delta = np.zeros_like(x)
            if i == j:
                delta[i, i] = 1.0
            else:
                delta[i, j] = delta[j, i] = 0.5
            g[i, j] = g[j, i] = fd_directional(fn, x, delta, h)
    return g


def riemannian_grad(obj: Objective, x) -> np.ndarray:
    """Riemannian gradient ``X sym(G) X`` under the affine-invariant metric.

    Raises ``DomainError`` when ``G`` or ``X sym(G) X`` has a non-finite entry.
    """
    xa = spd._as_array(x)
    g = spd._sym(np.asarray(obj.gradient(xa), dtype=float))
    if not np.all(np.isfinite(g)):
        raise DomainError("Euclidean gradient has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        xi = spd._sym(xa @ g @ xa)
    if not np.all(np.isfinite(xi)):
        raise DomainError("Riemannian gradient has non-finite entries")
    return xi


def riemannian_grad_norm(x, xi) -> float:
    """Metric norm ``sqrt(tr(X^-1 xi X^-1 xi))`` of a tangent vector."""
    inv_sq = spd.POINT.inv_sqrt(x)
    c = inv_sq @ np.asarray(xi, dtype=float) @ inv_sq
    return float(np.linalg.norm(spd._sym(c)))


def _slope(v: np.ndarray, mu: np.ndarray, alpha: float, xi: np.ndarray) -> float:
    """The derivative at ``alpha`` of the objective along the step's geodesic.

    The step from X runs along ``gamma(a) = F diag(exp(-a mu)) F^T`` with
    ``F = X^(1/2) U``; ``v`` is ``F^-1 = U^T X^(-1/2)`` and ``xi`` the
    Riemannian gradient at ``gamma(alpha)``.  Then
    ``phi'(alpha) = -sum_i mu_i exp(alpha mu_i) (v xi v^T)_ii``, which is
    ``-||C||_F^2`` at ``alpha = 0``.
    """
    diag = np.sum((v @ xi) * v, axis=1)
    return float(-np.sum(mu * np.exp(alpha * mu) * diag))


@np.errstate(over="ignore", invalid="ignore")
def _step(frame: np.ndarray, mu: np.ndarray, alpha: float) -> np.ndarray:
    """The line search's candidate ``F diag(exp(-alpha mu)) F^T``, computed quietly:
    a step whose ``exp`` overflows is not finite, and ``SPDMatrix`` then
    rejects it before any decomposition, so the step is halved without a
    warning."""
    return spd._congruence(frame, np.exp(-alpha * mu))


class _Start(NamedTuple):
    """A start that passed ``_validated_start``: a copy of ``x0``, its ``SPDMatrix``
    and the objective's value there, whose forward pass the objective keeps."""

    x: np.ndarray
    point: spd.SPDMatrix
    value: float


def _validated_start(obj: Objective, x0) -> _Start:
    """A copy of ``x0``, its ``SPDMatrix`` and the value there; raises if either is invalid."""
    x = np.array(spd._as_array(x0), dtype=float, copy=True)
    point = spd.SPDMatrix(x)  # validates the start; its eig serves the first step
    # The start is evaluated and differentiated as given, not symmetrized.
    f0 = obj._value_at(x, point.eig)
    if not math.isfinite(f0):
        raise DomainError("objective is not finite at the starting point")
    return _Start(x, point, f0)


# What ``gradient_descent`` asks of each stopping parameter.
_STOPPING = {"max_iter": ("an integer >= 0", lambda n: operator.index(n) >= 0),
             "grad_tol": ("a finite number >= 0", lambda t: math.isfinite(t) and t >= 0.0)}


def _check_stopping(**stop) -> None:
    """``RangeError`` unless each stopping parameter given is what ``_STOPPING`` asks."""
    for key, value in stop.items():
        check_range(key, value, *_STOPPING[key])


def gradient_descent(obj: Objective, x0, max_iter: int = 500, grad_tol: float = 1e-8) -> SolveResult:
    """Minimize ``obj`` from ``x0`` by geodesic gradient descent.

    Stops when the Riemannian gradient norm drops below ``grad_tol`` or after
    ``max_iter`` accepted steps; ``RangeError`` unless ``max_iter`` is an
    integer >= 0 and ``grad_tol`` a finite number >= 0.  A line search that
    exhausts ``MAX_HALVINGS`` halvings raises ``StagnationError`` carrying
    the partial result.  ``x0`` may also be the ``_Start`` that
    ``_validated_start`` returned for ``obj``, which is not validated or
    evaluated again.
    """
    _check_stopping(max_iter=max_iter, grad_tol=grad_tol)
    x, point, f0 = x0 if isinstance(x0, _Start) else _validated_start(obj, x0)
    trajectory = [f0]
    stagnated = False
    xi = None  # the gradient at x, when the line search already took it
    last = None  # (v, mu, alpha, g^2) of the step that reached x
    while True:
        x_sq, x_inv_sq = spd._root_pair(point.eig)
        if xi is None:
            xi = riemannian_grad(obj, x)
        c = spd._sym(x_inv_sq @ xi @ x_inv_sq)
        gnorm = float(np.linalg.norm(c))
        if gnorm <= grad_tol or len(trajectory) - 1 >= max_iter:
            break
        # One decomposition of the scaled direction serves every step size.
        mu, u = spd._eigh(c)
        frame, v = x_sq @ u, u.T @ x_inv_sq  # F and its inverse
        g2 = gnorm * gnorm
        alpha = INITIAL_STEP
        if last is not None:
            # Barzilai-Borwein: the last step's velocity is its own parallel
            # transport, so BB1 is a secant of the slope along that geodesic.
            lv, lmu, lalpha, lg2 = last
            denom = lg2 + _slope(lv, lmu, lalpha, xi)
            if denom > 0.0:
                alpha = min(max(lalpha * lg2 / denom, _BB_MIN), _BB_MAX)
        # Below this, the Armijo decrease is smaller than evaluator roundoff;
        # any strict decrease is then accepted so terminal iterations can
        # still drive the gradient norm under tight tolerances.
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(f0))
        band = _ROUNDOFF_BAND * noise
        for _halving in range(MAX_HALVINGS + 1):
            candidate = _step(frame, mu, alpha)
            # A candidate past the PD tolerance counts as an infinite value;
            # an accepted one carries the decomposition of the next step, and
            # its forward pass is the next gradient's tape.  The candidate is
            # symmetric bit for bit, so the matrix's entries are a copy of it.
            try:
                trial = spd.SPDMatrix(candidate)
                fc = obj._value_at(candidate, trial.eig)
            except DomainError:
                fc = math.inf
            expected = alpha * g2
            if math.isfinite(fc) and fc < f0 and (
                fc <= f0 - SUFFICIENT_DECREASE * expected or expected <= noise
            ):
                xi = None
                break
            # Where values differ by roundoff alone, judge the step by its
            # slope (the approximate Wolfe conditions); the gradient taken
            # here is the next iteration's.
            if abs(fc - f0) <= band and expected <= band:
                xi = riemannian_grad(obj, candidate)
                slope = _slope(v, mu, alpha, xi)
                if -_WOLFE_SIGMA * g2 <= slope <= (1.0 - 2.0 * _WOLFE_DELTA) * g2:
                    break
            alpha *= BACKTRACK
        else:
            stagnated = True
            break
        last = (v, mu, alpha, g2)
        x, point, f0 = candidate, trial, fc
        trajectory.append(f0)
    result = SolveResult(minimizer=point, value=f0, grad_norm=gnorm,
                         iterations=len(trajectory) - 1, converged=gnorm <= grad_tol,
                         trajectory=tuple(trajectory),
                         used_fd_gradient=not obj.has_analytic_gradient)
    if stagnated:
        raise StagnationError(
            f"line search made no progress after {MAX_HALVINGS} halvings", partial=result
        )
    return result


# ---------------------------------------------------------------------------
# Problem constructors
# ---------------------------------------------------------------------------


def make_matrix_sqrt_problem(a) -> Objective:
    """Divergence objective whose minimizer is the square root of ``a``.

    phi(X) = sdiv(X, A) + sdiv(X, I) with Euclidean gradient
    (X+A)^-1 + (X+I)^-1 - X^-1.
    """
    a_mat = a if isinstance(a, spd.SPDMatrix) else spd.SPDMatrix(a)
    d = a_mat.dim
    x_var = Variable("X", SPD(d))
    expr = Add((
        apply_atom("sdivergence", [x_var, make_const_matrix(a_mat.entries, Definiteness.PD, name="A")]),
        apply_atom("sdivergence", [x_var, make_const_matrix(np.eye(d), Definiteness.PD, name="I")]),
    ))
    return _ExpressionObjective(expr, "X")


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
    x_var = Variable("X", SPD(d))
    terms = [
        apply_atom("pow", [
            apply_atom("distance", [make_const_matrix(m.entries, Definiteness.PD, name=f"A{i+1}"), x_var]),
            2,
        ])
        for i, m in enumerate(anchors)
    ]
    expr = Add(tuple(terms), tuple(float(w) for w in ws))
    return _ExpressionObjective(expr, "X")


def make_brascamp_lieb_problem(maps, weights) -> Objective:
    """Log-determinant objective for computing a Brascamp-Lieb constant."""
    mats = [np.asarray(m, dtype=float) for m in maps]
    if not mats:
        raise RangeError("brascamp-lieb problem needs at least one map")
    ws = np.asarray(weights, dtype=float)
    if ws.shape != (len(mats),):
        raise RangeError("one weight per map required")
    if any(m.ndim != 2 for m in mats) or len({m.shape[0] for m in mats}) != 1:
        raise ExpressionError("maps must be 2-D matrices with one shared row count")
    d = mats[0].shape[0]
    x_var = Variable("X", SPD(d))
    terms = [
        apply_atom("logdet", [apply_atom("conjugation", [x_var, make_const_matrix(m, name=f"A{i+1}")])])
        for i, m in enumerate(mats)
    ]
    terms.append(apply_atom("logdet", [x_var]))
    expr = Add(tuple(terms), tuple(float(w) for w in ws) + (-1.0,))
    return _ExpressionObjective(expr, "X")


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
    s_var = Variable("Sigma", SPD(d))
    inv_s = apply_atom("inv", [s_var])  # shared by every term, evaluated once
    terms = [apply_atom("log_quad_form", [v, inv_s]) for v in xs]
    terms.append(apply_atom("logdet", [s_var]))
    expr = Add(tuple(terms), (1.0 / n,) * n + (1.0 / d,))
    return _ExpressionObjective(expr, "Sigma")
