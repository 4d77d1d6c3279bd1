"""Exact gradients: every atom's vector-Jacobian product and the reverse pass.

Each check compares an analytic directional derivative against a central
difference (``fd_directional``) at random SPD points over a range of
dimensions and condition numbers.
"""

from pathlib import Path

import numpy as np
import pytest

import geocert as gc
from geocert.errors import ExpressionError
from geocert.expr import EXPR_KINDS, _registered
from geocert.problems import load_problem
from geocert.solver import _ExpressionObjective, fd_directional

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
DIMS = (2, 3, 5)
CONDS = (10.0, 1e3)
POINTS = 3
DIRECTIONS = 4
RTOL = 1e-5
# Spectral atoms with a kink where the k-th and (k+1)-th eigenvalues meet.
MIN_GAP = 1e-3


def sym(a):
    return (a + a.T) / 2.0


def atom_functions(name):
    """The evaluator and the vector-Jacobian product registered as ``name``."""
    atom = _registered(name)
    return atom.evaluator, atom.vjp


def unit_sym(rng, n):
    m = sym(rng.normal(size=(n, n)))
    return m / np.linalg.norm(m)


def spd_point(d, cond, seed):
    return np.asarray(gc.random_spd(d, cond, seed))


def atom_params(name, d, rng):
    """Parameter tuples (in evaluator order after the matrix) and each one's kink index."""
    m = max(1, d - 1)
    if name in ("eigmax",):
        return [((), 1)]
    if name in ("eigsummax", "sum_log_eigmax"):
        return [((k,), k) for k in sorted({1, m, d})]
    if name == "schatten_norm":
        return [((p,), None) for p in (1.0, 2.0, 3.5)]
    if name == "sum_pow_log_eigmax":
        return [((k, p), k) for k in sorted({m, d}) for p in (1.0, 2.0, 3.0)]
    if name == "conjugation":
        return [((rng.normal(size=(d, m)),), None)]
    if name == "hadamard_product":
        w = rng.normal(size=(d, d))
        return [((w @ w.T + 0.2 * np.eye(d),), None)]
    if name == "positive_affine":
        ys = (rng.normal(size=(d, m)), rng.normal(size=(d, m)))
        w = rng.normal(size=(m, m))
        return [((ys, w @ w.T, r), None) for r in (1, -1)]
    return [((), None)]


def leading_param(name, d, rng):
    """Parameters that precede the matrix argument (quad forms)."""
    if name == "quad_form":
        return (rng.normal(size=d),)
    if name == "log_quad_form":
        return (tuple(rng.normal(size=d) for _ in range(2)),)
    return ()


def away_from_kink(x, k):
    lam = np.linalg.eigvalsh(x)[::-1]
    if k is None or k >= lam.size:
        return True
    return lam[k - 1] - lam[k] > MIN_GAP * lam[0]


def assert_directional(fn, x, grad, direction):
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    fd = fd_directional(fn, x, direction, h)
    an = float(np.sum(grad * direction))
    # relative to the gradient's size, plus the difference quotient's roundoff,
    # which grows with the conditioning of the point
    cond = float(np.linalg.cond(np.atleast_2d(x)))
    roundoff = 1e2 * np.finfo(float).eps * cond * max(1.0, abs(fn(x))) / h
    assert abs(fd - an) <= RTOL * float(np.linalg.norm(grad)) + roundoff, (fd, an)


ONE_MATRIX_ATOMS = [
    n for n in gc.CATALOG_IDS
    if [k for k in gc.lookup_atom(n).positions if k in EXPR_KINDS] == [gc.ArgKind.MANIFOLD]
]


@pytest.mark.parametrize("name", ONE_MATRIX_ATOMS)
def test_single_argument_vjp_matches_fd(name):
    fn, vjp = atom_functions(name)
    matrix_result = gc.lookup_atom(name).result == "matrix"
    checked = 0
    for d in DIMS:
        rng = np.random.default_rng(d)
        lead = leading_param(name, d, rng)
        for params, kink in atom_params(name, d, rng):
            for cond in CONDS:
                for i in range(POINTS):
                    x = spd_point(d, cond, 1000 * d + i)
                    if not away_from_kink(x, kink):
                        continue
                    out = fn(*lead, x, *params)
                    if matrix_result:
                        g = unit_sym(rng, np.asarray(out).shape[0])
                        f = lambda y: float(np.sum(g * fn(*lead, y, *params)))
                    else:
                        g = 1.0
                        f = lambda y: fn(*lead, y, *params)
                    (grad,) = vjp(g, out, (True,), *lead, x, *params)
                    for _ in range(DIRECTIONS):
                        assert_directional(f, x, grad, unit_sym(rng, d))
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("name", ["sdivergence", "distance"])
def test_two_argument_vjp_matches_fd(name):
    fn, vjp = atom_functions(name)
    for d in DIMS:
        rng = np.random.default_rng(d)
        for cond in CONDS:
            for i in range(POINTS):
                x = spd_point(d, cond, 2000 * d + i)
                y = spd_point(d, cond, 3000 * d + i)
                gx, gy = vjp(1.0, fn(x, y), (True, True), x, y)
                for _ in range(DIRECTIONS):
                    assert_directional(lambda z: fn(z, y), x, gx, unit_sym(rng, d))
                    assert_directional(lambda z: fn(x, z), y, gy, unit_sym(rng, d))


def test_distance_vjp_zero_at_coincident_points():
    x = spd_point(3, 10.0, 1)
    gx, gy = atom_functions("distance")[1](1.0, 0.0, (True, True), x, x)
    assert not np.any(gx) and not np.any(gy)


def test_vjp_skips_unrequested_arguments():
    x, y = spd_point(3, 10.0, 2), spd_point(3, 10.0, 3)
    for name in ("sdivergence", "distance"):
        fn, vjp = atom_functions(name)
        gx, gy = vjp(1.0, fn(x, y), (False, True), x, y)
        assert gx is None and gy is not None


@pytest.mark.parametrize("name,params,points", [
    ("exp", (), (-2.0, 0.3, 1.7)),
    ("log", (), (0.05, 1.0, 7.0)),
    ("neg_log", (), (0.05, 1.0, 7.0)),
    ("pow", (1.0,), (-1.5, 0.2, 3.0)),
    ("pow", (2.0,), (-1.5, 0.2, 3.0)),
    ("pow", (2.5,), (0.2, 1.0, 3.0)),
    ("abs", (), (-2.0, -0.1, 0.4)),  # away from the kink at 0
])
def test_scalar_vjp_matches_fd(name, params, points):
    fn, vjp = atom_functions(name)
    for v in points:
        (grad,) = vjp(1.0, fn(v, *params), (True,), v, *params)
        assert_directional(lambda t: fn(t, *params), v, grad, 1.0)


def test_every_builtin_atom_is_checked():
    scalar = {"exp", "log", "neg_log", "pow", "abs"}
    checked = set(ONE_MATRIX_ATOMS) | {"sdivergence", "distance"} | scalar
    assert checked == set(gc.CATALOG_IDS)


@pytest.mark.parametrize("stem", ["matrix_sqrt", "karcher", "brascamp_lieb", "tyler"])
def test_value_and_grad_on_problem_files(stem):
    prob = load_problem(str(PROBLEMS / f"{stem}.yaml"))
    (name,) = sorted(prob.expression.variables)
    d = prob.manifold.dim
    rng = np.random.default_rng(7)
    f = lambda x: gc.evaluate(prob.expression, {name: x})
    assert gc.differentiable(prob.expression)
    for cond in CONDS:
        for i in range(POINTS):
            x = spd_point(d, cond, 4000 + i)
            value, grads = gc.value_and_grad(prob.expression, {name: x})
            assert value == f(x)
            assert set(grads) == {name}
            assert np.array_equal(grads[name], grads[name].T)
            for _ in range(DIRECTIONS):
                assert_directional(f, x, grads[name], unit_sym(rng, d))


class TestReversePass:
    def test_shared_subtree_counted_per_parent(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        t = gc.apply_atom("tr", [x])
        value, grads = gc.value_and_grad(gc.Add((t, t), (2.0, 3.0)), {"X": np.eye(3)})
        assert value == 15.0
        assert np.array_equal(grads["X"], 5.0 * np.eye(3))

    def test_shared_matrix_node_evaluated_once(self, scope):
        calls = []

        def counted_inv(m):
            calls.append(m)
            return gc.spd.eval_inv(m)

        sig = gc.AtomSignature(
            id="counted_inv", positions=(gc.ArgKind.MANIFOLD,), result="matrix",
            sign=gc.Sign.POSITIVE, gcurv=gc.GCurvature.CONVEX,
            gmono=gc.GMonotonicity.DECREASING, ecurv=gc.ECurvature.CONVEX,
        )
        gc.register_atom(sig, counted_inv, gc.spd.vjp_inv)
        try:
            x = gc.make_variable("X", gc.SPD(3), scope=scope)
            inv_x = gc.apply_atom("counted_inv", [x])
            e = gc.apply_atom("tr", [inv_x]) - gc.apply_atom("logdet", [inv_x])
            xv = spd_point(3, 10.0, 5)
            _, grads = gc.value_and_grad(e, {"X": xv})
        finally:
            gc.unregister_atom("counted_inv")
        assert len(calls) == 1
        x_inv = np.linalg.inv(xv)
        # d/dX [tr(X^-1) + logdet(X)] = -X^-2 + X^-1
        assert np.allclose(grads["X"], -x_inv @ x_inv + x_inv, rtol=1e-10, atol=1e-12)

    def test_max_sends_cotangent_to_argmax(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        e = gc.MaxOf((gc.apply_atom("tr", [x]), gc.apply_atom("sum", [x])))
        _, grads = gc.value_and_grad(e, {"X": np.array([[1.0, 0.5], [0.5, 1.0]])})
        assert np.array_equal(grads["X"], np.ones((2, 2)))

    def test_product_rule(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        tr, ld = gc.apply_atom("tr", [x]), gc.apply_atom("logdet", [x])
        xv = np.diag([2.0, 3.0])
        value, grads = gc.value_and_grad(gc.Mul((tr, ld)), {"X": xv})
        assert value == pytest.approx(5.0 * np.log(6.0))
        expected = np.log(6.0) * np.eye(2) + 5.0 * np.linalg.inv(xv)
        assert np.allclose(grads["X"], expected, rtol=1e-12)

    def test_two_variables_and_constant_terms(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        y = gc.make_variable("Y", gc.SPD(2), scope=scope)
        e = gc.apply_atom("tr", [x]) - 2 * gc.apply_atom("logdet", [y]) + 4
        value, grads = gc.value_and_grad(e, {"X": np.eye(2), "Y": 2 * np.eye(2)})
        assert value == pytest.approx(6.0 - 2.0 * np.log(4.0))
        assert np.array_equal(grads["X"], np.eye(2))
        assert np.allclose(grads["Y"], -np.eye(2))

    def test_matrix_root_rejected(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        with pytest.raises(ExpressionError):
            gc.value_and_grad(gc.apply_atom("inv", [x]), {"X": np.eye(2)})

    def test_atom_without_vjp_is_not_differentiable(self, scope):
        sig = gc.AtomSignature(
            id="plain_trace", positions=(gc.ArgKind.MANIFOLD,), result="scalar",
            sign=gc.Sign.POSITIVE, gcurv=gc.GCurvature.CONVEX,
            gmono=gc.GMonotonicity.INCREASING, ecurv=gc.ECurvature.AFFINE,
        )
        gc.register_atom(sig, lambda m: float(np.trace(m)))
        try:
            x = gc.make_variable("X", gc.SPD(2), scope=scope)
            e = gc.apply_atom("plain_trace", [x]) + gc.apply_atom("tr", [x])
            assert not gc.differentiable(e)
            assert gc.differentiable(gc.apply_atom("tr", [x]))
            with pytest.raises(ExpressionError):
                gc.value_and_grad(e, {"X": np.eye(2)})
        finally:
            gc.unregister_atom("plain_trace")


def test_decompositions_per_karcher_evaluation(monkeypatch):
    # A k-anchor Karcher objective decomposes X once and each whitened
    # anchor once per evaluation; a bound SPDMatrix lends its decomposition
    # of X, and the gradient after an evaluation reads that evaluation's.
    anchors = [gc.random_spd(5, 100.0, 60 + i) for i in range(3)]
    obj = gc.make_karcher_problem(anchors, [0.2, 0.3, 0.5])
    point = gc.random_spd(5, 10.0, 70)
    raw = point.entries.copy()
    eigh = gc.spd._eigh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    monkeypatch.setattr(gc.spd, "_eigh", counted)
    assert count(gc.evaluate, obj.expression, {"X": raw}) == 4
    assert count(gc.evaluate, obj.expression, {"X": point}) == 3
    assert count(gc.value_and_grad, obj.expression, {"X": raw}) == 4
    assert count(obj._value_at, raw, point.eig) == 3
    assert count(obj.gradient, raw) == 0


@pytest.mark.parametrize("build, expected", [
    (lambda anchors: gc.make_matrix_sqrt_problem(anchors[0]).expression, 2),
    (lambda anchors: gc.Add(tuple(
        gc.apply_atom("pow", [gc.apply_atom("distance", [
            gc.Variable("X", gc.SPD(5)), gc.make_const_matrix(a.entries, "PD", name=f"A{i}"),
        ]), 2])
        for i, a in enumerate(anchors)
    )), 3),
], ids=["matrix_sqrt", "karcher_x_first"])
def test_gradient_after_an_evaluation_reads_its_decompositions(monkeypatch, build, expected):
    # The backward pass decomposes only what the forward pass did not:
    # matrix_sqrt the two sums X + A and X + I, each distance(X, A_i) term
    # the whitening of A_i by X, while X's own decomposition is the one the
    # evaluation was seeded with.
    anchors = [gc.random_spd(5, 100.0, 60 + i) for i in range(3)]
    obj = _ExpressionObjective(build(anchors), "X")
    point = gc.random_spd(5, 10.0, 70)
    raw = point.entries.copy()
    obj._value_at(raw, point.eig)
    eigh = gc.spd._eigh
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(gc.spd, "_eigh", counted)
    grad = obj.gradient(raw)
    assert len(calls) == expected
    monkeypatch.setattr(gc.spd, "_eigh", eigh)
    assert np.array_equal(grad, gc.value_and_grad(obj.expression, {"X": raw})[1]["X"])
