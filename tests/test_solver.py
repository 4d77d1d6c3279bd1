import math

import numpy as np
import pytest

import geocert as gc
from geocert import spd
from geocert.errors import ExpressionError, RangeError
from geocert.solver import _slope, fd_directional

from conftest import eigh_pow, eigh_sqrt, rel_err


def sym(a):
    return (a + a.T) / 2.0


def fd_check(obj, d, seeds, ndirs=10, tol=1e-5):
    rng = np.random.default_rng(d)
    for s in seeds:
        x = np.asarray(gc.random_spd(d, 10.0, s))
        g = obj.gradient(x)
        h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
        for _ in range(ndirs):
            direction = sym(rng.normal(size=(d, d)))
            direction /= np.linalg.norm(direction)
            fd = fd_directional(obj.evaluator, x, direction, h)
            an = float(np.sum(g * direction))
            assert abs(fd - an) <= tol * max(1e-10, abs(an), abs(fd))


class TestRiemannianGrad:
    def test_trace_at_identity(self):
        obj = gc.Objective(lambda x: float(np.trace(x)), lambda x: np.eye(x.shape[0]))
        assert np.allclose(gc.riemannian_grad(obj, np.eye(3)), np.eye(3))

    def test_negated_logdet(self):
        obj = gc.Objective(lambda x: -spd.eval_logdet(x), lambda x: -eigh_pow(x, -1.0))
        for s in range(5):
            x = np.asarray(gc.random_spd(3, 10.0, s))
            assert rel_err(gc.riemannian_grad(obj, x), -x) <= 1e-9

    def test_fd_agreement_random_objective(self):
        a = np.asarray(gc.random_spd(4, 10.0, 3))

        def f(x):
            return float(np.sum(np.asarray(x) * a)) + spd.eval_logdet(x)

        def grad(x):
            return a + eigh_pow(x, -1.0)

        obj = gc.Objective(f, grad)
        rng = np.random.default_rng(4)
        x = np.asarray(gc.random_spd(4, 10.0, 9))
        xi = gc.riemannian_grad(obj, x)
        # metric norm is the Frobenius norm of the whitened gradient
        w = eigh_pow(x, -0.5)
        assert abs(gc.riemannian_grad_norm(x, xi) - np.linalg.norm(w @ xi @ w)) <= 1e-9
        for _ in range(10):
            d = sym(rng.normal(size=(4, 4)))
            d /= np.linalg.norm(d)
            fd = fd_directional(f, x, d, 1e-6 * max(1.0, np.linalg.norm(x)))
            assert abs(fd - float(np.sum(grad(x) * d))) <= 1e-5 * max(1.0, abs(fd))


class TestGradientDescent:
    def test_converges_immediately_at_stationary_point(self):
        # gradient identically zero: any start is already optimal
        obj = gc.Objective(lambda x: 1.0, lambda x: np.zeros_like(np.asarray(x)))
        res = gc.gradient_descent(obj, np.eye(3))
        assert res.converged and res.iterations == 0

    def test_matrix_sqrt_diag_recovery(self):
        obj = gc.make_matrix_sqrt_problem(np.diag([4.0, 9.0]))
        res = gc.gradient_descent(obj, np.eye(2), grad_tol=1e-7)
        assert res.converged
        assert rel_err(res.minimizer.entries, np.diag([2.0, 3.0])) <= 1e-6

    def test_trajectory_monotone(self):
        obj = gc.make_matrix_sqrt_problem(np.asarray(gc.random_spd(4, 50.0, 5)))
        res = gc.gradient_descent(obj, np.eye(4), grad_tol=1e-7)
        diffs = np.diff(res.trajectory)
        assert np.all(diffs <= 0.0)

    def test_an_overflowing_step_is_halved(self):
        # -1600 log tr(X) from I: its Riemannian gradient there is -800 I, so
        # the first step's exp(800) overflows, and its candidate is not finite
        # and must count as an infinite value (a DomainError), without a
        # warning; the halved step's exp(400) is accepted, and the gradient
        # there, -800 exp(400) I, is finite.
        obj = gc.Objective(lambda x: -1600.0 * math.log(float(np.trace(x))),
                           lambda x: -1600.0 / float(np.trace(x)) * np.eye(2))
        res = gc.gradient_descent(obj, np.eye(2), max_iter=1)
        assert res.iterations == 1
        assert np.array_equal(res.minimizer.entries, math.exp(400.0) * np.eye(2))
        assert math.isfinite(res.grad_norm)

    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_an_overflowing_riemannian_gradient_raises(self, max_iter):
        # -800 tr(X) from I reaches exp(400) I as above, where X G X overflows:
        # a DomainError, before any warning or NaN line search.
        obj = gc.Objective(lambda x: -800.0 * float(np.trace(x)), lambda x: -800.0 * np.eye(2))
        with pytest.raises(gc.DomainError, match="^Riemannian gradient has non-finite entries$"):
            gc.gradient_descent(obj, np.eye(2), max_iter=max_iter)

    def test_stagnation_carries_partial_result(self):
        # an objective whose gradient claim never matches its values
        obj = gc.Objective(lambda x: 1.0, lambda x: np.eye(x.shape[0]))
        with pytest.raises(gc.StagnationError) as err:
            gc.gradient_descent(obj, np.eye(2))
        assert err.value.partial is not None
        assert err.value.partial.converged is False

    def test_stagnation_partial_is_the_point_where_the_search_failed(self):
        # tr(X) with its true gradient for two steps, then a negated one that
        # points uphill, so the third line search finds no decrease
        calls = []

        def grad(x):
            calls.append(None)
            return np.eye(3) if len(calls) <= 2 else -np.eye(3)

        obj = gc.Objective(lambda x: float(np.trace(x)), grad)
        with pytest.raises(gc.StagnationError) as err:
            gc.gradient_descent(obj, np.diag([1.0, 2.0, 3.0]))
        part = err.value.partial
        assert part.iterations == 2 and len(part.trajectory) == 3
        assert part.trajectory[-1] == part.value == float(np.trace(part.minimizer.entries))
        uphill = gc.Objective(obj.evaluator, lambda x: -np.eye(3))
        xi = gc.riemannian_grad(uphill, part.minimizer)
        assert part.grad_norm == gc.riemannian_grad_norm(part.minimizer, xi)
        assert part.converged is False

    @pytest.mark.parametrize("make", [
        lambda: gc.Objective(lambda x: float(np.trace(x)) - spd.eval_logdet(x)),
        lambda: gc.make_karcher_problem([gc.random_spd(3, 10.0, 1), gc.random_spd(3, 10.0, 2)],
                                        [0.5, 0.5]),
    ], ids=["fd-gradient", "karcher"])
    @pytest.mark.parametrize("grad_tol", [1e-8, 1e3])
    def test_zero_max_iter_reports_the_start(self, make, grad_tol):
        obj = make()
        x0 = gc.random_spd(3, 10.0, 3).entries
        res = gc.gradient_descent(obj, x0, max_iter=0, grad_tol=grad_tol)
        assert res.iterations == 0
        assert res.trajectory == (obj.evaluator(x0),)
        expected = gc.riemannian_grad_norm(x0, gc.riemannian_grad(obj, x0))
        assert res.grad_norm == expected
        assert res.converged is (expected <= grad_tol)

    @pytest.mark.parametrize("stop", [
        {"max_iter": -1}, {"max_iter": 2.0}, {"max_iter": "3"}, {"max_iter": None}, {"max_iter": True},
        {"grad_tol": math.nan}, {"grad_tol": math.inf}, {"grad_tol": -1e-8}, {"grad_tol": None},
        {"grad_tol": False},
    ])
    def test_invalid_stopping_rule_raises(self, stop):
        obj = gc.make_matrix_sqrt_problem(np.diag([4.0, 9.0]))
        with pytest.raises(RangeError, match=next(iter(stop))):
            gc.gradient_descent(obj, np.eye(2), **stop)

    def test_exit_on_max_iter(self):
        obj = gc.make_matrix_sqrt_problem(np.diag([4.0, 9.0]))
        res = gc.gradient_descent(obj, np.eye(2), max_iter=2, grad_tol=1e-12)
        assert not res.converged
        assert res.iterations == 2

    def test_retraction_keeps_iterates_spd(self):
        obj = gc.make_matrix_sqrt_problem(np.diag([4.0, 9.0]))
        res = gc.gradient_descent(obj, np.eye(2), max_iter=1, grad_tol=1e-14)
        gc.SPDMatrix(res.minimizer.entries)  # validates

    def test_slope_matches_central_difference(self):
        anchors = [gc.random_spd(5, 100.0, np.random.default_rng(s)) for s in range(3)]
        obj = gc.make_karcher_problem(anchors, [0.2, 0.3, 0.5])
        x = gc.random_spd(5, 10.0, 9).entries
        x_sq, x_inv_sq = eigh_sqrt(x), eigh_pow(x, -0.5)
        c = x_inv_sq @ gc.riemannian_grad(obj, x) @ x_inv_sq
        mu, u = np.linalg.eigh(sym(c))
        frame, v = x_sq @ u, u.T @ x_inv_sq

        def step(alpha):
            return sym((frame * np.exp(-alpha * mu)) @ frame.T)

        g2 = float(np.sum(mu * mu))
        assert abs(_slope(v, mu, 0.0, gc.riemannian_grad(obj, x)) + g2) <= 1e-9 * g2
        h = 1e-5
        for alpha in (0.0, 0.1, 0.3):
            fd = (obj.evaluator(step(alpha + h)) - obj.evaluator(step(alpha - h))) / (2.0 * h)
            slope = _slope(v, mu, alpha, gc.riemannian_grad(obj, step(alpha)))
            assert abs(slope - fd) <= 1e-8 * abs(fd)

    @pytest.mark.parametrize("seed", range(20))
    def test_ill_conditioned_karcher_converges(self, seed):
        # Near the minimizer the value decrease sinks below roundoff; the
        # line search must judge those steps by their slope instead.
        rng = np.random.default_rng(1000 + seed)
        anchors = [gc.random_spd(5, 1e4, rng) for _ in range(3)]
        obj = gc.make_karcher_problem(anchors, [1.0 / 3.0] * 3)
        res = gc.gradient_descent(obj, np.eye(5), grad_tol=1e-6)
        assert res.converged and res.grad_norm <= 1e-6

    def test_fd_fallback_flagged(self):
        obj = gc.Objective(lambda x: float(np.trace(x)) - spd.eval_logdet(x))
        res = gc.gradient_descent(obj, 2 * np.eye(2), grad_tol=1e-6)
        assert res.used_fd_gradient
        assert res.converged
        assert rel_err(res.minimizer.entries, np.eye(2)) <= 1e-5


class TestMatrixSqrtProblem:
    def test_value_drops_at_root(self):
        a = np.diag([4.0, 9.0])
        obj = gc.make_matrix_sqrt_problem(a)
        assert obj.evaluator(eigh_sqrt(a)) < obj.evaluator(a)

    def test_zero_at_identity_anchor(self):
        obj = gc.make_matrix_sqrt_problem(np.eye(3))
        assert abs(obj.evaluator(np.eye(3))) <= 1e-12

    def test_expression_certifies(self):
        obj = gc.make_matrix_sqrt_problem(np.asarray(gc.random_spd(3, 10.0, 7)))
        r = gc.analyze(obj.expression, gc.SPD(3))
        assert r.gcurvature == gc.GCurvature.CONVEX
        assert r.ecurvature == gc.ECurvature.UNKNOWN

    def test_gradient_matches_fd(self):
        obj = gc.make_matrix_sqrt_problem(np.asarray(gc.random_spd(4, 10.0, 8)))
        fd_check(obj, 4, seeds=range(10))

    def test_recovers_root_for_random_inputs(self):
        for d, seed in ((3, 1), (5, 2), (10, 3)):
            a = np.asarray(gc.random_spd(d, 50.0, seed))
            obj = gc.make_matrix_sqrt_problem(a)
            res = gc.gradient_descent(obj, np.eye(d), grad_tol=1e-7)
            assert res.converged
            assert rel_err(res.minimizer.entries, eigh_sqrt(a)) <= 1e-6


class TestKarcherProblem:
    def test_single_anchor(self):
        a = np.asarray(gc.random_spd(3, 10.0, 11))
        obj = gc.make_karcher_problem([a], [1.0])
        res = gc.gradient_descent(obj, np.eye(3), grad_tol=1e-7)
        assert rel_err(res.minimizer.entries, a) <= 1e-6

    def test_two_anchor_midpoint(self):
        a = np.asarray(gc.random_spd(4, 10.0, 12))
        b = np.asarray(gc.random_spd(4, 10.0, 13))
        obj = gc.make_karcher_problem([a, b], [0.5, 0.5])
        res = gc.gradient_descent(obj, np.eye(4), grad_tol=1e-7)
        assert rel_err(res.minimizer.entries, gc.geometric_mean(a, b).entries) <= 1e-6

    def test_weight_validation(self):
        a = np.eye(2)
        with pytest.raises(RangeError):
            gc.make_karcher_problem([], [])
        with pytest.raises(RangeError):
            gc.make_karcher_problem([a], [0.5])
        with pytest.raises(RangeError):
            gc.make_karcher_problem([a, a], [1.5, -0.5])

    def test_gradient_matches_fd(self):
        anchors = [np.asarray(gc.random_spd(3, 10.0, s)) for s in (14, 15, 16)]
        obj = gc.make_karcher_problem(anchors, [0.2, 0.3, 0.5])
        fd_check(obj, 3, seeds=range(10))

    def test_expression_certifies(self):
        obj = gc.make_karcher_problem([np.asarray(gc.random_spd(3, 10.0, 17))], [1.0])
        assert gc.analyze(obj.expression, gc.SPD(3)).gcurvature == gc.GCurvature.CONVEX


class TestBrascampLiebProblem:
    def test_identity_map_constant_objective(self):
        obj = gc.make_brascamp_lieb_problem([np.eye(3)], [1.0])
        x = np.asarray(gc.random_spd(3, 10.0, 18))
        assert abs(obj.evaluator(x)) <= 1e-10
        assert np.linalg.norm(obj.gradient(x)) <= 1e-10

    def test_rank_deficient_rejected(self):
        with pytest.raises(ExpressionError):
            gc.make_brascamp_lieb_problem([np.ones((3, 2))], [1.0])

    @pytest.mark.parametrize("maps", [
        [np.float64(2.0)],
        [np.ones(3)],
        [np.eye(3), np.eye(2)],
        [np.eye(2), np.ones((2, 2, 2))],
    ], ids=["0-d", "1-d", "row-counts", "3-d"])
    def test_malformed_maps_rejected(self, maps):
        with pytest.raises(ExpressionError):
            gc.make_brascamp_lieb_problem(maps, [1.0] * len(maps))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(19)
        maps = [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))]
        obj = gc.make_brascamp_lieb_problem(maps, [1.0, 1.0])
        fd_check(obj, 4, seeds=range(10))

    def test_expression_certifies(self):
        rng = np.random.default_rng(20)
        obj = gc.make_brascamp_lieb_problem([rng.normal(size=(3, 2))], [1.0])
        assert gc.analyze(obj.expression, gc.SPD(3)).gcurvature == gc.GCurvature.CONVEX

    def test_solves_to_small_gradient(self):
        rng = np.random.default_rng(21)
        maps = [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))]
        obj = gc.make_brascamp_lieb_problem(maps, [1.0, 1.0])
        res = gc.gradient_descent(obj, np.eye(4), grad_tol=1e-6)
        assert res.converged
        assert res.grad_norm <= 1e-6


class TestTylerProblem:
    def _samples(self, d, n, seed):
        rng = np.random.default_rng(seed)
        scatter = np.asarray(gc.random_spd(d, 20.0, seed))
        chol = np.linalg.cholesky(scatter)
        return [chol @ rng.normal(size=d) for _ in range(n)]

    def test_requires_enough_nonzero_samples(self):
        with pytest.raises(RangeError):
            gc.make_tyler_problem([np.ones(3)])
        with pytest.raises(ExpressionError):
            gc.make_tyler_problem([np.ones(2), np.zeros(2)])

    def test_scale_invariance_exact(self):
        xs = self._samples(3, 12, 22)
        obj = gc.make_tyler_problem(xs)
        s = np.asarray(gc.random_spd(3, 10.0, 23))
        assert abs(obj.evaluator(s) - obj.evaluator(7.5 * s)) <= 1e-10

    def test_gradient_matches_fd(self):
        obj = gc.make_tyler_problem(self._samples(3, 12, 24))
        fd_check(obj, 3, seeds=range(10))

    def test_expression_certifies(self):
        obj = gc.make_tyler_problem(self._samples(3, 6, 25))
        assert gc.analyze(obj.expression, gc.SPD(3)).gcurvature == gc.GCurvature.CONVEX

    def test_fixed_point_residual(self):
        xs = self._samples(3, 30, 26)
        obj = gc.make_tyler_problem(xs)
        res = gc.gradient_descent(obj, np.eye(3), grad_tol=1e-6)
        assert res.converged
        d, n = 3, len(xs)
        s = res.minimizer.entries
        s = s * (d / np.trace(s))
        s_inv = np.linalg.inv(s)
        fixed = (d / n) * sum(np.outer(v, v) / float(v @ s_inv @ v) for v in xs)
        assert rel_err(fixed, s) <= 1e-4

    def test_matches_independent_fixed_point_iteration(self):
        xs = self._samples(3, 40, 27)
        d, n = 3, len(xs)
        s = np.eye(d)
        for _ in range(400):
            s_inv = np.linalg.inv(s)
            s = (d / n) * sum(np.outer(v, v) / float(v @ s_inv @ v) for v in xs)
            s = s * (d / np.trace(s))
        obj = gc.make_tyler_problem(xs)
        res = gc.gradient_descent(obj, np.eye(d), grad_tol=1e-7)
        m = res.minimizer.entries
        m = m * (d / np.trace(m))
        assert rel_err(m, s) <= 1e-5


class TestGlobalOptimum:
    def test_matrix_sqrt_many_starts(self):
        a = np.asarray(gc.random_spd(3, 30.0, 30))
        obj = gc.make_matrix_sqrt_problem(a)
        target = eigh_sqrt(a)
        for s in range(20):
            x0 = np.asarray(gc.random_spd(3, 30.0, 100 + s))
            res = gc.gradient_descent(obj, x0, grad_tol=1e-7)
            assert res.converged
            assert rel_err(res.minimizer.entries, target) <= 1e-5

    def test_karcher_two_point_many_starts(self):
        a = np.asarray(gc.random_spd(3, 10.0, 31))
        b = np.asarray(gc.random_spd(3, 10.0, 32))
        obj = gc.make_karcher_problem([a, b], [0.5, 0.5])
        target = gc.geometric_mean(a, b).entries
        for s in range(20):
            x0 = np.asarray(gc.random_spd(3, 10.0, 200 + s))
            res = gc.gradient_descent(obj, x0, grad_tol=1e-7)
            assert res.converged
            assert rel_err(res.minimizer.entries, target) <= 1e-5

    def test_monotone_descent_all_applications(self):
        rng = np.random.default_rng(33)
        objs = {
            "matrix_sqrt": gc.make_matrix_sqrt_problem(np.asarray(gc.random_spd(3, 20.0, 34))),
            "karcher": gc.make_karcher_problem([np.asarray(gc.random_spd(3, 10.0, s)) for s in (35, 36)],
                                               [0.5, 0.5]),
            "brascamp_lieb": gc.make_brascamp_lieb_problem([rng.normal(size=(3, 1)), rng.normal(size=(3, 2))],
                                                           [1.0, 1.0]),
            "tyler": gc.make_tyler_problem([rng.normal(size=3) for _ in range(15)]),
        }
        for name, obj in objs.items():
            for s in range(5):
                x0 = np.asarray(gc.random_spd(3, 10.0, 300 + s))
                res = gc.gradient_descent(obj, x0, grad_tol=1e-6, max_iter=300)
                assert np.all(np.diff(res.trajectory) <= 0.0), name
