import collections
import inspect
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import geocert as gc
from geocert import expr, oracle, spd
from geocert.expr import _evaluate_stacked
from geocert.errors import DomainError, InconclusiveError, RangeError, ShapeError

from conftest import SIGMA_2

CFG = gc.FuzzConfig(trials=300, dim=3, cond_max=10.0, seed=5)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def base2_product(x):
    """tr(X) times the base-2 negated log determinant."""
    det = float(np.linalg.det(np.asarray(x, float)))
    if det <= 0:
        raise gc.DomainError("nonpositive determinant")
    return float(np.trace(x)) * (-math.log2(det))


class TestFuzzConfig:
    def test_validation(self):
        with pytest.raises(RangeError):
            gc.FuzzConfig(trials=0)
        with pytest.raises(RangeError):
            gc.FuzzConfig(tol=0.0)

    @pytest.mark.parametrize("field", ["trials", "dim", "t_samples", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, "3", None, True, False])
    def test_non_integer_counts_rejected(self, field, value):
        # A float seed would run as its integer part; a float count fails deep
        # in the first block.
        with pytest.raises(RangeError):
            gc.FuzzConfig(**{field: value})
        assert getattr(gc.FuzzConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field", ["tol", "cond_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_bounds_rejected(self, field, value):
        # A NaN tolerance passes every comparison, so every claim would pass;
        # an infinite condition bound overflows the spectrum sampler.
        with pytest.raises(RangeError):
            gc.FuzzConfig(trials=50, dim=3, **{field: value})

    @pytest.mark.parametrize("field", ["tol", "cond_max"])
    @pytest.mark.parametrize("value", [True, "a", None])
    def test_a_bound_that_is_not_a_number_rejected(self, field, value):
        # True passed as 1.0, and a string or None raised TypeError.
        with pytest.raises(RangeError, match=f"{field} must be"):
            gc.FuzzConfig(trials=50, dim=3, **{field: value})

    @pytest.mark.parametrize("value", [None, 5])
    def test_injected_that_is_not_a_sequence_rejected(self, value):
        # Both raised TypeError from the first check that read the pairs.
        with pytest.raises(RangeError, match="injected must be a tuple or list of pairs"):
            gc.FuzzConfig(trials=5, dim=2, injected=value)
        assert gc.FuzzConfig(trials=5, dim=2, injected=[]).injected == []


class TestCheckGConvex:
    def test_logdet_two_sided_equality(self):
        rep = gc.check_gconvex(spd.eval_logdet, CFG, equality=True)
        assert rep.verdict == "NoViolationFound"
        assert rep.worst_residual <= 1e-8

    def test_trace_clean(self):
        rep = gc.check_gconvex(spd.eval_tr, CFG)
        assert rep.verdict == "NoViolationFound"
        assert rep.worst_residual <= 1e-9

    def test_product_counterexample_exact_numbers(self):
        cfg = gc.FuzzConfig(
            trials=50, dim=2, cond_max=10.0, seed=5,
            injected=((np.diag([1.0, 1.0]), np.diag([16.0, 16.0])),),
        )
        rep = gc.check_gconvex(base2_product, cfg)
        assert rep.verdict == "ViolationFound"
        assert rep.witness.t == 0.5
        assert abs(rep.witness.lhs - (-32.0)) <= 1e-9
        assert abs(rep.witness.rhs - (-128.0)) <= 1e-9
        assert rep.witness.lhs > rep.witness.rhs

    def test_norm1_counterexample_exact_numbers(self):
        cfg = gc.FuzzConfig(
            trials=50, dim=3, cond_max=10.0, seed=5,
            injected=((np.eye(3), SIGMA_2),),
        )
        rep = gc.check_gconvex(spd.elementwise_norm1, cfg)
        assert rep.verdict == "ViolationFound"
        assert abs(rep.witness.lhs - 4.7638) <= 5e-4
        assert abs(rep.witness.rhs - 4.6) <= 1e-12
        assert np.array_equal(rep.witness.point_b[0], SIGMA_2)

    def test_joint_convexity_two_arguments(self):
        rep = gc.check_gconvex(spd.eval_sdivergence, CFG, nargs=2)
        assert rep.verdict == "NoViolationFound"
        rep = gc.check_gconvex(spd.eval_distance, CFG, nargs=2)
        assert rep.verdict == "NoViolationFound"

    def test_matrix_valued_loewner_convexity(self):
        rep = gc.check_gconvex(spd.eval_inv, CFG)
        assert rep.verdict == "NoViolationFound"

    def test_witness_reproducibility(self):
        cfg = gc.FuzzConfig(trials=40, dim=3, cond_max=10.0, seed=6,
                            injected=((np.eye(3), SIGMA_2),))
        rep = gc.check_gconvex(spd.elementwise_norm1, cfg)
        again = gc.reevaluate_witness(spd.elementwise_norm1, rep.witness)
        assert abs(again - rep.witness.residual) <= 1e-12 * max(1.0, abs(again))

    def test_seed_determinism(self):
        a = gc.check_gconvex(spd.eval_eigmax, CFG)
        b = gc.check_gconvex(spd.eval_eigmax, CFG)
        assert a == b

    def test_seed_determinism_with_witness(self):
        cfg = gc.FuzzConfig(trials=30, dim=3, cond_max=10.0, seed=7,
                            injected=((np.eye(3), SIGMA_2),))
        a = gc.check_gconvex(spd.elementwise_norm1, cfg)
        b = gc.check_gconvex(spd.elementwise_norm1, cfg)
        assert a.verdict == "ViolationFound"
        assert a == b

    def test_inconclusive_on_narrow_domain(self):
        def narrow(x):
            return spd.eval_log(float(np.trace(x)) - 100.0)

        with pytest.raises(InconclusiveError):
            gc.check_gconvex(narrow, CFG)


class TestCheckEConvex:
    @pytest.mark.parametrize("nargs", [0, -1, 1.5, True])
    def test_nargs_below_one_rejected(self, nargs):
        for check in (gc.check_gconvex, gc.check_econvex):
            with pytest.raises(RangeError, match="nargs must be an integer >= 1"):
                check(lambda *ms: 0.0, CFG, nargs=nargs)

    def test_numpy_integer_nargs_accepted(self):
        cfg = gc.FuzzConfig(trials=20, dim=2, seed=1)
        for check in (gc.check_gconvex, gc.check_econvex):
            assert check(spd.eval_sdivergence, cfg, nargs=np.int64(2)) == check(
                spd.eval_sdivergence, cfg, nargs=2)


    def test_norm1_euclidean_convex(self):
        rep = gc.check_econvex(spd.elementwise_norm1, CFG)
        assert rep.verdict == "NoViolationFound"

    def test_log_quad_form_euclidean_violation(self):
        h = np.array([1.0, 2.0, 3.0])
        rep = gc.check_econvex(lambda x: spd.eval_log_quad_form((h,), x), CFG)
        assert rep.verdict == "ViolationFound"

    def test_trace_affine_tiny_residual(self):
        rep = gc.check_econvex(spd.eval_tr, CFG, equality=True)
        assert rep.verdict == "NoViolationFound"
        assert rep.worst_residual <= 1e-12

    def test_float32_values_judged_in_float64(self):
        # The judge stacks every value in float64, so an f returning
        # np.float32 gets the report of the same values cast to float.
        cfg = gc.FuzzConfig(trials=50, seed=0)

        def logdet32(x):
            return np.float32(np.linalg.slogdet(x)[1])

        rep32 = gc.check_econvex(logdet32, cfg)
        rep64 = gc.check_econvex(lambda x: float(logdet32(x)), cfg)
        assert rep32.verdict == "ViolationFound"
        assert rep32.to_dict() == rep64.to_dict()


class TestQuadFormBothMetrics:
    def test_convex_under_both_segment_families(self):
        h = np.array([0.3, -1.2, 0.7])
        f = lambda x: spd.eval_quad_form(h, x)
        assert gc.check_gconvex(f, CFG).verdict == "NoViolationFound"
        assert gc.check_econvex(f, CFG).verdict == "NoViolationFound"


class TestRegressionCorpus:
    """Certified application objectives stay violation-free over >= 1000 trials."""

    def _check(self, expr, seed):
        out = gc.cross_validate(expr, gc.FuzzConfig(trials=1000, seed=seed))
        assert out.analysis.gcurvature == gc.GCurvature.CONVEX
        assert out.verdict == "CONSISTENT"

    def test_matrix_sqrt_objective(self):
        obj = gc.make_matrix_sqrt_problem(np.asarray(gc.random_spd(5, 10.0, 81)))
        self._check(obj.expression, 81)

    def test_karcher_objective(self):
        anchors = [np.asarray(gc.random_spd(5, 10.0, s)) for s in range(82, 87)]
        obj = gc.make_karcher_problem(anchors, [0.2] * 5)
        self._check(obj.expression, 82)

    def test_brascamp_lieb_objective(self):
        a = np.random.default_rng(83).normal(size=(5, 5))
        obj = gc.make_brascamp_lieb_problem([a], [1.0])
        self._check(obj.expression, 83)

    def test_tyler_objective(self):
        rng = np.random.default_rng(84)
        obj = gc.make_tyler_problem([rng.normal(size=5) for _ in range(5)])
        self._check(obj.expression, 84)


class TestMonotonicity:
    def test_trace_increasing(self):
        rep = gc.check_monotone_loewner(spd.eval_tr, "increasing", CFG)
        assert rep.verdict == "NoViolationFound"

    def test_inverse_decreasing(self):
        rep = gc.check_monotone_loewner(spd.eval_inv, "decreasing", CFG)
        assert rep.verdict == "NoViolationFound"

    def test_eigmax_not_decreasing(self):
        rep = gc.check_monotone_loewner(spd.eval_eigmax, "decreasing", CFG)
        assert rep.verdict == "ViolationFound"

    def test_sdivergence_not_increasing(self):
        # The one-dimensional slice x -> sdiv(x, y) decreases for x < y, so
        # a Loewner-increasing claim would be wrong; the atom carries GAnyMono.
        anchor = 4.0 * np.eye(3)
        rep = gc.check_monotone_loewner(
            lambda x: spd.eval_sdivergence(x, anchor), "increasing", CFG
        )
        assert rep.verdict == "ViolationFound"

    def test_direction_validation(self):
        with pytest.raises(RangeError):
            gc.check_monotone_loewner(spd.eval_tr, "sideways", CFG)

    def test_unordered_injected_pair_raises(self):
        # I >= 2 I fails; judged as an ordered pair, it would refute the
        # true claim that the trace is increasing (4.0 > 2.0).
        cfg = gc.FuzzConfig(trials=5, dim=2, injected=((np.eye(2), 2.0 * np.eye(2)),))
        with pytest.raises(RangeError, match="not ordered"):
            gc.check_monotone_loewner(spd.eval_tr, "increasing", cfg)
        ordered = replace(cfg, injected=((2.0 * np.eye(2), np.eye(2)),))
        rep = gc.check_monotone_loewner(spd.eval_tr, "increasing", ordered)
        assert (rep.verdict, rep.trials_run, rep.skipped) == ("NoViolationFound", 5, 0)


class TestCrossValidate:
    def _spd_var(self, d=3):
        return gc.Variable("X", gc.SPD(d))

    def test_brascamp_lieb_consistent(self):
        x = gc.Variable("X", gc.SPD(4))
        a = np.random.default_rng(8).normal(size=(4, 4))
        e = gc.Add(
            (gc.apply_atom("logdet", [gc.apply_atom("conjugation", [x, a])]),
             gc.apply_atom("logdet", [x])),
            (1.0, -1.0),
        )
        out = gc.cross_validate(e, gc.FuzzConfig(trials=200, seed=9))
        assert out.verdict == "CONSISTENT"
        assert out.analysis.gcurvature == gc.GCurvature.CONVEX

    def test_karcher_consistent(self):
        x = self._spd_var()
        terms = tuple(
            gc.apply_atom("pow", [
                gc.apply_atom("distance", [
                    gc.make_const_matrix(np.asarray(gc.random_spd(3, 10.0, s)), "PD", name=f"A{s}"),
                    x,
                ]),
                2,
            ])
            for s in (21, 22)
        )
        out = gc.cross_validate(gc.Add(terms), gc.FuzzConfig(trials=200, seed=10))
        assert out.verdict == "CONSISTENT"

    def test_glinear_expression_checked_two_sided(self):
        e = gc.apply_atom("logdet", [self._spd_var()])
        out = gc.cross_validate(e, gc.FuzzConfig(trials=200, seed=11))
        assert out.verdict == "CONSISTENT"
        assert "geodesic-linearity" in out.checks

    def test_bogus_atom_soundness_bug(self):
        sig = gc.AtomSignature(
            id="bogus_norm1",
            positions=(gc.ArgKind.MANIFOLD,),
            result="scalar",
            sign=gc.Sign.POSITIVE,
            gcurv=gc.GCurvature.CONVEX,
            gmono=gc.GMonotonicity.ANY,
            ecurv=gc.ECurvature.CONVEX,
        )
        gc.register_atom(sig, spd.elementwise_norm1)
        try:
            e = gc.apply_atom("bogus_norm1", [self._spd_var()])
            cfg = gc.FuzzConfig(trials=100, dim=3, seed=12, injected=((np.eye(3), SIGMA_2),))
            out = gc.cross_validate(e, cfg)
            assert out.verdict == "SOUNDNESS-BUG"
            witness = out.checks["geodesic-convexity"].witness
            assert np.array_equal(witness.point_b[0], SIGMA_2)
        finally:
            gc.unregister_atom("bogus_norm1")

    def test_gunknown_runs_both_informationally(self):
        e = gc.apply_atom("elementwise_norm1", [self._spd_var()])
        cfg = gc.FuzzConfig(trials=150, dim=3, seed=13, injected=((np.eye(3), SIGMA_2),))
        out = gc.cross_validate(e, cfg)
        assert out.verdict == "INFO"
        assert out.checks["geodesic-convexity"].verdict == "ViolationFound"
        assert out.checks["euclidean-convexity"].verdict == "NoViolationFound"

    def test_a_constant_expression_is_consistent_without_checks(self):
        e = gc.apply_atom("logdet", [gc.make_const_matrix(np.diag([2.0, 3.0]), "PD", name="A")])
        out = gc.cross_validate(e, gc.FuzzConfig(trials=50, seed=15))
        assert out.verdict == "CONSISTENT"
        assert out.analysis.gcurvature is gc.GCurvature.LINEAR
        assert out.checks == {} and out.notes == {"info": "constant expression"}

    def test_dimension_comes_from_variables(self):
        e = gc.apply_atom("tr", [gc.Variable("X", gc.SPD(5))])
        out = gc.cross_validate(e, gc.FuzzConfig(trials=50, dim=2, seed=14))
        assert out.verdict == "CONSISTENT"
        assert out.checks["geodesic-convexity"].witness is None


def _scaled_identity_pair(d=2):
    """Injected pair I and 16 I: gamma(t) = 16^t I, so tr/d reads off t."""
    return (np.eye(d), 16.0 * np.eye(d))


def _is_scaled_identity(x):
    x = np.asarray(x)
    return np.array_equal(x, np.diag(np.diag(x))) and np.allclose(np.diag(x), x[0, 0])


def _raise_on_diagonal(fn):
    """``fn``, except that diagonal arguments leave the domain."""
    def wrapped(x):
        if np.count_nonzero(x - np.diag(np.diag(x))) == 0:
            raise gc.DomainError("diagonal argument")
        return fn(x)
    return wrapped


class TestTrialEdgeCases:
    def test_violation_before_midtrial_domain_error_is_kept(self):
        # -tr is geodesically concave: the midpoint (t = 0.5, 16^t = 4) lies
        # above the chord; t = 0.25 (16^t = 2) then leaves the domain.
        def f(x):
            if not _is_scaled_identity(x):
                return 0.0
            if abs(x[0, 0] - 2.0) < 1e-9:
                raise gc.DomainError("t = 0.25")
            return -float(np.trace(x))

        cfg = gc.FuzzConfig(trials=3, dim=2, seed=3, injected=(_scaled_identity_pair(),))
        rep = gc.check_gconvex(f, cfg)
        assert rep.verdict == "ViolationFound"
        assert rep.witness.t == 0.5
        assert abs(rep.witness.residual - 9.0 / 32.0) <= 1e-12
        assert (rep.skipped, rep.trials_run) == (1, 2)
        assert rep.worst_residual == rep.witness.residual

    @pytest.mark.parametrize("pair", [
        (np.diag([1.0, -1.0]), np.eye(2)),
        (np.eye(2), np.diag([1.0, -1.0])),
    ])
    def test_injected_endpoint_not_pd_is_a_skip(self, pair):
        cfg = gc.FuzzConfig(trials=3, dim=2, seed=4, injected=(pair,))
        rep = gc.check_gconvex(spd.eval_tr, cfg)
        assert (rep.skipped, rep.trials_run) == (1, 2)
        assert rep.verdict == "NoViolationFound"

    def test_injected_gate_errors_keep_their_types(self):
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        cfg = gc.FuzzConfig(trials=3, dim=2, seed=4, injected=((asym, np.eye(2)),))
        with pytest.raises(ShapeError):
            gc.check_gconvex(spd.eval_tr, cfg)
        # f would leave its domain at the endpoint first: the gate runs before f
        with pytest.raises(ShapeError):
            gc.check_gconvex(_raise_on_diagonal(spd.eval_tr), replace(cfg, injected=(
                (np.diag([1.0, 2.0]), asym),)))
        nan = np.full((2, 2), np.nan)
        with pytest.raises(gc.DomainError, match="non-finite"):
            gc.check_gconvex(spd.eval_tr, replace(cfg, injected=((np.eye(2), nan),)))
        pair = (np.eye(2), np.eye(2))
        with pytest.raises(RangeError, match="injected pair 0 has arity 2"):
            gc.check_gconvex(spd.eval_tr, replace(cfg, injected=((pair, pair),)))

    @pytest.mark.parametrize("entry, message", [
        (np.eye(3), "too many values"),
        ((np.eye(2),), "not enough values"),
        (("a", "b"), "could not convert"),
    ], ids=["one-matrix", "one-point", "strings"])
    def test_a_malformed_injected_entry_is_a_range_error(self, entry, message):
        cfg = gc.FuzzConfig(trials=5, dim=2, injected=((np.eye(2), np.eye(2)), entry))
        with pytest.raises(RangeError, match=f"injected pair 1 must be a pair .*{message}"):
            gc.check_gconvex(spd.eval_tr, cfg)

    def test_injected_asymmetric_second_endpoint_raises(self):
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        cfg = gc.FuzzConfig(trials=3, dim=2, seed=4, injected=((np.eye(2), asym),))
        with pytest.raises(ShapeError):
            gc.check_gconvex(spd.eval_tr, cfg)

    @staticmethod
    def _run(check, f, cfg):
        if check == "gconvex":
            return gc.check_gconvex(f, cfg)
        if check == "econvex":
            return gc.check_econvex(f, cfg)
        return gc.check_monotone_loewner(f, "increasing", cfg)

    ASYM = np.array([[1.0, 0.5], [0.0, 1.0]])

    @pytest.mark.parametrize("injected, error", [
        # for monotone, the shape gate comes before the order test
        (((np.eye(2), ASYM),), ShapeError),
        # a valid pair first: f sees none of its points either
        (((2.0 * np.eye(2), np.eye(2)), (np.eye(2), ASYM)), ShapeError),
        (((np.diag([1.0, -1.0]), ASYM),), ShapeError),  # f(A) raises for any f
        (((np.eye(2), np.eye(3)),), ShapeError),
        (((2.0 * np.eye(2), np.eye(2)), np.eye(3)), RangeError),
    ], ids=["asymmetric-b", "second-pair", "non-pd-a", "dimensions", "malformed"])
    @pytest.mark.parametrize("check", ["gconvex", "econvex", "monotone"])
    def test_no_point_reaches_f_while_any_injected_pair_fails_a_gate(self, check, injected, error):
        # f raises DomainError everywhere, so a gate that ran only once f had
        # seen a pair's endpoints would never run: every trial would be a skip.
        calls = []

        def f(x):
            calls.append(1)
            raise gc.DomainError("outside")

        with pytest.raises(error):
            self._run(check, f, gc.FuzzConfig(trials=4, dim=2, seed=4, injected=injected))
        assert calls == []

    def test_an_unordered_pair_is_refused_where_f_raises(self):
        calls = []

        def f(x):
            calls.append(1)
            raise gc.DomainError("outside")

        cfg = gc.FuzzConfig(trials=2, dim=2, seed=4, injected=((np.eye(2), 2.0 * np.eye(2)),))
        with pytest.raises(RangeError, match="injected pair 0 is not ordered"):
            gc.check_monotone_loewner(f, "increasing", cfg)
        assert calls == []

    @pytest.mark.parametrize("check", ["gconvex", "econvex", "monotone"])
    def test_half_skipped_passes_one_more_is_inconclusive(self, check):
        f = _raise_on_diagonal(spd.eval_tr)
        diag_pair = (np.diag([2.0, 1.0]), np.diag([1.0, 0.5]))

        def run(n_skipped):
            cfg = gc.FuzzConfig(trials=4, dim=2, seed=5, injected=(diag_pair,) * n_skipped)
            return self._run(check, f, cfg)

        rep = run(2)
        assert (rep.skipped, rep.trials_run) == (2, 2)
        with pytest.raises(InconclusiveError):
            run(3)

    def test_zero_t_samples_uses_base_ts_only(self):
        seen = []

        def f(x):
            seen.append(float(np.trace(x)) / 2.0)
            return float(np.trace(x))

        cfg = gc.FuzzConfig(trials=1, dim=2, seed=6, t_samples=0,
                            injected=(_scaled_identity_pair(),))
        gc.check_gconvex(f, cfg)
        assert len(seen) == 5
        ts = [math.log(s, 16.0) for s in seen[2:]]
        assert np.allclose(ts, [0.5, 0.25, 0.75], atol=1e-12)


class TestNaNValues:
    """A NaN value of ``f`` is a ``DomainError`` at that point, never evidence."""

    @staticmethod
    def _registered(name, fn):
        sig = gc.AtomSignature(name, (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.POSITIVE,
                               gc.GCurvature.CONVEX, gc.GMonotonicity.INCREASING,
                               gc.ECurvature.AFFINE)
        gc.register_atom(sig, fn)
        return gc.apply_atom(name, [gc.Variable("X", gc.SPD(2))])

    def test_a_nan_atom_is_inconclusive(self):
        e = self._registered("always_nan", lambda x: math.nan)
        try:
            with pytest.raises(InconclusiveError):
                gc.cross_validate(e, gc.FuzzConfig(trials=50, dim=2, seed=0))
        finally:
            gc.unregister_atom("always_nan")

    def test_a_nan_function_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            gc.check_gconvex(lambda m: math.nan, gc.FuzzConfig(trials=20, dim=2))

    @pytest.mark.parametrize("f", [
        lambda m: math.inf,
        lambda m: math.inf if m[0, 0] > m[1, 1] else -math.inf,
    ], ids=["inf", "plus-minus-inf"])
    def test_an_infinite_value_is_judged_without_a_warning(self, f):
        # inf - inf is NaN, as for Python floats, so no gap is a violation;
        # pytest turns a RuntimeWarning of the judge's arithmetic into an error.
        rep = gc.check_gconvex(f, gc.FuzzConfig(trials=10, dim=2))
        assert rep == gc.FuzzReport("NoViolationFound", 10, 0, -math.inf)

    def test_a_nan_on_the_path_skips_its_trial_after_the_values_before_it(self):
        # -tr is geodesically concave, so the first midpoint already violates
        # convexity; a NaN at the next path point of that trial skips it.
        calls = []

        def f(x):
            calls.append(1)
            return math.nan if len(calls) == 4 else -float(np.trace(x))

        cfg = gc.FuzzConfig(trials=20, dim=2, seed=3)
        clean = gc.check_gconvex(lambda x: -float(np.trace(x)), cfg)
        rep = gc.check_gconvex(f, cfg)
        assert (rep.skipped, rep.trials_run) == (1, 19)
        assert rep.witness == clean.witness and rep.witness.t == 0.5

    def test_stacked_and_pointwise_paths_skip_alike(self):
        def nan_above(x):
            t = float(np.trace(x))
            return math.nan if t > 5.0 else t

        e = self._registered("nan_above", nan_above)
        try:
            cfg = gc.FuzzConfig(trials=100, dim=2, seed=0)
            out = gc.cross_validate(e, cfg)
            rep = out.checks["geodesic-convexity"]
            assert out.verdict == "CONSISTENT" and rep.skipped and math.isfinite(rep.worst_residual)
            assert rep == gc.check_gconvex(lambda m: gc.evaluate(e, {"X": m}), cfg)
        finally:
            gc.unregister_atom("nan_above")


class TestCallSequence:
    """The exact points an opaque ``f`` receives, in order, around every kind of skip."""

    def test_points_f_receives_in_one_check(self):
        d, seed, trials, ts = 2, 4, 16, (0.5, 0.25, 0.75)
        injected = (
            # f(A) fails, so f never sees B
            (3.0 * np.eye(d), np.diag([1.0, 4.0])),
            # B is not positive definite: the geodesic is missing
            (2.0 * np.eye(d), np.diag([1.0, -1.0])),
        )
        cfg = gc.FuzzConfig(trials=trials, dim=d, seed=seed, t_samples=0, injected=injected)
        table = []
        for i, (a, b) in enumerate(injected):
            table += [((i, "A"), a), ((i, "B"), b)]
        (a,), (b,), _ = oracle._cached_points(seed, len(injected), trials, d, 10.0, 1, 0)
        for i, (x, y) in enumerate(zip(a, b), start=len(injected)):
            gamma = spd.geodesic_path(x, y)
            table += [((i, "A"), x), ((i, "B"), y)] + [((i, t), gamma(t)) for t in ts]
        effects = {(0, "A"): "domain", (2, "A"): "domain", (3, "B"): "domain",
                   (4, 0.25): "domain", (5, "A"): "nan", (6, 0.25): "nan"}
        seen = []

        def f(x):
            label = next(lab for lab, m in table if np.allclose(x, m, rtol=0.0, atol=1e-9))
            seen.append(label)
            if effects.get(label) == "domain":
                raise gc.DomainError("scheduled")
            return math.nan if effects.get(label) == "nan" else float(np.trace(x))

        rep = gc.check_gconvex(f, cfg)
        full = lambda i: [(i, "A"), (i, "B")] + [(i, t) for t in ts]
        expected = [(0, "A"), (1, "A"), (1, "B"), (2, "A"), (3, "A"), (3, "B"),
                    (4, "A"), (4, "B"), (4, 0.5), (4, 0.25), *full(5), *full(6)]
        for i in range(7, trials):
            expected += full(i)
        assert seen == expected
        assert (rep.skipped, rep.trials_run, rep.verdict) == (7, 9, "NoViolationFound")


class TestStackedTrials:
    """``cross_validate``'s stacked blocks read off as the per-point loop's, by ``_read_trials``."""

    @staticmethod
    def _both(e, cfg, geodesic):
        def f(x):
            return gc.evaluate(e, {"X": x})

        def block(stacks, alive):
            return _evaluate_stacked(e, {"X": stacks[0]}, alive)

        for points in oracle._batches(cfg, 1, geodesic):
            yield (oracle._read_trials(*oracle._stacked_trials(block, points, geodesic)),
                   oracle._read_trials(*oracle._pointwise_trials(f, points, geodesic)))

    @staticmethod
    def _exact(trials):
        # Every array as its dtype, shape and Python values, whose reprs
        # tell every bit of a float (signed zeros included).
        done, skipped, completed = trials
        return repr([(a.dtype, a.shape, a.tolist()) for a in done]), skipped, completed

    @pytest.mark.parametrize("geodesic", [True, False])
    def test_mid_path_skips_keep_the_values_before_them(self, geodesic):
        # The argument of log is convex along the paths, so it can turn
        # negative between two endpoints where it is positive.
        x = gc.Variable("X", gc.SPD(3))
        if geodesic:
            inner = gc.apply_atom("tr", [x]) - 2.6
        else:
            inner = 0.8 - gc.apply_atom("logdet", [x])
        e = gc.apply_atom("log", [inner])
        cfg = gc.FuzzConfig(trials=150, dim=3, cond_max=10.0, seed=12)
        partial = endpoint_skips = 0
        for stacked, pointwise in self._both(e, cfg, geodesic):
            assert self._exact(stacked) == self._exact(pointwise)
            done, skipped, completed = pointwise
            reached = done.counted.sum(axis=1)
            partial += int(((0 < reached) & (reached < 8)).sum())
            endpoint_skips += skipped - int((reached < 8).sum())
        assert partial and endpoint_skips

    def test_cross_validate_equals_the_pointwise_checks(self):
        x = gc.Variable("X", gc.SPD(3))
        e = gc.MaxOf((gc.apply_atom("neg_log", [gc.apply_atom("logdet", [x]) + 1.0]),
                      gc.apply_atom("tr", [gc.apply_atom("inv", [x])])))
        cfg = gc.FuzzConfig(trials=200, dim=3, cond_max=10.0, seed=13)
        out = gc.cross_validate(e, cfg)
        assert out.verdict == "INFO" and out.checks["geodesic-convexity"].skipped

        def f(m):
            return gc.evaluate(e, {"X": m})

        assert out.checks["geodesic-convexity"] == gc.check_gconvex(f, cfg)
        assert out.checks["euclidean-convexity"] == gc.check_econvex(f, cfg)


class TestStackedRouting:
    """What a stacked block runs: every built-in atom once over the stack and
    every tail once over the alive rows; a tree with a user atom runs its
    blocks point by point."""

    @staticmethod
    def _count(monkeypatch):
        """Record each block that runs point by point, each ``Rows.map`` and each tail call."""
        pointwise, maps, tails = [], [], []
        pointwise_trials, rows_map = oracle._pointwise_trials, spd.Rows.map

        def counting_pointwise(f, block, geodesic):
            pointwise.append(len(block.a[0]))
            return pointwise_trials(f, block, geodesic)

        def counting_map(self, tail, lam, *params):
            maps.append(tail.__name__)
            return rows_map(self, tail, lam, *params)

        def counting(tail):
            def counted(lam, *params):
                tails.append(tail.__name__)
                return tail(lam, *params)

            counted.__name__ = tail.__name__
            return counted

        monkeypatch.setattr(oracle, "_pointwise_trials", counting_pointwise)
        monkeypatch.setattr(spd.Rows, "map", counting_map)
        for name in [n for n in vars(spd) if n.endswith("_tail")]:
            monkeypatch.setattr(spd, name, counting(getattr(spd, name)))
        return pointwise, maps, tails

    def test_every_built_in_evaluator_and_product_takes_a_keyword_only_rows(self):
        atoms = [expr._registered(i) for i in gc.CATALOG_IDS]
        assert {a.evaluator for a in atoms} == spd.STACKED
        assert {a.vjp for a in atoms} == spd._VJPS
        for fn in spd.STACKED | spd._VJPS:
            rows = inspect.signature(fn).parameters["rows"]
            assert (rows.kind, rows.default) == (inspect.Parameter.KEYWORD_ONLY, spd.POINT)

    def test_problem_files_run_nothing_per_row(self, monkeypatch):
        pointwise, maps, tails = self._count(monkeypatch)
        for path in sorted(PROBLEMS.glob("*.yaml")):
            gc.cross_validate(gc.load_problem(path).expression, gc.FuzzConfig(trials=100, seed=0))
        assert pointwise == []
        # One tail call for each Rows.map, none per point.
        assert tails and tails == maps

    @pytest.mark.parametrize("e", [
        gc.apply_atom("tr", [gc.Variable("X", gc.SPD(2))]),
        gc.apply_atom("logdet", [gc.Variable("X", gc.SPD(2))]),
        gc.apply_atom("elementwise_norm1", [gc.Variable("X", gc.SPD(2))]),
    ], ids=["tr", "logdet", "norm1"])
    def test_injected_pairs_run_stacked_as_they_run_point_by_point(self, monkeypatch, e):
        pointwise, _, _ = self._count(monkeypatch)
        injected = ((np.eye(2), SIGMA_2[:2, :2]), (np.diag([1.0, -1.0]), np.eye(2)))
        cfg = gc.FuzzConfig(trials=20, dim=2, seed=3, injected=injected)
        out = gc.cross_validate(e, cfg)
        assert pointwise == []
        f = lambda m: gc.evaluate(e, {"X": m})
        for name, rep in out.checks.items():
            check = gc.check_econvex if name == "euclidean-convexity" else gc.check_gconvex
            assert rep == check(f, cfg, equality=name == "geodesic-linearity")
            if name != "euclidean-convexity":  # a straight segment needs no PD endpoint
                assert rep.skipped >= 1

    def test_user_atoms_run_point_by_point(self, monkeypatch):
        pointwise, maps, _ = self._count(monkeypatch)
        seen = []

        def half_trace(m):
            seen.append(m.tobytes())
            return 0.5 * float(np.trace(m))

        sig = gc.AtomSignature("half_trace", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.POSITIVE,
                               gc.GCurvature.CONVEX, gc.GMonotonicity.INCREASING,
                               gc.ECurvature.AFFINE)
        gc.register_atom(sig, half_trace)
        try:
            x = gc.Variable("X", gc.SPD(3))
            e = gc.apply_atom("half_trace", [x]) + gc.apply_atom("logdet", [x])
            cfg = gc.FuzzConfig(trials=oracle.BLOCK + 6, seed=0)  # two blocks
            out = gc.cross_validate(e, cfg)
            stacked_calls = seen[:]
            del seen[:]
            pointwise_report = gc.check_gconvex(lambda m: gc.evaluate(e, {"X": m}), cfg)
        finally:
            gc.unregister_atom("half_trace")
        assert out.verdict == "CONSISTENT"
        assert out.checks["geodesic-convexity"] == pointwise_report
        # The user atom sees the points in check_gconvex's order: each trial's
        # endpoints, then its path points.
        assert len(stacked_calls) == cfg.trials * 10 and stacked_calls == seen
        assert pointwise == [oracle.BLOCK, 6] * 2 and maps == []

    def test_karcher_seeds_per_block_and_powers_in_one_call(self, monkeypatch):
        # No trial builds a SeedSequence of its own (through default_rng or
        # directly) and no pow node calls _pow once per row: either loop,
        # put back, fails here.
        pointwise, _, _ = self._count(monkeypatch)
        built, pows = [], []

        def counting(fn, log):
            def counted(*args, **kwargs):
                log.append(fn.__name__)
                return fn(*args, **kwargs)

            return counted

        for name in ("default_rng", "SeedSequence"):
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name), built))
        monkeypatch.setattr(spd, "_pow", counting(spd._pow, pows))
        oracle._cached_points.cache_clear()  # every block is generated here
        out = gc.cross_validate(gc.load_problem(PROBLEMS / "karcher.yaml").expression,
                                gc.FuzzConfig(trials=100, seed=0))
        assert out.verdict == "CONSISTENT" and out.checks["geodesic-convexity"].trials_run == 100
        assert pointwise == [] and built == [] and pows == []

    def test_scalar_atoms_make_no_call_per_row(self, monkeypatch):
        # Each scalar atom runs once over the block's alive rows: no function
        # of spd, and no builtin one that spd calls (math.exp, math.log, abs),
        # runs once per row, as a per-row loop over Python floats would.
        pointwise, _, _ = self._count(monkeypatch)
        x = gc.Variable("X", gc.SPD(3))
        logdet = gc.apply_atom("logdet", [x])
        e = (gc.apply_atom("exp", [gc.apply_atom("schatten_norm", [x, 3.0])])
             + gc.apply_atom("neg_log", [logdet + 1.0])  # kills the rows where logdet <= -1
             + gc.apply_atom("abs", [gc.apply_atom("tr", [x])])
             - gc.apply_atom("log", [logdet + 20.0]))
        cfg = gc.FuzzConfig(trials=64, dim=3, seed=0)
        expected = gc.cross_validate(e, cfg)  # generates the points, which are cached
        calls = collections.Counter()

        def profile(frame, event, arg):
            if frame.f_code.co_filename == spd.__file__:
                if event == "call":
                    calls[frame.f_code.co_name] += 1
                elif event == "c_call":
                    calls[arg.__name__] += 1

        sys.setprofile(profile)
        try:
            out = gc.cross_validate(e, cfg)
        finally:
            sys.setprofile(None)
        assert pointwise == []
        assert out == expected and out.checks["geodesic-convexity"].skipped > 0
        assert out.checks["geodesic-convexity"] == gc.check_gconvex(
            lambda m: gc.evaluate(e, {"X": m}), cfg)
        # Two checks of one block each, 64 * 8 points a block.
        assert max(calls.values()) < cfg.trials, calls.most_common(5)

    def test_a_constant_that_kills_every_row(self, monkeypatch):
        pointwise, _, _ = self._count(monkeypatch)
        a = gc.make_const_matrix(np.eye(3), "PD", name="A")
        x = gc.Variable("X", gc.SPD(3))
        # A constant without a finite value is refused where it is built, and
        # so is one that underflows to the zero matrix: it has a value, but
        # not one of SPD, so the gate of ``distance`` would fail at every row.
        with pytest.raises(DomainError, match="atom 'conjugation' has no finite value"):
            gc.apply_atom("conjugation", [a, 1e200 * np.eye(3)])
        zero = gc.apply_atom("conjugation", [a, 1e-200 * np.eye(3)])
        with pytest.raises(DomainError, match="atom 'distance': its constant argument is not "
                                              "positive definite"):
            gc.apply_atom("distance", [zero, x])
        # A tree whose variable part kills every row still builds.
        e = gc.apply_atom("log", [gc.apply_atom("tr", [x]) - 1e6])
        cfg = gc.FuzzConfig(trials=70, dim=3, seed=0)
        with pytest.raises(InconclusiveError, match="70 of 70 trials") as stacked:
            gc.cross_validate(e, cfg)
        assert pointwise == []
        with pytest.raises(InconclusiveError) as point:
            gc.check_gconvex(lambda m: gc.evaluate(e, {"X": m}), cfg)
        assert str(stacked.value) == str(point.value)

    def test_a_floating_point_event_runs_the_block_point_by_point(self, monkeypatch):
        pointwise, _, _ = self._count(monkeypatch)
        tr = gc.apply_atom("tr", [gc.Variable("X", gc.SPD(2))])
        e = 1e308 * tr + 1e308 * tr  # the sum overflows
        cfg = gc.FuzzConfig(trials=oracle.BLOCK + 6, dim=2, seed=0)  # two blocks
        out = gc.cross_validate(e, cfg)
        assert pointwise == [oracle.BLOCK, 6]
        assert out.checks["geodesic-convexity"] == gc.check_gconvex(
            lambda m: gc.evaluate(e, {"X": m}), cfg)


class TestTrialStreams:
    """Each trial's stream is ``np.random.default_rng([seed & _SEED_MASK, index, stream])``,
    bit for bit, though ``_trial_rngs`` seeds a whole block at once."""

    # Seed words: one, two, and the masked top bit.  Index words: one (0,
    # 63, 64, across a block boundary) and two (a block at 2**32).
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, -7, 2**63 + 5)
    RANGES = ((0, 1), (60, 68), (2**32 - 2, 2**32), (2**32, 2**32 + 3))

    @pytest.mark.parametrize("stream", (1, 2, 3))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_equal_default_rng(self, seed, stream):
        for start, stop in self.RANGES:
            words = oracle._seed_words(seed, start, stop, stream)
            rngs = oracle._trial_rngs(seed, start, stop, stream)
            assert words.shape == (stop - start, 4) and len(rngs) == stop - start
            for index, w, rng in zip(range(start, stop), words, rngs):
                entropy = [seed & oracle._SEED_MASK, index, stream]
                seq = np.random.SeedSequence(entropy)
                assert np.array_equal(w, seq.generate_state(4, np.uint64)), index
                assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), w)
                want = np.random.default_rng(entropy)
                assert rng.bit_generator.state == want.bit_generator.state
                assert np.array_equal(rng.normal(size=(3, 3)), want.normal(size=(3, 3)))
                assert np.array_equal(rng.uniform(-1.0, 1.0, 3), want.uniform(-1.0, 1.0, 3))

    def test_a_range_across_a_word_boundary_is_refused(self):
        with pytest.raises(ValueError):
            oracle._seed_words(0, 2**32 - 1, 2**32 + 1, 1)

    def test_only_a_pcg64_seed_is_served(self):
        seq = oracle._trial_rngs(0, 0, 1, 1)[0].bit_generator.seed_seq
        for n, dtype in ((8, np.uint32), (2, np.uint64)):
            with pytest.raises(ValueError):
                seq.generate_state(n, dtype)


class TestBlockDraws:
    """A block's draws equal a per-trial loop over numpy's own ``normal`` and ``uniform``
    calls on ``np.random.default_rng([seed & _SEED_MASK, index, stream])``, bit for bit.

    The block draws raw variates per trial and maps them once with numpy's
    own arithmetic (``spd._spd_from_variates``).  That rests on one
    platform assumption: numpy's C ``uniform`` computes ``low + range * u``
    with two roundings, not one fused multiply-add.  On a platform that
    fuses, this test fails first, before any digest does.
    """

    SEEDS = (0, 2**32 + 5, -7, 2**63 + 5)
    STARTS = (0, 127)  # the first trial, and trials across a 128-trial block's end
    DIMS = (1, 2, 5, 10)
    CONDS = (1.0, 10.0, 1e4)  # cond 1 gives half = 0: uniform(-0.0, 0.0)
    TRIALS = 3

    @staticmethod
    def _capture(monkeypatch) -> list:
        """The ``(g, u)`` every ``spd._spd_from_draws`` call receives from now on."""
        seen = []
        build = spd._spd_from_draws

        def captured(g, u):
            seen.append((g, u))
            return build(g, u)

        monkeypatch.setattr(spd, "_spd_from_draws", captured)
        return seen

    @classmethod
    def _loop(cls, seed, start, stream, d, cond, mats, normals, t_samples=0):
        """The per-trial loop: numpy's own calls, trial by trial."""
        half = 0.5 * math.log(cond)
        g, u, w, ts = [], [], [], []
        for i in range(start, start + cls.TRIALS):
            rng = np.random.default_rng([seed & oracle._SEED_MASK, i, stream])
            for _ in range(mats):
                g.append(rng.normal(size=(d, d)))
                u.append(rng.uniform(-half, half, d))
            w.append(rng.normal(size=(normals, d, d)))
            ts.append(np.random.default_rng([seed & oracle._SEED_MASK, i, 2])
                      .uniform(0.0, 1.0, t_samples))
        n = cls.TRIALS
        return (np.reshape(g, (n, mats, d, d)), np.reshape(u, (n, mats, d)),
                np.reshape(w, (n, normals, d, d)), np.reshape(ts, (n, t_samples)))

    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("d", DIMS)
    def test_block_draws_equal_the_per_trial_loop(self, monkeypatch, d, cond):
        seen = self._capture(monkeypatch)
        for seed in self.SEEDS:
            for start in self.STARTS:
                stop = start + self.TRIALS
                for stream, mats, normals, t_samples in ((1, 2, 0, 5), (3, 1, 1, None)):
                    del seen[:]
                    spd_mats, w, ts = oracle._block_draws(seed, start, stop, stream, d, cond,
                                                          mats, normals, t_samples=t_samples)
                    g, u, want_w, want_ts = self._loop(seed, start, stream, d, cond, mats,
                                                       normals, t_samples or 0)
                    ((got_g, got_u),) = seen
                    # Bytes, so that -0.0 and 0.0 differ.
                    assert got_g.tobytes() == g.tobytes() and got_u.tobytes() == u.tobytes()
                    assert spd_mats.tobytes() == spd._spd_from_draws(g, u).tobytes()
                    assert w.tobytes() == want_w.tobytes()
                    if t_samples is None:
                        assert ts is None
                    else:
                        assert ts[:, 3:].tobytes() == want_ts.tobytes()
                        assert ts.tobytes() == oracle._block_ts(seed, start, stop,
                                                                t_samples).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_block_ts_equal_the_per_trial_loop(self, seed):
        for start in self.STARTS:
            for t_samples in (0, 1, 7):
                ts = oracle._block_ts(seed, start, start + self.TRIALS, t_samples)
                want = self._loop(seed, start, 2, 1, 10.0, 0, 0, t_samples)[3]
                assert np.all(ts[:, :3] == (0.5, 0.25, 0.75))
                assert ts[:, 3:].tobytes() == want.tobytes()

    @pytest.mark.parametrize("cond", CONDS)
    @pytest.mark.parametrize("d", DIMS)
    def test_random_spd_keeps_its_formula(self, d, cond):
        half = 0.5 * math.log(cond)
        for seed in self.SEEDS:
            seed &= oracle._SEED_MASK
            rng = np.random.default_rng(seed)
            want = spd._spd_from_draws(rng.normal(size=(d, d)), rng.uniform(-half, half, size=d))
            assert np.asarray(gc.random_spd(d, cond, seed)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_hash_pass_serves_several_streams(self, seed):
        for start, stop in ((0, 1), (127, 256), (2**32, 2**32 + 3)):
            both = oracle._seed_words(seed, start, stop, (1, 2))
            assert both.shape == (2, stop - start, 4)
            for words, stream in zip(both, (1, 2)):
                assert np.array_equal(words, oracle._seed_words(seed, start, stop, stream))
            one = oracle._seed_words(seed, start, stop, (3,))
            assert np.array_equal(one[0], oracle._seed_words(seed, start, stop, 3))
            rngs = oracle._trial_rngs(seed, start, stop, (1, 2))
            assert [len(r) for r in rngs] == [stop - start] * 2
            for stream, generators in zip((1, 2), rngs):
                want = np.random.default_rng([seed & oracle._SEED_MASK, start, stream])
                assert generators[0].bit_generator.state == want.bit_generator.state

    def test_importing_geocert_draws_nothing_and_hashes_nothing(self):
        # numpy.random (about 12 ms) loads with the first block drawn, and
        # the hash constants are kept once first asked for, not at import.
        src = str(Path(oracle.__file__).resolve().parents[1])
        code = ("import sys, geocert; from geocert import oracle; "
                "print('numpy.random' in sys.modules, oracle._hash_consts.cache_info().currsize)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.split() == ["False", "0"]


class TestBlockSize:
    def test_a_block_never_straddles_a_seed_word_boundary(self):
        # ``_blocks`` cuts at multiples of BLOCK, which avoids 2**32 only
        # because BLOCK, a power of two no larger than 2**32, divides it.
        assert 1 <= oracle.BLOCK <= 2**32 and oracle.BLOCK & (oracle.BLOCK - 1) == 0
        assert list(oracle._blocks(2**32 - 3, 2**32 + 3)) == [(2**32 - 3, 2**32),
                                                              (2**32, 2**32 + 3)]

    def test_the_caches_keep_32768_trials(self):
        assert oracle._CACHE_BLOCKS * oracle.BLOCK == 32768
        assert oracle._cached_points.cache_info().maxsize == oracle._CACHE_BLOCKS


class TestBlockPaths:
    """A generated block's paths are built on first use and handed to every later check of it."""

    @staticmethod
    def _count_frames(monkeypatch):
        """The number of endpoint pairs of each ``spd._geodesic_frames`` call from now on."""
        calls = []
        build = spd._geodesic_frames

        def counted(a, b):
            calls.append(len(a))
            return build(a, b)

        monkeypatch.setattr(spd, "_geodesic_frames", counted)
        return calls

    def test_checks_at_one_block_build_its_geodesics_once(self, monkeypatch):
        cfg = gc.FuzzConfig(trials=oracle.BLOCK + 36, dim=3, seed=21)  # two blocks
        checks = (
            lambda: gc.check_gconvex(spd.eval_logdet, cfg, equality=True),
            lambda: gc.check_gconvex(spd.eval_elementwise_norm1, cfg),
            lambda: gc.check_econvex(spd.eval_tr, cfg, equality=True),
            lambda: gc.check_gconvex(lambda x: -spd.eval_inv(x), cfg),
        )
        cold = []
        for check in checks:
            oracle._cached_points.cache_clear()
            cold.append(check())
        oracle._cached_points.cache_clear()
        calls = self._count_frames(monkeypatch)
        warm = [check() for check in checks]
        assert calls == [oracle.BLOCK, 36]
        assert warm == cold
        assert warm[3].verdict == "ViolationFound"  # a witness read off shared paths

    def test_monotonicity_checks_at_one_seed_draw_each_ordered_block_once(self, monkeypatch):
        cfg = gc.FuzzConfig(trials=oracle.BLOCK + 36, dim=3, seed=21)  # two blocks
        checks = (
            lambda: gc.check_monotone_loewner(spd.eval_logdet, "increasing", cfg),
            lambda: gc.check_monotone_loewner(spd.eval_inv, "increasing", cfg),
        )
        cold = []
        for check in checks:
            oracle._cached_ordered_pair.cache_clear()
            cold.append(check())
        oracle._cached_ordered_pair.cache_clear()
        draws = []
        block_draws = oracle._block_draws

        def counted(seed, start, stop, stream, *args):
            draws.append((start, stop, stream))
            return block_draws(seed, start, stop, stream, *args)

        monkeypatch.setattr(oracle, "_block_draws", counted)
        warm = [check() for check in checks]
        assert draws == [(0, oracle.BLOCK, 3), (oracle.BLOCK, oracle.BLOCK + 36, 3)]
        assert warm == cold
        assert warm[1].verdict == "ViolationFound"  # a witness read off a shared block

    def test_paths_are_the_same_read_only_arrays_as_a_fresh_build(self):
        block = oracle._cached_points(3, 0, 64, 3, 10.0, 2, 5)
        for geodesic in (True, False):
            points, ok = block.paths(geodesic)
            again, ok_again = block.paths(geodesic)
            assert ok_again is ok and all(p is q for p, q in zip(again, points))
            assert not ok.flags.writeable and not any(p.flags.writeable for p in points)
            fresh, fresh_ok = oracle._paths(geodesic, *block)
            assert ok.tobytes() == fresh_ok.tobytes()
            assert [p.tobytes() for p in points] == [p.tobytes() for p in fresh]

    @pytest.mark.parametrize("geodesic", [True, False, None])
    def test_every_trial_source_is_a_block(self, geodesic):
        cfg = gc.FuzzConfig(trials=oracle.BLOCK + 5, dim=2, seed=3,
                            injected=((2.0 * np.eye(2), np.eye(2)),) * 2)
        blocks = list(oracle._batches(cfg, 1, geodesic))
        assert [type(b) for b in blocks] == [oracle._BlockPoints] * 4
        assert [len(b.a[0]) for b in blocks] == [1, 1, oracle.BLOCK - 2, 5]
        for block in blocks:
            a, b, ts = block
            assert (a, b, ts) == (block.a, block.b, block.ts)
            assert (ts is None) == (geodesic is None)
            assert not any(x.flags.writeable for x in a + b)

    def test_injected_pairs_build_their_own_paths(self, monkeypatch):
        cfg = gc.FuzzConfig(trials=10, dim=2, seed=3, injected=((np.eye(2), 2.0 * np.eye(2)),))
        first = gc.check_gconvex(spd.eval_tr, cfg)
        calls = self._count_frames(monkeypatch)
        assert gc.check_gconvex(spd.eval_tr, cfg) == first
        assert calls == [1]


class TestReevaluateWitness:
    @pytest.mark.parametrize("f", [
        lambda x: -spd.eval_tr(x),
        lambda x: -spd.eval_inv(x),
    ], ids=["scalar", "matrix"])
    def test_geodesic_witness_bit_for_bit(self, f):
        rep = gc.check_gconvex(f, gc.FuzzConfig(trials=40, dim=3, seed=8))
        assert rep.verdict == "ViolationFound"
        assert gc.reevaluate_witness(f, rep.witness) == rep.witness.residual

    def test_euclidean_witness_bit_for_bit(self):
        h = np.array([1.0, 2.0, 3.0])
        f = lambda x: spd.eval_log_quad_form((h,), x)
        rep = gc.check_econvex(f, CFG)
        assert rep.verdict == "ViolationFound"
        again = gc.reevaluate_witness(f, rep.witness, geodesic=False)
        assert again == rep.witness.residual

    @pytest.mark.parametrize("f, nargs, geodesic, equality, injected", [
        (lambda x, y: -spd.distance(x, y), 2, True, False, ()),
        (spd.eval_tr, 1, True, True, ()),
        (spd.eval_logdet, 1, False, True, ()),
        (spd.elementwise_norm1, 1, True, False, ((np.eye(3), SIGMA_2),)),
    ], ids=["two-argument", "two-sided-geodesic", "two-sided-euclidean", "injected"])
    def test_every_kind_of_witness_bit_for_bit(self, f, nargs, geodesic, equality, injected):
        cfg = gc.FuzzConfig(trials=60, dim=3, seed=8, injected=injected)
        check = gc.check_gconvex if geodesic else gc.check_econvex
        rep = check(f, cfg, nargs=nargs, equality=equality)
        assert rep.verdict == "ViolationFound" and len(rep.witness.point_a) == nargs
        if injected:
            assert np.array_equal(rep.witness.point_b[0], SIGMA_2)
        again = gc.reevaluate_witness(f, rep.witness, geodesic=geodesic, equality=equality)
        assert again == rep.witness.residual


class TestReadOnlyPoints:
    @pytest.mark.parametrize("check", ["gconvex", "econvex", "monotone"])
    def test_writing_into_a_point_raises(self, check):
        calls = []

        def f(x):
            calls.append(1)
            if len(calls) == 3:  # the first midpoint, or the next trial's endpoint
                x[0, 0] = 0.0
            return float(np.trace(x))

        cfg = gc.FuzzConfig(trials=10, dim=3, seed=9)
        with pytest.raises(ValueError):
            if check == "gconvex":
                gc.check_gconvex(f, cfg)
            elif check == "econvex":
                gc.check_econvex(f, cfg)
            else:
                gc.check_monotone_loewner(f, "increasing", cfg)

    def test_failed_writes_leave_the_block_intact(self):
        writes = []

        def f(x):
            try:
                x[...] = 0.0
                writes.append(1)
            except ValueError:
                pass
            return float(np.trace(x))

        cfg = gc.FuzzConfig(trials=100, dim=3, seed=10)
        for check in (gc.check_gconvex, gc.check_econvex):
            assert check(f, cfg) == check(spd.eval_tr, cfg)
        assert not writes
