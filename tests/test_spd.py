import math

import numpy as np
import pytest

import geocert as gc
from geocert import spd
from geocert.errors import DomainError, RangeError, ShapeError

from conftest import SIGMA_2, eigh_pow, eigh_sqrt, midpoint_oracle, rel_err


class TestSymEig:
    def test_identity(self):
        pair = gc.sym_eig(np.eye(3))
        assert np.allclose(pair.lam, [1.0, 1.0, 1.0])

    def test_sorted_descending(self):
        pair = gc.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert list(pair.lam) == [3.0, 2.0, 1.0]

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.normal(size=(6, 6))
            m = (m + m.T) / 2
            pair = gc.sym_eig(m)
            assert np.linalg.norm(pair.reconstruct() - m) <= 1e-9 * np.linalg.norm(m)
            assert np.linalg.norm(pair.q.T @ pair.q - np.eye(6)) <= 1e-10 * 6

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            gc.sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            gc.sym_eig(np.ones((2, 3)))


class TestSPDMatrix:
    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            gc.SPDMatrix(np.diag([1.0, -1e-6]))

    def test_rejects_barely_singular(self):
        with pytest.raises(DomainError):
            gc.SPDMatrix(np.diag([1.0, 1e-12]))

    def test_entries_read_only(self):
        m = gc.SPDMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestMatrixFunctions:
    def test_sqrt_identity(self):
        assert np.allclose(gc.matrix_sqrt(np.eye(3)).entries, np.eye(3))

    def test_inv_diag(self):
        out = gc.matrix_inv(np.diag([2.0, 4.0]))
        assert np.allclose(out.entries, np.diag([0.5, 0.25]))

    def test_pow_sixteen(self):
        out = gc.matrix_pow(np.diag([16.0, 16.0]), 0.5)
        assert np.allclose(out.entries, np.diag([4.0, 4.0]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gc.matrix_log(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError):
            gc.matrix_sqrt(np.diag([1.0, -1.0]))

    def test_round_trips(self):
        rng = np.random.default_rng(1)
        for i in range(10):
            s = rng.normal(size=(4, 4))
            s = (s + s.T) / 2
            back = gc.matrix_log(gc.matrix_exp(s))
            assert rel_err(back, s) <= 1e-9
            m = np.asarray(gc.random_spd(4, 100.0, i))
            root = gc.matrix_sqrt(m).entries
            assert rel_err(root @ root, m) <= 1e-9


class TestGeodesic:
    def test_endpoints(self):
        for i in range(10):
            a = np.asarray(gc.random_spd(4, 100.0, 10 + i))
            b = np.asarray(gc.random_spd(4, 100.0, 50 + i))
            assert rel_err(gc.geodesic(a, b, 0.0).entries, a) <= 1e-10
            assert rel_err(gc.geodesic(a, b, 1.0).entries, b) <= 1e-10

    def test_constant_path(self):
        a = np.asarray(gc.random_spd(3, 10.0, 3))
        assert rel_err(gc.geodesic(a, a, 0.42).entries, a) <= 1e-10

    def test_scaled_identity_midpoint(self):
        g = gc.geodesic(np.diag([1.0, 1.0]), np.diag([16.0, 16.0]), 0.5)
        assert np.allclose(g.entries, np.diag([4.0, 4.0]), atol=1e-12)

    def test_midpoint_is_geometric_mean(self):
        a = np.asarray(gc.random_spd(3, 10.0, 4))
        b = np.asarray(gc.random_spd(3, 10.0, 5))
        assert rel_err(gc.geodesic(a, b, 0.5).entries, gc.geometric_mean(a, b).entries) == 0.0

    def test_range_error(self):
        a = np.eye(2)
        with pytest.raises(RangeError):
            gc.geodesic(a, a, 1.5)

    @pytest.mark.parametrize("path", [
        lambda a, b: gc.geodesic_path(a, b),
        lambda a, b: gc.geodesic(a, b, 0.5),
        lambda a, b: gc.geometric_mean(a, b),
    ], ids=["geodesic_path", "geodesic", "geometric_mean"])
    def test_both_endpoints_gated(self, path):
        good = np.eye(2)
        asym = np.array([[2.0, 0.5], [0.0, 1.0]])
        nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
        for a, b in ((asym, good), (good, asym)):
            with pytest.raises(ShapeError):
                path(a, b)
        for a, b in ((nan, good), (good, nan)):
            with pytest.raises(DomainError):
                path(a, b)

    def test_matches_independent_oracle(self):
        a = np.asarray(gc.random_spd(4, 30.0, 6))
        b = np.asarray(gc.random_spd(4, 30.0, 7))
        assert rel_err(gc.geometric_mean(a, b).entries, midpoint_oracle(a, b)) <= 1e-10


class TestGeometricMean:
    def test_fixed_point(self):
        a = np.asarray(gc.random_spd(3, 10.0, 8))
        assert rel_err(gc.geometric_mean(a, a).entries, a) <= 1e-10

    def test_identity_collapses_to_sqrt(self):
        b = np.asarray(gc.random_spd(3, 10.0, 9))
        assert rel_err(gc.geometric_mean(np.eye(3), b).entries, eigh_sqrt(b)) <= 1e-9

    def test_symmetry(self):
        a = np.asarray(gc.random_spd(3, 10.0, 10))
        b = np.asarray(gc.random_spd(3, 10.0, 11))
        assert rel_err(gc.geometric_mean(a, b).entries, gc.geometric_mean(b, a).entries) <= 1e-9

    def test_inverse_commutes(self):
        rng = np.random.default_rng(12)
        for i in range(30):
            a = np.asarray(gc.random_spd(4, 100.0, 100 + i))
            b = np.asarray(gc.random_spd(4, 100.0, 200 + i))
            t = float(rng.uniform())
            lhs = gc.matrix_inv(gc.geodesic(a, b, t)).entries
            rhs = gc.geodesic(gc.matrix_inv(a), gc.matrix_inv(b), t).entries
            assert rel_err(lhs, rhs) <= 1e-9

    def test_congruence(self):
        rng = np.random.default_rng(13)
        for i in range(10):
            a = np.asarray(gc.random_spd(3, 50.0, 300 + i))
            b = np.asarray(gc.random_spd(3, 50.0, 400 + i))
            c = rng.normal(size=(3, 3))
            lhs = c.T @ gc.geometric_mean(a, b).entries @ c
            rhs = gc.geometric_mean(c.T @ a @ c, c.T @ b @ c).entries
            assert rel_err(lhs, rhs) <= 1e-8


class TestDistance:
    def test_zero_on_diagonal(self):
        a = np.asarray(gc.random_spd(3, 10.0, 14))
        assert gc.distance(a, a) <= 1e-10

    def test_known_value(self):
        assert abs(gc.distance(np.eye(2), np.diag([math.e ** 2, 1.0])) - 2.0) <= 1e-12

    def test_symmetry_and_triangle(self):
        for i in range(20):
            a = np.asarray(gc.random_spd(3, 100.0, 500 + i))
            b = np.asarray(gc.random_spd(3, 100.0, 600 + i))
            c = np.asarray(gc.random_spd(3, 100.0, 700 + i))
            dab = gc.distance(a, b)
            assert abs(dab - gc.distance(b, a)) <= 1e-8 * max(1.0, dab)
            assert dab <= gc.distance(a, c) + gc.distance(c, b) + 1e-8

    def test_congruence_invariance(self):
        rng = np.random.default_rng(15)
        for i in range(20):
            a = np.asarray(gc.random_spd(4, 100.0, 800 + i))
            b = np.asarray(gc.random_spd(4, 100.0, 900 + i))
            c = rng.normal(size=(4, 4))
            d0 = gc.distance(a, b)
            d1 = gc.distance(c.T @ a @ c, c.T @ b @ c)
            assert abs(d0 - d1) <= 1e-8 * max(1.0, d0)

    def test_logdet_linear_along_geodesics(self):
        for i in range(20):
            a = np.asarray(gc.random_spd(4, 100.0, 20 + i))
            b = np.asarray(gc.random_spd(4, 100.0, 60 + i))
            path = gc.geodesic_path(a, b)
            for t in (0.25, 0.5, 0.75):
                lhs = spd.eval_logdet(path(t))
                rhs = (1 - t) * spd.eval_logdet(a) + t * spd.eval_logdet(b)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestLoewner:
    def test_basic_order(self):
        assert gc.loewner_geq(2 * np.eye(2), np.eye(2))
        assert not gc.loewner_geq(np.diag([2.0, 0.5]), np.eye(2))
        assert gc.loewner_geq(np.eye(2), np.eye(2))

    def test_am_gm(self):
        for i in range(30):
            a = np.asarray(gc.random_spd(3, 100.0, 30 + i))
            b = np.asarray(gc.random_spd(3, 100.0, 70 + i))
            ai, bi = gc.matrix_inv(a).entries, gc.matrix_inv(b).entries
            assert gc.loewner_geq((ai + bi) / 2, gc.geometric_mean(ai, bi).entries, 1e-9)


class TestRandomSPD:
    def test_condition_bound(self):
        for i, cond in enumerate([1.0, 10.0, 1e4]):
            m = gc.random_spd(5, cond, 40 + i)
            lam = m.eig.lam
            assert lam[0] / lam[-1] <= cond * (1 + 1e-9)

    def test_determinism(self):
        assert np.array_equal(np.asarray(gc.random_spd(4, 10.0, 7)), np.asarray(gc.random_spd(4, 10.0, 7)))

    def test_dim_one(self):
        m = gc.random_spd(1, 10.0, 8)
        assert m.entries.shape == (1, 1) and m.entries[0, 0] > 0

    def test_bad_args(self):
        with pytest.raises(RangeError):
            gc.random_spd(0, 10.0, 1)
        with pytest.raises(RangeError):
            gc.random_spd(2, 0.5, 1)

    @pytest.mark.parametrize("cond", [math.inf, math.nan])
    def test_non_finite_cond_rejected(self, cond):
        with pytest.raises(RangeError, match="finite"):
            gc.random_spd(3, cond)


class TestEvalAtom:
    def test_sdivergence_zero(self):
        x = np.asarray(gc.random_spd(3, 10.0, 50))
        assert abs(gc.eval_atom("sdivergence", x, x)) <= 1e-12

    def test_eigsummax(self):
        assert gc.eval_atom("eigsummax", np.diag([1.0, 2.0, 3.0]), 2) == 5.0

    def test_elementwise_norm1_midpoint_value(self):
        mid = midpoint_oracle(np.eye(3), SIGMA_2)
        assert abs(gc.eval_atom("elementwise_norm1", mid) - 4.7638) <= 5e-4

    def test_matrix_atoms_return_validated(self):
        x = np.asarray(gc.random_spd(3, 10.0, 51))
        out = gc.eval_atom("inv", x)
        assert isinstance(out, gc.SPDMatrix)
        assert rel_err(out.entries, eigh_pow(x, -1.0)) <= 1e-9

    def test_quad_and_log_quad(self):
        x = np.diag([2.0, 3.0])
        h = np.array([1.0, 1.0])
        assert gc.eval_atom("quad_form", h, x) == 5.0
        assert abs(gc.eval_atom("log_quad_form", (h,), x) - math.log(5.0)) <= 1e-12

    def test_schatten_and_spectral(self):
        x = np.diag([3.0, 4.0])
        assert abs(gc.eval_atom("schatten_norm", x, 2.0) - 5.0) <= 1e-12
        assert gc.eval_atom("eigmax", x) == 4.0
        assert abs(gc.eval_atom("sum_log_eigmax", x, 1) - math.log(4.0)) <= 1e-12

    def test_positive_affine_value(self):
        x = np.diag([1.0, 2.0])
        y = np.array([[1.0], [1.0]])
        out = gc.eval_atom("positive_affine", x, (y,), np.array([[1.0]]), 1)
        assert np.allclose(out.entries, [[4.0]])

    def test_scalar_domain_errors(self):
        with pytest.raises(DomainError):
            gc.eval_atom("log", -1.0)
        with pytest.raises(DomainError):
            gc.eval_atom("pow", -2.0, 1.5)

    def test_unknown(self):
        with pytest.raises(gc.UnknownAtomError):
            gc.eval_atom("nope", np.eye(2))

    def test_user_registered_atom(self):
        sig = gc.AtomSignature(
            id="doubled",
            positions=(gc.ArgKind.MANIFOLD,),
            result="matrix",
            sign=gc.Sign.POSITIVE,
            gcurv=gc.GCurvature.LINEAR,
            gmono=gc.GMonotonicity.INCREASING,
            ecurv=gc.ECurvature.AFFINE,
        )
        gc.register_atom(sig, lambda x: 2.0 * x)
        try:
            x = gc.random_spd(3, 10.0, 52)
            out = gc.eval_atom("doubled", x)
            assert isinstance(out, gc.SPDMatrix)
            assert np.array_equal(out.entries, 2.0 * x.entries)
        finally:
            gc.unregister_atom("doubled")
