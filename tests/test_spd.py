import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import geocert as gc
from geocert import spd
from geocert.cli import main
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


class TestEigenEntryPoints:
    """``spd._eigh`` and ``spd._eigvalsh``: numpy's results without numpy's wrapper."""

    @staticmethod
    def _outcome(fn, a):
        try:
            out = fn(a)
        except np.linalg.LinAlgError as exc:
            return "LinAlgError", str(exc)
        out = tuple(out) if isinstance(out, tuple) else (out,)
        return [(x.dtype, x.shape, x.tobytes()) for x in out]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_bit_equal_to_numpy(self, d):
        stack = spd._sym(np.random.default_rng(d).normal(size=(5, d, d)))
        nan_rows = stack.copy()
        nan_rows[[1, 3], -1, 0] = np.nan
        for a in (stack[0], stack, stack[:, ::-1, ::-1], nan_rows, nan_rows[1]):
            assert self._outcome(spd._eigh, a) == self._outcome(np.linalg.eigh, a)
            assert self._outcome(spd._eigvalsh, a) == self._outcome(np.linalg.eigvalsh, a)

    @pytest.mark.parametrize("fn", [spd._eigh, spd._eigvalsh])
    def test_rejects_what_numpy_rejects_and_non_float64(self, fn):
        with pytest.raises(np.linalg.LinAlgError):
            fn(np.ones((2, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            fn(np.ones((4, 3, 2)))
        with pytest.raises(np.linalg.LinAlgError):
            fn(np.ones(3))
        with pytest.raises(TypeError):
            fn(np.eye(2, dtype=np.float32))

    def test_lapack_is_entered_only_through_eigh_and_eigvalsh(self):
        # A source scan of the package: the eigensolver gufuncs and the
        # ``_lapack`` call behind them appear only in ``spd._eigh`` and
        # ``spd._eigvalsh`` (and where ``_lapack`` is defined), and no module
        # reaches ``np.linalg.eigh`` or ``np.linalg.eigvalsh``, so inlining
        # the call elsewhere fails here.
        package = Path(spd.__file__).resolve().parent
        entries = {("spd", "_eigh"), ("spd", "_eigvalsh")}
        misplaced, wrappers = [], []

        def scan(node, module, function):
            for child in ast.iter_child_nodes(node):
                inner = function
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = child.name
                name = (child.id if isinstance(child, ast.Name)
                        else child.attr if isinstance(child, ast.Attribute) else None)
                if name in ("_umath_linalg", "_lapack") and (module, function) not in entries:
                    misplaced.append(f"{module}.{function}: {name}")
                if (isinstance(child, ast.Attribute) and child.attr in ("eigh", "eigvalsh")
                        and isinstance(child.value, ast.Attribute)
                        and child.value.attr == "linalg"):
                    wrappers.append(f"{module}.{function}: linalg.{child.attr}")
                if isinstance(child, ast.ImportFrom):
                    names = {alias.name for alias in child.names}
                    if "linalg" in (child.module or "") and names & {"eigh", "eigvalsh"}:
                        wrappers.append(f"{module}: import of {sorted(names)}")
                    if "_umath_linalg" in names and module != "spd":
                        misplaced.append(f"{module}: import of _umath_linalg")
                scan(child, module, inner)

        sources = sorted(package.glob("*.py"))
        assert {p.stem for p in sources} >= {"spd", "oracle", "expr", "solver"}
        for path in sources:
            scan(ast.parse(path.read_text()), path.stem, None)
        assert misplaced == [] and wrappers == []

    def test_no_caller_reaches_the_numpy_wrappers(self, monkeypatch, capsys):
        calls = []

        def forbidden(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"np.linalg.{name} called")
            return call

        monkeypatch.setattr(np.linalg, "eigh", forbidden("eigh"))
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden("eigvalsh"))
        problems = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.yaml"))
        assert len(problems) == 4
        for path in problems:
            assert main(["analyze", str(path)]) == 0
            assert main(["fuzz", str(path), "--trials", "40", "--seed", "3"]) == 0
            assert main(["solve", str(path)]) == (4 if path.name == "tyler.yaml" else 0)
        capsys.readouterr()
        cfg = gc.FuzzConfig(trials=20, dim=3, seed=9)
        assert gc.check_gconvex(spd.eval_distance, cfg, nargs=2).verdict == "NoViolationFound"
        ordered = gc.FuzzConfig(trials=20, dim=3, seed=9,
                                injected=((2.0 * np.eye(3), np.diag([1.0, 2.0, 0.5])),))
        assert gc.check_econvex(spd.eval_inv, ordered).verdict == "NoViolationFound"
        assert gc.check_monotone_loewner(spd.eval_inv, "decreasing", ordered).trials_run == 20
        assert gc.check_monotone_loewner(spd.eval_inv, "increasing", ordered).witness

        def neg_inv(x):
            return -spd.eval_inv(x)

        rep = gc.check_gconvex(neg_inv, cfg)
        assert gc.reevaluate_witness(neg_inv, rep.witness) == rep.witness.residual
        assert calls == []


class TestOneSource:
    """Source scans of the package: each rule has one home, so a second copy fails here."""

    @staticmethod
    def _sites(matches) -> set:
        """``(module, enclosing function)`` of every node of the package that ``matches``."""
        sites = set()

        def scan(node, module, function):
            for child in ast.iter_child_nodes(node):
                inner = child.name if isinstance(child, (ast.FunctionDef,
                                                         ast.AsyncFunctionDef)) else function
                if matches(child):
                    sites.add((module, function))
                scan(child, module, inner)

        for path in sorted(Path(spd.__file__).resolve().parent.glob("*.py")):
            scan(ast.parse(path.read_text()), path.stem, None)
        return sites

    @classmethod
    def _references(cls, name: str) -> set:
        """The sites of every reference to ``name`` in the package."""
        return cls._sites(lambda node: (isinstance(node, ast.Name) and node.id == name)
                          or (isinstance(node, ast.Attribute) and node.attr == name))

    def test_one_routine_draws_the_falsifier_points(self):
        # A second draw loop, taking a trial's stream or an SPD matrix's
        # draws anywhere else, fails here.
        assert self._references("_trial_rngs") == {("oracle", "_block_draws"),
                                                   ("oracle", "_block_ts")}
        assert self._references("_spd_draws") == {("oracle", "_block_draws"),
                                                  ("spd", "random_spd")}

    def test_only_spd_reads_the_symmetry_gate(self):
        assert {module for module, _ in self._references("_check_symmetric_square")} == {"spd"}

    def test_one_kernel_rebuilds_from_a_spectrum(self):
        # ``_sym((x * y) @ z)`` or ``_sym((x / y) @ z)`` written out anywhere
        # else is a second copy of the spectral rebuild, whose bits a stacked
        # row would then have to match by hand.
        def rebuild(node) -> bool:
            if not (isinstance(node, ast.Call) and len(node.args) == 1):
                return False
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            product = node.args[0]
            return (name == "_sym" and isinstance(product, ast.BinOp)
                    and isinstance(product.op, ast.MatMult) and isinstance(product.left, ast.BinOp)
                    and isinstance(product.left.op, (ast.Mult, ast.Div)))

        assert self._sites(rebuild) == {("spd", "_congruence"), ("spd", "_inv_sqrt")}


class TestMemo:
    def test_an_entry_is_never_served_to_another_array(self):
        # Each copy is a temporary, dropped after its call, whose id the next
        # copy may get; the memo keeps what it keyed on alive, so every copy
        # gets its own entry.
        memo = spd.Memo()
        mats = [np.asarray(gc.random_spd(3, 10.0, i)) for i in range(20)]
        for a in mats:
            assert memo.eigvalsh(a.copy()).tolist() == spd._eigvalsh(a).tolist()
        for a in mats:
            pair = memo.pd_eig(a.copy(), "not positive definite")
            assert pair.lam.tolist() == spd.sym_eig(a).lam.tolist()
        for a in mats:
            assert np.allclose(memo.inv_sqrt(a.copy()), np.linalg.inv(eigh_sqrt(a)))


class TestRowsMap:
    def test_constant_eigenvalues_run_the_tail_once(self):
        rows = spd.Rows(np.array([True, False, True, True]))
        lam = np.array([1.0, 2.0, 3.0])[::-1]
        seen = []

        def tail(row, k):
            seen.append(row)
            return float(row[0]) * k

        assert rows.map(tail, lam, 2.0).tolist() == [6.0, 0.0, 6.0, 6.0]
        assert len(seen) == 1 and seen[0].strides == lam.strides
        assert rows.alive.tolist() == [True, False, True, True]

    def test_a_constant_domain_error_kills_every_alive_row(self):
        # A domain test of one constant matrix is one flag for every row; the
        # tail then has no alive row to run on.
        x = np.diag([2.0, 0.5])
        with pytest.raises(DomainError):
            spd.eval_sum_pow_log_eigmax(x, 2, 1.5)
        rows = spd.Rows(np.array([True, False, True]))
        assert spd.eval_sum_pow_log_eigmax(x, 2, 1.5, rows=rows).tolist() == [0.0, 0.0, 0.0]
        assert not rows.alive.any()
        seen = []
        rows.map(seen.append, np.ones(2))
        assert seen == []


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


DBL_MAX = float(np.finfo(float).max)


class TestGate:
    """``spd._check_symmetric_square``: one byte comparison and one reduction for
    the common case, the parent's checks and messages for everything else."""

    NON_FINITE = (DomainError, "matrix has non-finite entries")
    ASYMMETRIC = (ShapeError, "matrix is not symmetric within 1e-12 relative")
    OVERFLOW = (DomainError, "matrix has an entry past 8.98847e+307, where symmetrizing overflows")
    ROWS = {
        # name: (matrix, outcome: the exception and message, or whether _sym(a) is a)
        "symmetric": ([[2.0, 0.5], [0.5, 1.0]], True),
        "NaN": ([[np.nan, 0.0], [0.0, 1.0]], NON_FINITE),
        "NaN pair": ([[1.0, np.nan], [np.nan, 1.0]], NON_FINITE),
        "inf pair": ([[1.0, np.inf], [-np.inf, 1.0]], NON_FINITE),
        "-0.0 against 0.0": ([[1.0, -0.0], [0.0, 1.0]], False),
        "asymmetry within 1e-12": ([[2.0, 0.5 + 1e-15], [0.5, 1.0]], False),
        "asymmetry beyond 1e-12": ([[2.0, 0.5 + 1e-9], [0.5, 1.0]], ASYMMETRIC),
        "entry at DBL_MAX": ([[DBL_MAX, 0.0], [0.0, 1.0]], OVERFLOW),
        "entry at DBL_MAX / 2": ([[DBL_MAX / 2.0, 0.0], [0.0, 1.0]], True),
        # The parent's norms overflowed here, with a RuntimeWarning, and
        # inf > 1e-12 * inf let the antisymmetric pair through.
        "antisymmetric pair at 1e200": ([[0.0, 1e200], [-1e200, 0.0]], ASYMMETRIC),
    }

    @pytest.mark.parametrize("row", ROWS)
    def test_gate_table(self, row):
        values, outcome = self.ROWS[row]
        a = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(outcome, bool):
                assert spd._check_symmetric_square(a) is outcome
                assert self._same(gc.sym_eig(a), a)
                return
            error, message = outcome
            for gate in (spd._check_symmetric_square, gc.sym_eig, gc.SPDMatrix):
                with pytest.raises(error) as info:
                    gate(a)
                assert str(info.value) == message

    @staticmethod
    def _same(pair, a):
        """``pair`` is the parent's ``sym_eig(a)``: the decomposition of ``_sym(a)``, bit for bit."""
        ref = spd._eig_nogate(a)
        return pair.q.tobytes() == ref.q.tobytes() and pair.lam.tobytes() == ref.lam.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_sym_eig_and_spd_matrix_keep_the_parents_bits(self, d):
        rng = np.random.default_rng(d)
        g = rng.normal(size=(4, d, d))
        stack = spd._sym(g @ np.swapaxes(g, -1, -2)) + np.eye(d)
        for a in (*stack, stack[0].T, np.asfortranarray(stack[1]),
                  stack[2] + 1e-15 * np.triu(np.ones((d, d)), 1)):
            assert self._same(gc.sym_eig(a), a)
            m = gc.SPDMatrix(a)
            assert self._same(m.eig, a)
            assert m.entries.tobytes() == spd._sym(a).tobytes()
            assert not m.entries.flags.writeable


class TestSPDMatrixSpectrum:
    def test_an_overflowing_symmetrization_is_rejected(self):
        # The parent's _sym overflowed to inf and gave NaN eigenvalues, which
        # passed the positive-definite test.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                gc.SPDMatrix([[1.7e308, 0.0], [0.0, 1.0]])

    def test_a_nan_eigenvalue_fails_the_positive_definite_test(self, monkeypatch):
        monkeypatch.setattr(spd, "_eigh", lambda a: (np.full(a.shape[-1], np.nan), np.eye(a.shape[-1])))
        with pytest.raises(DomainError, match="not positive definite"):
            gc.SPDMatrix(np.eye(2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan, DBL_MAX])
    def test_rejects_before_decomposing(self, bad, monkeypatch):
        # An overflowing line-search step must be a DomainError, so the
        # search halves, not the LinAlgError of eigh on inf or NaN.
        monkeypatch.setattr(spd, "_eigh", None)
        with pytest.raises(DomainError):
            gc.SPDMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(DomainError):
            gc.SPDMatrix(np.full((2, 2), bad))


class TestDefinitenessTolerance:
    """Every PD and PSD gate draws the line at ``PD_RTOL * lambda_max``."""

    ROTATION = np.array([[0.8, -0.6], [0.6, 0.8]])

    def _matrix(self, factor):
        # lambda_max = 1, lambda_min = factor * PD_RTOL; the rotation keeps
        # the diagonal positive, as the hadamard mask requires.
        lam = np.array([1.0, factor * spd.PD_RTOL])
        return spd._sym((self.ROTATION * lam) @ self.ROTATION.T)

    @staticmethod
    def _accepts(gate, m):
        try:
            gate(m)
        except (DomainError, gc.ExpressionError):
            return False
        return True

    def _gates(self):
        x2 = gc.Variable("X", gc.SPD(2))
        x3 = gc.Variable("X", gc.SPD(3))
        ys = [np.vstack([np.eye(2), np.ones((1, 2))])]
        pd = {
            "SPDMatrix": gc.SPDMatrix,
            "PD claim": lambda m: gc.ConstMatrix(m, "PD"),
        }
        psd = {
            "PSD claim": lambda m: gc.ConstMatrix(m, "PSD"),
            "hadamard mask": lambda m: gc.apply_atom("hadamard_product", [x2, m]),
            "positive_affine offset": lambda m: gc.apply_atom("positive_affine", [x3, ys, m, 1]),
        }
        return pd, psd

    @pytest.mark.parametrize("factor", [-1.01, -0.99, 0.99, 1.01])
    def test_gates_agree_at_the_boundary(self, factor):
        m = self._matrix(factor)
        pd, psd = self._gates()
        for name, gate in pd.items():
            assert self._accepts(gate, m) == (factor > 1.0), name
        for name, gate in psd.items():
            assert self._accepts(gate, m) == (factor > -1.0), name


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

    def test_first_argument_is_gated(self):
        # As geodesic_path gates both endpoints: an asymmetric matrix is a
        # ShapeError and a non-finite one a DomainError, in either slot.
        asym = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        nan = np.full((3, 3), np.nan)
        for fn in (gc.distance, spd.eval_distance):
            for bad, error in ((asym, ShapeError), (nan, DomainError)):
                with pytest.raises(error):
                    fn(bad, np.eye(3))
                with pytest.raises(error):
                    fn(np.eye(3), bad)
        assert gc.distance(gc.SPDMatrix(np.diag([math.e, 1.0])), np.eye(2)) == 1.0

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

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ShapeError):
            gc.loewner_geq(2 * np.eye(3), [[1.0]])

    def test_asymmetric_argument_raises(self):
        with pytest.raises(ShapeError):
            gc.loewner_geq([[2, 1], [0, 2]], np.eye(2))

    def test_non_finite_argument_raises(self):
        with pytest.raises(DomainError):
            gc.loewner_geq([[math.nan, 0], [0, 1]], np.eye(2))

    def test_an_ordered_pair_at_the_gates_edge(self):
        # Every entry passes the gate (|a_ij| <= DBL_MAX / 2) and A - B =
        # diag(DBL_MAX, 0) is finite and PSD; symmetrizing the difference
        # again would overflow.
        big = float(np.finfo(np.float64).max) / 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gc.loewner_geq(np.diag([big, 1.0]), np.diag([-big, 1.0]))
            assert not gc.loewner_geq(np.diag([-big, 1.0]), np.diag([big, 1.0]))

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


class TestEvalAtomGate:
    """``eval_atom`` gates a matrix argument as ``evaluate`` gates a variable."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name, params", [
        ("eigmax", ()), ("eigsummax", (1,)), ("logdet", ()), ("schatten_norm", (2.0,)),
        ("sum_log_eigmax", (1,)), ("inv", ()), ("tr", ()),
    ])
    def test_non_finite_argument_raises_domain_error(self, name, params, bad):
        x = [[bad, 0.0], [0.0, 1.0]]
        with pytest.raises(DomainError, match="non-finite"):
            gc.eval_atom(name, x, *params)
        with pytest.raises(DomainError):
            gc.evaluate(gc.apply_atom(name, [gc.Variable("X", gc.SPD(2)), *params]),
                        {"X": np.array(x)})

    def test_asymmetric_argument_raises_shape_error(self):
        with pytest.raises(ShapeError):
            gc.eval_atom("eigmax", [[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            gc.eval_atom("distance", np.eye(2), [[1.0, 2.0], [0.0, 1.0]])

    def test_parameters_are_not_gated_as_matrices(self):
        h = np.array([1.0, 2.0])
        assert gc.eval_atom("quad_form", h, np.eye(2)) == 5.0
        b = np.array([[1.0, 2.0], [0.0, 1.0]])  # a conjugation map need not be symmetric
        assert np.array_equal(gc.eval_atom("conjugation", np.eye(2), b).entries,
                              spd._sym(b.T @ b))


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
