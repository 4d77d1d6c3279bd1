import math
import re

import numpy as np
import pytest

import geocert as gc
from geocert import expr
from geocert.dsl import unparse
from geocert.expr import _evaluate_stacked
from geocert.solver import _ExpressionObjective
from geocert.errors import (
    DeclarationConflictError,
    DomainError,
    ExpressionError,
    GeocertError,
    RegistrationConflictError,
    ShapeError,
    UnknownAtomError,
)

from conftest import reference_unparse, reference_walk, registered_as, shift, shift_signature


class TestVariables:
    def test_make_variable_positive_leaf(self, scope):
        x = gc.make_variable("X", gc.SPD(5), scope=scope)
        assert x.kind == "matrix"
        assert x.dim == 5
        assert x.variables == {"X": gc.SPD(5)}

    def test_idempotent_declaration(self, scope):
        a = gc.make_variable("X", gc.SPD(5), scope=scope)
        b = gc.make_variable("X", gc.SPD(5), scope=scope)
        assert a == b

    def test_conflicting_declaration(self, scope):
        gc.make_variable("X", gc.SPD(5), scope=scope)
        with pytest.raises(DeclarationConflictError):
            gc.make_variable("X", gc.SPD(3), scope=scope)

    def test_default_scope_conflict(self):
        gc.make_variable("X", gc.SPD(5))
        with pytest.raises(DeclarationConflictError):
            gc.make_variable("X", gc.SPD(3))

    def test_cross_tree_conflict_detected_structurally(self):
        # Same name on two manifolds must not meet inside one tree.
        x5 = gc.Variable("X", gc.SPD(5))
        x3 = gc.Variable("X", gc.SPD(3))
        with pytest.raises(DeclarationConflictError):
            gc.Add((gc.apply_atom("tr", [x5]), gc.apply_atom("tr", [x3])))

    @pytest.mark.parametrize("dim", [2.5, True, "3", None, 0, np.True_])
    def test_a_dimension_that_is_not_a_positive_integer_rejected(self, dim):
        # SPD cast with int(): 2.5 gave SPD(2), True SPD(1) and "3" SPD(3).
        with pytest.raises(ExpressionError, match="positive integer"):
            gc.SPD(dim)

    def test_a_numpy_integer_dimension_is_an_int(self):
        m = gc.SPD(np.int64(3))
        assert m == gc.SPD(3) and type(m.dim) is int

    def test_bad_names(self, scope):
        for bad in ("", "2x", "a b"):
            with pytest.raises(ExpressionError):
                gc.make_variable(bad, gc.SPD(2), scope=scope)


class TestConstants:
    def test_identity_pd_claim(self):
        c = gc.make_const_matrix(np.eye(3), "PD")
        assert c.definiteness == gc.Definiteness.PD

    def test_indefinite_pd_claim_rejected(self):
        with pytest.raises(DomainError):
            gc.make_const_matrix(np.diag([1.0, -1.0]), "PD")

    def test_printed_covariance_is_pd(self):
        from conftest import SIGMA_2

        c = gc.make_const_matrix(SIGMA_2, "PD")
        assert c.dim == 3

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            gc.make_const_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_psd_claim(self):
        gc.make_const_matrix(np.zeros((2, 2)), "PSD")
        with pytest.raises(DomainError):
            gc.make_const_matrix(np.diag([1.0, -0.5]), "PSD")

    @pytest.mark.parametrize("claim", ["PD", "PSD"])
    def test_a_nan_eigenvalue_fails_a_claim(self, claim, monkeypatch):
        monkeypatch.setattr(gc.spd, "_eigvalsh", lambda a: np.full(a.shape[-1], np.nan))
        with pytest.raises(DomainError, match=f"{claim} claim fails"):
            gc.make_const_matrix(np.eye(2), claim)

    @pytest.mark.parametrize("claim", ["PD", "PSD"])
    def test_an_overflowing_symmetrization_fails_a_claim(self, claim):
        # The parent symmetrized [[1.7e308, 0], [0, 1]] to inf, whose NaN
        # eigenvalues passed the claim.
        with pytest.raises(DomainError, match="symmetrizing overflows"):
            gc.make_const_matrix(np.array([[1.7e308, 0.0], [0.0, 1.0]]), claim)

    @pytest.mark.parametrize("make", [
        lambda a: gc.ConstMatrix(a),
        lambda a: gc.make_const_matrix(a, "PD"),
        lambda a: gc.apply_atom("logdet", [gc.ConstMatrix(a)]),
    ], ids=["ConstMatrix", "make_const_matrix", "apply_atom"])
    def test_an_empty_matrix_rejected(self, make):
        with pytest.raises(ExpressionError, match="nonempty"):
            make(np.zeros((0, 0)))

    def test_nonsquare_is_parameter_only(self):
        c = gc.make_const_matrix(np.ones((3, 2)))
        assert c.kind == "param"


class TestApplyAtom:
    @pytest.mark.parametrize("name, params", [
        ("conjugation", [np.zeros((2, 0))]),
        ("positive_affine", [[np.zeros((2, 0))], np.zeros((0, 0)), 1]),
    ])
    def test_a_map_with_no_columns_rejected(self, name, params):
        # The rank test read the largest singular value of an empty spectrum: IndexError.
        with pytest.raises(ExpressionError, match="at least one column"):
            gc.apply_atom(name, [gc.Variable("X", gc.SPD(2)), *params])

    @pytest.mark.parametrize("build, message", [
        (lambda a: gc.apply_atom("log", [-1.0]),
         "atom 'log' has no value at its constant arguments: log requires a positive argument"),
        (lambda a: gc.apply_atom("log", [gc.apply_atom("tr", [a]) - 100.0]), "atom 'log'"),
        (lambda a: gc.apply_atom("pow", [-2.0, 1.5]), "atom 'pow' has no value"),
        (lambda a: gc.apply_atom("exp", [1e3]), "exp overflows"),
        (lambda a: gc.apply_atom("tr", [gc.apply_atom("conjugation", [a, 1e200 * np.eye(3)])]),
         "atom 'conjugation' has no finite value"),
        (lambda a: 1e300 * gc.apply_atom("exp", [700.0]),
         "constant sum has no finite value at its constant arguments"),
        (lambda a: gc.Mul((gc.apply_atom("exp", [700.0]), gc.apply_atom("exp", [700.0]))),
         "constant product has no finite value"),
        (lambda a: gc.Add((gc.apply_atom("exp", [709.5]), gc.apply_atom("exp", [709.5]))),
         "constant sum has no finite value"),
    ], ids=["log", "log-of-a-sum", "pow-negative-base", "exp-overflow", "conjugation-overflow",
            "scaled-sum", "product", "sum"])
    def test_a_constant_without_a_value_is_refused_where_it_is_built(self, build, message):
        # A variable-free subtree is evaluated once, quietly, as it is built.
        a = gc.make_const_matrix(np.diag([1.0, 2.0, 3.0]), "PD", name="A")
        with pytest.raises(DomainError, match=re.escape(message)):
            build(a)

    def test_each_constant_node_is_evaluated_once(self, monkeypatch):
        # Its children's kept values feed it; nothing below it runs again.
        a = gc.make_const_matrix(np.diag([1.0, 2.0, 3.0]), "PD", name="A")
        steps = []
        node_value = expr._node_value

        def counted(step, *rest):
            steps.append(type(step.node).__name__)
            return node_value(step, *rest)

        monkeypatch.setattr(expr, "_node_value", counted)
        e = gc.apply_atom("log", [gc.apply_atom("exp", [gc.apply_atom("logdet", [a])])])
        assert steps == ["AtomApply"] * 3
        assert e._value == gc.evaluate(e, {})

    def test_a_constant_is_evaluated_at_build_through_built_in_evaluators_only(self):
        calls = []

        def impure(v):
            calls.append(v)
            return -1.0

        sig = gc.AtomSignature("impure", (gc.ArgKind.SCALAR,), "scalar", gc.Sign.ANY,
                               gc.GCurvature.LINEAR, gc.GMonotonicity.INCREASING,
                               gc.ECurvature.AFFINE)
        with registered_as(sig, impure):
            inner = gc.apply_atom("impure", [2.0])
            outer = gc.apply_atom("log", [inner])  # not evaluated: it holds a user atom
            assert calls == []
            with pytest.raises(DomainError, match="log requires a positive argument"):
                gc.evaluate(outer, {})
        assert calls == [2.0]
        assert gc.evaluate(gc.apply_atom("log", [gc.apply_atom("exp", [2.0])]), {}) == 2.0

    def test_a_parameter_only_atom_builds(self):
        # It has no children but is no leaf constant: its value comes from its
        # evaluator at its parameters, as any atom's does.
        sig = gc.AtomSignature("cst", (gc.ArgKind.PARAM_SCALAR,), "scalar", gc.Sign.ANY,
                               gc.GCurvature.LINEAR, gc.GMonotonicity.ANY, gc.ECurvature.AFFINE)
        with registered_as(sig, lambda c: 3.0 * c):
            assert gc.apply_atom("cst", [2.0])._value is None  # a user evaluator: not run
            x = gc.Variable("X", gc.SPD(2))
            e = gc.parse_dsl("tr(X) + cst(2)", {"X": x})
            assert gc.evaluate(e, {"X": np.eye(2)}) == 8.0
            assert gc.analyze(e, gc.SPD(2)).gcurvature is gc.GCurvature.CONVEX

    @pytest.mark.parametrize("constant", [
        lambda: gc.make_const_matrix(np.diag([1.0, 0.0, 1.0]), "PSD", name="S"),
        lambda: gc.make_const_matrix(np.diag([1.0, -1.0, 1.0]), name="N"),
        lambda: gc.apply_atom("conjugation", [gc.make_const_matrix(np.eye(3), "PD"),
                                              1e-200 * np.eye(3)]),
    ], ids=["PSD-claim", "no-claim", "constant-atom"])
    def test_a_constant_argument_must_be_positive_definite(self, constant):
        # A manifold slot takes points of SPD; a constant one is gated on its
        # kept value, whatever claim it made, where the atom is built.
        x = gc.Variable("X", gc.SPD(3))
        with pytest.raises(DomainError, match="atom 'distance': its constant argument is not "
                                              "positive definite: lambda_min=(0|-1)$"):
            gc.apply_atom("distance", [constant(), x])

    def test_a_square_named_constant_in_a_manifold_slot_is_a_gated_constant_matrix(self):
        x = gc.Variable("X", gc.SPD(2))
        e = gc.apply_atom("distance", [gc.ParamRef("A", [[2.0, 0.0], [0.0, 3.0]]), x])
        a = e.args[0]
        assert isinstance(a, gc.ConstMatrix) and a.name == "A"
        assert np.array_equal(a._value, np.diag([2.0, 3.0]))
        with pytest.raises(DomainError, match="atom 'distance': its constant argument is not "
                                              "positive definite: lambda_min=-1$"):
            gc.apply_atom("distance", [gc.ParamRef("N", np.diag([1.0, -1.0])), x])

    def test_every_pass_reads_a_constant_where_it_was_built(self, monkeypatch):
        a = gc.make_const_matrix(np.diag([2.0, 3.0, 5.0]), "PD", name="A")
        x = gc.Variable("X", gc.SPD(3))
        e = gc.apply_atom("tr", [x]) + gc.apply_atom("logdet", [a])
        points = [np.asarray(gc.random_spd(3, 10.0, s)) for s in (1, 2)]
        calls, lapack = [], gc.spd._lapack

        def counted(gufunc, m, signature):
            calls.append(m)
            return lapack(gufunc, m, signature)

        monkeypatch.setattr(gc.spd, "_lapack", counted)
        for m in points:
            assert gc.evaluate(e, {"X": m}) == np.trace(m) + math.log(30.0)
        gc.value_and_grad(e, {"X": points[0]})
        _evaluate_stacked(e, {"X": np.stack(points)}, np.ones(2, dtype=bool))
        assert calls == []  # tr(X) decomposes nothing, and logdet(A) is read

    def test_a_tree_decomposes_each_constant_once(self, monkeypatch):
        # sdivergence(X, A) takes logdet(A) at every point.  The tree's first
        # pass decomposes A and keeps the entry; every later pass reads it,
        # at a point, over a stack and in a solve alike.
        a = gc.make_const_matrix(np.asarray(gc.random_spd(3, 10.0, 3)), "PD", name="A")
        e = gc.apply_atom("sdivergence", [gc.Variable("X", gc.SPD(3)), a])
        points = [np.asarray(gc.random_spd(3, 10.0, s)) for s in (1, 2)]
        calls, lapack = [], gc.spd._lapack

        def counted(gufunc, m, signature):
            if m.shape == a.values.shape and m.tobytes() == a.values.tobytes():
                calls.append(m)
            return lapack(gufunc, m, signature)

        monkeypatch.setattr(gc.spd, "_lapack", counted)
        for m in points:
            gc.evaluate(e, {"X": m})
        gc.value_and_grad(e, {"X": points[0]})
        _evaluate_stacked(e, {"X": np.stack(points)}, np.ones(2, dtype=bool))
        gc.gradient_descent(gc.solver._ExpressionObjective(e, "X"), points[1], max_iter=3)
        assert len(calls) == 1

    def test_a_kept_constant_argument_is_read_only(self):
        # A user atom's evaluator may write into its arguments at a point, but
        # not into a constant's kept value, which every pass reads.
        def scribble(m):
            m[0, 0] += 1.0
            return float(np.trace(m))

        sig = gc.AtomSignature("scribble", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.ANY,
                               gc.GCurvature.UNKNOWN, gc.GMonotonicity.ANY, gc.ECurvature.UNKNOWN)
        a = gc.make_const_matrix(np.diag([2.0, 4.0]), "PD", name="A")
        inv = gc.apply_atom("inv", [a])
        tr = gc.apply_atom("tr", [gc.Variable("X", gc.SPD(2))])
        kept = tr + gc.apply_atom("tr", [inv])
        assert gc.evaluate(kept, {"X": np.eye(2)}) == 2.75
        with registered_as(sig, scribble):
            for arg in (a, inv):
                with pytest.raises(ValueError, match="read-only"):
                    gc.evaluate(tr + gc.apply_atom("scribble", [arg]), {"X": np.eye(2)})
        assert gc.evaluate(kept, {"X": np.eye(2)}) == 2.75
        assert np.array_equal(inv._value, np.diag([0.5, 0.25]))

    def test_scalar_atom(self, scope):
        x = gc.make_variable("X", gc.SPD(5), scope=scope)
        node = gc.apply_atom("logdet", [x])
        assert node.kind == "scalar"

    def test_conjugation_result_dim(self, scope):
        x = gc.make_variable("X", gc.SPD(5), scope=scope)
        node = gc.apply_atom("conjugation", [x, np.random.default_rng(0).normal(size=(5, 5))])
        assert node.kind == "matrix"
        assert node.dim == 5

    def test_conjugation_rectangular(self, scope):
        x = gc.make_variable("X", gc.SPD(5), scope=scope)
        node = gc.apply_atom("conjugation", [x, np.random.default_rng(0).normal(size=(5, 2))])
        assert node.dim == 2

    def test_conjugation_rank_deficient(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        b = np.ones((3, 2))
        with pytest.raises(ExpressionError):
            gc.apply_atom("conjugation", [x, b])

    def test_arity_mismatch(self, scope):
        x = gc.make_variable("X", gc.SPD(5), scope=scope)
        with pytest.raises(ExpressionError):
            gc.apply_atom("logdet", [x, x])

    def test_unknown_atom(self, scope):
        x = gc.make_variable("X", gc.SPD(5), scope=scope)
        with pytest.raises(UnknownAtomError):
            gc.apply_atom("not_an_atom", [x])

    def test_dimension_mismatch(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        with pytest.raises(ExpressionError):
            gc.apply_atom("quad_form", [np.ones(4), x])

    def test_manifold_slot_requires_pd_constant(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        with pytest.raises(DomainError):
            gc.apply_atom("sdivergence", [x, gc.make_const_matrix(np.diag([1.0, -1.0]))])
        gc.apply_atom("sdivergence", [x, gc.make_const_matrix(np.diag([1.0, 2.0]))])

    def test_top_k_validation(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        gc.apply_atom("eigsummax", [x, 3])
        with pytest.raises(ExpressionError):
            gc.apply_atom("eigsummax", [x, 4])
        with pytest.raises(ExpressionError):
            gc.apply_atom("schatten_norm", [x, 0.5])

    @pytest.mark.parametrize("atom, items, message", [
        ("quad_form", lambda x: [np.ones(2), x], "quad_form vector has length 2, expected 3"),
        ("quad_form", lambda x: [np.zeros(3), x], "quad_form requires a nonzero vector"),
        ("log_quad_form", lambda x: [np.ones((2, 2)), x],
         "log_quad_form vector has length 2, expected 3"),
        ("log_quad_form", lambda x: [np.column_stack([np.ones(3), np.zeros(3)]), x],
         "log_quad_form requires nonzero vectors"),
        ("eigsummax", lambda x: [x, 0], "k=0 outside 1..3"),
        ("eigsummax", lambda x: [x, 4], "k=4 outside 1..3"),
        ("sum_log_eigmax", lambda x: [x, 0], "k=0 outside 1..3"),
        ("sum_log_eigmax", lambda x: [x, 4], "k=4 outside 1..3"),
        ("sum_pow_log_eigmax", lambda x: [x, 4, 2.0], "k=4 outside 1..3"),
        ("sum_pow_log_eigmax", lambda x: [x, 2, 0.5],
         "sum_pow_log_eigmax requires p >= 1, got 0.5"),
        ("schatten_norm", lambda x: [x, 0.5], "schatten_norm requires p >= 1, got 0.5"),
        ("pow", lambda x: [gc.apply_atom("tr", [x]), 0.5], "pow requires p >= 1, got 0.5"),
    ])
    def test_catalog_parameter_messages(self, atom, items, message):
        x = gc.Variable("X", gc.SPD(3))
        with pytest.raises(ExpressionError) as err:
            gc.apply_atom(atom, items(x))
        assert str(err.value) == message

    def test_a_list_holds_vectors_and_an_array_holds_columns(self):
        x = gc.Variable("X", gc.SPD(2))
        h1, h2, h3 = np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.0, 1.0])
        point = {"X": np.diag([2.0, 3.0])}
        for hs in ([h1, h2], (h1, h2), [list(h1), list(h2)], np.column_stack([h1, h2])):
            e = gc.apply_atom("log_quad_form", [hs, x])
            assert gc.evaluate(e, point) == pytest.approx(math.log(7.0), abs=1e-15)
        three = gc.apply_atom("log_quad_form", [[h1, h2, h3], x])
        assert [list(h) for h in three.params[0]] == [list(h1), list(h2), list(h3)]
        assert gc.apply_atom("log_quad_form", [[1.0, 2.0], x]).params[0][0].tolist() == [1.0, 2.0]

    def test_a_ragged_list_of_vectors_is_an_expression_error(self):
        with pytest.raises(ExpressionError, match="vector has length 3, expected 2"):
            gc.apply_atom("log_quad_form", [[[1.0, 0.0], [1.0, 1.0, 1.0]], gc.Variable("X", gc.SPD(2))])

    @pytest.mark.parametrize("build", [
        lambda x: gc.apply_atom("quad_form", [[1.0, [2.0]], x]),
        lambda x: gc.apply_atom("hadamard_product", [x, [[1.0], [1.0, 2.0]]]),
        lambda x: gc.apply_atom("positive_affine", [x, [[[1.0], [2.0, 3.0]]], [[1.0]], 1]),
        lambda x: gc.apply_atom("positive_affine", [x, 3.0, [[1.0]], 1]),
        lambda x: gc.apply_atom("log_quad_form", [[[1.0, [2.0]], [1.0, 2.0]], x]),
        lambda x: gc.apply_atom("quad_form", [gc.ParamRef("h", [[1.0], [1.0, 2.0]]), x]),
        lambda x: gc.apply_atom("logdet", [gc.ParamRef("A", [[1.0], [1.0, 2.0]])]),
        lambda x: gc.apply_atom("eigsummax", [x, "a"]),
        lambda x: gc.apply_atom("eigsummax", [x, [1, 2]]),
        lambda x: gc.apply_atom("schatten_norm", [x, None]),
        lambda x: gc.ConstMatrix([[1.0, 2.0], [3.0]]),
        lambda x: gc.ConstScalar("x"),
    ], ids=["vector", "matrix", "matrices", "matrices-scalar", "vectors", "param-ref",
            "param-ref-manifold", "int-string", "int-vector", "scalar-none", "const-matrix",
            "const-scalar"])
    def test_a_value_that_is_not_numbers_is_an_expression_error(self, build):
        # Each raised numpy's ValueError or TypeError, or iterated a float.
        with pytest.raises(ExpressionError):
            build(gc.Variable("X", gc.SPD(2)))

    def test_hadamard_mask_validation(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        w = np.array([[1.0, 0.9], [0.9, 1.0]])
        gc.apply_atom("hadamard_product", [x, w])
        with pytest.raises(ExpressionError):
            gc.apply_atom("hadamard_product", [x, np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(ExpressionError):
            gc.apply_atom("hadamard_product", [x, np.array([[1.0, 0.0], [0.0, 0.0]])])

    def test_positive_affine_validation(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        ys = [np.random.default_rng(1).normal(size=(3, 2))]
        b = np.eye(2)
        node = gc.apply_atom("positive_affine", [x, ys, b, 1])
        assert node.dim == 2
        with pytest.raises(ExpressionError):
            gc.apply_atom("positive_affine", [x, ys, b, 2])
        with pytest.raises(ExpressionError):
            gc.apply_atom("positive_affine", [x, ys, np.diag([1.0, -1.0]), 1])

    @pytest.mark.parametrize("atom, items", [
        ("eigsummax", lambda x: [x, math.nan]),
        ("pow", lambda x: [gc.apply_atom("tr", [x]), math.nan]),
        ("quad_form", lambda x: [np.array([math.nan, 1.0]), x]),
        ("log_quad_form", lambda x: [[np.ones(2), np.array([1.0, math.inf])], x]),
        ("hadamard_product", lambda x: [x, np.array([[1.0, math.nan], [math.nan, 1.0]])]),
        ("positive_affine", lambda x: [x, [np.array([[1.0, 0.0], [math.inf, 1.0]])],
                                       np.eye(2), 1]),
    ], ids=["int", "scalar", "vector", "vectors", "matrix", "matrices"])
    def test_non_finite_parameters_rejected(self, atom, items):
        x = gc.Variable("X", gc.SPD(2))
        with pytest.raises(DomainError, match="atom parameters must be finite"):
            gc.apply_atom(atom, items(x))

    @pytest.mark.parametrize("atom, items, what", [
        ("hadamard_product", lambda x, m: [x, m], "hadamard_product mask"),
        ("positive_affine", lambda x, m: [x, [np.eye(2)], m, 1], "positive_affine offset"),
    ], ids=["hadamard_product", "positive_affine"])
    def test_psd_parameters_must_be_symmetric(self, atom, items, what):
        x = gc.Variable("X", gc.SPD(2))
        with pytest.raises(ExpressionError, match=f"{what} must be symmetric"):
            gc.apply_atom(atom, items(x, np.array([[1.0, 0.5], [0.0, 1.0]])))
        with pytest.raises(ExpressionError, match=f"{what} must be positive semidefinite"):
            gc.apply_atom(atom, items(x, np.array([[1.0, 2.0], [2.0, 1.0]])))


class TestStructure:
    def test_deep_equality_same_construction(self, scope):
        def build():
            x = gc.Variable("X", gc.SPD(4))
            a = gc.make_const_matrix(np.eye(4), "PD", name="A")
            return gc.apply_atom("sdivergence", [x, a]) + gc.apply_atom("logdet", [x])

        assert build() == build()
        assert hash(build()) == hash(build())

    def test_signed_zeros_hash_alike(self, scope):
        # np.array_equal counts -0.0 and 0.0 as equal, so the hashes must agree.
        a = gc.ConstMatrix([[0.0, 1.0], [1.0, 2.0]])
        b = gc.ConstMatrix([[-0.0, 1.0], [1.0, 2.0]])
        assert a == b and hash(a) == hash(b)
        x = gc.Variable("X", gc.SPD(2))
        p = gc.apply_atom("quad_form", [np.array([0.0, 1.0]), x])
        q = gc.apply_atom("quad_form", [np.array([-0.0, 1.0]), x])
        assert p == q and hash(p) == hash(q)
        assert len({a, b}) == 1 and len({p, q}) == 1

    def test_identity_follows_every_key_field(self, scope):
        x = gc.Variable("X", gc.SPD(2))
        t, u = gc.apply_atom("tr", [x]), gc.apply_atom("logdet", [x])
        # Per node class: a builder from keyword fields, and a changed value
        # for every field of the node's identity.
        table = [
            (lambda name="X", dim=2: gc.Variable(name, gc.SPD(dim)),
             {"name": "Y", "dim": 3}),
            (lambda values=((2.0, 1.0), (1.0, 2.0)), definiteness="PD", name="A":
                gc.ConstMatrix(values, definiteness, name),
             {"values": ((3.0, 1.0), (1.0, 2.0)), "definiteness": "PSD", "name": "B"}),
            (lambda value=1.0: gc.ConstScalar(value), {"value": 2.0}),
            (lambda terms=(t, u), weights=(1.0, 2.0): gc.Add(terms, weights),
             {"terms": (u, t), "weights": (1.0, 3.0)}),
            (lambda factors=(t, u): gc.Mul(factors), {"factors": (u, t)}),
            (lambda options=(t, u): gc.MaxOf(options), {"options": (u, t)}),
            (lambda atom="quad_form", h=(1.0, 2.0), label=None, arg=x:
                gc.apply_atom(atom, [gc.ParamRef(label, np.array(h)), arg]),
             {"atom": "log_quad_form", "h": (1.0, 3.0), "label": "h",
              "arg": gc.Variable("Z", gc.SPD(2))}),
        ]
        assert {type(build()) for build, _ in table} == {
            gc.Variable, gc.ConstMatrix, gc.ConstScalar, gc.Add, gc.Mul, gc.MaxOf,
            gc.AtomApply,
        }
        for build, changes in table:
            assert build() == build() and hash(build()) == hash(build())
            for field, value in changes.items():
                assert build(**{field: value}) != build(), (type(build()).__name__, field)
        assert 2.0 * t == gc.Add((t,), (2.0,))

    def test_inequality_on_params(self, scope):
        x = gc.Variable("X", gc.SPD(4))
        assert gc.apply_atom("eigsummax", [x, 2]) != gc.apply_atom("eigsummax", [x, 3])

    def test_scalar_only_combinators(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        with pytest.raises(ExpressionError):
            gc.Add((x,))
        with pytest.raises(ExpressionError):
            2.0 * x
        with pytest.raises(ExpressionError):
            gc.MaxOf((x,))

    def test_node_count_and_walk(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        e = gc.apply_atom("tr", [x]) + gc.apply_atom("logdet", [x])
        # Add, two atoms, two variable leaves
        assert e.node_count() == 5
        paths = [p for p, _ in e.walk()]
        assert paths[-1] == ()

    def test_operator_sugar(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        t = gc.apply_atom("tr", [x])
        e = 2 * t + 3 - t
        assert e.kind == "scalar"
        # Scaling by a constant is a one-term Add.
        for scaled, weight in ((-t, -1.0), (2 * t, 2.0), (t * gc.ConstScalar(2.0), 2.0)):
            assert scaled == gc.Add((t,), (weight,))
        assert isinstance(t * t, gc.Mul)


class TestIdentity:
    """Hashing and ``==`` visit each distinct node (or pair) a bounded number of times, with no recursion."""

    NODE_CLASSES = (gc.Variable, gc.ConstMatrix, gc.ConstScalar, gc.Add, gc.Mul, gc.MaxOf,
                    gc.AtomApply)

    @staticmethod
    def _sum(terms):
        s = gc.Variable("S", gc.SPD(3))
        rng = np.random.default_rng(0)
        return sum(gc.apply_atom("log_quad_form", [gc.ParamRef(f"x{i}", rng.standard_normal(3)),
                                                   gc.apply_atom("inv", [s])])
                   for i in range(terms)) + gc.apply_atom("logdet", [s])

    @staticmethod
    def _chain(links):
        x = gc.Variable("X", gc.SPD(2))
        e = gc.apply_atom("tr", [x])
        for _ in range(links):
            e = e + gc.apply_atom("tr", [x])
        return e

    @staticmethod
    def _shared(levels=16):
        e = gc.apply_atom("tr", [gc.Variable("X", gc.SPD(2))])
        for _ in range(levels):
            e = gc.Add((e, e), (0.5, 0.5))
        return e

    @staticmethod
    def _same(a, b):
        # Compared before either is hashed, as dict keys, then with both hashes kept.
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1 and {b: 2}[a] == 2
        assert a == b

    def test_two_thousand_term_sums_built_apart_are_one_key(self):
        self._same(self._sum(1000), self._sum(1000))

    def test_chains_deeper_than_the_recursion_limit_compare_and_hash(self):
        self._same(self._chain(3000), self._chain(3000))
        shorter, longer = self._chain(2999), self._chain(3000)
        assert shorter != longer and longer != shorter
        hash(shorter), hash(longer)
        assert shorter != longer

    def _count_keys(self, monkeypatch) -> list:
        calls = []
        for cls in self.NODE_CLASSES:
            key = cls._key
            monkeypatch.setattr(cls, "_key", lambda node, key=key: calls.append(1) or key(node))
        return calls

    def test_a_shared_tree_hashes_and_compares_once_per_distinct_node(self, monkeypatch):
        p, q = self._shared(), self._shared()
        assert len(expr._plan_of(p)) == len(expr._plan_of(q)) == 18
        calls = self._count_keys(monkeypatch)
        assert p == q
        assert len(calls) <= 2 * 18  # one per side of each of 18 pairs; 393214 by path
        del calls[:]
        hash(p)
        assert len(calls) <= 2 * 18  # at most twice per distinct node; 196607 by path
        del calls[:]
        assert hash(q) == hash(p) and p == q

    def test_nodes_with_differing_kept_hashes_are_unequal_without_their_keys(self, monkeypatch):
        p, q = self._shared(), self._shared(15)
        hash(p), hash(q)
        calls = self._count_keys(monkeypatch)
        assert p != q and not calls

    def test_equality_computes_no_hash(self):
        p, q = self._shared(), self._shared()
        assert p == q
        assert p._hash is None and q._hash is None

    def test_an_unhashable_evaluator_fails_only_hashing(self):
        class Half:
            """An evaluator with ``__eq__`` and no ``__hash__``: its instances are unhashable."""

            def __call__(self, x):
                return 0.5 * float(np.trace(x))

            def __eq__(self, other):
                return isinstance(other, Half)

        sig = gc.AtomSignature("half_trace", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.POSITIVE,
                               gc.GCurvature.CONVEX, gc.GMonotonicity.INCREASING,
                               gc.ECurvature.AFFINE)
        x = gc.Variable("X", gc.SPD(2))
        with registered_as(sig, Half()):
            a = gc.apply_atom("half_trace", [x])
            e = a + gc.apply_atom("logdet", [x])
        with registered_as(sig, Half()):
            b = gc.apply_atom("half_trace", [x])
            f = b + gc.apply_atom("logdet", [x])
        assert a.evaluator is not b.evaluator
        assert a == b and e == f and e != a + gc.apply_atom("tr", [x])
        for node in (a, e):
            with pytest.raises(TypeError, match="unhashable"):
                hash(node)


class TestRegistry:
    def test_catalog_lookup_total(self):
        for name in gc.CATALOG_IDS:
            sig = gc.lookup_atom(name)
            assert sig.id == name
        assert gc.lookup_atom("sdivergence").gcurv == gc.GCurvature.CONVEX

    def test_duplicate_registration_rejected(self):
        sig = gc.lookup_atom("logdet")
        with pytest.raises(RegistrationConflictError):
            gc.register_atom(sig, lambda x: 0.0)

    def test_custom_atom_roundtrip(self, scope):
        sig = gc.AtomSignature(
            id="half_trace",
            positions=(gc.ArgKind.MANIFOLD,),
            result="scalar",
            sign=gc.Sign.POSITIVE,
            gcurv=gc.GCurvature.CONVEX,
            gmono=gc.GMonotonicity.INCREASING,
            ecurv=gc.ECurvature.AFFINE,
        )
        gc.register_atom(sig, lambda x: 0.5 * float(np.trace(x)))
        try:
            x = gc.make_variable("X", gc.SPD(2), scope=scope)
            e = gc.apply_atom("half_trace", [x])
            report = gc.analyze(e, gc.SPD(2))
            assert report.gcurvature == gc.GCurvature.CONVEX
            assert gc.evaluate(e, {"X": np.diag([2.0, 4.0])}) == 3.0
        finally:
            gc.unregister_atom("half_trace")

    def test_a_node_keeps_the_registration_it_was_built_from(self):
        x = gc.Variable("X", gc.SPD(2))
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        old = gc.apply_atom("inv", [x])
        with registered_as(shift_signature("inv"), shift):
            new = gc.apply_atom("inv", [x])
            assert old.sig is not new.sig
            assert np.allclose(gc.evaluate(old, {"X": a}), np.linalg.inv(a))
            assert np.array_equal(gc.evaluate(new, {"X": a}), shift(a))
            ld_old = gc.apply_atom("logdet", [old])
            assert gc.differentiable(ld_old)
            assert not gc.differentiable(gc.apply_atom("logdet", [new]))
            value, grads = gc.value_and_grad(ld_old, {"X": a})
            assert np.allclose(grads["X"], -np.linalg.inv(a))
            # The stacked walk calls the bound evaluator too.
            stack = np.stack([a, 2.0 * a, np.eye(2)])
            values, alive = _evaluate_stacked(ld_old, {"X": stack}, np.ones(3, dtype=bool))
            assert alive.all()
            assert values.tolist() == [gc.evaluate(ld_old, {"X": m}) for m in stack]

    def test_nodes_of_different_registrations_differ(self):
        # The scenario above: a node keyed by the atom id alone would equal
        # and hash like one of another registration that evaluates otherwise.
        x = gc.Variable("X", gc.SPD(2))
        old = gc.apply_atom("inv", [x])
        assert old == gc.apply_atom("inv", [x])
        with registered_as(shift_signature("inv"), shift):
            new = gc.apply_atom("inv", [x])
            assert old != new and hash(old) != hash(new)
            assert len({old, new}) == 2
            assert gc.apply_atom("logdet", [old]) != gc.apply_atom("logdet", [new])
            assert new == gc.apply_atom("inv", [x])
        # Registering the same signature and functions again gives equal nodes.
        again = gc.apply_atom("inv", [x])
        assert again == old and hash(again) == hash(old)


class TestEvaluate:
    def test_arithmetic(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        e = 2 * gc.apply_atom("tr", [x]) + 3
        assert gc.evaluate(e, {"X": np.eye(2)}) == 7.0

    def test_max_and_mul(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        t = gc.apply_atom("tr", [x])
        e = gc.MaxOf((t, gc.ConstScalar(10.0)))
        assert gc.evaluate(e, {"X": np.eye(2)}) == 10.0
        assert gc.evaluate(t * t, {"X": np.eye(2)}) == 4.0

    def test_max_orders_a_nan_option_as_max_does(self):
        # A later option wins only when strictly greater, so a NaN option wins
        # only in front.  The stacked walk shares this arithmetic.
        sig = gc.AtomSignature("nan_below", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.ANY,
                               gc.GCurvature.UNKNOWN, gc.GMonotonicity.ANY,
                               gc.ECurvature.UNKNOWN)
        gc.register_atom(sig, lambda m: float(np.trace(m)) if np.trace(m) > 4.0 else math.nan)
        try:
            x = gc.Variable("X", gc.SPD(3))
            nan, tr = gc.apply_atom("nan_below", [x]), gc.apply_atom("tr", [x])
            env = {"X": np.eye(3)}
            for options in ((nan, tr), (tr, nan, tr), (tr, nan)):
                expected = max(gc.evaluate(o, env) for o in options)
                assert _bits(gc.evaluate(gc.MaxOf(options), env)) == _bits(expected)
            assert math.isnan(gc.evaluate(gc.MaxOf((nan, tr)), env))
            assert gc.evaluate(gc.MaxOf((tr, nan)), env) == 3.0
        finally:
            gc.unregister_atom("nan_below")

    def test_an_unhashable_user_atom_evaluates_analyzes_fuzzes_and_solves(self):
        # spd's policies and the analysis tables look an evaluator or a
        # product up by identity, so one without a hash is simply not a
        # built-in one: the falsifier runs it point by point.
        class Half:
            def __call__(self, x):
                return 0.5 * float(np.trace(x))

            def __eq__(self, other):
                return isinstance(other, Half)

        class HalfVjp:
            def __call__(self, g, out, wrt, x):
                return (0.5 * g * np.eye(x.shape[0]),)

            def __eq__(self, other):
                return isinstance(other, HalfVjp)

        sig = gc.AtomSignature("half_trace", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.POSITIVE,
                               gc.GCurvature.CONVEX, gc.GMonotonicity.INCREASING,
                               gc.ECurvature.AFFINE)
        x = gc.Variable("X", gc.SPD(2))
        with registered_as(sig, Half(), HalfVjp()):
            e = gc.apply_atom("half_trace", [x]) - gc.apply_atom("logdet", [x])
            point = np.diag([2.0, 3.0])
            assert gc.evaluate(e, {"X": point}) == pytest.approx(2.5 - math.log(6.0))
            value, grads = gc.value_and_grad(e, {"X": point})
            assert value == gc.evaluate(e, {"X": point})
            assert np.allclose(grads["X"], 0.5 * np.eye(2) - np.linalg.inv(point))
            assert gc.analyze(e, gc.SPD(2)).gcurvature is gc.GCurvature.CONVEX
            cfg = gc.FuzzConfig(trials=40, dim=2, cond_max=10.0, seed=2)
            with pytest.raises(gc.spd.Undecided, match="no stacked evaluator"):
                _evaluate_stacked(e, {"X": _mixed_stack(2, np.random.default_rng(2))},
                                  np.ones(18, dtype=bool))
            out = gc.cross_validate(e, cfg)
            assert out.verdict == "CONSISTENT"
            f = lambda m: gc.evaluate(e, {"X": m})
            assert out.checks["geodesic-convexity"] == gc.check_gconvex(f, cfg)
            res = gc.gradient_descent(_ExpressionObjective(e, "X"), point)
            assert res.converged and not res.used_fd_gradient
            assert np.allclose(res.minimizer.entries, 2.0 * np.eye(2))

    def test_missing_binding(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        with pytest.raises(ExpressionError):
            gc.evaluate(gc.apply_atom("tr", [x]), {})

    def test_shape_mismatch(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        with pytest.raises(ExpressionError):
            gc.evaluate(gc.apply_atom("tr", [x]), {"X": np.eye(3)})

    @pytest.mark.parametrize("tree", ["logdet", "eigmax", "schatten_norm", "inv", "distance", "tr"])
    def test_every_atom_gates_an_asymmetric_variable(self, tree):
        # The variable passes the gate of sym_eig before any atom reads it,
        # so the eigenvalue-only atoms raise ShapeError as inv and distance do.
        x = gc.Variable("X", gc.SPD(2))
        atom = gc.apply_atom
        a = gc.make_const_matrix(np.diag([1.0, 2.0]), "PD", name="A")
        e = {
            "logdet": atom("logdet", [x]),
            "eigmax": atom("eigmax", [x]),
            "schatten_norm": atom("schatten_norm", [x, 2.0]),
            "inv": atom("tr", [atom("inv", [x])]),
            "distance": atom("distance", [a, x]),
            "tr": atom("tr", [x]),
        }[tree]
        asymmetric = np.array([[2.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ShapeError):
            gc.evaluate(e, {"X": asymmetric})
        with pytest.raises(ShapeError):
            gc.value_and_grad(e, {"X": asymmetric})
        with pytest.raises(DomainError):
            gc.evaluate(e, {"X": np.array([[2.0, math.nan], [math.nan, 1.0]])})
        # Within the gate's relative tolerance of 1e-12 the value passes.
        gc.evaluate(e, {"X": np.array([[2.0, 0.5], [0.5 + 1e-14, 1.0]])})
        stack = np.stack([np.eye(2), asymmetric, 2.0 * np.eye(2)])
        with pytest.raises(gc.spd.Undecided):
            _evaluate_stacked(e, {"X": stack}, np.ones(3, dtype=bool))
        # A dead row is never gated.
        values, alive = _evaluate_stacked(e, {"X": stack}, np.array([True, False, True]))
        assert alive.tolist() == [True, False, True]


def _bits(v) -> bytes:
    return np.float64(v).tobytes()  # NaN equals NaN, -0.0 differs from 0.0


def _indefinite(d, rng):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    lam = rng.uniform(0.2, 2.0, size=d)
    lam[0] = -lam[0]
    return (q * lam) @ q.T


def _mixed_stack(d, rng, n=18):
    """SPD rows with a few symmetric indefinite ones in between."""
    rows = [np.asarray(gc.random_spd(d, 1e3, int(rng.integers(1 << 30)))) for _ in range(n)]
    for i in (3, 8, 15):
        rows[i] = _indefinite(d, rng)
    return np.stack(rows)


def _assert_matches_pointwise(e, env, alive=None, label=""):
    """``_evaluate_stacked`` gives every row exactly what ``evaluate`` gives it."""
    n = len(next(iter(env.values())))
    alive_in = np.ones(n, dtype=bool) if alive is None else alive
    values, alive_out = _evaluate_stacked(e, env, alive_in)
    outcomes = []
    for i in range(n):
        if not alive_in[i]:
            assert not alive_out[i]
            continue
        try:
            expected = gc.evaluate(e, {k: v[i] for k, v in env.items()})
        except DomainError:
            assert not alive_out[i], (label, i)
            outcomes.append("domain")
            continue
        assert alive_out[i], (label, i)
        assert _bits(values[i]) == _bits(expected), (label, i, values[i], expected)
        outcomes.append("value")
    return outcomes


def _atom_trees(x, y, d, rng):
    """One tree per built-in atom, with matrix atoms under stacked and per-row consumers."""
    a = gc.make_const_matrix(np.asarray(gc.random_spd(d, 10.0, 3)), "PD", name="A")
    atom = gc.apply_atom
    w = rng.normal(size=(d, d))
    mats = {
        "conjugation": atom("conjugation", [x, rng.normal(size=(d, max(1, d - 1)))]),
        "adjoint": atom("adjoint", [x]),
        "inv": atom("inv", [x]),
        "hadamard_product": atom("hadamard_product", [x, w @ w.T + 0.3 * np.eye(d)]),
        "diag_matrix": atom("diag_matrix", [x]),
        "positive_affine": atom("positive_affine", [
            x, [rng.normal(size=(d, d)) for _ in range(2)], w @ w.T, 1]),
        "positive_affine_inv": atom("positive_affine", [
            x, [rng.normal(size=(d, 2)) for _ in range(2)], 0.1 * np.eye(2), -1]),
    }
    for name, m in mats.items():
        yield f"logdet({name})", atom("logdet", [m])
        yield f"tr({name})", atom("tr", [m])
    k = max(1, d - 1)
    tr, logdet = atom("tr", [x]), atom("logdet", [x])
    yield "logdet", logdet
    yield "tr", tr
    yield "sum", atom("sum", [x])
    yield "sdivergence", atom("sdivergence", [x, a]) + atom("sdivergence", [a, x])
    yield "distance", atom("distance", [a, x]) + atom("distance", [x, a])
    yield "distance_xy", atom("distance", [x, y]) + atom("sdivergence", [y, x])
    yield "quad_form", atom("quad_form", [rng.normal(size=d), x])
    yield "eigmax", atom("eigmax", [x])
    yield "log_quad_form", atom("log_quad_form", [rng.normal(size=(d, 2)), x])
    yield "eigsummax", atom("eigsummax", [x, k])
    yield "schatten_norm", atom("schatten_norm", [x, 1.5]) + atom("schatten_norm", [x, 3.0])
    yield "sum_log_eigmax", atom("sum_log_eigmax", [x, k])
    yield "sum_pow_log_eigmax", (atom("sum_pow_log_eigmax", [x, k, 2.5])
                                 + atom("sum_pow_log_eigmax", [x, d, 2.0]))
    yield "elementwise_norm1", atom("elementwise_norm1", [x])
    yield "exp", atom("exp", [250.0 * atom("eigmax", [x])])
    yield "log", atom("log", [tr - float(d)])
    yield "neg_log", atom("neg_log", [logdet + 0.5])
    yield "pow", atom("pow", [logdet, 1.5]) + atom("pow", [tr - float(d), 2.0])
    yield "abs", atom("abs", [logdet])
    yield "combinators", gc.MaxOf((
        gc.Mul((tr, logdet)), -2.0 * logdet, gc.ConstScalar(0.25),
        gc.Add((tr, logdet, atom("eigmax", [x])), (0.5, -1.0, 2.0))))
    yield "constant subtree", tr + atom("logdet", [a]) * atom("eigmax", [a])
    yield "per-row atom over a constant", tr + atom("pow", [atom("tr", [a]), 2.0])
    yield "max over constants", gc.MaxOf((tr, gc.ConstScalar(3.0), atom("logdet", [a])))


class TestEvaluateStacked:
    # d = 10: past 8 elements numpy's pairwise sums and SIMD blocks change shape.
    @pytest.mark.parametrize("d", [2, 3, 5, 10])
    def test_every_atom_matches_pointwise(self, d):
        rng = np.random.default_rng(40 + d)
        x, y = gc.Variable("X", gc.SPD(d)), gc.Variable("Y", gc.SPD(d))
        env = {"X": _mixed_stack(d, rng), "Y": _mixed_stack(d, rng)}
        seen, atoms = set(), set()
        for label, e in _atom_trees(x, y, d, rng):
            seen.update(_assert_matches_pointwise(e, env, label=label))
            atoms.update(n.sig.id for _, n in e.walk() if isinstance(n, gc.AtomApply))
        assert seen == {"value", "domain"}
        assert atoms == set(gc.CATALOG_IDS)
        # A constant subtree that kills every row cannot be built.
        a = gc.make_const_matrix(np.eye(d), "PD", name="A")
        with pytest.raises(DomainError, match="atom 'log' has no value"):
            gc.apply_atom("tr", [x]) + gc.apply_atom("log", [gc.apply_atom("tr", [a]) - 100.0])

    def test_rows_already_dead_stay_dead(self):
        rng = np.random.default_rng(7)
        x = gc.Variable("X", gc.SPD(3))
        alive = np.ones(18, dtype=bool)
        alive[[0, 5]] = False
        env = {"X": _mixed_stack(3, rng)}
        _assert_matches_pointwise(gc.apply_atom("logdet", [gc.apply_atom("inv", [x])]), env, alive)

    def test_non_finite_rows_die_at_gated_atoms(self):
        # inv gates its argument: a non-finite row raises DomainError per point.
        rng = np.random.default_rng(8)
        x = gc.Variable("X", gc.SPD(3))
        stack = _mixed_stack(3, rng)
        stack[4, 1, 1] = np.nan
        assert "domain" in _assert_matches_pointwise(
            gc.apply_atom("tr", [gc.apply_atom("inv", [x])]), {"X": stack})

    def test_distance_gates_its_first_argument_per_row(self):
        # A non-finite row dies, as per point; an asymmetric alive row, which
        # per point raises ShapeError, leaves the stack undecided.
        x = gc.Variable("X", gc.SPD(3))
        a = gc.make_const_matrix(np.asarray(gc.random_spd(3, 10.0, 3)), "PD", name="A")
        e = gc.apply_atom("distance", [x, a])
        stack = _mixed_stack(3, np.random.default_rng(11))
        stack[4, 1, 1] = np.nan
        assert "domain" in _assert_matches_pointwise(e, {"X": stack})
        stack[6, 0, 1] += 0.5
        with pytest.raises(ShapeError):
            gc.evaluate(e, {"X": stack[6]})
        with pytest.raises(gc.spd.Undecided):
            _evaluate_stacked(e, {"X": stack}, np.ones(18, dtype=bool))

    def test_ungated_non_finite_rows_are_undecided(self):
        # Per point, eigvalsh of an infinite matrix raises LinAlgError or
        # returns NaN, whatever LAPACK makes of it.  A variable's non-finite
        # row dies at the variable's gate, so the infinities come from an
        # atom: conjugation overflows every row.
        x = gc.Variable("X", gc.SPD(3))
        e = gc.apply_atom("eigmax", [gc.apply_atom("conjugation", [x, 1e200 * np.eye(3)])])
        with pytest.raises(gc.spd.Undecided, match="ungated decomposition"):
            _evaluate_stacked(e, {"X": _mixed_stack(3, np.random.default_rng(9))},
                              np.ones(18, dtype=bool))

    @pytest.mark.parametrize("atom", ["eigmax", "logdet", "tr", "sum"])
    def test_non_finite_variable_rows_die(self, atom):
        # Every variable passes the gate of sym_eig: a non-finite value raises
        # DomainError per point, so its row dies whatever the atom.
        x = gc.Variable("X", gc.SPD(3))
        stack = _mixed_stack(3, np.random.default_rng(9))
        stack[2, 0, 0] = np.nan
        stack[5, 1, 2] = math.inf
        outcomes = _assert_matches_pointwise(gc.apply_atom(atom, [x]), {"X": stack})
        assert outcomes.count("domain") >= 2

    def test_user_atoms_leave_the_stack_undecided(self):
        # Only the built-in evaluators take a stack: a block of a tree with a
        # user atom runs point by point, and its report is the per-point one.
        def shifted_log_trace(m):
            t = float(np.trace(m)) - 2.0
            if t <= 0.0:
                raise DomainError("trace too small")
            return math.log(t)

        sig = gc.AtomSignature("shifted_log_trace", (gc.ArgKind.MANIFOLD,), "scalar",
                               gc.Sign.ANY, gc.GCurvature.UNKNOWN, gc.GMonotonicity.ANY,
                               gc.ECurvature.UNKNOWN)
        gc.register_atom(sig, shifted_log_trace)
        try:
            x = gc.Variable("X", gc.SPD(3))
            inner = gc.apply_atom("shifted_log_trace", [x])
            e = gc.apply_atom("pow", [inner, 2.0]) + gc.apply_atom("logdet", [x])
            with pytest.raises(gc.spd.Undecided, match="no stacked evaluator"):
                _evaluate_stacked(e, {"X": _mixed_stack(3, np.random.default_rng(3))},
                                  np.ones(18, dtype=bool))
            cfg = gc.FuzzConfig(trials=150, dim=3, cond_max=10.0, seed=3)
            out = gc.cross_validate(e, cfg)
            assert out.checks["geodesic-convexity"].skipped
            f = lambda m: gc.evaluate(e, {"X": m})
            assert out.checks["geodesic-convexity"] == gc.check_gconvex(f, cfg)
            assert out.checks["euclidean-convexity"] == gc.check_econvex(f, cfg)
        finally:
            gc.unregister_atom("shifted_log_trace")

    def test_atoms_may_write_into_their_argument_per_point(self):
        # A user atom's block runs point by point, where the value it writes
        # into is its own.
        def scribble(m):
            m[0, 0] += 1.0
            return float(np.trace(m))

        sig = gc.AtomSignature("scribble_trace", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.ANY,
                               gc.GCurvature.UNKNOWN, gc.GMonotonicity.ANY,
                               gc.ECurvature.UNKNOWN)
        gc.register_atom(sig, scribble)
        try:
            x = gc.Variable("X", gc.SPD(3))
            e = gc.apply_atom("scribble_trace", [gc.apply_atom("inv", [x])])
            with pytest.raises(gc.spd.Undecided):
                _evaluate_stacked(e, {"X": _mixed_stack(3, np.random.default_rng(6))},
                                  np.ones(18, dtype=bool))
            cfg = gc.FuzzConfig(trials=64, dim=3, cond_max=10.0, seed=5)
            stacked = gc.cross_validate(e, cfg).checks["geodesic-convexity"]
            pointwise = gc.check_gconvex(lambda m: gc.evaluate(e, {"X": m}), cfg)
            assert stacked.to_dict() == pointwise.to_dict()
        finally:
            gc.unregister_atom("scribble_trace")

    def test_other_errors_fall_back_to_the_pointwise_error(self):
        def picky(m):
            if float(np.trace(m)) > 4.0:
                raise ValueError(f"trace {float(np.trace(m)):.3f} is too large")
            return float(np.trace(m))

        sig = gc.AtomSignature("picky_trace", (gc.ArgKind.MANIFOLD,), "scalar", gc.Sign.POSITIVE,
                               gc.GCurvature.CONVEX, gc.GMonotonicity.INCREASING,
                               gc.ECurvature.AFFINE)
        gc.register_atom(sig, picky)
        try:
            x = gc.Variable("X", gc.SPD(3))
            e = gc.apply_atom("logdet", [x]) + gc.apply_atom("picky_trace", [x])
            with pytest.raises(gc.spd.Undecided):
                _evaluate_stacked(e, {"X": _mixed_stack(3, np.random.default_rng(4))},
                                  np.ones(18, dtype=bool))
            cfg = gc.FuzzConfig(trials=64, dim=3, cond_max=10.0, seed=5)
            with pytest.raises(ValueError) as stacked:
                gc.cross_validate(e, cfg)
            with pytest.raises(ValueError) as pointwise:
                gc.check_gconvex(lambda m: gc.evaluate(e, {"X": m}), cfg)
            assert str(stacked.value) == str(pointwise.value)
        finally:
            gc.unregister_atom("picky_trace")


class TestPlan:
    """A tree is ordered once, into a plan kept on its root node."""

    @staticmethod
    def _tree(scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        a = gc.make_const_matrix(np.diag([1.0, 2.0, 3.0]), "PD", name="A")
        far = gc.apply_atom("pow", [gc.apply_atom("distance", [a, x]), 2])
        return far + gc.apply_atom("logdet", [x])

    def test_each_distinct_node_is_one_step_in_post_order(self, scope):
        x = gc.make_variable("X", gc.SPD(3), scope=scope)
        t = gc.apply_atom("tr", [x])
        e = gc.Add((t, t), (2.0, 3.0))
        plan = expr._plan_of(e)
        assert [step.node for step in plan] == [x, t, e]
        assert [step.kids for step in plan] == [(), (0,), (1, 1)]
        assert expr._plan_of(e) is plan

    def test_an_atom_step_places_its_parameters(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        h = np.array([1.0, 2.0])
        plan = expr._plan_of(gc.apply_atom("quad_form", [h, x]))
        (index, param), (kid, none) = plan[-1].slots
        assert index is None and np.array_equal(param, h) and (kid, none) == (0, None)

    def test_built_once_per_expression(self, scope, monkeypatch):
        builds = []
        build = expr._build_plan
        monkeypatch.setattr(expr, "_build_plan", lambda e: builds.append(e) or build(e))
        e = self._tree(scope)
        point = np.diag([2.0, 1.0, 3.0])
        gc.evaluate(e, {"X": point})
        gc.evaluate(e, {"X": point})
        gc.value_and_grad(e, {"X": point})
        gc.gradient_descent(_ExpressionObjective(e, "X"), point, max_iter=1)
        _evaluate_stacked(e, {"X": np.stack([point, np.eye(3)])}, np.ones(2, dtype=bool))
        assert len(builds) == 1 and builds[0] is e

    @staticmethod
    def _shared_tree(rng, x):
        """A random scalar tree whose later nodes reuse earlier ones, shared by identity."""
        mats, scalars = [x], []
        for _ in range(8):
            pick = rng.integers(5)
            if pick == 0 or not scalars:
                scalars.append(gc.apply_atom(("tr", "logdet")[rng.integers(2)],
                                             [mats[rng.integers(len(mats))]]))
            elif pick == 1:
                mats.append(gc.apply_atom("inv", [mats[rng.integers(len(mats))]]))
            else:
                kids = [scalars[i] for i in rng.integers(len(scalars), size=rng.integers(1, 4))]
                combine = (gc.Add, gc.MaxOf, gc.Mul)[min(pick - 2, 2 if len(kids) > 1 else 1)]
                scalars.append(combine(kids))
        return scalars[-1]

    def test_the_plan_orders_nodes_as_a_recursive_walk_first_meets_them(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        rng = np.random.default_rng(3)
        for _ in range(300):
            e = self._shared_tree(rng, x)
            first = {}
            for _, node in reference_walk(e):
                first.setdefault(id(node), node)
            assert [step.node for step in expr._plan_of(e)] == list(first.values())

    def test_unparse_renders_as_a_recursive_renderer(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        rng = np.random.default_rng(5)
        outcomes = []
        for _ in range(300):
            e = self._shared_tree(rng, x)
            try:
                want = reference_unparse(e)
            except GeocertError as exc:
                # Every node these trees cannot render is a product, so a
                # tree with several gives the one message too.
                with pytest.raises(GeocertError) as got:
                    unparse(e)
                assert str(got.value) == str(exc)
                outcomes.append("refused")
            else:
                assert unparse(e) == want
                outcomes.append("rendered")
        assert set(outcomes) == {"rendered", "refused"}

    def test_walk_yields_one_pair_per_path_as_a_recursive_walk(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        rng = np.random.default_rng(4)
        for _ in range(100):
            e = self._shared_tree(rng, x)
            pairs = [(path, id(node)) for path, node in e.walk()]
            assert pairs == [(path, id(node)) for path, node in reference_walk(e)]
            assert e.node_count() == len(pairs)

    def test_walk_and_count_a_tree_deeper_than_the_recursion_limit(self, scope):
        x = gc.make_variable("X", gc.SPD(2), scope=scope)
        deep = sum(gc.apply_atom("tr", [x]) for _ in range(1500))
        paths = [p for p, _ in deep.walk()]
        assert len(paths) == deep.node_count() == 4501
        assert paths[0] == (0,) * 1500 and paths[-1] == ()
        shared = gc.apply_atom("tr", [x])
        for _ in range(16):
            shared = gc.Add((shared, shared), (0.5, 0.5))
        # Counted on the plan's 18 steps, not by listing 196607 paths.
        assert len(expr._plan_of(shared)) == 18 and shared.node_count() == 196607

    def test_a_plan_is_no_part_of_a_node_identity(self, scope):
        p, q = self._tree(scope), self._tree(scope)
        before = hash(q)
        gc.evaluate(p, {"X": np.eye(3)})
        assert p._plan is not None and q._plan is None
        assert p == q and hash(p) == hash(q) == before
