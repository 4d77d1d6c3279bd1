import math

import numpy as np
import pytest

import geocert as gc
from geocert.expr import _evaluate_stacked
from geocert.errors import (
    DeclarationConflictError,
    DomainError,
    ExpressionError,
    RegistrationConflictError,
    ShapeError,
    UnknownAtomError,
)

from conftest import registered_as, shift, shift_signature


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

    def test_nonsquare_is_parameter_only(self):
        c = gc.make_const_matrix(np.ones((3, 2)))
        assert c.kind == "param"


class TestApplyAtom:
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
    yield "constant subtree kills every row", tr + atom("log", [atom("tr", [a]) - 100.0])
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
