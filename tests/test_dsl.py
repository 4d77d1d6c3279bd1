import tracemalloc

import numpy as np
import pytest

import geocert as gc
from geocert import expr
from geocert.dsl import parse_dsl, unparse
from geocert.errors import GeocertError, ParseError

from conftest import reference_unparse


@pytest.fixture
def env(scope):
    rng = np.random.default_rng(0)
    return {
        "X": gc.make_variable("X", gc.SPD(5), scope=scope),
        "A": rng.normal(size=(5, 5)),
        "P": np.asarray(gc.random_spd(5, 10.0, 1)),
        "h": rng.normal(size=5),
    }


class TestGrammar:
    def test_brascamp_lieb_tree_shape(self, env):
        e = parse_dsl("logdet(conjugation(X, A)) - logdet(X)", env)
        assert isinstance(e, gc.Add)
        # subtraction folds into the weights, so the MUL(-1) node of the
        # reference rendering is a weight here
        assert e.weights == (1.0, -1.0)
        pos, neg = e.terms
        assert pos.sig.id == "logdet" and pos.args[0].sig.id == "conjugation"
        assert neg.sig.id == "logdet" and isinstance(neg.args[0], gc.Variable)
        assert pos.args[0].args[0] == neg.args[0]

    def test_scalar_scaling_shape(self, env):
        e = parse_dsl("2 * tr(X) + 3", env)
        assert isinstance(e, gc.Add)
        assert e.terms[0] == gc.Add((parse_dsl("tr(X)", env),), (2.0,))
        assert isinstance(e.terms[1], gc.ConstScalar) and e.terms[1].value == 3.0

    def test_unary_minus(self, env):
        e = parse_dsl("-logdet(X)", env)
        assert e == gc.Add((parse_dsl("logdet(X)", env),), (-1.0,))
        assert parse_dsl("-3", env) == gc.ConstScalar(-3.0)

    def test_unicode_minus(self, env):
        assert parse_dsl("tr(X) − 1", env) == parse_dsl("tr(X) - 1", env)

    def test_parenthesized(self, env):
        e = parse_dsl("2 * (tr(X) + eigmax(X))", env)
        assert e == gc.Add((parse_dsl("tr(X) + eigmax(X)", env),), (2.0,))

    def test_max_call(self, env):
        e = parse_dsl("max(tr(X), eigmax(X), 1)", env)
        assert isinstance(e, gc.MaxOf) and len(e.options) == 3

    def test_parameters_resolve(self, env):
        e = parse_dsl("quad_form(h, X) + eigsummax(X, 2) + pow(tr(X), 2)", env)
        assert gc.analyze(e, gc.SPD(5)).gcurvature == gc.GCurvature.CONVEX

    def test_constant_folding(self, env):
        assert parse_dsl("2 * 3 * tr(X)", env) == gc.Add((parse_dsl("tr(X)", env),), (6.0,))


class TestRejections:
    def test_an_empty_constant_rejected(self, env):
        with pytest.raises(gc.ExpressionError, match="nonempty"):
            parse_dsl("logdet(A) + tr(X)", {**env, "A": np.zeros((0, 0))})

    def test_nonconstant_scalar_product(self, env):
        with pytest.raises(ParseError, match="not DGCP-representable"):
            parse_dsl("tr(X) * logdet(X)", env)

    def test_matrix_matrix_product(self, env):
        with pytest.raises(ParseError, match="not DGCP-representable"):
            parse_dsl("X * X", env)

    def test_scaled_matrix(self, env):
        with pytest.raises(ParseError):
            parse_dsl("2 * X", env)

    def test_juxtaposition(self, env):
        with pytest.raises(ParseError):
            parse_dsl("logdet(X X)", env)

    def test_unknown_identifier_with_position(self, env):
        with pytest.raises(ParseError) as err:
            parse_dsl("tr(Y)", env)
        assert err.value.line == 1
        assert "unknown identifier" in str(err.value)

    def test_unknown_atom(self, env):
        with pytest.raises(ParseError, match="unknown atom"):
            parse_dsl("frobnicate(X)", env)

    def test_syntax_error_position(self, env):
        with pytest.raises(ParseError) as err:
            parse_dsl("tr(X) +", env)
        assert err.value.line == 1 and err.value.column is not None

    def test_empty(self, env):
        with pytest.raises(ParseError):
            parse_dsl("   ", env)

    def test_matrix_root_rejected(self, env):
        with pytest.raises(ParseError):
            parse_dsl("inv(X)", env)

    def test_vector_in_arithmetic(self, env):
        with pytest.raises(ParseError):
            parse_dsl("h + tr(X)", env)

    @pytest.mark.parametrize("text, column, message", [
        ("inv(X) + logdet(X)", 1, "matrix-valued subexpressions"),
        ("logdet(X) + inv(X) + tr(X)", 13, "matrix-valued subexpressions"),
        ("max(inv(X), tr(X))", 5, "matrix-valued subexpressions"),
        ("tr(X) - h", 9, "vector constant 'h'"),
    ])
    def test_a_non_scalar_term_is_reported_at_its_first_token(self, env, text, column, message):
        with pytest.raises(ParseError, match=message) as err:
            parse_dsl(text, env)
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("value", [[[1.0], [1.0, 2.0]], "ab"], ids=["ragged", "string"])
    def test_a_constant_that_is_not_numbers_is_reported_at_its_identifier(self, env, value):
        env["g"] = value
        with pytest.raises(ParseError, match="constant 'g' must be numeric") as err:
            parse_dsl("tr(X) + quad_form(g, X)", env)
        assert (err.value.line, err.value.column) == (1, 19)

    def test_nesting_past_the_recursion_limit_is_a_parse_error(self, env):
        assert parse_dsl("(" * 100 + "logdet(X)" + ")" * 100, env) == parse_dsl("logdet(X)", env)
        with pytest.raises(ParseError, match="nests too deeply") as err:
            parse_dsl("(" * 250 + "logdet(X)" + ")" * 250, env)
        assert err.value.line == 1

    def test_arity_error_reported_with_atom(self, env):
        with pytest.raises(ParseError, match="logdet"):
            parse_dsl("logdet(X, X)", env)


class TestRoundTrip:
    CASES = [
        "logdet(conjugation(X, A)) - logdet(X)",
        "2 * tr(X) + 3",
        "sdivergence(X, P) + sdivergence(X, P)",
        "0.5 * log_quad_form(h, inv(X)) + 0.2 * logdet(X)",
        "max(tr(X), eigmax(X))",
        "pow(distance(P, X), 2) + quad_form(h, X)",
        "-logdet(X) + schatten_norm(X, 2.5)",
        "exp(tr(X)) - abs(logdet(X))",
        "sum_log_eigmax(X, 3) + sum_pow_log_eigmax(X, 5, 2)",
        "tr(hadamard_product(X, P))",
        "1 * tr(X)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_unparse_parse(self, env, text):
        first = parse_dsl(text, env)
        rendered = unparse(first)
        second = parse_dsl(rendered, env)
        assert first == second
        assert unparse(second) == rendered

    def test_a_sum_deeper_than_the_recursion_limit_renders(self, env):
        x = env["X"]
        deep = sum(gc.apply_atom("tr", [x]) for _ in range(600))
        text = unparse(deep)
        assert text.startswith("(" * 599 + "0 + tr(X)) + tr(X)") and text.endswith(") + tr(X)")
        try:
            again = parse_dsl(text, env)
        except ParseError as exc:
            # Each parenthesis is a few frames of the recursive descent.
            assert "nests too deeply" in str(exc)
        else:
            assert again == deep

    def test_a_chain_keeps_only_the_texts_still_to_be_read(self, env):
        # Each link's text holds the one before it: kept all at once, the
        # 3000 texts of this chain take about 45 MB for 30 kB of output.
        x = env["X"]
        deep = sum(gc.apply_atom("tr", [x]) for _ in range(3000))
        expr._plan_of(deep)
        tracemalloc.start()
        try:
            text = unparse(deep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 29999 and peak < 5e6

    @pytest.mark.parametrize("bad, message", [
        (lambda x: gc.apply_atom("logdet", [gc.ConstMatrix(np.eye(5))]),
         "cannot render an unnamed matrix constant"),
        (lambda x: gc.apply_atom("quad_form", [np.ones(5), x]),
         "cannot render an unnamed array parameter of 'quad_form'"),
        (lambda x: gc.apply_atom("tr", [x]) * gc.apply_atom("logdet", [x]),
         "products have no DSL form"),
    ])
    def test_one_node_that_cannot_render_refuses_the_tree_as_before(self, env, bad, message):
        x = env["X"]
        e = bad(x)
        for i in range(5):
            e = gc.MaxOf((gc.apply_atom("tr", [x]), 2 * e)) if i % 2 else e - gc.apply_atom("tr", [x])
        with pytest.raises(GeocertError) as want:
            reference_unparse(e)
        with pytest.raises(GeocertError) as got:
            unparse(e)
        assert str(got.value) == str(want.value) == message
