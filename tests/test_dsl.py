import numpy as np
import pytest

import geocert as gc
from geocert.dsl import parse_dsl, unparse
from geocert.errors import ParseError


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
