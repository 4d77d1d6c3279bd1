import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

import geocert as gc
from geocert import analysis, spd
from geocert.analysis import gflip, gjoin
from geocert.errors import DomainError, ShapeError

from conftest import reference_walk, registered_as, shift, shift_signature

G = gc.GCurvature
E = gc.ECurvature
M = gc.GMonotonicity
S = gc.Sign

PRECISION_RANK = {G.LINEAR: 0, G.CONVEX: 1, G.CONCAVE: 1, G.UNKNOWN: 2}


def _var(name="X", d=4):
    return gc.Variable(name, gc.SPD(d))


def _pd(d, seed):
    return gc.make_const_matrix(np.asarray(gc.random_spd(d, 10.0, seed)), "PD", name=f"C{seed}")


class TestSignPropagation:
    def test_logdet_positive(self):
        # log det X < 0 below the identity, so logdet is not Positive.
        r = gc.analyze(gc.apply_atom("logdet", [_var()]), gc.SPD(4))
        assert r.sign == S.ANY

    def test_negated_logdet(self):
        r = gc.analyze(-gc.apply_atom("logdet", [_var()]), gc.SPD(4))
        assert r.sign == S.ANY

    def test_mixed_sum(self):
        x = _var()
        e = gc.Add((gc.apply_atom("tr", [x]), gc.apply_atom("logdet", [x])), (1.0, -1.0))
        assert gc.analyze(e, gc.SPD(4)).sign == S.ANY

    def test_max_sign(self):
        x = _var()
        e = gc.MaxOf((gc.apply_atom("tr", [x]), gc.ConstScalar(-1.0)))
        assert gc.analyze(e, gc.SPD(4)).sign == S.POSITIVE


class TestCombineAdd:
    def test_convex_plus_negated_linear(self):
        assert gc.combine_add([(G.CONVEX, 1.0), (G.LINEAR, -1.0)]) == G.CONVEX

    def test_convex_plus_concave(self):
        assert gc.combine_add([(G.CONVEX, 1.0), (G.CONCAVE, 1.0)]) == G.UNKNOWN

    def test_signed_linears(self):
        assert gc.combine_add([(G.LINEAR, 1.0), (G.LINEAR, -1.0)]) == G.LINEAR

    def test_negative_weight_flips(self):
        assert gc.combine_add([(G.CONCAVE, -2.0)]) == G.CONVEX


class TestCombineMax:
    def test_convex_children(self):
        assert gc.combine_max([G.CONVEX, G.CONVEX]) == G.CONVEX

    def test_singleton_identity(self):
        assert gc.combine_max([G.LINEAR]) == G.LINEAR
        assert gc.combine_max([G.CONCAVE]) == G.CONCAVE

    def test_linears_become_convex(self):
        assert gc.combine_max([G.LINEAR, G.LINEAR]) == G.CONVEX

    def test_mixed_unknown(self):
        assert gc.combine_max([G.CONVEX, G.CONCAVE]) == G.UNKNOWN


class TestComposeScalar:
    def test_exp_of_convex(self):
        assert gc.compose_scalar((E.CONVEX, M.INCREASING), G.CONVEX) == G.CONVEX

    def test_neg_log_needs_concave(self):
        assert gc.compose_scalar((E.CONVEX, M.DECREASING), G.CONVEX) == G.UNKNOWN
        assert gc.compose_scalar((E.CONVEX, M.DECREASING), G.CONCAVE) == G.CONVEX

    def test_linear_inner_takes_outer_curvature(self):
        assert gc.compose_scalar((E.CONVEX, M.ANY), G.LINEAR) == G.CONVEX
        assert gc.compose_scalar((E.AFFINE, M.ANY), G.LINEAR) == G.LINEAR

    def test_affine_outer_both_sides(self):
        assert gc.compose_scalar((E.AFFINE, M.INCREASING), G.CONVEX) == G.CONVEX
        assert gc.compose_scalar((E.AFFINE, M.INCREASING), G.CONCAVE) == G.CONCAVE


class TestComposeLoewner:
    def test_logdet_over_conjugation(self):
        x = _var(d=5)
        e = gc.apply_atom("logdet", [gc.apply_atom("conjugation", [x, np.eye(5)])])
        assert gc.analyze(e, gc.SPD(5)).gcurvature == G.CONVEX

    def test_logdet_identity_composition(self):
        assert gc.analyze(gc.apply_atom("logdet", [_var()]), gc.SPD(4)).gcurvature == G.LINEAR

    def test_trace_over_positive_affine(self):
        x = _var(d=3)
        ys = [np.random.default_rng(3).normal(size=(3, 3))]
        e = gc.apply_atom("tr", [gc.apply_atom("positive_affine", [x, ys, np.eye(3), 1])])
        assert gc.analyze(e, gc.SPD(3)).gcurvature == G.CONVEX

    def test_public_table(self):
        meta = gc.apply_atom("tr", [_var()]).meta
        assert gc.compose_loewner((meta.gcurv, meta.gmono), [G.CONVEX]) == G.CONVEX
        assert gc.compose_loewner((meta.gcurv, meta.gmono), [G.CONCAVE]) == G.UNKNOWN

    def test_distance_anymono_strict_inner(self):
        x = _var(d=3)
        inner = gc.apply_atom("conjugation", [x, np.random.default_rng(0).normal(size=(3, 3))])
        e = gc.apply_atom("distance", [inner, gc.apply_atom("inv", [x])])
        # GAnyMono outer over a strictly curved inner cannot be certified.
        assert gc.analyze(e, gc.SPD(3)).gcurvature == G.UNKNOWN


def _docstring_table():
    """The composition table of the ``analysis`` module docstring, as data."""
    names = {"convex": G.CONVEX, "concave": G.CONCAVE,
             "increasing": M.INCREASING, "decreasing": M.DECREASING}
    rows = re.findall(r"\((\w+), (\w+)\)\s+o\s+(\w+)\s+->\s+(\w+)", gc.analysis.__doc__)
    assert len(rows) == 4
    return {(names[o], names[m], names[i]): names[r] for o, m, i, r in rows}


def _table_composition(outer, mono, inner):
    """What the docstring says ``outer`` with ``mono`` composed with ``inner`` gives."""
    if G.UNKNOWN in (outer, inner):
        return G.UNKNOWN
    if inner is G.LINEAR:
        return outer
    table = _docstring_table()
    sides = (G.CONVEX, G.CONCAVE) if outer is G.LINEAR else (outer,)
    hits = [table[s, mono, inner] for s in sides if (s, mono, inner) in table]
    assert len(hits) <= 1
    return hits[0] if hits else G.UNKNOWN


class TestCompositionTable:
    """Both composition rules follow the module docstring's table on every triple."""

    TRIPLES = list(itertools.product(list(G), list(M), list(G)))

    @pytest.mark.parametrize("outer, mono, inner", TRIPLES)
    def test_compose_loewner(self, outer, mono, inner):
        assert gc.compose_loewner((outer, mono), [inner]) is _table_composition(outer, mono, inner)

    @pytest.mark.parametrize("outer, mono, inner", TRIPLES)
    def test_compose_scalar(self, outer, mono, inner):
        ecurv = {G.LINEAR: E.AFFINE, G.CONVEX: E.CONVEX, G.CONCAVE: E.CONCAVE,
                 G.UNKNOWN: E.UNKNOWN}[outer]
        assert gc.compose_scalar((ecurv, mono), inner) is _table_composition(outer, mono, inner)

    def test_a_linear_outer_over_a_curved_inner_is_never_linear(self):
        for mono, inner in itertools.product(list(M), (G.CONVEX, G.CONCAVE)):
            assert gc.compose_loewner((G.LINEAR, mono), [inner]) is not G.LINEAR
            assert gc.compose_scalar((E.AFFINE, mono), inner) is not G.LINEAR

    def test_compose_loewner_joins_over_its_arguments(self):
        outer = (G.CONVEX, M.INCREASING)
        assert gc.compose_loewner(outer, [G.LINEAR, G.CONVEX]) is G.CONVEX
        assert gc.compose_loewner(outer, [G.CONVEX, G.CONCAVE]) is G.UNKNOWN
        assert gc.compose_loewner(outer, []) is G.LINEAR


class TestComposeInverse:
    def test_preserved_over_variable(self):
        x = _var()
        e = gc.apply_atom("tr", [gc.apply_atom("inv", [x])])
        assert gc.analyze(e, gc.SPD(4)).gcurvature == G.CONVEX

    def test_logdet_inverse_is_linear(self):
        x = _var()
        e = gc.apply_atom("logdet", [gc.apply_atom("inv", [x])])
        assert gc.analyze(e, gc.SPD(4)).gcurvature == G.LINEAR
        # oracle identity: logdet(inv(X)) == -logdet(X) exactly
        for i in range(10):
            m = np.asarray(gc.random_spd(4, 100.0, i))
            lhs = gc.evaluate(e, {"X": m})
            rhs = -gc.evaluate(gc.apply_atom("logdet", [x]), {"X": m})
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_ky_fan_of_inverse(self):
        x = _var()
        e = gc.apply_atom("eigsummax", [gc.apply_atom("inv", [x]), 2])
        assert gc.analyze(e, gc.SPD(4)).gcurvature == G.CONVEX

    def test_inverse_of_curved_inner_unknown(self):
        x = _var(d=3)
        inner = gc.apply_atom("conjugation", [x, np.eye(3)])
        e = gc.apply_atom("tr", [gc.apply_atom("inv", [inner])])
        r = gc.analyze(e, gc.SPD(3))
        assert r.gcurvature == G.UNKNOWN
        note = [t for t in r.trace if t.rule == "inverse-reparametrization"]
        assert note and "note" in note[0].inputs

    def test_public_op(self):
        assert gc.compose_inverse(G.LINEAR) == G.LINEAR
        assert gc.compose_inverse(G.CONVEX) == G.UNKNOWN


class TestGCurvature:
    def test_brascamp_lieb_tree(self):
        x = _var(d=5)
        a = np.random.default_rng(1).normal(size=(5, 5))
        e = gc.Add(
            (gc.apply_atom("logdet", [gc.apply_atom("conjugation", [x, a])]),
             gc.apply_atom("logdet", [x])),
            (1.0, -1.0),
        )
        r = gc.analyze(e, gc.SPD(5))
        assert r.gcurvature == G.CONVEX
        assert r.sign == S.ANY

    def test_karcher_sum(self):
        x = _var(d=5)
        terms = tuple(
            gc.apply_atom("pow", [gc.apply_atom("distance", [_pd(5, i), x]), 2])
            for i in range(5)
        )
        assert gc.analyze(gc.Add(terms), gc.SPD(5)).gcurvature == G.CONVEX

    def test_product_unknown(self):
        x = _var()
        e = gc.Mul((gc.apply_atom("tr", [x]), gc.apply_atom("logdet", [x])))
        r = gc.analyze(e, gc.SPD(4))
        assert r.gcurvature == G.UNKNOWN
        assert r.trace[-1].inputs.endswith(
            "; note: products of non-constant factors are not certifiable")

    def test_a_product_with_a_constant_factor_is_not_certified(self):
        # Scaling is a one-term Add's rule; a hand-built product is never certified.
        x = _var()
        tr = gc.apply_atom("tr", [x])
        constant = gc.apply_atom("sdivergence", [_pd(4, 1), _pd(4, 2)])
        for factors in ((gc.ConstScalar(2.0), tr), (tr, constant)):
            r = gc.analyze(gc.Mul(factors), gc.SPD(4))
            assert (r.gcurvature, r.ecurvature) == (G.UNKNOWN, E.UNKNOWN)
            assert r.trace[-1].rule == "scalar-product"
            assert r.trace[-1].inputs.endswith(
                "; note: products are not certified; scale by a number or a ConstScalar")

    def test_multiplying_by_a_const_scalar_scales(self):
        x = _var()
        tr = gc.apply_atom("tr", [x])
        for e in (tr * gc.ConstScalar(2.0), gc.ConstScalar(2.0) * tr):
            assert e == gc.Add((tr,), (2.0,))
            assert gc.analyze(e, gc.SPD(4)).gcurvature is G.CONVEX
        assert gc.ConstScalar(2.0) * gc.ConstScalar(3.0) == gc.Add((gc.ConstScalar(2.0),), (3.0,))
        assert isinstance(tr * gc.apply_atom("logdet", [x]), gc.Mul)

    def test_tyler_expression(self):
        s = gc.Variable("Sigma", gc.SPD(5))
        rng = np.random.default_rng(2)
        xs = [rng.normal(size=5) for _ in range(2)]
        inv_s = gc.apply_atom("inv", [s])
        e = gc.Add(
            tuple(gc.apply_atom("log_quad_form", [v, inv_s]) for v in xs)
            + (gc.apply_atom("logdet", [s]),),
            (0.5, 0.5, 1.0 / 5.0),
        )
        assert gc.analyze(e, gc.SPD(5)).gcurvature == G.CONVEX

    def test_scalar_composition_domain_gate(self):
        x = _var()
        # an odd power over a possibly-negative scalar is not certified
        e = gc.apply_atom("pow", [gc.apply_atom("sum_log_eigmax", [x, 2]), 3])
        r = gc.analyze(e, gc.SPD(4))
        assert r.gcurvature == G.UNKNOWN
        assert any("note" in t.inputs for t in r.trace)

    def test_even_power_note_reaches_the_trace(self):
        x = _var()
        e = gc.apply_atom("pow", [gc.apply_atom("tr", [x]) - 5.0, 2])
        root = gc.analyze(e, gc.SPD(4)).trace[-1]
        assert root.inputs.endswith("; note: even power composed without a sign guarantee")

    def test_registered_sign_not_trusted_by_gates(self):
        # logdet's value range crosses zero, so it reports AnySign and odd
        # powers of it must stay uncertified; the cubic of logdet(inv(X)) is
        # refutable by sampling.
        x = _var(d=3)
        ld = gc.apply_atom("logdet", [x])
        ld_inv = gc.apply_atom("logdet", [gc.apply_atom("inv", [x])])
        assert gc.analyze(ld, gc.SPD(3)).sign == S.ANY
        for inner in (ld, ld_inv):
            cube = gc.apply_atom("pow", [inner, 3])
            assert gc.analyze(cube, gc.SPD(3)).gcurvature == G.UNKNOWN
            assert gc.analyze(gc.apply_atom("neg_log", [inner]), gc.SPD(3)).gcurvature == G.UNKNOWN
        out = gc.cross_validate(
            gc.apply_atom("pow", [ld_inv, 3]),
            gc.FuzzConfig(trials=300, dim=3, seed=188, cond_max=8.0),
        )
        assert out.checks["geodesic-convexity"].verdict == "ViolationFound"

    def test_even_powers_compose_without_sign(self):
        # t^p with even p is convex on the whole line, so squares of
        # geodesically linear scalars certify without a positivity proof.
        x = _var(d=3)
        for inner in (gc.apply_atom("logdet", [x]),
                      gc.apply_atom("logdet", [gc.apply_atom("inv", [x])]),
                      gc.apply_atom("sum_log_eigmax", [x, 3])):
            e = gc.apply_atom("pow", [inner, 2])
            assert gc.analyze(e, gc.SPD(3)).gcurvature == G.CONVEX
            out = gc.cross_validate(e, gc.FuzzConfig(trials=400, dim=3, seed=9, cond_max=30.0))
            assert out.verdict == "CONSISTENT"
        # an even power of a strictly convex scalar still needs positivity
        e = gc.apply_atom("pow", [gc.apply_atom("sum_log_eigmax", [x, 2]), 2])
        assert gc.analyze(e, gc.SPD(3)).gcurvature == G.UNKNOWN

    @pytest.mark.parametrize("rule, build, mutant", [
        ("compose_loewner", lambda x: gc.apply_atom("logdet", [x]), lambda *args: G.UNKNOWN),
        ("compose_scalar", lambda x: gc.apply_atom("exp", [gc.apply_atom("tr", [x])]),
         lambda *args: G.UNKNOWN),
        ("gate_positive_domain", lambda x: gc.apply_atom("pow", [gc.apply_atom("tr", [x]), 2]),
         lambda *args: (None, "refused")),
        ("combine_product", lambda x: gc.Mul((gc.apply_atom("tr", [x]),
                                              gc.apply_atom("logdet", [x]))),
         lambda *args: (G.CONVEX, "")),
    ], ids=["compose_loewner", "compose_scalar", "gate_positive_domain", "combine_product"])
    def test_analyze_applies_the_public_rule(self, monkeypatch, rule, build, mutant):
        e = build(_var(d=2))
        before = gc.analyze(e, gc.SPD(2)).gcurvature
        monkeypatch.setattr(gc.analysis, rule, mutant)
        after = gc.analyze(e, gc.SPD(2)).gcurvature
        assert after is not before

    def test_the_positive_domain_gate(self):
        x = _var(d=3)
        ld = gc.apply_atom("logdet", [x])
        assert gc.gate_positive_domain(gc.apply_atom("log", [ld]), S.POSITIVE) == (M.INCREASING, "")
        assert gc.gate_positive_domain(gc.apply_atom("pow", [ld, 2]), S.ANY) == (
            M.ANY, "even power composed without a sign guarantee")
        assert gc.gate_positive_domain(gc.apply_atom("pow", [ld, 3]), S.NEGATIVE) == (
            None, "pow needs a provably nonnegative argument, value range is Negative")

    def test_refine_runs_once_when_the_node_is_built(self):
        calls = []

        def refine(params, arg_dims):
            calls.append((params, arg_dims))
            return {}

        sig = gc.AtomSignature("refined_trace", (gc.ArgKind.MANIFOLD,), "scalar", S.POSITIVE,
                               G.CONVEX, M.INCREASING, E.AFFINE, None, refine)
        with registered_as(sig, lambda x: float(np.trace(x))):
            e = gc.apply_atom("refined_trace", [_var(d=2)])
            assert calls == [((), (2,))]
            for _ in range(2):
                assert gc.analyze(e, gc.SPD(2)).gcurvature is G.CONVEX
            assert calls == [((), (2,))]

    def test_an_atom_without_a_manifold_argument_composes_as_a_scalar(self):
        # Its registered geodesic curvature is never read: a scalar
        # argument composes through the Euclidean curvature and the
        # monotonicity, whatever the atom's name.
        sig = gc.AtomSignature("convex_scalar", (gc.ArgKind.SCALAR,), "scalar", S.ANY,
                               G.LINEAR, M.INCREASING, E.CONVEX)
        gc.register_atom(sig, lambda v: float(v))
        try:
            e = gc.apply_atom("convex_scalar", [gc.apply_atom("logdet", [_var(d=2)])])
            r = gc.analyze(e, gc.SPD(2))
            assert r.gcurvature is G.CONVEX
            assert r.trace[-1].rule == "scalar-composition"
        finally:
            gc.unregister_atom("convex_scalar")

    def test_a_matrix_argument_without_a_kept_value_is_not_certified(self):
        # A user evaluator does not run where its node is built, so zeros(2)
        # keeps no value and is never gated as positive definite: distance
        # of it is undefined at every point and cannot be certified.
        sig = gc.AtomSignature("zeros", (gc.ArgKind.PARAM_INT,), "matrix", S.ANY, G.LINEAR,
                               M.ANY, E.AFFINE, validate=lambda dims, params: params[0])
        with registered_as(sig, lambda n: np.zeros((n, n))):
            zeros = gc.apply_atom("zeros", [2])
            assert zeros._value is None
            e = gc.apply_atom("distance", [zeros, _var(d=2)])
            r = gc.analyze(e, gc.SPD(2))
            assert r.gcurvature is G.UNKNOWN and r.ecurvature is E.UNKNOWN
            assert r.trace[-1].rule == "loewner-composition"
            assert r.trace[-1].inputs.endswith(
                "note: a variable-free matrix argument kept no value, so it is not known "
                "to be positive definite")
            with pytest.raises(DomainError, match="distance requires positive definite"):
                gc.evaluate(e, {"X": np.eye(2)})

    def test_constant_subtree_linear(self):
        e = gc.apply_atom("sdivergence", [_pd(3, 1), _pd(3, 2)]) + gc.apply_atom("tr", [_var(d=3)])
        r = gc.analyze(e, gc.SPD(3))
        assert r.gcurvature == G.CONVEX
        assert any(t.rule == "constant" for t in r.trace)


class TestECurvature:
    def test_divergence_sum_unknown(self):
        x = _var(d=3)
        e = gc.apply_atom("sdivergence", [x, _pd(3, 3)]) + gc.apply_atom("sdivergence", [x, _pd(3, 4)])
        assert gc.analyze(e, gc.SPD(3)).ecurvature == E.UNKNOWN

    def test_affine_sum(self):
        x = _var()
        e = gc.apply_atom("tr", [x]) + gc.apply_atom("sum", [x])
        assert gc.analyze(e, gc.SPD(4)).ecurvature == E.AFFINE

    def test_negated_logdet_convex(self):
        x = _var()
        r = gc.analyze(-gc.apply_atom("logdet", [x]), gc.SPD(4))
        assert r.ecurvature == E.CONVEX
        assert r.gcurvature == G.LINEAR

    def test_trace_of_inverse_convex(self):
        x = _var()
        e = gc.apply_atom("tr", [gc.apply_atom("inv", [x])])
        assert gc.analyze(e, gc.SPD(4)).ecurvature == E.CONVEX


class TestAnalyze:
    def test_logdet_full_verdict(self):
        r = gc.analyze(gc.apply_atom("logdet", [_var()]), gc.SPD(4))
        assert (r.sign, r.gcurvature, r.ecurvature) == (S.ANY, G.LINEAR, E.CONCAVE)

    def test_matrix_root_rejected(self):
        with pytest.raises(ShapeError):
            gc.analyze(gc.apply_atom("inv", [_var()]), gc.SPD(4))

    def test_foreign_manifold_rejected(self):
        with pytest.raises(DomainError):
            gc.analyze(gc.apply_atom("tr", [_var(d=4)]), gc.SPD(5))

    def test_trace_covers_every_node_post_order(self):
        x = _var()
        e = 2 * gc.apply_atom("tr", [x]) + gc.apply_atom("logdet", [gc.apply_atom("inv", [x])])
        r = gc.analyze(e, gc.SPD(4))
        assert len(r.trace) == e.node_count()
        assert r.trace[-1].path == "root"
        assert r.trace[-1].output == r.gcurvature.value

    def test_a_thousand_term_sum_analyzes_and_cross_validates(self):
        # ``sum()`` nests its terms one Add deep each: no part of the
        # analysis may recurse once per level.
        s = _var("S", d=3)
        rng = np.random.default_rng(0)
        terms = [gc.apply_atom("log_quad_form", [rng.standard_normal(3), gc.apply_atom("inv", [s])])
                 for _ in range(1000)]
        e = sum(terms) + gc.apply_atom("logdet", [s])
        r = gc.analyze(e, gc.SPD(3))
        assert r.gcurvature is G.CONVEX and r.trace[-1].path == "root"
        assert len(r.trace) == e.node_count() == 4004
        cv = gc.cross_validate(e, gc.FuzzConfig(trials=4))
        assert cv.verdict == "CONSISTENT" and cv.analysis == r

    def test_a_shared_subtree_is_analyzed_once_and_traced_once_per_path(self, monkeypatch):
        x = _var()
        e = gc.apply_atom("tr", [x])
        for _ in range(10):
            e = gc.Add((e, e), (0.5, 0.5))
        calls = []
        rule = analysis._curv_node
        monkeypatch.setattr(analysis, "_curv_node", lambda *a, **k: calls.append(1) or rule(*a, **k))
        r = gc.analyze(e, gc.SPD(4))
        assert len(calls) == 24  # twice per distinct node, not per path (2 * 3071)
        monkeypatch.setattr(analysis, "_curv_node", rule)
        # The reference: each path's node analyzed from its children's, found by recursion.
        facts, expected = {}, []
        for path, node in reference_walk(e):
            kids = [facts[id(c)] for c in node._children]
            facts[id(node)], name, inputs = analysis._node_facts(node, kids)
            expected.append(analysis.TraceEntry("root" + "".join(f".{i}" for i in path), name,
                                                inputs, facts[id(node)].gcurv.value))
        assert r.trace == tuple(expected)
        assert len(r.trace) == e.node_count() == 3071

    def test_determinism(self):
        x = _var()
        e = gc.apply_atom("eigmax", [x]) + gc.apply_atom("tr", [gc.apply_atom("inv", [x])])
        assert gc.analyze(e, gc.SPD(4)) == gc.analyze(e, gc.SPD(4))

    def test_flip_symmetry(self):
        x = _var()
        cases = [
            gc.apply_atom("tr", [x]),
            gc.apply_atom("logdet", [x]),
            gc.apply_atom("eigmax", [x]) + 1.0,
            gc.Mul((gc.apply_atom("tr", [x]), gc.apply_atom("sum", [x]))),
        ]
        mirror = {G.CONVEX: G.CONCAVE, G.CONCAVE: G.CONVEX, G.LINEAR: G.LINEAR, G.UNKNOWN: G.UNKNOWN}
        for e in cases:
            direct = gc.analyze(e, gc.SPD(4)).gcurvature
            negated = gc.analyze(-e, gc.SPD(4)).gcurvature
            assert negated == mirror[direct]


class TestLatticeMonotonicity:
    def test_join_and_flip_tables(self):
        assert gjoin(G.CONVEX, G.CONCAVE) == G.UNKNOWN
        assert gjoin(G.LINEAR, G.CONVEX) == G.CONVEX
        assert gflip(G.CONVEX) == G.CONCAVE
        assert gflip(G.LINEAR) == G.LINEAR

    def test_combine_add_monotone_in_unknown(self):
        values = list(G)
        for combo in itertools.product(values, repeat=2):
            for signs in itertools.product((1.0, -1.0), repeat=2):
                base = gc.combine_add(list(zip(combo, signs)))
                for i in range(2):
                    worse = list(combo)
                    worse[i] = G.UNKNOWN
                    degraded = gc.combine_add(list(zip(worse, signs)))
                    assert PRECISION_RANK[degraded] >= PRECISION_RANK[base]

    def test_combine_max_monotone_in_unknown(self):
        for combo in itertools.product(list(G), repeat=3):
            base = gc.combine_max(list(combo))
            for i in range(3):
                worse = list(combo)
                worse[i] = G.UNKNOWN
                assert PRECISION_RANK[gc.combine_max(worse)] >= PRECISION_RANK[base]

    def test_composition_monotone_in_unknown(self):
        for ecurv in list(E):
            for mono in list(M):
                for inner in list(G):
                    base = gc.compose_scalar((ecurv, mono), inner)
                    degraded = gc.compose_scalar((ecurv, mono), G.UNKNOWN)
                    assert PRECISION_RANK[degraded] >= PRECISION_RANK[base]


class TestRulesFollowTheFunction:
    """The atom-specific rules apply by the evaluator a node bound, not by its atom's id."""

    @staticmethod
    def _rule_at(report, path):
        return next(t.rule for t in report.trace if t.path == path)

    def test_an_atom_registered_as_inv_composes_by_its_own_metadata(self):
        with registered_as(shift_signature("inv"), shift):
            e = gc.apply_atom("logdet", [gc.apply_atom("inv", [_var(d=3)])])
            r = gc.analyze(e, gc.SPD(3))
            assert r.gcurvature is G.CONVEX
            assert self._rule_at(r, "root.0") == "loewner-composition"
            out = gc.cross_validate(e, gc.FuzzConfig(trials=200, dim=3, seed=0))
            assert out.verdict == "CONSISTENT"

    def test_an_atom_registered_as_pow_without_a_parameter(self):
        sig = gc.AtomSignature("pow", (gc.ArgKind.SCALAR,), "scalar", S.ANY, G.LINEAR,
                               M.INCREASING, E.AFFINE)
        with registered_as(sig, lambda v: 2.0 * float(v)):
            e = gc.apply_atom("pow", [gc.apply_atom("tr", [_var(d=3)]) - 5.0])
            r = gc.analyze(e, gc.SPD(3))
            assert r.gcurvature is G.CONVEX
            assert "note" not in r.trace[-1].inputs

    def test_the_builtin_functions_keep_their_rules_under_new_ids(self):
        again = {name: replace(gc.lookup_atom(name), id=f"{name}_again")
                 for name in ("inv", "logdet", "pow")}
        x = _var(d=3)
        with registered_as(again["inv"], spd.eval_inv, spd.vjp_inv), \
                registered_as(again["logdet"], spd.eval_logdet, spd.vjp_logdet), \
                registered_as(again["pow"], spd.eval_pow, spd.vjp_pow):
            r = gc.analyze(gc.apply_atom("logdet", [gc.apply_atom("inv_again", [x])]), gc.SPD(3))
            assert r.gcurvature is G.LINEAR
            assert self._rule_at(r, "root.0") == "inverse-reparametrization"
            # The log-determinant's registered AnySign and the positive-domain
            # gate keep an odd power of it uncertified; the even-power case
            # still certifies its square.
            ld = gc.apply_atom("logdet_again", [x])
            cube = gc.analyze(gc.apply_atom("pow_again", [ld, 3]), gc.SPD(3))
            assert cube.gcurvature is G.UNKNOWN
            assert "needs a provably nonnegative argument" in cube.trace[-1].inputs
            square = gc.analyze(gc.apply_atom("pow_again", [ld, 2]), gc.SPD(3))
            assert square.gcurvature is G.CONVEX
            assert "even power" in square.trace[-1].inputs

    def test_the_power_evaluator_under_a_signature_without_a_parameter(self):
        # The power rules read the exponent, the first parameter; a node with
        # none has no even exponent, so the positive-domain gate refuses it.
        sig = gc.AtomSignature("mypow", (gc.ArgKind.SCALAR,), "scalar", S.POSITIVE, G.CONVEX,
                               M.INCREASING, E.CONVEX)
        with registered_as(sig, spd.eval_pow):
            e = gc.apply_atom("mypow", [gc.apply_atom("tr", [_var(d=3)]) - 5.0])
            r = gc.analyze(e, gc.SPD(3))
            assert r.gcurvature is G.UNKNOWN and r.sign is S.ANY
            assert "mypow needs a provably nonnegative argument" in r.trace[-1].inputs
