"""Grammar-wide soundness sweep.

Random expressions drawn from the full construction grammar are analyzed;
whenever the engine hands out a certificate (anything but GUnknown), the
sampling oracle gets a chance to refute it.  A single surviving refutation
is an engine bug.  The generator leans on awkward combinations on purpose:
inverses under compositions, negative weights, odd powers, products, maxima
of mixed curvatures.
"""

import numpy as np
import pytest

import geocert as gc

G = gc.GCurvature


def _leaf(rng, x, d):
    choice = rng.integers(0, 8)
    inner = x if rng.random() < 0.7 else gc.apply_atom("inv", [x])
    if choice == 0:
        return gc.apply_atom("logdet", [inner])
    if choice == 1:
        return gc.apply_atom("tr", [inner])
    if choice == 2:
        return gc.apply_atom("eigmax", [inner])
    if choice == 3:
        return gc.apply_atom("quad_form", [rng.normal(size=d), inner])
    if choice == 4:
        return gc.apply_atom("log_quad_form", [rng.normal(size=(d, 2)), inner])
    if choice == 5:
        return gc.apply_atom("eigsummax", [inner, int(rng.integers(1, d + 1))])
    anchor = gc.make_const_matrix(
        np.asarray(gc.random_spd(d, 5.0, int(rng.integers(1 << 30)))), "PD"
    )
    if choice == 6:
        return gc.apply_atom("sdivergence", [inner, anchor])
    return gc.apply_atom("distance", [anchor, inner])


def _matrix_then_scalar(rng, x, d):
    kind = rng.choice(["conjugation", "hadamard_product", "diag_matrix",
                       "adjoint", "positive_affine", "inv"])
    if kind == "conjugation":
        b = rng.normal(size=(d, int(rng.integers(1, d + 1))))
        m = gc.apply_atom("conjugation", [x, b])
    elif kind == "hadamard_product":
        w = rng.normal(size=(d, d))
        m = gc.apply_atom("hadamard_product", [x, w @ w.T + 0.3 * np.eye(d)])
    elif kind == "positive_affine":
        cols = int(rng.integers(1, d + 1))
        ys = [rng.normal(size=(d, cols)) for _ in range(2)]
        w = rng.normal(size=(cols, cols))
        m = gc.apply_atom("positive_affine", [x, ys, w @ w.T, int(rng.choice([-1, 1]))])
    elif kind == "inv":
        m = gc.apply_atom("inv", [x])
    else:
        m = gc.apply_atom(kind, [x])
    outer = rng.choice(["logdet", "tr", "eigmax", "sum"])
    return gc.apply_atom(outer, [m])


def _expr(rng, x, d, depth):
    if depth <= 0:
        return _leaf(rng, x, d)
    choice = rng.integers(0, 6)
    if choice == 0:
        subs = [_expr(rng, x, d, depth - 1) for _ in range(int(rng.integers(2, 4)))]
        weights = rng.choice([-1.0, 0.5, 1.0, 2.0], size=len(subs))
        return gc.Add(tuple(subs), tuple(float(w) for w in weights))
    if choice == 1:
        return float(rng.choice([-2.0, -1.0, 0.5, 3.0])) * _expr(rng, x, d, depth - 1)
    if choice == 2:
        subs = [_expr(rng, x, d, depth - 1) for _ in range(int(rng.integers(1, 4)))]
        return gc.MaxOf(tuple(subs))
    if choice == 3:
        fn = rng.choice(["exp", "abs", "pow", "log", "neg_log"])
        inner = _expr(rng, x, d, depth - 1)
        if fn == "pow":
            return gc.apply_atom("pow", [inner, float(rng.choice([1.0, 2.0, 3.0]))])
        return gc.apply_atom(fn, [inner])
    if choice == 4:
        return _matrix_then_scalar(rng, x, d)
    return gc.Mul((_expr(rng, x, d, depth - 1), _expr(rng, x, d, depth - 1)))


@pytest.mark.parametrize("master_seed", [777, 1234])
def test_certified_expressions_survive_fuzzing(master_seed):
    rng = np.random.default_rng(master_seed)
    d = 3
    x = gc.Variable("X", gc.SPD(d))
    certified = 0
    for i in range(200):
        e = _expr(rng, x, d, int(rng.integers(1, 4)))
        report = gc.analyze(e, gc.SPD(d))
        if report.gcurvature is G.UNKNOWN:
            continue
        certified += 1
        try:
            out = gc.cross_validate(
                e, gc.FuzzConfig(trials=120, dim=d, seed=master_seed + i, cond_max=8.0)
            )
        except gc.InconclusiveError:
            continue  # generated expression with a razor-thin domain
        assert out.verdict == "CONSISTENT", (i, report.gcurvature, out.checks)
    assert certified > 50  # the generator must actually exercise certificates
