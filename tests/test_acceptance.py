"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and prints a
single PASS line on success (run with ``pytest tests/test_acceptance.py -v -s``
to see them).  Expected values come from fixed counterexample data or from
independent oracles (eigendecomposition square roots, closed-form midpoints,
fixed-point iteration), never from the code paths under test.
"""

import math
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import geocert as gc
from geocert import spd
from geocert.cli import main
from geocert.expr import lookup_atom

from conftest import SIGMA_2, eigh_sqrt, midpoint_oracle, rel_err

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"

G = gc.GCurvature
M = gc.GMonotonicity


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


# -- 1. verdict reproduction -------------------------------------------------

def test_criterion_1_verdict_reproduction(capsys):
    cases = {
        "matrix_sqrt": ("UnknownCurvature", "GConvex"),
        "karcher": (None, "GConvex"),
        "brascamp_lieb": (None, "GConvex"),
        "tyler": (None, "GConvex"),
    }
    for name, (ecurv, gcurv) in cases.items():
        start = time.perf_counter()
        code = main(["analyze", str(PROBLEMS / f"{name}.yaml")])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out.splitlines()
        assert code == 0, name
        assert out[1] == f"Objective Geodesic curvature: {gcurv}", name
        if ecurv is not None:
            assert out[0] == f"Objective Euclidean curvature: {ecurv}", name
        assert elapsed < 1.0, (name, elapsed)
    with capsys.disabled():
        _report(1, "verdict reproduction", "4 problem files, exact strings")


# -- 2. counterexample regression --------------------------------------------

def test_criterion_2_counterexamples(capsys):
    # trace times negated base-2 log det between scaled identities
    a, b = np.diag([1.0, 1.0]), np.diag([16.0, 16.0])
    mid = gc.geodesic(a, b, 0.5).entries
    assert np.allclose(mid, np.diag([4.0, 4.0]), atol=1e-12)

    def product(x):
        det = float(np.linalg.det(np.asarray(x, float)))
        if det <= 0:
            raise gc.DomainError("nonpositive determinant")
        return float(np.trace(x)) * (-math.log2(det))

    cfg = gc.FuzzConfig(trials=64, dim=2, cond_max=10.0, seed=2, injected=((a, b),))
    rep = gc.check_gconvex(product, cfg)
    assert rep.verdict == "ViolationFound"
    assert abs(rep.witness.lhs - (-32.0)) <= 1e-9
    assert abs(rep.witness.rhs - (-128.0)) <= 1e-9
    assert rep.witness.lhs > rep.witness.rhs  # midpoint above the chord

    cfg = gc.FuzzConfig(trials=64, dim=3, cond_max=10.0, seed=2, injected=((np.eye(3), SIGMA_2),))
    rep = gc.check_gconvex(spd.elementwise_norm1, cfg)
    assert rep.verdict == "ViolationFound"
    assert abs(rep.witness.lhs - 4.7638) <= 5e-4
    assert abs(rep.witness.rhs - 4.6) <= 1e-12
    assert np.array_equal(rep.witness.point_b[0], SIGMA_2)
    with capsys.disabled():
        _report(2, "counterexample regression", "-32 vs -128; 4.7638 vs 4.6")


# -- 3. atom soundness suite ---------------------------------------------------

def _atom_instances(name, d, rng):
    """Bind fixed parameters for one atom; (label, evaluator, nargs, direction)."""
    if name == "quad_form":
        h = rng.normal(size=d)
        return [(name, lambda x, h=h: spd.eval_quad_form(h, x), 1, "increasing")]
    if name == "log_quad_form":
        hs = (rng.normal(size=d), rng.normal(size=d))
        return [(name, lambda x, hs=hs: spd.eval_log_quad_form(hs, x), 1, "increasing")]
    if name == "eigsummax":
        k = max(1, d - 1)
        return [(name, lambda x, k=k: spd.eval_eigsummax(x, k), 1, "increasing")]
    if name == "schatten_norm":
        return [
            (f"{name}[p=2]", lambda x: spd.eval_schatten_norm(x, 2.0), 1, "increasing"),
            (f"{name}[p=1]", lambda x: spd.eval_schatten_norm(x, 1.0), 1, "increasing"),
        ]
    if name == "sum_log_eigmax":
        k = max(1, d - 1)
        return [(name, lambda x, k=k: spd.eval_sum_log_eigmax(x, k), 1, "increasing")]
    if name == "sum_pow_log_eigmax":
        # convex only over the full spectrum with an even power
        return [(f"{name}[k=d,p=2]", lambda x, d=d: spd.eval_sum_pow_log_eigmax(x, d, 2.0), 1, None)]
    if name == "conjugation":
        b = rng.normal(size=(d, max(1, d - 1)))
        return [(name, lambda x, b=b: spd.eval_conjugation(x, b), 1, "increasing")]
    if name == "hadamard_product":
        w = rng.normal(size=(d, d))
        mask = w @ w.T + 0.2 * np.eye(d)
        return [(name, lambda x, m=mask: spd.eval_hadamard_product(x, m), 1, "increasing")]
    if name == "positive_affine":
        m = max(1, d - 1)
        ys = (rng.normal(size=(d, m)), rng.normal(size=(d, m)))
        w = rng.normal(size=(m, m))
        b = w @ w.T
        return [
            (f"{name}[r=+1]", lambda x: spd.eval_positive_affine(x, ys, b, 1), 1, "increasing"),
            (f"{name}[r=-1]", lambda x: spd.eval_positive_affine(x, ys, b, -1), 1, "decreasing"),
        ]
    if name in ("sdivergence", "distance"):
        return [(name, getattr(spd, f"eval_{name}"), 2, None)]
    direction = {
        "logdet": "increasing", "tr": "increasing", "sum": "increasing",
        "eigmax": "increasing", "adjoint": "increasing", "inv": "decreasing",
        "diag_matrix": "increasing",
    }.get(name)
    fn = getattr(spd, f"eval_{name}", None) or getattr(spd, name)
    return [(name, fn, 1, direction)]


def _seeded_instances(name, d):
    """``_atom_instances`` drawn from a seed fixed by the atom's name and ``d``."""
    return _atom_instances(name, d, np.random.default_rng([d, zlib.crc32(name.encode())]))


def test_criterion_3_atom_soundness(capsys):
    start = time.perf_counter()
    dims = (2, 3, 5)
    conds = (10.0, 1e4)
    checked = 0
    for name in gc.SPD_ATOM_IDS:
        sig = lookup_atom(name)
        if sig.gcurv is G.UNKNOWN:
            continue  # no curvature claim to corroborate
        for d in dims:
            instances = _seeded_instances(name, d)
            for cond in conds:
                cfg = gc.FuzzConfig(trials=1000, dim=d, cond_max=cond, seed=2024)
                for label, fn, nargs, _ in instances:
                    if sig.gcurv is G.LINEAR:
                        rep = gc.check_gconvex(fn, cfg, nargs=nargs, equality=True)
                    else:
                        rep = gc.check_gconvex(fn, cfg, nargs=nargs)
                    assert rep.verdict == "NoViolationFound", (label, d, cond)
                    checked += 1
    # declared monotonicity, ordered-pair fuzzing
    for name in gc.SPD_ATOM_IDS:
        for d in dims:
            instances = _seeded_instances(name, d)
            for cond in conds:
                cfg = gc.FuzzConfig(trials=1000, dim=d, cond_max=cond, seed=2025)
                for label, fn, nargs, direction in instances:
                    if direction is None or nargs != 1:
                        continue
                    rep = gc.check_monotone_loewner(fn, direction, cfg)
                    assert rep.verdict == "NoViolationFound", (label, d, cond)
                    checked += 1
    # scalar outer atoms corroborated through certified compositions
    x = gc.Variable("X", gc.SPD(3))
    anchor = gc.make_const_matrix(np.asarray(gc.random_spd(3, 10.0, 55)), "PD", name="A")
    compositions = [
        gc.apply_atom("exp", [gc.apply_atom("tr", [x])]),
        gc.apply_atom("pow", [gc.apply_atom("distance", [anchor, x]), 2]),
        gc.apply_atom("abs", [gc.apply_atom("logdet", [x])]),
    ]
    for e in compositions:
        out = gc.cross_validate(e, gc.FuzzConfig(trials=1000, dim=3, seed=2026))
        assert out.verdict == "CONSISTENT", e
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    with capsys.disabled():
        _report(3, "atom soundness", f"{checked} thousand-trial checks in {elapsed:.0f}s")


def test_registered_positive_signs_hold_on_samples():
    # Criterion 3 corroborates curvature and monotonicity; this corroborates
    # the sign: a Positive scalar atom is >= 0, a Positive matrix atom is PD.
    for name in gc.SPD_ATOM_IDS:
        if lookup_atom(name).sign is not gc.Sign.POSITIVE:
            continue
        for d in (2, 3, 5):
            instances = _seeded_instances(name, d)
            for cond in (10.0, 1e4):
                for label, fn, nargs, _ in instances:
                    for k in range(50):
                        points = [gc.random_spd(d, cond, nargs * k + j) for j in range(nargs)]
                        value = fn(*points)
                        if np.ndim(value):
                            value = np.linalg.eigvalsh(np.asarray(value)).min()
                            assert value > 0.0, (label, d, cond, k, value)
                        else:
                            assert value >= 0.0, (label, d, cond, k, value)


# -- 4. geometry identities ----------------------------------------------------

def test_criterion_4_geometry_identities(capsys):
    rng = np.random.default_rng(404)
    for i in range(50):
        a = np.asarray(gc.random_spd(4, 100.0, 1000 + i))
        b = np.asarray(gc.random_spd(4, 100.0, 2000 + i))
        assert rel_err(gc.geodesic(a, b, 0.0).entries, a) <= 1e-10
        assert rel_err(gc.geodesic(a, b, 1.0).entries, b) <= 1e-10
    for i in range(200):
        a = np.asarray(gc.random_spd(3, 100.0, 3000 + i))
        b = np.asarray(gc.random_spd(3, 100.0, 4000 + i))
        t = float(rng.uniform())
        lhs = gc.matrix_inv(gc.geodesic(a, b, t)).entries
        rhs = gc.geodesic(gc.matrix_inv(a), gc.matrix_inv(b), t).entries
        assert rel_err(lhs, rhs) <= 1e-9
    for i in range(200):
        a = np.asarray(gc.random_spd(3, 100.0, 5000 + i))
        b = np.asarray(gc.random_spd(3, 100.0, 6000 + i))
        c = rng.normal(size=(3, 3))
        d0 = gc.distance(a, b)
        d1 = gc.distance(c.T @ a @ c, c.T @ b @ c)
        assert abs(d0 - d1) <= 1e-8 * max(1.0, d0)
        ai, bi = gc.matrix_inv(a).entries, gc.matrix_inv(b).entries
        assert gc.loewner_geq((ai + bi) / 2.0, gc.geometric_mean(ai, bi).entries, 1e-9)
    with capsys.disabled():
        _report(4, "geometry identities", "endpoints, inverse-commute, congruence, AM-GM")


# -- 5. solver correctness -----------------------------------------------------

def test_criterion_5_solver_correctness(capsys):
    # matrix square root at d in {3, 5, 10}, twenty random instances
    count = 0
    for d, base in ((3, 0), (5, 100), (10, 200)):
        for i in range(7):
            if count == 20:
                break
            a = np.asarray(gc.random_spd(d, 50.0, base + i))
            start = time.perf_counter()
            res = gc.gradient_descent(gc.make_matrix_sqrt_problem(a), np.eye(d), grad_tol=1e-7)
            assert time.perf_counter() - start < 5.0
            assert res.converged
            assert rel_err(res.minimizer.entries, eigh_sqrt(a)) <= 1e-6, (d, i)
            count += 1
    # two-anchor mean equals the closed-form midpoint
    a = np.asarray(gc.random_spd(5, 20.0, 300))
    b = np.asarray(gc.random_spd(5, 20.0, 301))
    start = time.perf_counter()
    res = gc.gradient_descent(gc.make_karcher_problem([a, b], [0.5, 0.5]), np.eye(5),
                              grad_tol=1e-7)
    assert time.perf_counter() - start < 5.0
    assert rel_err(res.minimizer.entries, midpoint_oracle(a, b)) <= 1e-6
    # scatter estimator satisfies its fixed point after trace normalization
    rng = np.random.default_rng(302)
    d, n = 5, 40
    chol = np.linalg.cholesky(np.asarray(gc.random_spd(d, 30.0, 303)))
    xs = [chol @ rng.normal(size=d) for _ in range(n)]
    start = time.perf_counter()
    res = gc.gradient_descent(gc.make_tyler_problem(xs), np.eye(d), grad_tol=1e-6)
    assert time.perf_counter() - start < 5.0
    s = res.minimizer.entries
    s = s * (d / np.trace(s))
    s_inv = np.linalg.inv(s)
    fixed = (d / n) * sum(np.outer(v, v) / float(v @ s_inv @ v) for v in xs)
    assert rel_err(fixed, s) <= 1e-4
    # log-det objective reaches a tiny Riemannian gradient
    maps = [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))]
    start = time.perf_counter()
    res = gc.gradient_descent(gc.make_brascamp_lieb_problem(maps, [1.0, 1.0]), np.eye(4),
                              grad_tol=1e-6)
    assert time.perf_counter() - start < 5.0
    assert res.converged and res.grad_norm <= 1e-6
    with capsys.disabled():
        _report(5, "solver correctness", "sqrt(20x), midpoint, fixed point, gradient norm")


# -- 6. gradient validation ------------------------------------------------------

def test_criterion_6_gradient_validation(capsys):
    rng = np.random.default_rng(606)

    def sym(m):
        return (m + m.T) / 2.0

    problems = [
        ("matrix_sqrt", gc.make_matrix_sqrt_problem(np.asarray(gc.random_spd(4, 10.0, 400))), 4),
        ("karcher", gc.make_karcher_problem(
            [np.asarray(gc.random_spd(4, 10.0, s)) for s in (401, 402, 403)], [0.2, 0.3, 0.5]), 4),
        ("brascamp_lieb", gc.make_brascamp_lieb_problem(
            [rng.normal(size=(4, 2)), rng.normal(size=(4, 2))], [1.0, 1.0]), 4),
        ("tyler", gc.make_tyler_problem([rng.normal(size=4) for _ in range(12)]), 4),
    ]
    for name, obj, d in problems:
        for i in range(10):
            x = np.asarray(gc.random_spd(d, 10.0, 500 + i))
            g = obj.gradient(x)
            h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
            for _ in range(10):
                direction = sym(rng.normal(size=(d, d)))
                direction /= np.linalg.norm(direction)
                fd = gc.fd_directional(obj.evaluator, x, direction, h)
                an = float(np.sum(g * direction))
                assert abs(fd - an) <= 1e-5 * max(1e-10, abs(an), abs(fd)), name
    with capsys.disabled():
        _report(6, "gradient validation", "4 objectives x 10 points x 10 directions")


# -- 7. product rejection ---------------------------------------------------------

def test_criterion_7_product_rejection(capsys, tmp_path):
    header = "variables:\n  - {name: X, manifold: SPD, dim: 2}\n"
    matrix_product = tmp_path / "mm.yaml"
    matrix_product.write_text(header + 'objective: "X * X"\n')
    scalar_product = tmp_path / "ss.yaml"
    scalar_product.write_text(header + 'objective: "tr(X) * logdet(X)"\n')
    for path in (matrix_product, scalar_product):
        code = main(["analyze", str(path)])
        capsys.readouterr()
        assert code == 1
    # built through the API, the product is analyzable but never certified
    x = gc.Variable("X", gc.SPD(2))
    e = gc.Mul((gc.apply_atom("tr", [x]), gc.apply_atom("logdet", [x])))
    report = gc.analyze(e, gc.SPD(2))
    assert report.gcurvature is G.UNKNOWN
    with capsys.disabled():
        _report(7, "product rejection", "parse exit 1; API product GUnknown")


# -- 8. determinism ----------------------------------------------------------------

def test_criterion_8_determinism(capsys, tmp_path):
    outs = []
    for run in range(2):
        out = tmp_path / f"analyze_{run}.json"
        code = main(["analyze", str(PROBLEMS / "karcher.yaml"), "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for run in range(2):
        out = tmp_path / f"fuzz_{run}.json"
        code = main(["fuzz", str(PROBLEMS / "matrix_sqrt.yaml"),
                     "--trials", "80", "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    # full stdout path, fresh interpreter each time
    cmd = [sys.executable, "-m", "geocert", "analyze", "problems/tyler.yaml"]
    a = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    b = subprocess.run(cmd, capture_output=True, cwd=ROOT)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    with capsys.disabled():
        _report(8, "determinism", "byte-identical report documents")
