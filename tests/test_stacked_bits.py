"""Every stacked form of ``spd`` against its per-point form, bit for bit, at volume.

A layout slip shows on about one row in two thousand: numpy's SIMD ``log``
where a point takes libm's, a gemv where a point takes a ddot.  The sweep in
``test_expr.py`` has 18 rows a tree, so it would miss one.  Here every tail
of ``spd.Rows.map``, in both eigenvalue layouts (the descending views of
``pd_eigvals`` and the contiguous rows of a whitening), and every evaluator
of ``spd.STACKED``, is compared with its per-point form on at least 4000
rows for each d, with dead rows and rows whose point raises ``DomainError``
among them.  A numpy upgrade that changes how it dispatches these loops
fails here first.
"""

import math

import numpy as np
import pytest

from geocert import spd
from geocert.errors import DomainError

N = 4000
DIMS = (2, 3, 5, 10)


def _bits(a) -> np.ndarray:
    """The bits of a float64 array: NaN equals NaN, -0.0 differs from 0.0."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _spd_stack(d: int, rng: np.random.Generator, n: int = N) -> np.ndarray:
    """SPD matrices with spectra from 1e-4 to 1e4, most of them on both sides of 1."""
    u = rng.uniform(-2.5, 2.5, size=(n, d)) + rng.uniform(-2.0, 2.0, size=(n, 1))
    return spd._spd_from_draws(rng.normal(size=(n, d, d)), u)


def _mixed(d: int, rng: np.random.Generator) -> np.ndarray:
    """``_spd_stack`` with about one row in twenty shifted to symmetric indefinite."""
    x = _spd_stack(d, rng)
    lam = spd._eigvalsh(x)
    bad = rng.random(N) < 0.05
    shift = np.median(lam, axis=1)[bad]
    x[bad] -= shift[:, None, None] * np.eye(d)
    return x


def _alive(rng: np.random.Generator) -> np.ndarray:
    """Every row alive but about one in twenty."""
    return rng.random(N) >= 0.05


def _compare(stacked, point, alive: np.ndarray):
    """``stacked(rows)`` against ``point(i)`` at every row ``i``.

    Returns how many rows died by ``DomainError``; a row dead on entry
    must stay dead and is never evaluated per point.
    """
    rows = spd.Rows(alive.copy())
    values = stacked(rows)
    expected, where, domain = [], [], 0
    for i in range(len(alive)):
        if not alive[i]:
            assert not rows.alive[i]
            continue
        try:
            expected.append(point(i))
        except DomainError:
            assert not rows.alive[i], i
            domain += 1
            continue
        assert rows.alive[i], i
        where.append(i)
    got = np.asarray(values)[where]
    want = np.array(expected)
    assert got.shape == want.shape
    diff = np.flatnonzero((_bits(got) != _bits(want)).reshape(len(where), -1).any(axis=1))
    assert diff.size == 0, [(where[k], got[k], want[k]) for k in diff[:5]]
    return domain


def _layouts(lam_ascending: np.ndarray):
    """The two layouts a tail gets its eigenvalues in: descending views of
    ascending rows, and contiguous descending rows."""
    return {
        "reversed": lam_ascending[:, ::-1],
        "contiguous": np.ascontiguousarray(lam_ascending[:, ::-1]),
    }


def _tails(d: int):
    k = max(1, d - 1)
    return [
        ("logdet", spd._logdet_tail, ()),
        ("distance", spd._distance_tail, ()),
        ("eigmax", spd._eigmax_tail, ()),
        ("eigsummax", spd._eigsummax_tail, (k,)),
        ("schatten 1.5", spd._schatten_tail, (1.5,)),
        ("schatten 2", spd._schatten_tail, (2.0,)),
        ("schatten 3", spd._schatten_tail, (3.0,)),
        ("sum_log", spd._sum_log_tail, (k,)),
        ("sum_pow_log 2", spd._sum_pow_log_tail, (d, 2.0)),
        ("sum_pow_log 3", spd._sum_pow_log_tail, (k, 3.0)),
    ]


@pytest.mark.parametrize("d", DIMS + (1,))
def test_tails_match_each_row_alone_in_both_layouts(d):
    rng = np.random.default_rng(100 + d)
    lam = spd._eigvalsh(_spd_stack(d, rng))
    alive = _alive(rng)
    for layout, rows_lam in _layouts(lam).items():
        for label, tail, params in _tails(d):
            _compare(lambda rows: rows.map(tail, rows_lam, *params),
                     lambda i: spd.POINT.map(tail, rows_lam[i], *params), alive)
        # A non-integer power of logs needs eigenvalues >= 1, which the
        # evaluator's gate ensures before the tail runs.
        above = rows_lam + 1.0 if layout == "contiguous" else (lam + 1.0)[:, ::-1]
        _compare(lambda rows: rows.map(spd._sum_pow_log_tail, above, d, 2.5),
                 lambda i: spd.POINT.map(spd._sum_pow_log_tail, above[i], d, 2.5), alive)


def _matrix_evaluators(d: int, rng: np.random.Generator):
    k = max(1, d - 1)
    a = np.asarray(spd.random_spd(d, 100.0, 7))
    h = rng.normal(size=d)
    hs = tuple(rng.normal(size=(2, d)))
    b = rng.normal(size=(d, d))
    ys = tuple(rng.normal(size=(2, d, d)))
    return [
        ("logdet", spd.eval_logdet, (), ()),
        ("distance (x, A)", spd.eval_distance, (), (a,)),
        ("eigmax", spd.eval_eigmax, (), ()),
        ("eigsummax", spd.eval_eigsummax, (), (k,)),
        ("schatten_norm 1.5", spd.eval_schatten_norm, (), (1.5,)),
        ("schatten_norm 2", spd.eval_schatten_norm, (), (2.0,)),
        ("sum_log_eigmax", spd.eval_sum_log_eigmax, (), (k,)),
        ("sum_pow_log_eigmax 2.5", spd.eval_sum_pow_log_eigmax, (), (k, 2.5)),
        ("sum_pow_log_eigmax 2", spd.eval_sum_pow_log_eigmax, (), (d, 2.0)),
        ("tr", spd.eval_tr, (), ()),
        ("sum", spd.eval_sum, (), ()),
        ("quad_form", spd.eval_quad_form, (h,), ()),
        ("log_quad_form", spd.eval_log_quad_form, (hs,), ()),
        ("elementwise_norm1", spd.eval_elementwise_norm1, (), ()),
        ("adjoint", spd.eval_adjoint, (), ()),
        ("diag_matrix", spd.eval_diag_matrix, (), ()),
        ("schatten_norm 1", spd.eval_schatten_norm, (), (1.0,)),
        ("schatten_norm 3", spd.eval_schatten_norm, (), (3.0,)),
        ("inv", spd.eval_inv, (), ()),
        ("conjugation", spd.eval_conjugation, (), (b,)),
        ("hadamard_product", spd.eval_hadamard_product, (), (a,)),
        ("positive_affine 1", spd.eval_positive_affine, (), (ys, a, 1)),
        ("positive_affine -1", spd.eval_positive_affine, (), (ys, None, -1)),
        ("sdivergence (x, A)", spd.eval_sdivergence, (), (a,)),
    ]


@pytest.mark.parametrize("d", DIMS)
def test_matrix_evaluators_match_each_point(d):
    rng = np.random.default_rng(200 + d)
    x = _mixed(d, rng)
    x[rng.random(N) < 0.5] += rng.normal(scale=1e-3, size=(d, d))  # asymmetric rows too
    alive = _alive(rng)
    deaths = {}
    for label, fn, before, after in _matrix_evaluators(d, rng):
        if label.startswith(("distance", "inv", "positive_affine -1")):
            xs = spd._sym(x)  # these gate their matrix argument's symmetry
        else:
            xs = x
        deaths[label] = _compare(lambda rows: fn(*before, xs, *after, rows=rows),
                                 lambda i: fn(*before, xs[i], *after), alive)
    # Every gate saw rows fail: indefinite ones, and for the non-integer
    # power of logs, eigenvalues below 1.
    for label in ("logdet", "distance (x, A)", "schatten_norm 2", "sum_log_eigmax", "inv",
                  "positive_affine -1", "sdivergence (x, A)"):
        assert deaths[label] > 0, label
    assert deaths["sum_pow_log_eigmax 2.5"] > 2 * deaths["sum_pow_log_eigmax 2"] > 0
    assert deaths["log_quad_form"] > 0


def _scalar_values(rng: np.random.Generator) -> np.ndarray:
    """Floats of every kind the scalar atoms see, overflow and domain errors included."""
    parts = [
        rng.normal(scale=3.0, size=1200),
        rng.uniform(0.0, 50.0, size=1200),
        np.exp(rng.uniform(-700.0, 700.0, size=600)),
        -np.exp(rng.uniform(-20.0, 20.0, size=600)),
        rng.uniform(700.0, 720.0, size=600),
        np.array([math.inf, -math.inf, math.nan, -0.0, 1.0, -1.0, 1e308, -1e308]),
    ]
    v = np.concatenate(parts)
    return v[rng.permutation(len(v))]


@pytest.mark.parametrize("d", DIMS)
def test_scalar_evaluators_match_each_point(d):
    # The scalar atoms do not depend on d; each d draws its own floats.
    rng = np.random.default_rng(300 + d)
    v = _scalar_values(rng)
    alive = np.ones(len(v), dtype=bool)
    alive[rng.random(len(v)) < 0.05] = False
    for label, fn, values, params in _scalar_evaluators(v):
        deaths = _compare(lambda rows: fn(values, *params, rows=rows),
                          lambda i: fn(float(values[i]), *params), alive)
        assert deaths > 0 or label in ("abs", "pow 2", "pow 3", "pow -1"), label


def _scalar_evaluators(v: np.ndarray):
    nonzero = np.where(v == 0.0, 1.0, v)  # 0 ** negative raises ZeroDivisionError
    return [
        ("exp", spd.eval_exp, v, ()),
        ("log", spd.eval_log, v, ()),
        ("neg_log", spd.eval_neg_log, v, ()),
        ("abs", spd.eval_abs, v, ()),
        ("pow 2", spd.eval_pow, v, (2.0,)),
        ("pow 0.5", spd.eval_pow, v, (0.5,)),
        ("pow 1.5", spd.eval_pow, v, (1.5,)),
        ("pow 3", spd.eval_pow, v, (3.0,)),
        ("pow 40", spd.eval_pow, v, (40.0,)),
        ("pow -1", spd.eval_pow, nonzero, (-1.0,)),
        ("pow -0.5", spd.eval_pow, nonzero, (-0.5,)),
    ]


def test_every_stacked_evaluator_has_a_case():
    rng = np.random.default_rng(0)
    cases = _matrix_evaluators(2, rng) + _scalar_evaluators(_scalar_values(rng))
    assert {case[1] for case in cases} == spd.STACKED


def test_a_scalar_error_other_than_domain_propagates():
    # Per point 0.0 ** -1.0 raises ZeroDivisionError, which is no skip: the
    # stacked form raises too, and the block falls back to its points.
    v = np.array([2.0, 0.0, 3.0])
    with pytest.raises(ZeroDivisionError):
        spd.eval_pow(0.0, -1.0)
    with pytest.raises(ZeroDivisionError):
        spd.eval_pow(v, -1.0, rows=spd.Rows(np.ones(3, dtype=bool)))
    # A dead row is not evaluated.
    out = spd.eval_pow(v, -1.0, rows=spd.Rows(np.array([True, False, True])))
    assert out.tolist() == [0.5, 0.0, 1.0 / 3.0]
