"""Pins the outcome of every kind of solve on a fixed corpus.

The corpus:

* the four shipped problem files, each solved as ``geocert solve`` builds
  it (its objective, the identity start, the file's ``max_iter`` and
  ``grad_tol``), whatever its certificate;
* the four library constructors on seeded instances: Karcher means at
  cond 10 and cond 1e4, matrix square roots at d = 3 and d = 10 (the
  latter once more with an iteration budget of 3), a Brascamp-Lieb datum
  and a Tyler scatter problem.

Each record is the canonical JSON of ``SolveResult.to_dict()``, or of the
error type with the partial result a ``StagnationError`` carries, and the
digest is their SHA-256, so a change to any iterate, objective value or
gradient norm shows up here, down to the last bit of a float.  Every
per-point atom evaluator feeds these solves.  The corpus must reach every
way a solve ends: converged, out of iterations and stagnated.

A second digest, ``MEMO_DIGEST``, pins three solves that probe the places
where a memo of decompositions could hand on the wrong bits: a start point
asymmetric within the symmetry gate, a distance with the variable as either
argument, and two anchors that are one array.

Both digests were re-recorded when the line search gained its
Barzilai-Borwein first step and its slope test inside the roundoff band,
which change the iterates of every solve that takes a step, on purpose.
The matrix square root with a budget of 3 was added then, since no other
case still ran out of iterations.  Both were recorded on a copy of the
code whose per-point evaluation ran without the memo (``spd.Memo``
computing every entry afresh and ignoring seeds), and the memoized code
reproduces both, so ``MEMO_DIGEST`` still pins memoized solves to
unmemoized bits.  Neither may be regenerated to make this test pass.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np

import geocert as gc
from geocert import solver
from geocert.expr import evaluate

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
SOLVE_DIGEST = "d09727f0f151180c3e76174bbd6f5845dcac26ac317ff23e01dff35c9bd921e3"
MEMO_DIGEST = "3093bd564c292e50db873ed7cfcf6952cab2017d3c932733ff76e9e4537a87aa"


def _file_cases():
    for path in sorted(PROBLEMS.glob("*.yaml")):
        prob = gc.load_problem(str(path))
        (name,) = sorted(prob.expression.variables)
        obj = solver._ExpressionObjective(prob.expression, name, name, evaluate)
        kwargs = {
            "max_iter": int(prob.solver.get("max_iter", 500)),
            "grad_tol": float(prob.solver.get("grad_tol", 1e-8)),
        }
        yield f"file:{path.name}", obj, np.eye(prob.manifold.dim), kwargs


def _anchors(d, cond, seed, count):
    rng = np.random.default_rng(seed)
    return [gc.random_spd(d, cond, rng) for _ in range(count)]


def _constructor_cases():
    rng = np.random.default_rng(2024)
    yield ("karcher:d4-c10", gc.make_karcher_problem(_anchors(4, 10.0, 1, 3), [0.2, 0.3, 0.5]),
           np.eye(4), {"max_iter": 300, "grad_tol": 1e-7})
    yield ("karcher:d5-c1e4", gc.make_karcher_problem(_anchors(5, 1e4, 2, 3), [0.5, 0.25, 0.25]),
           np.eye(5), {"max_iter": 300, "grad_tol": 1e-7})
    yield ("matrix_sqrt:d3", gc.make_matrix_sqrt_problem(gc.random_spd(3, 10.0, 3)),
           np.eye(3), {"max_iter": 300, "grad_tol": 1e-7})
    yield ("matrix_sqrt:d10", gc.make_matrix_sqrt_problem(gc.random_spd(10, 100.0, 4)),
           np.eye(10), {"max_iter": 300, "grad_tol": 1e-7})
    maps = [rng.normal(size=(3, 1)) for _ in range(3)]
    yield ("brascamp_lieb:d3", gc.make_brascamp_lieb_problem(maps, [1.0, 1.0, 1.0]),
           np.eye(3), {"max_iter": 200, "grad_tol": 1e-8})
    samples = rng.normal(size=(6, 3))
    yield ("tyler:d3-n6", gc.make_tyler_problem(samples),
           np.eye(3), {"max_iter": 200, "grad_tol": 1e-8})
    # Stopped by its iteration budget well short of convergence.
    yield ("matrix_sqrt:d10-max-iter", gc.make_matrix_sqrt_problem(gc.random_spd(10, 100.0, 4)),
           np.eye(10), {"max_iter": 3, "grad_tol": 1e-7})


def _record(label, obj, x0, kwargs):
    try:
        out = gc.gradient_descent(obj, x0, **kwargs).to_dict()
    except gc.StagnationError as exc:
        out = {"error": "StagnationError", "partial": exc.partial.to_dict()}
    except gc.GeocertError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    return {"case": label, "out": out}


def test_solve_corpus_digest():
    h = hashlib.sha256()
    seen = Counter()
    for case in [*_file_cases(), *_constructor_cases()]:
        rec = _record(*case)
        h.update(json.dumps(rec, sort_keys=True).encode())
        out = rec["out"]
        seen[out.get("error") or ("converged" if out["converged"] else "max_iter")] += 1
    # The corpus must keep reaching every way a solve can end.
    assert seen["converged"] and seen["max_iter"] and seen["StagnationError"], seen
    assert h.hexdigest() == SOLVE_DIGEST, seen


def _karcher_expression(terms, weights):
    """``sum_i w_i distance(*args_i)^2`` over the ``(first, second)`` argument pairs."""
    return gc.Add(tuple(gc.apply_atom("pow", [gc.apply_atom("distance", list(pair)), 2])
                        for pair in terms), tuple(weights))


def _memo_cases():
    kwargs = {"max_iter": 300, "grad_tol": 1e-7}
    # A start asymmetric by about 1e-14 relative passes the 1e-12 gate; the
    # solver evaluates it as given, not symmetrized.
    a1, a2 = _anchors(4, 100.0, 5, 2)
    start = gc.random_spd(4, 10.0, 6).entries.copy()
    skew = np.random.default_rng(7).normal(size=(4, 4))
    start += 1e-14 * np.linalg.norm(start) * (skew - skew.T) / np.linalg.norm(skew - skew.T)
    assert 0.0 < np.linalg.norm(start - start.T) < 1e-12 * np.linalg.norm(start)
    yield ("karcher:asymmetric-start", gc.make_karcher_problem([a1, a2], [0.4, 0.6]), start, kwargs)

    def anchor(m, name):
        return gc.make_const_matrix(m.entries, gc.Definiteness.PD, name=name)

    scope = gc.VariableScope()
    x = scope.declare("X", gc.SPD(4))
    b1, b2 = _anchors(4, 1e3, 8, 2)
    expr = _karcher_expression([(x, anchor(b1, "A1")), (anchor(b2, "A2"), x)], [0.3, 0.7])
    yield ("karcher:variable-first", solver._ExpressionObjective(expr, "X", "karcher"),
           np.eye(4), kwargs)

    c1, c2 = _anchors(3, 50.0, 9, 2)
    shared = anchor(c1, "A")  # one node, so both of its terms read one array
    scope = gc.VariableScope()
    x = scope.declare("X", gc.SPD(3))
    expr = _karcher_expression([(shared, x), (anchor(c2, "B"), x), (shared, x)], [0.25, 0.45, 0.3])
    yield ("karcher:one-anchor-array", solver._ExpressionObjective(expr, "X", "karcher"),
           gc.random_spd(3, 20.0, 10).entries, kwargs)


def test_memo_probe_digest():
    h = hashlib.sha256()
    for case in _memo_cases():
        rec = _record(*case)
        h.update(json.dumps(rec, sort_keys=True).encode())
    assert h.hexdigest() == MEMO_DIGEST
