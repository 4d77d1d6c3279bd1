"""Pins every ``FuzzReport`` of the falsifier on a fixed corpus.

The corpus:

* ``check_gconvex``, ``check_econvex`` and ``check_monotone_loewner`` (both
  directions) on every atom instance of the acceptance sweep, at d in
  {2, 3, 5} and cond in {10, 1e4}, with 60 trials each;
* the two injected counterexamples of acceptance criterion 2;
* a scalar and a matrix-valued function with a narrow domain, so that
  endpoints and t-samples raise ``DomainError`` and trials are skipped;
* ``cross_validate`` on the four shipped problem files at seeds 0 and 7.

The digest is the SHA-256 of the canonical JSON of every report (or of the
error a check raised), so any change to a verdict, a trial or skip count, a
worst residual or a witness shows up here, down to the last bit of a float.
The constant was recorded before the falsifier was batched over trials; it
must not be regenerated to make this test pass.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import geocert as gc
from geocert import spd
from test_acceptance import _atom_instances
from conftest import SIGMA_2

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DIMS = (2, 3, 5)
CONDS = (10.0, 1e4)
TRIALS = 60
FUZZ_DIGEST = "be88a7d8490a4907b6c8583bc853943f9a45826baf59c4d5028add427553edb5"


def _record(label, run):
    try:
        out = run().to_dict()
    except gc.GeocertError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    return json.dumps({"case": label, "out": out}, sort_keys=True)


def _atom_records():
    for k, name in enumerate(gc.SPD_ATOM_IDS):
        linear = gc.lookup_atom(name).gcurv is gc.GCurvature.LINEAR
        for d in DIMS:
            instances = _atom_instances(name, d, np.random.default_rng([d, k]))
            for cond in CONDS:
                cfg = gc.FuzzConfig(trials=TRIALS, dim=d, cond_max=cond, seed=31 + d)
                for label, fn, nargs, _ in instances:
                    tag = f"{label}:d{d}:c{cond:g}"
                    yield _record(f"g:{tag}", lambda: gc.check_gconvex(
                        fn, cfg, nargs=nargs, equality=linear))
                    yield _record(f"e:{tag}", lambda: gc.check_econvex(fn, cfg, nargs=nargs))
                    if nargs == 1:
                        for direction in ("increasing", "decreasing"):
                            yield _record(f"m:{direction}:{tag}", lambda: gc.check_monotone_loewner(
                                fn, direction, cfg))


def _counterexample_records():
    def product(x):
        det = float(np.linalg.det(np.asarray(x, float)))
        if det <= 0:
            raise gc.DomainError("nonpositive determinant")
        return float(np.trace(x)) * (-math.log2(det))

    cfg = gc.FuzzConfig(trials=64, dim=2, cond_max=10.0, seed=2,
                        injected=((np.diag([1.0, 1.0]), np.diag([16.0, 16.0])),))
    yield _record("criterion-2:product", lambda: gc.check_gconvex(product, cfg))
    cfg = gc.FuzzConfig(trials=64, dim=3, cond_max=10.0, seed=2, injected=((np.eye(3), SIGMA_2),))
    yield _record("criterion-2:norm1", lambda: gc.check_gconvex(spd.elementwise_norm1, cfg))


def _domain_records():
    for c in (1.5, 2.0, 2.5):
        fns = {
            "neg_log_shifted_tr": lambda x: -spd.eval_log(float(np.trace(x)) - c),
            "inv_shifted": lambda x: spd.eval_inv(x - (c / 6.0) * np.eye(3)),
        }
        cfg = gc.FuzzConfig(trials=TRIALS, dim=3, cond_max=10.0, seed=int(4 * c))
        for label, fn in fns.items():
            tag = f"{label}:{c:g}"
            yield _record(f"g:{tag}", lambda: gc.check_gconvex(fn, cfg))
            yield _record(f"e:{tag}", lambda: gc.check_econvex(fn, cfg))
            yield _record(f"m:{tag}", lambda: gc.check_monotone_loewner(fn, "decreasing", cfg))


def _problem_records():
    for path in sorted(PROBLEMS.glob("*.yaml")):
        prob = gc.load_problem(path)
        for seed in (0, 7):
            cfg = gc.FuzzConfig(trials=100, seed=seed)
            yield _record(f"{path.name}:{seed}", lambda: gc.cross_validate(prob.expression, cfg))


def corpus_records():
    yield from _atom_records()
    yield from _counterexample_records()
    yield from _domain_records()
    yield from _problem_records()


def corpus_digest() -> str:
    h = hashlib.sha256()
    for line in corpus_records():
        h.update(line.encode())
    return h.hexdigest()


def test_fuzz_report_corpus_digest():
    assert corpus_digest() == FUZZ_DIGEST
