"""Pins ``cross_validate`` on a corpus of generated and hand-built trees.

The corpus:

* 400 grammar-generator expressions at d = 3 (100 each from seeds 21, 22,
  23 and 24, drawn exactly as the grammar soundness sweep draws them), each
  cross-validated with 64 trials at cond 8;
* a few hand-built trees that make sure every path of the trial loop shows
  up: maxima and products, ``exp`` overflow and ``log``/``neg_log`` domain
  skips, an inconclusive run, a GConcave verdict checked through negation,
  GUnknown runs that add the Euclidean check, and an expression of two
  variables.

Each record is the canonical JSON of ``cross_validate(...).to_dict()``
without the analysis trace (``tests/test_analysis_digest.py`` pins that),
or of the error it raised, and the digest is their SHA-256, so a change to
any verdict, trial or skip count, worst residual or witness shows up here.
The constant was recorded with the code from before ``cross_validate``
evaluated its expression over whole trial blocks, and re-recorded once when
each node got one sign, its true value range: ``tests/digest_records.py``
showed 55 of 410 records differ, each in ``analysis.sign`` alone (48
Positive and 7 Negative to AnySign), with no verdict, check, trial or skip
count, residual or witness changed.  It must not be regenerated to make
this test pass.
"""

import hashlib
import json
from collections import Counter

import numpy as np

import geocert as gc
from test_grammar_soundness import _expr

D = 3
TRIALS = 64
COND = 8.0
GRAMMAR_SEEDS = (21, 22, 23, 24)
TREES_PER_SEED = 100
DIGEST = "bd77e4f86fc1c738678b250e824b64e8a1eab721a12e3c9fc2417181d4da026b"


def _hand_built():
    x = gc.Variable("X", gc.SPD(D))
    y = gc.Variable("Y", gc.SPD(D))
    atom = gc.apply_atom
    tr, logdet = atom("tr", [x]), atom("logdet", [x])
    anchor = gc.make_const_matrix(np.diag([1.0, 2.0, 3.0]), "PD", name="A")
    yield "max", gc.MaxOf((tr, logdet, atom("eigmax", [atom("inv", [x])])))
    yield "max-with-skips", gc.MaxOf((tr, atom("log", [tr - 2.0])))
    yield "product", gc.Mul((tr, atom("distance", [anchor, x])))
    yield "exp-overflow", atom("exp", [280.0 * atom("eigmax", [x])])
    yield "log-skips", atom("log", [tr - 2.5])
    yield "neg-log-skips", atom("neg_log", [logdet + 1.0])
    yield "inconclusive", atom("log", [tr - 40.0])
    yield "concave", -atom("sdivergence", [x, anchor])
    yield "unknown-norm1", atom("elementwise_norm1", [x])
    yield "two-variables", atom("distance", [x, y]) + atom("sdivergence", [y, anchor])


def corpus_records():
    x = gc.Variable("X", gc.SPD(D))
    for seed in GRAMMAR_SEEDS:
        rng = np.random.default_rng(seed)
        for i in range(TREES_PER_SEED):
            e = _expr(rng, x, D, int(rng.integers(1, 4)))
            yield f"grammar:{seed}:{i}", e, seed * 1000 + i
    for k, (label, e) in enumerate(_hand_built()):
        yield f"hand:{label}", e, 5 + k


def _record(label, e, seed):
    cfg = gc.FuzzConfig(trials=TRIALS, dim=D, cond_max=COND, seed=seed)
    try:
        out = gc.cross_validate(e, cfg).to_dict()
        del out["analysis"]["trace"]
    except gc.GeocertError as exc:
        out = {"error": type(exc).__name__, "message": str(exc)}
    return {"case": label, "out": out}


def test_cross_validate_corpus_digest():
    h = hashlib.sha256()
    seen = Counter()
    for label, e, seed in corpus_records():
        rec = _record(label, e, seed)
        h.update(json.dumps(rec, sort_keys=True).encode())
        out = rec["out"]
        if "error" in out:
            seen[out["error"]] += 1
            continue
        seen[out["verdict"]] += 1
        seen["concave"] += "geodesic-concavity" in out["checks"]
        seen["skips"] += any(c["skipped"] for c in out["checks"].values())
    # The corpus must keep exercising the paths it exists for.
    assert seen["InconclusiveError"] and seen["INFO"] and seen["concave"], seen
    assert seen["skips"] >= 4, seen
    assert h.hexdigest() == DIGEST
