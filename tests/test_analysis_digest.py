"""Pins the full ``analyze`` output on a fixed corpus of trees.

The corpus is the 1000 grammar-generator expressions of seeds 777, 1234, 5,
6 and 7 (200 each, drawn exactly as the grammar soundness sweep draws them)
plus the four shipped problem files.  The digest is the SHA-256 of the
canonical JSON of every report, so any change to a verdict, a trace rule, a
trace note or the trace order shows up here.  The constant was recorded
before the analysis passes were merged into one walk, and re-recorded once
when the even-power note started to reach the trace: the canonical JSON of
the corpus before and after differed in that note alone (9 of 1004
reports).  It was re-recorded again when each node got one sign, its true
value range (``logdet`` registered AnySign, a power of a base that may be
negative AnySign unless p is even): ``tests/digest_records.py`` showed 153
of 1004 reports differ, 151 in the root sign alone (138 Positive and 13
Negative to AnySign) and 2 GUnknown ones in the root's trace note alone
(``inner=GUnknown`` to the positive-domain note of ``log`` and
``neg_log``).  It must not be regenerated to make this test pass.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

import geocert as gc
from test_grammar_soundness import _expr

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
CORPUS_SEEDS = (777, 1234, 5, 6, 7)
CORPUS_DIGEST = "366f5c0eb04bad7e5b6e10356e0275272ff08bd96a5239748def6f8beb7fd450"


def _corpus_reports():
    d = 3
    x = gc.Variable("X", gc.SPD(d))
    for seed in CORPUS_SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(200):
            e = _expr(rng, x, d, int(rng.integers(1, 4)))
            yield gc.analyze(e, gc.SPD(d))
    for path in sorted(PROBLEMS.glob("*.yaml")):
        prob = gc.load_problem(path)
        yield gc.analyze(prob.expression, prob.manifold)


def corpus_digest() -> str:
    h = hashlib.sha256()
    for report in _corpus_reports():
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_analysis_corpus_digest():
    assert corpus_digest() == CORPUS_DIGEST
