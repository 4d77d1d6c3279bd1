"""Print the records behind a pinned digest, one canonical JSON line each.

    PYTHONPATH=src python tests/digest_records.py analysis > analysis.jsonl
    PYTHONPATH=src python tests/digest_records.py cross_validate > cv.jsonl

The lines come from each digest test's own record builder
(``test_analysis_digest._corpus_reports`` and
``test_cross_validate_digest.corpus_records`` with ``_record``), so the
SHA-256 of their concatenation, printed to stderr, is the digest the test
compares.  Run it on two checkouts and diff the outputs line by line to see
which records a change moves before re-recording a digest constant.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_analysis_digest  # noqa: E402
import test_cross_validate_digest  # noqa: E402


def analysis_lines():
    for report in test_analysis_digest._corpus_reports():
        yield json.dumps(report.to_dict(), sort_keys=True)


def cross_validate_lines():
    cv = test_cross_validate_digest
    for label, e, seed in cv.corpus_records():
        yield json.dumps(cv._record(label, e, seed), sort_keys=True)


CORPORA = {"analysis": analysis_lines, "cross_validate": cross_validate_lines}


def main(argv):
    if len(argv) != 1 or argv[0] not in CORPORA:
        sys.exit(f"usage: digest_records.py {'|'.join(CORPORA)}")
    h = hashlib.sha256()
    for line in CORPORA[argv[0]]():
        h.update(line.encode())
        print(line)
    print(f"digest: {h.hexdigest()}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
