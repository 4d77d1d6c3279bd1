"""Print the records behind a pinned digest, one canonical JSON line each.

    PYTHONPATH=src python tests/digest_records.py analysis > analysis.jsonl
    PYTHONPATH=src python tests/digest_records.py cross_validate > cv.jsonl
    PYTHONPATH=src python tests/digest_records.py solve > solve.jsonl
    PYTHONPATH=src python tests/digest_records.py memo > memo.jsonl
    PYTHONPATH=src python tests/digest_records.py oracle > oracle.jsonl

The lines come from each digest test's own record builder
(``test_analysis_digest._corpus_reports``,
``test_cross_validate_digest.corpus_records`` with ``_record``,
``test_solve_digest._record`` over ``_file_cases`` and
``_constructor_cases`` for ``SOLVE_DIGEST`` and over ``_memo_cases`` for
``MEMO_DIGEST``, and ``test_oracle_digest.corpus_records`` for
``FUZZ_DIGEST``), so the SHA-256 of their concatenation, printed to
stderr, is the digest the test compares.  Run it on two checkouts and diff the outputs line by line to see
which records a change moves before re-recording a digest constant.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_analysis_digest  # noqa: E402
import test_cross_validate_digest  # noqa: E402
import test_oracle_digest  # noqa: E402
import test_solve_digest  # noqa: E402


def analysis_lines():
    for report in test_analysis_digest._corpus_reports():
        yield json.dumps(report.to_dict(), sort_keys=True)


def cross_validate_lines():
    cv = test_cross_validate_digest
    for label, e, seed in cv.corpus_records():
        yield json.dumps(cv._record(label, e, seed), sort_keys=True)


def solve_lines():
    sd = test_solve_digest
    for case in [*sd._file_cases(), *sd._constructor_cases()]:
        yield json.dumps(sd._record(*case), sort_keys=True)


def memo_lines():
    for case in test_solve_digest._memo_cases():
        yield json.dumps(test_solve_digest._record(*case), sort_keys=True)


CORPORA = {"analysis": analysis_lines, "cross_validate": cross_validate_lines,
           "solve": solve_lines, "memo": memo_lines,
           "oracle": test_oracle_digest.corpus_records}


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
