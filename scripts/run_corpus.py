#!/usr/bin/env python3
"""Run every labeled corpus expectation and write the pass/fail matrix."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cdckit.corpus import matrix_to_json, run_corpus  # noqa: E402
from cdckit.jsonout import dumps  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--corpus", default=Path(__file__).resolve().parent.parent / "corpus")
    ap.add_argument("--filter", default=None, help="substring case filter")
    ap.add_argument("--out", default="corpus_matrix.json")
    args = ap.parse_args()

    rows = run_corpus(args.corpus, args.filter)
    matrix = matrix_to_json(rows)
    Path(args.out).write_text(dumps(matrix) + "\n")
    width = max(len(r.case) for r in rows)
    for r in rows:
        mark = "pass" if r.ok else "FAIL"
        detail = f"  {r.detail}" if (r.detail and not r.ok) else ""
        print(f"{mark} {r.case:{width}s} {r.expectation}{detail}")
    print(f"{matrix['total'] - matrix['failed']}/{matrix['total']} expectations hold "
          f"({args.out})")
    return 1 if matrix["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
