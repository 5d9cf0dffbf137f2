#!/usr/bin/env python3
"""Sweep injection seeds on one corpus case and report merged coverage.

Example:
    python scripts/msi_seed_sweep.py --case cov_toggle --seeds 1..50
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cdckit.checkers import build_checkers           # noqa: E402
from cdckit.coverage import format_report_text, merge, report  # noqa: E402
from cdckit.errors import ParseError                 # noqa: E402
from cdckit.pipeline import analyze_sources, pairs_report      # noqa: E402
from cdckit.sim import MsiConfig, parse_seed_range, simulate  # noqa: E402
from cdckit.stimulus import parse_stimulus           # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--case", default="cov_toggle")
    ap.add_argument("--corpus", default=Path(__file__).resolve().parent.parent / "corpus")
    ap.add_argument("--seeds", default="1..20")
    ap.add_argument("--probability", type=float, default=0.5)
    args = ap.parse_args()

    d = Path(args.corpus) / args.case
    analysis = analyze_sources([(str(d / "rtl.v"), (d / "rtl.v").read_text())],
                               (d / "constraints.cdc").read_text())
    stim = parse_stimulus((d / "stimulus.stim").read_text())
    try:
        seeds = parse_seed_range(args.seeds)
    except ParseError as e:
        ap.error(str(e))

    checkers = build_checkers(analysis)
    db = None
    fails = 0
    for seed in seeds:
        res = simulate(analysis, stim,
                       MsiConfig(probability=args.probability, seed=seed),
                       checkers)
        fails += len(res.failed())
        db = res.coverage if db is None else merge(db, res.coverage)
    rep = report(db, pairs_report(analysis)["pairs"])
    print(format_report_text(rep), end="")
    print(f"{len(seeds)} seeds, {fails} checker failures, "
          f"{db.total()} recorded resolutions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
