"""Command-line front end.

Exit codes are a stable contract:
  0 ok, 1 input error, 2 structural errors under --strict,
  3 checker failure or counterexample, 4 decision budget exceeded,
  5 coverage fingerprint mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .checkers import build_checkers, parse_latency
from .codegen import generate_all, lint_generated
from .coverage import CoverageDb, format_report_text, merge, report
from .domains import pairs_fingerprint
from .errors import CdcError, DecisionBudgetExceeded, FingerprintMismatch
from .pipeline import (analyze_sources, findings_report, pairs_report,
                       syncs_report)
from .sim import MsiConfig, explore_exhaustive, parse_seed_range, simulate
from .stimulus import parse_stimulus
from .vcd import write_vcd

OPTIONS_ENV = "CDCKIT_OPTIONS"


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _constraints_text(path: str) -> str:
    base = ""
    env = os.environ.get(OPTIONS_ENV)
    if env and Path(env).exists():
        base = _read(env) + "\n"
    return base + _read(path)


def _load_analysis(args):
    sources = [(f, _read(f)) for f in args.files]
    return analyze_sources(sources, _constraints_text(args.constraints),
                           top=args.top)


def _manifest(args, command: str, analysis, outputs: list[str],
              seeds: list[int] | None = None, options: dict | None = None) -> dict:
    return {
        "tool": "cdckit",
        "version": __version__,
        "command": command,
        "files": list(args.files),
        "constraints": args.constraints,
        "options": options or {},
        "seeds": seeds or [],
        "fingerprint": pairs_fingerprint(analysis.pairs),
        "outputs": sorted(outputs),
    }


def cmd_analyze(args) -> int:
    analysis = _load_analysis(args)
    out = Path(args.out)
    issues = analysis.netlist.validate()
    if issues:
        for issue in issues:
            print(f"error: {issue.kind}: {issue.subject}: {issue.message}",
                  file=sys.stderr)
        return 1
    pr = pairs_report(analysis)
    sr = syncs_report(analysis)
    fr = findings_report(analysis)
    outputs = ["pairs.json", "syncs.json", "findings.json"]
    _write_json(out / "pairs.json", pr)
    _write_json(out / "syncs.json", sr)
    _write_json(out / "findings.json", fr)
    if args.dump_ir:
        _write_json(Path(args.dump_ir), analysis.netlist.to_json_dict())
    _write_json(out / "manifest.json",
                _manifest(args, "analyze", analysis, outputs,
                          options={"strict": args.strict}))
    for f in fr["findings"]:
        print(f"{f['severity'].upper():7s} {f['rule']:22s} {f['message']}")
    errors = [f for f in fr["findings"] if f["severity"] == "error"]
    print(f"{len(pr['pairs'])} crossing pairs, {len(sr['syncs'])} synchronizers, "
          f"{len(fr['findings'])} findings ({len(errors)} errors)")
    if args.strict and errors:
        return 2
    return 0


def _select(arg: str | None):
    if arg is None:
        return None
    if arg == "none":
        return []
    return arg.split(",")


def cmd_simulate(args) -> int:
    analysis = _load_analysis(args)
    stim = parse_stimulus(_read(args.stimulus), args.stimulus)
    out = Path(args.out)
    seeds = parse_seed_range(args.seeds) if args.seeds else [args.seed]
    checkers = build_checkers(analysis, latency=parse_latency(args.latency),
                              select=_select(args.checkers))
    results = [simulate(analysis, stim,
                        MsiConfig(enabled=not args.no_msi,
                                  probability=args.probability, seed=seed),
                        checkers, scope=args.scope)
               for seed in seeds]
    db = results[0].coverage
    for r in results[1:]:
        db = merge(db, r.coverage)
    verdicts = []
    for seed, r in zip(seeds, results):
        for v in r.verdicts:
            d = v.to_dict()
            d["seed"] = seed
            verdicts.append(d)
    outputs = ["verdicts.json", "coverage.json", "msi_events.json"]
    _write_json(out / "verdicts.json", {"verdicts": verdicts})
    _write_text(out / "coverage.json", db.to_json())
    _write_json(out / "msi_events.json",
                {"events": [{"tick": e.tick, "pair": e.pair, "bit": e.bit,
                             "kind": e.kind, "resolved": e.resolved}
                            for e in results[0].events]})
    if args.vcd:
        _write_text(Path(args.vcd), write_vcd(analysis.netlist, results[0].waves))
    _write_json(out / "manifest.json",
                _manifest(args, "simulate", analysis, outputs, seeds,
                          {"probability": args.probability,
                           "msi": not args.no_msi, "stimulus": args.stimulus}))
    failed = [v for v in verdicts if v["verdict"] == "FAIL"]
    for v in verdicts:
        tag = f" @{v['tick']}" if v["tick"] is not None else ""
        print(f"seed {v['seed']:>4} {v['verdict']:4s} {v['checker']}{tag} {v['message']}")
    return 3 if failed else 0


def cmd_explore(args) -> int:
    analysis = _load_analysis(args)
    stim = parse_stimulus(_read(args.stimulus), args.stimulus)
    out = Path(args.out)
    checkers = build_checkers(analysis, latency=parse_latency(args.latency),
                              select=_select(args.checkers))
    msi = MsiConfig(mode="exhaustive", max_decisions=args.budget)
    try:
        outcome = explore_exhaustive(analysis, stim, msi, checkers)
    except DecisionBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    outputs = ["verdicts.json"]
    verdicts = {cid: v for cid, v in sorted(outcome.verdicts.items())}
    cex_files = {}
    for cid, res in sorted(outcome.counterexamples.items()):
        name = f"cex_{cid.replace(':', '_')}.vcd"
        _write_text(out / name, write_vcd(analysis.netlist, res.waves))
        cex_files[cid] = name
        outputs.append(name)
    _write_json(out / "verdicts.json",
                {"mode": "exhaustive", "branches": outcome.branches,
                 "verdicts": verdicts, "counterexamples": cex_files})
    _write_json(out / "manifest.json",
                _manifest(args, "explore", analysis, outputs,
                          options={"budget": args.budget}))
    for cid, v in verdicts.items():
        print(f"{v.upper():15s} {cid}")
    print(f"{outcome.branches} branches explored")
    return 3 if outcome.counterexamples else 0


def cmd_generate(args) -> int:
    analysis = _load_analysis(args)
    out = Path(args.out)
    files = generate_all(analysis)
    problems = lint_generated(files, analysis.netlist)
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return 1
    outputs = []
    for f in files:
        _write_text(out / f.path, f.text)
        outputs.append(f.path)
        print(f.path)
    _write_json(out / "manifest.json",
                _manifest(args, "generate", analysis, outputs))
    return 0


def cmd_report(args) -> int:
    db = CoverageDb.from_json(_read(args.db))
    pairs = json.loads(_read(args.pairs))
    if pairs.get("fingerprint") != db.fingerprint:
        print("error: coverage database does not match the pairs report",
              file=sys.stderr)
        return 5
    rep = report(db, pairs["pairs"])
    if args.format == "json":
        text = json.dumps(rep, indent=2, sort_keys=True) + "\n"
    else:
        text = format_report_text(rep)
    if args.out:
        _write_text(Path(args.out), text)
    print(text, end="")
    return 0


def cmd_merge_coverage(args) -> int:
    dbs = [CoverageDb.from_json(_read(f)) for f in args.dbs]
    merged = dbs[0]
    try:
        for db in dbs[1:]:
            merged = merge(merged, db, scope=args.scope)
    except FingerprintMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    _write_text(Path(args.out), merged.to_json())
    print(f"merged {len(dbs)} databases, {merged.total()} recorded resolutions")
    return 0


def _add_common(p):
    p.add_argument("files", nargs="+", help="Verilog source files")
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--top", default=None)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cdckit",
                                 description="clock/reset domain crossing toolkit")
    ap.add_argument("--version", action="version", version=f"cdckit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural crossing analysis")
    _add_common(p)
    p.add_argument("--out", default="cdc_out")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when error-severity findings exist")
    p.add_argument("--dump-ir", default=None, help="write the flat netlist as JSON")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="cycle simulation with metastability injection")
    _add_common(p)
    p.add_argument("-s", "--stimulus", required=True)
    p.add_argument("--out", default="cdc_out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", default=None, help="seed range a..b, run in order")
    p.add_argument("--probability", type=float, default=0.5)
    p.add_argument("--no-msi", action="store_true")
    p.add_argument("--vcd", default=None)
    p.add_argument("--latency", action="append", default=[],
                   help="latency checker spec [pair:]min:max")
    p.add_argument("--checkers", default=None,
                   help="comma list of checker id prefixes; 'none' disables all")
    p.add_argument("--scope", default="sim")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("explore", help="bounded exhaustive injection exploration")
    _add_common(p)
    p.add_argument("-s", "--stimulus", required=True)
    p.add_argument("--out", default="cdc_out")
    p.add_argument("--budget", type=int, default=16)
    p.add_argument("--latency", action="append", default=[])
    p.add_argument("--checkers", default=None)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("generate", help="emit SystemVerilog checkers and coverage")
    _add_common(p)
    p.add_argument("--out", default="cdc_out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("report", help="render a coverage database")
    p.add_argument("--db", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("merge-coverage", help="merge coverage databases")
    p.add_argument("dbs", nargs="+")
    p.add_argument("--out", default="merged_coverage.json")
    p.add_argument("--scope", default=None)
    p.set_defaults(fn=cmd_merge_coverage)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CdcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
