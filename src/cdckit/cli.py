"""Command-line front end.

Exit codes are a stable contract:
  0 ok, 1 input error (usage errors, unreadable inputs and unwritable
  outputs included), 2 structural errors under --strict, 3 checker
  failure or counterexample, 4 decision budget or branch cap exceeded,
  5 coverage fingerprint mismatch.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import shutil
import sys
from pathlib import Path

from . import __version__
from .checkers import build_checkers, parse_latency
from .codegen import generate_all, lint_generated
from .coverage import CoverageDb, format_report_text, merge, parse_json, report
from .domains import pairs_fingerprint
from .errors import (BranchCapExceeded, CdcError, DecisionBudgetExceeded,
                     FingerprintMismatch, ParseError)
from .explore import explore_exhaustive
from .jsonout import dumps
from .pipeline import (analyze_sources, findings_report, pairs_report,
                       syncs_report)
# `simulate` is unused here but stays a name of this module, where
# perfbench/spans.py looks it up to trace it
from .sim import Engine, MsiConfig, parse_seed_range, simulate
from .stimulus import parse_stimulus
from .vcd import write_vcd

OPTIONS_ENV = "CDCKIT_OPTIONS"
# how `_write_text` opens its temporary file: made if missing, else emptied
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}", origin=path) from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})",
                         origin=path) from None


def _write_json(path: Path, obj) -> None:
    _write_text(path, dumps(obj) + "\n")


def _write_ir(path: Path, netlist) -> None:
    """The netlist as JSON.  A constant or reset value of up to `MAX_WIDTH`
    bits has more decimal digits than `str` writes by default, so that limit
    is lifted while the IR is written."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _write_json(path, netlist.to_json_dict())
    finally:
        sys.set_int_max_str_digits(limit)


def _write_text(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file beside it, which
    `os.replace` moves into place.  The parent directory is made only when
    opening that file finds it missing.  The UTF-8 bytes go straight to the
    file descriptor: a text-mode file object costs more to set up than a
    small file costs to write."""
    data = text.encode()
    tmp = f"{path}.tmp"
    try:
        try:
            fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(tmp, _WRITE_FLAGS, 0o666)
        try:
            written = os.write(fd, data)
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError as e:
        if os.path.isfile(tmp):
            os.unlink(tmp)
        raise CdcError(f"{path}: {e.strerror or e}") from None


def _constraint_texts(path: str) -> list[tuple[str, str]]:
    """The `OPTIONS_ENV` file, when it names one, then the `-c` file."""
    env = os.environ.get(OPTIONS_ENV)
    files = [env] if env and Path(env).exists() else []
    return [(f, _read(f)) for f in files + [path]]


def _load_analysis(args):
    sources = [(f, _read(f)) for f in args.files]
    return analyze_sources(sources, _constraint_texts(args.constraints),
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
    # a net that is read but never driven; the other commands read it as 0
    floating = [n for n in analysis.netlist.nets if n.driver is None and n.readers]
    if floating:
        for net in floating:
            print(f"error: NoDriver: {net.name}: net has no driver", file=sys.stderr)
        return 1
    pr = pairs_report(analysis)
    sr = syncs_report(analysis)
    fr = findings_report(analysis)
    outputs = ["pairs.json", "syncs.json", "findings.json"]
    _write_json(out / "pairs.json", pr)
    _write_json(out / "syncs.json", sr)
    _write_json(out / "findings.json", fr)
    if args.dump_ir:
        _write_ir(Path(args.dump_ir), analysis.netlist)
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
    if not 0.0 <= args.probability <= 1.0:     # NaN fails too
        raise ParseError(f"--probability must be in [0, 1], got {args.probability}")
    analysis = _load_analysis(args)
    stim = parse_stimulus(_read(args.stimulus), args.stimulus)
    out = Path(args.out)
    seeds = parse_seed_range(args.seeds) if args.seeds else [args.seed]
    checkers = build_checkers(analysis, latency=parse_latency(args.latency),
                              select=_select(args.checkers))
    # Every seed runs on one engine.  Only the first seed's events and waves
    # are written, so only its run records waves, and only under --vcd;
    # every later result is released once its verdicts and coverage are
    # taken.
    engine = Engine(analysis, stim,
                    MsiConfig(enabled=not args.no_msi, probability=args.probability),
                    checkers, scope=args.scope)
    first = db = None
    verdicts = []
    for seed in seeds:
        r = engine.run(waves=first is None and args.vcd is not None, seed=seed)
        db = r.coverage if db is None else merge(db, r.coverage)
        for v in r.verdicts:
            d = v.to_dict()
            d["seed"] = seed
            verdicts.append(d)
        if first is None:
            first = r
        del r
    outputs = ["verdicts.json", "coverage.json", "msi_events.json"]
    _write_json(out / "verdicts.json", {"verdicts": verdicts})
    _write_text(out / "coverage.json", db.to_json())
    _write_json(out / "msi_events.json",
                {"events": [{"tick": e.tick, "pair": e.pair, "bit": e.bit,
                             "kind": e.kind, "resolved": e.resolved}
                            for e in first.events]})
    if args.vcd:
        _write_text(Path(args.vcd), write_vcd(analysis.netlist, first.ticks, first.frames))
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
    if args.budget < 0:
        raise ParseError(f"--budget must not be negative, got {args.budget}")
    analysis = _load_analysis(args)
    stim = parse_stimulus(_read(args.stimulus), args.stimulus)
    out = Path(args.out)
    checkers = build_checkers(analysis, latency=parse_latency(args.latency),
                              select=_select(args.checkers))
    try:
        outcome = explore_exhaustive(analysis, stim, checkers,
                                     budget=args.budget)
    except (DecisionBudgetExceeded, BranchCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    outputs = ["verdicts.json"]
    verdicts = {cid: v for cid, v in sorted(outcome.verdicts.items())}
    cex_files = {}
    for cid, res in sorted(outcome.counterexamples.items()):
        name = f"cex_{cid.replace(':', '_')}.vcd"
        _write_text(out / name, write_vcd(analysis.netlist, res.ticks, res.frames))
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
    db = CoverageDb.from_json(_read(args.db), args.db)
    pairs = parse_json(_read(args.pairs), args.pairs)
    if not (isinstance(pairs, dict) and "fingerprint" in pairs
            and isinstance(pairs.get("pairs"), list)
            and all(isinstance(p, dict) and "id" in p
                    and type(p.get("width")) is int and p["width"] > 0
                    for p in pairs["pairs"])):
        raise ParseError(f"{args.pairs}: not a pairs report: expected an object with "
                         "'fingerprint' and a 'pairs' list of objects with 'id' and "
                         "a positive integer 'width'", origin=args.pairs)
    if pairs["fingerprint"] != db.fingerprint:
        raise FingerprintMismatch("coverage database does not match the pairs report")
    rep = report(db, pairs["pairs"])
    if args.format == "json":
        text = dumps(rep) + "\n"
    else:
        text = format_report_text(rep)
    if args.out:
        _write_text(Path(args.out), text)
    print(text, end="")
    return 0


def cmd_merge_coverage(args) -> int:
    dbs = [CoverageDb.from_json(_read(f), f) for f in args.dbs]
    merged = dbs[0]
    for db in dbs[1:]:
        merged = merge(merged, db, scope=args.scope)
    _write_text(Path(args.out), merged.to_json())
    print(f"merged {len(dbs)} databases, {merged.total()} recorded resolutions")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as input errors (exit 1): exit 2 belongs to
    --strict findings."""

    def error(self, message: str):
        raise ParseError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _add_common(p):
    p.add_argument("files", nargs="+", help="Verilog source files")
    p.add_argument("-c", "--constraints", required=True)
    p.add_argument("--top", default=None)


def _analyze_args(p):
    _add_common(p)
    p.add_argument("--out", default="cdc_out")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 when error-severity findings exist")
    p.add_argument("--dump-ir", default=None, help="write the flat netlist as JSON")


def _simulate_args(p):
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


def _explore_args(p):
    _add_common(p)
    p.add_argument("-s", "--stimulus", required=True)
    p.add_argument("--out", default="cdc_out")
    p.add_argument("--budget", type=int, default=16)
    p.add_argument("--latency", action="append", default=[])
    p.add_argument("--checkers", default=None)


def _generate_args(p):
    _add_common(p)
    p.add_argument("--out", default="cdc_out")


def _report_args(p):
    p.add_argument("--db", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)


def _merge_coverage_args(p):
    p.add_argument("dbs", nargs="+")
    p.add_argument("--out", default="merged_coverage.json")
    p.add_argument("--scope", default=None)


# name -> (help, function, the function that adds its arguments)
_COMMANDS = {
    "analyze": ("structural crossing analysis", cmd_analyze, _analyze_args),
    "simulate": ("cycle simulation with metastability injection", cmd_simulate,
                 _simulate_args),
    "explore": ("bounded exhaustive injection exploration", cmd_explore,
                _explore_args),
    "generate": ("emit SystemVerilog checkers and coverage", cmd_generate,
                 _generate_args),
    "report": ("render a coverage database", cmd_report, _report_args),
    "merge-coverage": ("merge coverage databases", cmd_merge_coverage,
                       _merge_coverage_args),
}


def make_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command.  Given the command line `argv`, only
    the command that its first token not starting with '-' names gets its
    arguments.  When that token starts the line, the parser holds that
    command alone, and parses the line as the full parser does up to an
    error, whose usage would then name that command alone: `main` parses
    again with the full parser.  When options come first, the other
    commands are registered by name and help, which is all such a line
    reads of them, so its parse, messages and help are the full parser's.
    When no token names a command, every command gets its arguments.

    Every parser formats with the terminal width read once here: argparse
    makes a formatter for each argument added, and each would read it."""
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    ap = _Parser(prog="cdckit", description="clock/reset domain crossing toolkit",
                 formatter_class=formatter)
    ap.add_argument("--version", action="version", version=f"cdckit {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    named = next((a for a in argv or () if not a.startswith("-")), None)
    lean = bool(argv) and argv[0] in _COMMANDS
    for name, (text, fn, add_arguments) in _COMMANDS.items():
        if lean and name != named:
            continue
        p = sub.add_parser(name, help=text, formatter_class=formatter)
        if named not in _COMMANDS or name == named:
            add_arguments(p)
            p.set_defaults(fn=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    # A command builds up to millions of long-lived containers and no
    # reference cycles that grow with the design, so the cyclic collector
    # would only re-walk that heap; it is paused for the command and the
    # caller's setting is restored however the command ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if argv is None:
            argv = sys.argv[1:]
        # argparse would take a `--` before the command for its name
        head = next((i for i, a in enumerate(argv) if a == "--" or not a.startswith("-")),
                    len(argv))
        if argv[head:head + 1] == ["--"]:
            argv = argv[:head] + argv[head + 1:]
        try:
            args = make_parser(argv).parse_args(argv)
        except ParseError:      # for the message of the full parser
            args = make_parser().parse_args(argv)
        return args.fn(args)
    except FingerprintMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except (CdcError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
