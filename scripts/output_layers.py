#!/usr/bin/env python3
"""Time the output layer command by command, a baseline checkout against this one.

Both checkouts' `cdckit` packages are imported side by side, as
`scripts/front_end_layers.py` does.  The commands are one cycle of each
benchmark workload of `perfbench/workloads.py`, seed 21: `static_scaled`'s
`analyze` and `generate`, `msi_seeds`' `simulate` and `explore_bounded`'s
`explore`.  Each side first runs every command once through its own
`cli.main`, writing into a scratch directory, and records what the command hands to
the output layer: each `Engine.run` that keeps waves (the first seed under
`--vcd`, each counterexample replay), each `write_vcd` call, each object
`_write_json` encodes, each `CoverageDb` whose `to_json` is written and
each text `_write_text` writes.  Then each of 15 rounds times every layer
once per side, alternating which side goes first, with the cyclic GC off
while a side runs and a full collection before it:

    run     each recorded run again, without waves, after one untimed run
    waves   the same runs with waves, less `run`
    vcd     each `write_vcd` call
    json    each recorded object through `_write_json`, with its
            `_write_text` swapped for one that drops the text, and each
            recorded `CoverageDb.to_json`
    write   each recorded text through `_write_text`, to the path the
            command wrote it to, which exists from the recording run

The names it records through (`Engine.run`, `cli.write_vcd`,
`cli._write_json`, `cli._write_text`, `CoverageDb.to_json`) must exist in
both checkouts.  For each command kind and layer it prints the median over
rounds of each side's time, the median paired ratio (this checkout over
the baseline) and in how many rounds this checkout was faster:

    python scripts/output_layers.py --root ../parent-checkout
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from front_end_layers import _activate, load_side

SEED = 21
ROUNDS = 15
LAYERS = ("run", "waves", "vcd", "json", "write")
MODULES = ("cli", "sim", "coverage")


def commands(here: Path, root: Path) -> list[tuple[str, list[str]]]:
    """(kind, argv) of one cycle of each workload, its designs written
    under `root`."""
    sys.path.insert(0, str(here / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(here / "perfbench"))
    cycles = (("static_scaled", workloads.static_scaled(SEED, root / "s", lambda path: 0)),
              ("msi_seeds", workloads.msi_seeds(SEED, root / "m")),
              ("explore_bounded", workloads.explore_bounded(SEED, root / "e")))
    return [(f"{name} {c.argv[0]}", c.argv) for name, cmds in cycles for c in cmds]


class Record:
    """What one side's commands of one kind handed to the output layer."""

    def __init__(self):
        self.runs: list[tuple] = []         # (engine, args, kwargs) with waves
        self.vcds: list[tuple] = []         # write_vcd arguments
        self.objects: list[tuple] = []      # (path, object) of _write_json
        self.dbs: list = []                 # CoverageDb written by to_json
        self.texts: list[tuple] = []        # (path, text) of _write_text

    def calls(self, layer: str) -> int:
        """How many recorded calls `layer` times."""
        return {"run": len(self.runs), "waves": len(self.runs), "vcd": len(self.vcds),
                "json": len(self.objects) + len(self.dbs),
                "write": len(self.texts)}[layer]


def record(modules: dict, cmds) -> dict[str, Record]:
    """Run `cmds` once on the side of `modules`, with its output layer's
    entry points wrapped to record their calls, per kind."""
    _activate(modules)
    cli, sim = modules["cdckit.cli"], modules["cdckit.sim"]
    coverage = modules["cdckit.coverage"]
    out: dict[str, Record] = {}
    rec = None
    run, write_vcd = sim.Engine.run, cli.write_vcd
    write_json, write_text = cli._write_json, cli._write_text
    to_json = coverage.CoverageDb.to_json

    def run_(eng, *args, **kwargs):
        if kwargs.get("waves", True):
            rec.runs.append((eng, args, kwargs))
        return run(eng, *args, **kwargs)

    def write_vcd_(*args):
        rec.vcds.append(args)
        return write_vcd(*args)

    def write_json_(path, obj):
        rec.objects.append((path, obj))
        return write_json(path, obj)

    def write_text_(path, text):
        rec.texts.append((path, text))
        return write_text(path, text)

    def to_json_(db):
        rec.dbs.append(db)
        return to_json(db)

    sim.Engine.run, cli.write_vcd = run_, write_vcd_
    cli._write_json, cli._write_text = write_json_, write_text_
    coverage.CoverageDb.to_json = to_json_
    try:
        for kind, argv in cmds:
            rec = out.setdefault(kind, Record())
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sim.Engine.run, cli.write_vcd = run, write_vcd
        cli._write_json, cli._write_text = write_json, write_text
        coverage.CoverageDb.to_json = to_json
    return out


def time_side(modules: dict, records: dict[str, Record]) -> dict[tuple[str, str], float]:
    """Seconds per (kind, layer) over every recorded call."""
    _activate(modules)
    cli = modules["cdckit.cli"]
    write_text = cli._write_text
    spent: dict[tuple[str, str], float] = {}
    gc.collect()
    gc.disable()
    try:
        for kind, rec in records.items():
            # a first run pays for what the kind before it left in the caches
            for eng, args, kwargs in rec.runs:
                eng.run(*args, **{**kwargs, "waves": False})
            t0 = perf_counter()
            for eng, args, kwargs in rec.runs:
                eng.run(*args, **{**kwargs, "waves": False})
            t1 = perf_counter()
            for eng, args, kwargs in rec.runs:
                eng.run(*args, **kwargs)
            t2 = perf_counter()
            for args in rec.vcds:
                cli.write_vcd(*args)
            t3 = perf_counter()
            cli._write_text = lambda path, text: None
            try:
                for path, obj in rec.objects:
                    cli._write_json(path, obj)
            finally:
                cli._write_text = write_text
            for db in rec.dbs:
                db.to_json()
            t4 = perf_counter()
            for path, text in rec.texts:
                write_text(path, text)
            t5 = perf_counter()
            for layer, dt in zip(LAYERS, (t1 - t0, (t2 - t1) - (t1 - t0), t3 - t2,
                                          t4 - t3, t5 - t4)):
                spent[kind, layer] = dt
    finally:
        gc.enable()
    return spent


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, required=True,
                    help="the baseline checkout to compare this checkout with")
    args = ap.parse_args(argv)
    roots = [args.root.resolve(), here]
    sides = [load_side(root, MODULES) for root in roots]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # the command lines name corpus files relative to a checkout
        os.chdir(here)
        try:
            cmds = commands(here, Path(tmp))
            records = [record(side, cmds) for side in sides]
            runs: list[list[dict]] = [[], []]
            for r in range(ROUNDS):
                for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                    runs[side].append(time_side(sides[side], records[side]))
        finally:
            os.chdir(cwd)
            _activate({})
    print(f"{len(cmds)} commands, seed {SEED}, {ROUNDS} rounds")
    print(f"{'kind':26s} {'layer':6s} {'base ms':>9s} {'this ms':>9s} "
          f"{'ratio':>7s} {'faster':>7s}")
    for key in runs[0][0]:
        if not any(records[side][key[0]].calls(key[1]) for side in (0, 1)):
            continue
        a = [run[key] for run in runs[0]]
        b = [run[key] for run in runs[1]]
        ratios = [y / x for x, y in zip(a, b) if x]
        faster = sum(y < x for x, y in zip(a, b))
        ratio = f"{statistics.median(ratios):7.3f}" if ratios else f"{'-':>7s}"
        print(f"{key[0]:26s} {key[1]:6s} {statistics.median(a) * 1e3:9.2f} "
              f"{statistics.median(b) * 1e3:9.2f} {ratio} {faster:>4d}/{ROUNDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
