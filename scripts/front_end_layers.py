#!/usr/bin/env python3
"""Time the static front end layer by layer, a baseline checkout against this one.

Both checkouts' `cdckit` packages are imported side by side (each side's
modules are put in `sys.modules` while it runs) and run over the static
ladder of `perfbench/workloads.py`: the hier and flat generated designs of
1 to 24 blocks, seed 21.  Each of 15 rounds runs the ladder once per side,
alternating which side goes first, with the cyclic GC off while a side runs
and a full collection before it.  Per design a side times:

    parse    parse_verilog of the design's source
    expand   the elaborator's expansion of the top (`_Elaborator.expand_all`)
    finish   NetlistBuilder.finish (`_Elaborator(...).builder.finish()`)
    assign   assign_domains
    pairs    extract_cdc_pairs and extract_rdc_pairs
    syncrec  recognize and classify_pairs
    reports  pairs_report, syncs_report and findings_report

`expand` and `finish` drive the elaborator's private names
(`_Elaborator(modules, top).expand_all()` and its `builder.finish()`), so
both checkouts must have them; a tree that renames them needs this script
changed with it.

For each layer it prints the median over rounds of each side's ladder time,
the median paired ratio (this checkout over the baseline) and in how many
rounds this checkout was faster:

    python scripts/front_end_layers.py --root ../parent-checkout
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

SEED = 21
ROUNDS = 15
LAYERS = ("parse", "expand", "finish", "assign", "pairs", "syncrec", "reports")


def _cdckit_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "cdckit" or k.startswith("cdckit.")}


def _activate(modules: dict) -> None:
    for k in _cdckit_modules():
        del sys.modules[k]
    sys.modules.update(modules)


def load_side(root: Path, names=("pipeline", "elaborate", "verilog", "domains",
                                  "syncrec", "rules", "constraints", "sim")) -> dict:
    """Import `root`'s cdckit modules `names`, with what they import, and
    return them all by name."""
    _activate({})
    sys.path.insert(0, str(root / "src"))
    try:
        for name in names:
            importlib.import_module(f"cdckit.{name}")
        modules = _cdckit_modules()
    finally:
        sys.path.remove(str(root / "src"))
        _activate({})
    assert modules["cdckit"].__file__.startswith(str(root)), root
    return modules


def ladder(root: Path, seed: int) -> list[tuple[str, str, str]]:
    """(name, rtl.v, constraints.cdc) of the static ladder's designs."""
    sys.path.insert(0, str(root / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location("gen", root / "perfbench" / "gen.py")
        gen = sys.modules.setdefault("gen", importlib.util.module_from_spec(spec))
        spec.loader.exec_module(gen)
        import workloads
    finally:
        sys.path.remove(str(root / "perfbench"))
    designs = []
    for blocks in workloads.STATIC_LADDER:
        for shape in ("hier", "flat"):
            d = gen.build(f"{shape}{blocks}", seed, blocks, shape=shape)
            designs.append((d.name, d.files["rtl.v"], d.files["constraints.cdc"]))
    return designs


def run_side(modules: dict, designs) -> dict[str, float]:
    """Seconds per layer over the ladder."""
    _activate(modules)
    verilog, elaborate = modules["cdckit.verilog"], modules["cdckit.elaborate"]
    domains, syncrec = modules["cdckit.domains"], modules["cdckit.syncrec"]
    pipeline, rules = modules["cdckit.pipeline"], modules["cdckit.rules"]
    constraints = modules["cdckit.constraints"]
    spent = dict.fromkeys(LAYERS, 0.0)
    gc.collect()
    gc.disable()
    try:
        for name, rtl, cdc in designs:
            cs = constraints.parse_constraint_texts([("constraints.cdc", cdc)])
            t0 = perf_counter()
            mods = verilog.parse_verilog(rtl, "rtl.v")
            t1 = perf_counter()
            instantiated = {i.module for m in mods for i in m.instances}
            [top] = [m.name for m in mods if m.name not in instantiated]
            t2 = perf_counter()
            elab = elaborate._Elaborator(mods, top)
            elab.expand_all()
            t3 = perf_counter()
            netlist = elab.builder.finish()
            t4 = perf_counter()
            dm = domains.assign_domains(netlist, cs)
            t5 = perf_counter()
            pairs = domains.extract_cdc_pairs(netlist, dm, cs)
            rdc = domains.extract_rdc_pairs(netlist, dm, cs)
            t6 = perf_counter()
            syncs = syncrec.recognize(netlist, dm, pairs, cs)
            status = syncrec.classify_pairs(pairs, syncs, netlist)
            t7 = perf_counter()
            analysis = rules.Analysis(netlist, cs, dm, pairs, rdc, syncs, status)
            pipeline.pairs_report(analysis)
            pipeline.syncs_report(analysis)
            pipeline.findings_report(analysis)
            t8 = perf_counter()
            for layer, dt in zip(LAYERS, (t1 - t0, t3 - t2, t4 - t3, t5 - t4,
                                          t6 - t5, t7 - t6, t8 - t7)):
                spent[layer] += dt
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
    designs = ladder(here, SEED)
    sides = [load_side(root) for root in roots]
    runs: list[list[dict[str, float]]] = [[], []]
    for r in range(ROUNDS):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            runs[side].append(run_side(sides[side], designs))
    print(f"{len(designs)} designs, seed {SEED}, {ROUNDS} rounds")
    print(f"{'layer':9s} {'base ms':>9s} {'this ms':>9s} {'ratio':>7s} {'faster':>7s}")
    for layer in (*LAYERS, "total"):
        def pick(run):
            return sum(run.values()) if layer == "total" else run[layer]
        a = [pick(run) for run in runs[0]]
        b = [pick(run) for run in runs[1]]
        ratios = [y / x for x, y in zip(a, b)]
        faster = sum(y < x for x, y in zip(a, b))
        print(f"{layer:9s} {statistics.median(a) * 1e3:9.1f} "
              f"{statistics.median(b) * 1e3:9.1f} {statistics.median(ratios):7.3f} "
              f"{faster:>4d}/{ROUNDS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
