"""The three workloads: their CLI commands and each command's correctness gate.

A workload is a fixed cycle of `cdckit` command lines built from the seed.
Every command has an expected outcome taken from outside the program: the
corpus's `labels.json`, or the ground truth the design generator knows by
construction.  `Command.check` compares a finished command's exit code and
output files with that expectation and returns the deterministic counts the
outputs carry.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

CORPUS = Path("corpus")

# Every cycle has 5, 15, 25, ... commands.  Walls are pooled over whole
# cycles, so with n commands of k repeats each, p50 and p90 fall at ranks
# 0.5(nk-1) and 0.9(nk-1); for n = 5 (mod 10) both lie in the middle of one
# command's k repeats.  With n even, p50 lies exactly between the slowest
# repeat of one command and the fastest of the next, and jumps with them.
CYCLE_MOD = (10, 5)


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path
    check: Callable[[int], tuple[bool, str, dict]]
    work: Callable[[dict], float]       # counts -> work units for the rate
    extra_outputs: list[str] = field(default_factory=list)


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _case_args(case: str, stim: bool = True) -> list[str]:
    d = CORPUS / case
    args = [str(d / "rtl.v"), "-c", str(d / "constraints.cdc")]
    if stim:
        args += ["-s", str(d / "stimulus.stim")]
    return args


def run_edges(constraints: str, stimulus: str) -> tuple[dict[str, int], int]:
    """Clock edges of one simulated run, from the input files alone: edges
    per clock up to the run clock's last edge, and the number of ticks (the
    distinct times at which some clock has an edge)."""
    clocks = {}
    for m in re.finditer(r"^clock\s+(\S+)\s+-period\s+(\d+)(?:\s+-phase\s+(\d+))?",
                         constraints, re.M):
        clocks[m.group(1)] = (int(m.group(2)), int(m.group(3) or 0))
    run = re.search(r"^run\s+(\d+)\s+of\s+(\S+)", stimulus, re.M)
    period, phase = clocks[run.group(2)]
    end = phase + (int(run.group(1)) - 1) * period
    edges, ticks = {}, set()
    for name, (p, ph) in clocks.items():
        times = range(ph, end + 1, p)
        edges[name] = len(times)
        ticks.update(times)
    return edges, len(ticks)


def _expect(rc: int, want: int) -> tuple[bool, str]:
    return rc == want, "" if rc == want else f"exit {rc}, want {want}"


# -- gates -------------------------------------------------------------------

def _analyze_gate(out: Path, truth: dict):
    def check(rc):
        ok, why = _expect(rc, truth["strict_exit"])
        pairs = _load(out / "pairs.json")["pairs"]
        syncs = dict(sorted(Counter(s["kind"] for s in
                                    _load(out / "syncs.json")["syncs"]).items()))
        findings = dict(sorted(Counter(f["rule"] for f in
                                       _load(out / "findings.json")["findings"]).items()))
        got = {"pairs": len(pairs), "syncs": syncs, "findings": findings}
        for k, v in got.items():
            if v != truth[k]:
                ok, why = False, f"{k}: got {v}, want {truth[k]}"
        return ok, why, {"pairs": len(pairs), "syncs": sum(syncs.values()),
                         "findings": sum(findings.values())}
    return check


def _generate_gate(out: Path, pairs: int):
    def check(rc):
        ok, why = _expect(rc, 0)
        outputs = _load(out / "manifest.json")["outputs"]
        cov = (out / "gen/coverage/cdc_cov.sv").read_text(encoding="utf-8")
        groups = cov.count("covergroup ")
        if groups != pairs:
            ok, why = False, f"{groups} covergroups, want one per pair ({pairs})"
        size = sum((out / f).stat().st_size for f in outputs)
        return ok, why, {"gen_bytes": size, "gen_files": len(outputs)}
    return check


def _simulate_gate(out: Path, seeds: list[int], expect: dict[str, str] | None,
                   per_prefix: dict[str, int] | None, edges: tuple[dict, int],
                   cover_pair: str | None = None):
    """`expect` maps checker id -> PASS/FAIL for every seed; `per_prefix`
    instead requires every verdict to PASS and counts checkers per kind.
    `edges` is `run_edges` of the inputs: the clock edges the program reports
    in coverage.json must be those of every seed's full run, so the ticks
    credited to the rate were simulated."""
    per_clock, ticks = edges

    def check(rc):
        verdicts = _load(out / "verdicts.json")["verdicts"]
        fails = any(v["verdict"] == "FAIL" for v in verdicts)
        want_rc = 3 if (expect and "FAIL" in expect.values()) else 0
        ok, why = _expect(rc, want_rc)
        if expect is not None:
            got = {(v["seed"], v["checker"]): v["verdict"] for v in verdicts}
            want = {(s, cid): w for s in seeds for cid, w in expect.items()}
            if got != want:
                ok, why = False, f"verdicts {sorted(got.items())[:3]}..."
        if per_prefix is not None:
            kinds = Counter(v["checker"].split(":")[0] for v in verdicts)
            want = {k: n * len(seeds) for k, n in per_prefix.items()}
            if dict(kinds) != want or fails:
                ok, why = False, f"verdicts by kind {dict(kinds)}, want {want} all PASS"
        cov = _load(out / "coverage.json")
        want_edges = {k: n * len(seeds) for k, n in per_clock.items()}
        if cov["edges"] != want_edges:
            ok, why = False, f"clock edges {cov['edges']}, want {want_edges}"
        injections = sum(c for per in cov["bins"].values()
                         for bins in per.values() for c in bins.values())
        if cover_pair is not None:
            per = cov["bins"].get(cover_pair, {})
            if not per or not all(all(c > 0 for c in b.values()) for b in per.values()):
                ok, why = False, f"coverage bins of {cover_pair} not all hit"
        return ok, why, {"verdicts": len(verdicts), "injections": injections,
                         "edges": sum(cov["edges"].values()),
                         "ticks": ticks * len(seeds)}
    return check


def _explore_gate(out: Path, expect: dict[str, str]):
    def check(rc):
        want_rc = 3 if "counterexample" in expect.values() else 0
        ok, why = _expect(rc, want_rc)
        v = _load(out / "verdicts.json")
        if v["verdicts"] != expect:
            ok, why = False, f"verdicts {v['verdicts']}, want {expect}"
        missing = [f for f in v["counterexamples"].values() if not (out / f).exists()]
        if missing or sorted(v["counterexamples"]) != sorted(
                c for c, s in expect.items() if s == "counterexample"):
            ok, why = False, f"counterexample files {v['counterexamples']}"
        return ok, why, {"branches": v["branches"], "verdicts": len(expect)}
    return check


# -- workloads -----------------------------------------------------------------

def _write_design(d: gen.Design, root: Path) -> Path:
    path = root / f"d_{d.name}"
    path.mkdir(parents=True, exist_ok=True)
    for name, text in d.files.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


def _design_args(path: Path, stim: bool = True) -> list[str]:
    args = [str(path / "rtl.v"), "-c", str(path / "constraints.cdc")]
    if stim:
        args += ["-s", str(path / "stimulus.stim")]
    return args


# Block counts of the static ladder: about 0.35k to 8k flattened nets.
STATIC_LADDER = (1, 2, 3, 6, 12, 24)


def static_scaled(seed: int, root: Path, nets_of) -> list[Command]:
    """`analyze --strict` then `generate` on each generated design, in both
    shapes, and `analyze --strict` on the corpus's codegen_full, which makes
    the cycle 25 commands long.  `nets_of(design_dir)` gives the
    flattened net count."""
    cmds = []
    for blocks in STATIC_LADDER:
        for shape in ("hier", "flat"):
            d = gen.build(f"{shape}{blocks}", seed, blocks, shape=shape)
            path = _write_design(d, root)
            nets = nets_of(path)
            args = _design_args(path, stim=False)
            out = root / f"c{len(cmds)}"
            cmds.append(Command(f"analyze {d.name}",
                                ["analyze", *args, "--strict", "--out", str(out)],
                                out, _analyze_gate(out, d.truth),
                                lambda c, n=nets: n))
            out = root / f"c{len(cmds)}"
            cmds.append(Command(f"generate {d.name}",
                                ["generate", *args, "--out", str(out)],
                                out, _generate_gate(out, d.truth["pairs"]),
                                lambda c, n=nets: n))
    nets = nets_of(CORPUS / "codegen_full")
    cmds.append(_codegen_full_analyze(root / f"c{len(cmds)}", lambda c: nets))
    return cmds


def _labels(case: str) -> dict:
    return _load(CORPUS / case / "labels.json")


def _corpus_sim(case: str, seeds: list[int], root: Path, idx: int, *,
                checkers: str, expect, vcd: bool = False,
                cover_pair: str | None = None) -> Command:
    d = CORPUS / case
    edges = run_edges((d / "constraints.cdc").read_text(),
                      (d / "stimulus.stim").read_text())
    out = root / f"c{idx}"
    argv = ["simulate", *_case_args(case), "--seeds", f"{seeds[0]}..{seeds[-1]}",
            "--checkers", checkers, "--out", str(out)]
    extra = []
    if vcd:
        argv += ["--vcd", str(out / "trace.vcd")]
        extra.append("trace.vcd")
    return Command(f"simulate {case} {seeds[0]}..{seeds[-1]}", argv, out,
                   _simulate_gate(out, seeds, expect, None, edges, cover_pair),
                   lambda c: c["ticks"], extra)


def _label_seeds(case: str) -> list[int]:
    spec = _labels(case)["simulate"]["seeds"]
    return list(range(spec[0], spec[1] + 1)) if len(spec) == 2 else list(spec)


def msi_seeds(seed: int, root: Path) -> list[Command]:
    """`simulate --seeds a..a+1` with injection on; seed ranges stay inside
    the range each label covers."""
    cmds = []

    def pick(case):
        allowed = _label_seeds(case)
        a = allowed[seed % (len(allowed) - 1)]
        return [a, a + 1]

    lab = _labels("gray_cross")["simulate"]
    cmds.append(_corpus_sim("gray_cross", pick("gray_cross"), root, len(cmds),
                            checkers=",".join(lab["checkers"]),
                            expect=lab["expect"], vcd=True))
    # The label holds with injection off.  gray_code samples the source
    # counter, which injection never touches, so it holds with injection on.
    lab = _labels("binary_cross")["simulate"]
    s = 1 + seed % 50
    cmds.append(_corpus_sim("binary_cross", [s, s + 1], root, len(cmds),
                            checkers=",".join(lab["checkers"]),
                            expect=lab["expect"]))
    # The coverage label: seed 42 alone hits all four bins of its pair.
    lab = _labels("cov_toggle")["coverage"]
    s = lab["seed"] - seed % 2
    cmds.append(_corpus_sim("cov_toggle", [s, s + 1], root, len(cmds),
                            checkers="none", expect={}, cover_pair=lab["pair"]))
    lab = _labels("async_fifo")["simulate"]
    cmds.append(_corpus_sim("async_fifo", pick("async_fifo"), root, len(cmds),
                            checkers=",".join(lab["checkers"]),
                            expect=lab["expect"]))

    d = gen.build("sim", seed, 8, block=gen.SIM_BLOCK, purpose="sim",
                  run_edges=30)
    path = _write_design(d, root)
    out = root / f"c{len(cmds)}"
    seeds = [2 * seed + 1, 2 * seed + 2]
    cmds.append(Command(
        f"simulate {d.name}",
        ["simulate", *_design_args(path), "--seeds", f"{seeds[0]}..{seeds[1]}",
         "--checkers", ",".join(gen.SIM_CHECKERS), "--out", str(out)],
        out, _simulate_gate(out, seeds, None, d.truth["checkers"],
                            run_edges(d.files["constraints.cdc"],
                                      d.files["stimulus.stim"])),
        lambda c: c["ticks"]))
    return cmds


def _corpus_explore(case: str, root: Path, idx: int, *, checkers: list[str],
                    expect: dict[str, str], latency: list[str] = ()) -> Command:
    out = root / f"c{idx}"
    argv = ["explore", *_case_args(case), "--budget", "16",
            "--checkers", ",".join(checkers), "--out", str(out)]
    for spec in latency:
        argv += ["--latency", spec]
    return Command(f"explore {case}", argv, out, _explore_gate(out, expect),
                   lambda c: c["branches"])


# A simulate label with injection off and a FAIL verdict.  Exploration takes
# the no-injection branch first, so each of its checkers must end with a
# counterexample.  One such case keeps the cycle at five commands.
_REFUTED = ("async_fifo_bug",)


def explore_bounded(seed: int, root: Path) -> list[Command]:
    cmds = []
    for case in ("msi_latency", "msi_latency_clean"):
        lab = _labels(case)["explore"]
        cmds.append(_corpus_explore(case, root, len(cmds), checkers=lab["checkers"],
                                    expect=lab["expect"], latency=lab["latency"]))
    # The label passes stability on 20 injected seeds.  The checker samples
    # the source flop, which injection never touches, and the source clock
    # is three times slower than the destination, so it holds on every
    # branch.
    lab = _labels("freq_data_loss_clean")["simulate"]
    cmds.append(_corpus_explore(
        "freq_data_loss_clean", root, len(cmds), checkers=lab["checkers"],
        expect={c: "proven" for c in lab["expect"]}))
    for case in _REFUTED:
        lab = _labels(case)["simulate"]
        if lab.get("msi") is not False or set(lab["expect"].values()) != {"FAIL"}:
            raise ValueError(f"{case}: label is no longer an injection-off FAIL")
        cmds.append(_corpus_explore(case, root, len(cmds), checkers=lab["checkers"],
                                    expect={c: "counterexample" for c in lab["expect"]}))

    d = gen.build("explore", seed, 8, purpose="explore", run_edges=4,
                  gray_sources=2)
    path = _write_design(d, root)
    out = root / f"c{len(cmds)}"

    def check(rc):
        v = _load(out / "verdicts.json")
        kinds = Counter(c.split(":")[0] for c in v["verdicts"])
        ok, why = _expect(rc, 0)
        if dict(kinds) != d.truth["checkers"] or set(v["verdicts"].values()) != {"proven"}:
            ok, why = False, (f"verdicts by kind {dict(kinds)}, want "
                              f"{d.truth['checkers']} all proven")
        if v["branches"] != d.truth["branches"]:
            ok, why = False, f"{v['branches']} branches, want {d.truth['branches']}"
        return ok, why, {"branches": v["branches"], "verdicts": len(v["verdicts"])}

    cmds.append(Command(
        f"explore {d.name}",
        ["explore", *_design_args(path), "--budget", "16",
         "--checkers", ",".join(gen.EXPLORE_CHECKERS), "--out", str(out)],
        out, check, lambda c: c["branches"]))
    return cmds


def _codegen_full_analyze(out: Path, work) -> Command:
    """`analyze --strict` on codegen_full, the corpus case with every
    synchronizer kind, checked against its labels."""
    want = _labels("codegen_full")["analyze"]
    want_syncs = dict(sorted(Counter(s["kind"] for s in want["syncs"]).items()))

    def check(rc):
        ok, why = _expect(rc, 0)
        findings = _load(out / "findings.json")["findings"]
        syncs = dict(sorted(Counter(
            s["kind"] for s in _load(out / "syncs.json")["syncs"]).items()))
        if sorted(f["rule"] for f in findings) != sorted(want["findings"]) \
                or syncs != want_syncs:
            ok, why = False, f"findings {findings}, syncs {syncs}"
        return ok, why, {"findings": len(findings), "syncs": sum(syncs.values())}

    return Command("analyze codegen_full",
                   ["analyze", *_case_args("codegen_full", stim=False), "--strict",
                    "--out", str(out)], out, check, work)


def probe(root: Path, start: int) -> list[Command]:
    """Four small labeled commands that between them reach every layer."""
    full = _labels("codegen_full")
    generate_out = root / f"c{start + 1}"

    def generate_check(rc):
        ok, why = _expect(rc, 0)
        texts = [(generate_out / f).read_text(encoding="utf-8")
                 for f in _load(generate_out / "manifest.json")["outputs"]]
        classes = sorted({m for t in texts
                          for m in re.findall(r"^// class: (\w+)", t, re.M)})
        groups = sum(t.count("covergroup ") for t in texts)
        want = full["generation"]
        if classes != sorted(want["classes"]) or groups != want["coverage_covergroups"]:
            ok, why = False, f"classes {classes}, {groups} covergroups"
        return ok, why, {"gen_files": len(texts)}

    def no_work(counts):
        return 0  # probes are not part of the workload's rate

    fifo = _labels("async_fifo")["simulate"]
    latency = _labels("msi_latency")["explore"]
    cmds = [
        _codegen_full_analyze(root / f"c{start}", no_work),
        Command("generate codegen_full",
                ["generate", *_case_args("codegen_full", stim=False),
                 "--out", str(generate_out)], generate_out, generate_check, no_work),
        _corpus_sim("async_fifo", [1, 2], root, start + 2,
                    checkers=",".join(fifo["checkers"]), expect=fifo["expect"],
                    vcd=True),
        _corpus_explore("msi_latency", root, start + 3, checkers=latency["checkers"],
                        expect=latency["expect"], latency=latency["latency"]),
    ]
    for c in cmds:
        c.label = "probe " + c.label
        c.work = no_work
    return cmds


WORKLOADS = {
    "static_scaled": ("nets", "flattened nets analyzed or generated"),
    "msi_seeds": ("ticks", "simulated ticks summed over seeds"),
    "explore_bounded": ("branches", "explored branches"),
}
