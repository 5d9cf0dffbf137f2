"""Labeled micro-design corpus: loading and expectation checking.

Each case directory holds rtl.v, constraints.cdc, stimulus.stim and a
labels.json describing what every stage must produce for it.  `run_corpus`
evaluates every labeled expectation through the same code paths the CLI
uses and returns one row per (case, expectation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .checkers import build_checkers, parse_latency
from .codegen import generate_all, lint_generated
from .coverage import BINS
from .errors import DecisionBudgetExceeded, MissingLabel
from .pipeline import analyze_sources, findings_report
from .rules import Analysis
from .sim import MsiConfig, explore_exhaustive, simulate
from .stimulus import parse_stimulus


@dataclass
class CorpusCase:
    name: str
    path: Path
    rtl: str
    constraints: str
    stimulus: str
    labels: dict

    _analysis: Analysis | None = field(default=None, repr=False)

    def analysis(self) -> Analysis:
        if self._analysis is None:
            self._analysis = analyze_sources(
                [(str(self.path / "rtl.v"), self.rtl)], self.constraints)
        return self._analysis


@dataclass
class MatrixRow:
    case: str
    expectation: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"case": self.case, "expectation": self.expectation,
                "ok": self.ok, "detail": self.detail}


def load_corpus(root: Path | str) -> list[CorpusCase]:
    root = Path(root)
    cases = []
    for d in sorted(root.iterdir()):
        if not d.is_dir():
            continue
        labels_file = d / "labels.json"
        if not labels_file.exists():
            raise MissingLabel(f"{d.name}: labels.json missing")
        labels = json.loads(labels_file.read_text())
        _check_labels(d.name, labels)
        cases.append(CorpusCase(
            d.name, d,
            (d / "rtl.v").read_text(),
            (d / "constraints.cdc").read_text(),
            (d / "stimulus.stim").read_text() if (d / "stimulus.stim").exists() else "",
            labels))
    return cases


def _check_labels(name: str, labels: dict) -> None:
    if "title" not in labels:
        raise MissingLabel(f"{name}: label 'title' missing")
    sections = [k for k in ("analyze", "simulate", "explore", "coverage",
                            "generation") if k in labels]
    if not sections:
        raise MissingLabel(f"{name}: no expectation sections")
    for k in ("simulate",):
        if k in labels and "expect" not in labels[k]:
            raise MissingLabel(f"{name}: {k} section without expected verdicts")
    if "explore" in labels and "expect" not in labels["explore"]:
        raise MissingLabel(f"{name}: explore section without expected verdicts")


def _seed_list(spec) -> list[int]:
    if isinstance(spec, list) and len(spec) == 2:
        return list(range(spec[0], spec[1] + 1))
    if isinstance(spec, list):
        return list(spec)
    return [int(spec)]


def check_case(case: CorpusCase) -> list[MatrixRow]:
    rows: list[MatrixRow] = []
    labels = case.labels

    def row(expectation: str, ok: bool, detail: str = ""):
        rows.append(MatrixRow(case.name, expectation, ok, detail))

    try:
        analysis = case.analysis()
    except Exception as e:
        row("build", False, f"{type(e).__name__}: {e}")
        return rows

    if "analyze" in labels:
        lab = labels["analyze"]
        fr = findings_report(analysis)["findings"]
        got = sorted(f["rule"] for f in fr)
        if "findings" in lab:
            want = sorted(lab["findings"])
            row("findings", got == want, f"want {want}, got {got}")
        if "pairs" in lab:
            row("pair-count", len(analysis.pairs) == lab["pairs"],
                f"want {lab['pairs']}, got {len(analysis.pairs)}")
        if "suppressed" in lab:
            got_s = sum(1 for p in analysis.pairs if p.suppressed)
            row("suppressed-count", got_s == lab["suppressed"],
                f"want {lab['suppressed']}, got {got_s}")
        if "rdc_pairs" in lab:
            row("rdc-count", len(analysis.rdc_pairs) == lab["rdc_pairs"],
                f"want {lab['rdc_pairs']}, got {len(analysis.rdc_pairs)}")
        if "syncs" in lab:
            ok, detail = _match_syncs(analysis, lab["syncs"])
            row("syncs", ok, detail)

    if "simulate" in labels:
        lab = labels["simulate"]
        stim = parse_stimulus(case.stimulus)
        seeds = _seed_list(lab.get("seeds", [1]))
        msi_on = lab.get("msi", True)
        prob = lab.get("probability", 0.5)
        checkers = build_checkers(analysis,
                                  latency=parse_latency(lab.get("latency")),
                                  select=lab.get("checkers"))
        expect = lab["expect"]
        all_ok = True
        detail = ""
        for seed in seeds:
            res = simulate(analysis, stim,
                           MsiConfig(enabled=msi_on, probability=prob, seed=seed),
                           checkers)
            verdicts = {v.checker: ("PASS" if v.passed else "FAIL")
                        for v in res.verdicts}
            for cid, want in expect.items():
                got = verdicts.get(cid, "<missing>")
                if got != want:
                    all_ok = False
                    detail = f"seed {seed}: {cid} want {want}, got {got}"
                    break
            if not all_ok:
                break
        row("checkers", all_ok, detail)

    if "explore" in labels:
        lab = labels["explore"]
        stim = parse_stimulus(case.stimulus)
        checkers = build_checkers(analysis,
                                  latency=parse_latency(lab.get("latency")),
                                  select=lab.get("checkers"))
        try:
            outcome = explore_exhaustive(
                analysis, stim, MsiConfig(max_decisions=lab.get("budget", 16)),
                checkers)
        except DecisionBudgetExceeded as e:
            row("explore", False, str(e))
        else:
            ok = True
            detail = ""
            for cid, want in lab["expect"].items():
                got = outcome.verdicts.get(cid, "<missing>")
                if got != want:
                    ok = False
                    detail = f"{cid}: want {want}, got {got}"
            if ok and "cex_setup_events" in lab:
                cid = next(iter(lab["expect"]))
                cex = outcome.counterexamples.get(cid)
                n = sum(1 for e in cex.events if e.kind == "setup") if cex else -1
                if n != lab["cex_setup_events"]:
                    ok = False
                    detail = f"counterexample has {n} setup events"
            row("explore", ok, detail)

    if "coverage" in labels:
        lab = labels["coverage"]
        stim = parse_stimulus(case.stimulus)
        res = simulate(analysis, stim,
                       MsiConfig(probability=lab.get("probability", 0.5),
                                 seed=lab.get("seed", 42)), [])
        pid = lab.get("pair", "cdc0")
        pair = analysis.pair_by_id(pid)
        hit = all(res.coverage.count(pid, bit, b) > 0
                  for bit in range(pair.width) for b in BINS)
        edges_ok = res.edge_counts.get(
            analysis.netlist.nets[
                analysis.netlist.ports[analysis.domains.clock_root[pair.dst]].net
            ].name, 0) <= lab.get("within_edges", 10 ** 9)
        row("coverage-bins", hit and edges_ok,
            "" if hit else "not all bins hit")

    if "generation" in labels:
        lab = labels["generation"]
        files = generate_all(analysis)
        problems = lint_generated(files, analysis.netlist)
        classes = sorted({f.generator for f in files})
        ok = not problems
        detail = "; ".join(problems[:3])
        if "classes" in lab and classes != sorted(lab["classes"]):
            ok = False
            detail = f"classes {classes}"
        if "coverage_covergroups" in lab:
            cov = next(f for f in files if f.generator == "coverage")
            n = cov.text.count("covergroup ")
            if n != lab["coverage_covergroups"]:
                ok = False
                detail = f"{n} covergroups"
        row("generation", ok, detail)

    return rows


def _match_syncs(analysis: Analysis, wants: list[dict]) -> tuple[bool, str]:
    got = [s.to_dict(analysis.netlist) for s in analysis.syncs]
    if len(got) != len(wants):
        return False, f"want {len(wants)} instances, got {len(got)}: " + \
            ", ".join(f"{g['kind']}" for g in got)
    remaining = list(got)
    for want in wants:
        match = None
        for g in remaining:
            if g["kind"] != want["kind"]:
                continue
            if "depth" in want and g["depth"] != want["depth"]:
                continue
            if "head" in want and g["head"] != want["head"]:
                continue
            if "role" in want and g["role"] != want["role"]:
                continue
            if "members" in want and sorted(g["members"]) != sorted(want["members"]):
                continue
            match = g
            break
        if match is None:
            return False, f"no instance matching {want}"
        remaining.remove(match)
    return True, ""


def run_corpus(root: Path | str, filter: str | None = None) -> list[MatrixRow]:
    """Evaluate every labeled expectation; returns the pass/fail matrix."""
    rows: list[MatrixRow] = []
    for case in load_corpus(root):
        if filter and filter not in case.name:
            continue
        rows.extend(check_case(case))
    return rows


def matrix_to_json(rows: list[MatrixRow]) -> dict:
    return {
        "total": len(rows),
        "failed": sum(1 for r in rows if not r.ok),
        "rows": [r.to_dict() for r in rows],
    }
