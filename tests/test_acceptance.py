"""Acceptance suite: one test per release criterion, one line printed each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines also
on success).
"""

import json
import random
import time
from pathlib import Path

import pytest

from cdckit.checkers import build_checkers, parse_latency
from cdckit.codegen import generate_all, lint_generated
from cdckit.constraints import ClockSpec, ConstraintSet
from cdckit.corpus import load_corpus, run_corpus
from cdckit.coverage import BINS, merge
from cdckit.domains import assign_domains, extract_cdc_pairs
from cdckit.errors import DecisionBudgetExceeded
from cdckit.explore import explore_exhaustive
from cdckit.sim import MsiConfig, simulate
from cdckit.stimulus import parse_stimulus
from conftest import load_case
from oracles import (brute_force_pairs, gray_neighbor_sets, mirror_verdicts,
                     random_netlist, reference_simulate, run_waves)

GOLDEN = Path(__file__).parent / "golden"


def _accept(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def _case_latency(labels):
    specs = []
    for section in ("explore", "simulate"):
        for spec in parse_latency(labels.get(section, {}).get("latency")):
            if spec not in specs:
                specs.append(spec)
    return specs


def test_criterion_1_bug_taxonomy(corpus_root):
    """Each in-scope bug row flags exactly its rule/checker; twins are clean;
    the whole corpus evaluates in under a minute."""
    t0 = time.time()
    rows = run_corpus(corpus_root)
    elapsed = time.time() - t0
    failed = [r for r in rows if not r.ok]
    assert failed == [], [f"{r.case}:{r.expectation}:{r.detail}" for r in failed]
    table = json.loads((corpus_root / "table1_map.json").read_text())
    assert len(table["rows"]) == 10
    covered = {r.case for r in rows}
    for row in table["rows"].values():
        assert row["case"] in covered
    assert elapsed < 60.0, f"corpus took {elapsed:.1f}s"
    _accept(1, "bug-taxonomy corpus")


def test_criterion_2_pair_extraction_oracle():
    """extract_cdc_pairs equals brute-force path enumeration on >= 25 random
    multi-domain designs."""
    designs = 0
    for seed in range(30):
        rng = random.Random(4200 + seed)
        nl, clock_domains = random_netlist(
            rng, n_flops=8 + seed % 10, n_gates=16 + seed % 14,
            n_domains=2 + seed % 2, n_ports=2 + seed % 3)
        assert len(nl.cells) <= 100
        cs = ConstraintSet(clocks=[ClockSpec(name, 10, 0, dom)
                                   for name, dom in sorted(clock_domains.items())])
        dm = assign_domains(nl, cs)
        pairs = extract_cdc_pairs(nl, dm, cs)
        got = {(p.src_name, p.dst_name, p.pin) for p in pairs}
        port_domains = {p.index: clock_domains[p.name]
                        for p in nl.ports if p.name in clock_domains}
        want = brute_force_pairs(nl, dm.flop_domain, port_domains)
        assert got == want, f"seed {seed}"
        designs += 1
    assert designs >= 25
    _accept(2, f"pair extraction oracle equivalence ({designs} designs)")


def test_criterion_3_msi_off_equivalence(corpus_root, case_loader):
    for case in sorted(p.name for p in corpus_root.iterdir() if p.is_dir()):
        analysis, stim_text = case_loader(case)
        if not stim_text:
            continue
        stim = parse_stimulus(stim_text)
        ref = reference_simulate(analysis, stim)
        off = simulate(analysis, stim, MsiConfig(enabled=False), [])
        assert off.frames == ref.frames, case
        assert off.events == []
    _accept(3, "injection-off equivalence on every corpus case")


def test_criterion_4_coverage_saturation(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    runs = [simulate(analysis, stim, MsiConfig(probability=0.5, seed=42), [])
            for _ in range(2)]
    r = runs[0]
    assert r.coverage.edges["clk_b"] <= 500
    pair = analysis.pairs[0]
    for bit in range(pair.width):
        for name in BINS:
            assert r.coverage.count(pair.id, bit, name) > 0, name
    assert runs[0].coverage.to_json() == runs[1].coverage.to_json()
    assert runs[0].events == runs[1].events
    assert runs[0].frames == runs[1].frames
    _accept(4, "all four bins within 500 destination edges, bit-reproducible")


def test_criterion_5_metastability_latency(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)
    strict = build_checkers(analysis, latency=[("cdc0", 2, 2)],
                            select=["latency"])
    out = explore_exhaustive(analysis, stim, strict, budget=16)
    assert out.verdicts["latency:cdc0"] == "counterexample"
    cex = out.counterexamples["latency:cdc0"]
    assert len(cex.events) == 1 and cex.events[0].kind == "setup"

    relaxed = build_checkers(analysis, latency=[("cdc0", 2, 3)],
                             select=["latency"])
    out = explore_exhaustive(analysis, stim, relaxed, budget=16)
    assert out.verdicts["latency:cdc0"] == "proven"
    for seed in range(1, 101):
        checkers = build_checkers(analysis, latency=[("cdc0", 2, 3)],
                                  select=["latency"])
        res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=seed),
                       checkers)
        assert all(v.passed for v in res.verdicts), seed
    _accept(5, "settling-delay scenario: strict bound refuted, relaxed proven")


def _sampled_words(analysis, res, edges):
    nl = analysis.netlist
    pair = analysis.pairs[0]
    dst = nl.cells[pair.dst]
    spec = analysis.constraints.clock_by_name("clk_b")
    waves = run_waves(res)
    neighbors = gray_neighbor_sets(waves[pair.src_net])
    timeline = waves[dst.out]
    v = timeline[0][1]
    k = 0
    outside = 0
    for i in range(edges):
        t = spec.edge_tick(i)
        while k < len(timeline) and timeline[k][0] <= t:
            v = timeline[k][1]
            k += 1
        if v not in neighbors(t):
            outside += 1
    return outside


def test_criterion_6_gray_vs_binary(case_loader):
    # sampled words may sit one codeword early (hold) or late (setup), so
    # membership is checked against the adjacent reference codewords
    gray, gray_stim = load_case("gray_cross")
    binary, bin_stim = load_case("binary_cross")
    for seed in range(1, 11):
        res = simulate(gray, parse_stimulus(gray_stim),
                       MsiConfig(probability=0.5, seed=seed), [])
        assert _sampled_words(gray, res, 1000) == 0, f"gray seed {seed}"
        res = simulate(binary, parse_stimulus(bin_stim),
                       MsiConfig(probability=0.5, seed=seed), [])
        assert _sampled_words(binary, res, 1000) > 0, f"binary seed {seed}"
    _accept(6, "gray crossing stays on neighbor codewords; binary escapes")


def test_criterion_7_exhaustive_random_consistency(corpus_root):
    compared = 0
    for case in load_corpus(corpus_root):
        if not case.stimulus:
            continue
        analysis = case.analysis()
        stim = parse_stimulus(case.stimulus)
        latency = _case_latency(case.labels)

        def suite():
            return build_checkers(analysis, latency=latency)

        if not suite():
            continue
        try:
            out = explore_exhaustive(analysis, stim, suite(),
                                     budget=16)
        except DecisionBudgetExceeded:
            continue  # outside the stated budget
        exhaustive_failing = {cid for cid, v in out.verdicts.items()
                              if v == "counterexample"}
        random_failing = set()
        for seed in range(1, 201):
            res = simulate(analysis, stim,
                           MsiConfig(probability=0.5, seed=seed), suite())
            random_failing |= {v.checker for v in res.verdicts if not v.passed}
        assert exhaustive_failing == random_failing, case.name
        compared += 1
    assert compared >= 5
    _accept(7, f"exhaustive vs 200-seed union on {compared} in-budget cases")


def test_criterion_8_codegen_determinism_and_mirror(corpus_root, case_loader):
    analysis, _ = case_loader("codegen_full")
    once = {f.path: f.text for f in generate_all(analysis)}
    twice = {f.path: f.text for f in generate_all(analysis)}
    assert once == twice
    root = GOLDEN / "codegen_full"
    golden = {str(p.relative_to(root)): p.read_text() for p in root.rglob("*.sv")}
    assert once == golden
    assert lint_generated(generate_all(analysis), analysis.netlist) == []

    mirrored = 0
    for case in load_corpus(corpus_root):
        if not case.stimulus:
            continue
        a = case.analysis()
        assert lint_generated(generate_all(a), a.netlist) == [], case.name
        if not build_checkers(a):
            continue
        runtime, generated = mirror_verdicts(
            a, parse_stimulus(case.stimulus), MsiConfig(probability=0.5, seed=1))
        for cid, interp_pass in generated.items():
            assert runtime[cid] == interp_pass, (case.name, cid)
            mirrored += 1
    assert mirrored >= 15
    _accept(8, f"byte-stable generation, lint clean, {mirrored} mirrored verdicts")


def test_criterion_9_coverage_algebra():
    from cdckit.coverage import CoverageDb

    rng = random.Random(99)

    def random_db():
        db = CoverageDb("f" * 16, "sim", ("cdc0", "cdc1"))
        for _ in range(rng.randrange(0, 25)):
            db.record(rng.choice(("cdc0", "cdc1")), rng.randrange(3),
                      rng.choice(("setup", "hold")), rng.randrange(2))
        return db

    for _trial in range(1000):
        a, b, c = random_db(), random_db(), random_db()
        bins = lambda d: d.to_json_dict()["bins"]
        assert bins(merge(merge(a, b), c)) == bins(merge(a, merge(b, c)))
        assert bins(merge(a, b)) == bins(merge(b, a))
        evs = [(rng.choice(("cdc0", "cdc1")), rng.randrange(3),
                rng.choice(("setup", "hold")), rng.randrange(2))
               for _ in range(rng.randrange(0, 30))]
        cut = rng.randrange(len(evs) + 1)

        def db_from(events):
            db = CoverageDb("f" * 16, "sim", ("cdc0", "cdc1"))
            for e in events:
                db.record(*e)
            return db

        assert bins(db_from(evs)) == bins(merge(db_from(evs[:cut]),
                                                db_from(evs[cut:])))
    _accept(9, "merge algebra and partition invariance, 1000 trials")
