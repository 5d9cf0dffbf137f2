"""`Engine.run` ticks in one fused loop body and calls neither
`plan_tick` nor `commit_tick`.  It is held to two oracles in full, for
seeded runs and for replayed decision paths, with and without waves: the
stepped driver `stepped_run`, which records the run through the engine's
own steps, a plan and a commit per tick, and `ReferenceEngine.run`, which
steps through the reference engine's.  `Engine.run_seeds` is held to one
`run` per seed, where it takes its shortcut and where it does not."""

import importlib.util
import sys
from bisect import bisect_left

import pytest

from cdckit.checkers import build_checkers
from cdckit.cli import main
from cdckit.errors import BranchCapExceeded, DecisionBudgetExceeded
from cdckit.explore import explore_exhaustive
from cdckit.pipeline import analyze_sources
from cdckit.sim import Engine, MsiConfig
from cdckit.stimulus import parse_stimulus
from conftest import REPO, load_gen
from oracles import ReferenceEngine, stepped_run
from test_explore import _label_checkers
from test_lockstep import (A_B7, PHASES, PHASES_CLOCKS, PHASES_STIMULUS, PORT_SOURCE,
                           REQ_ACK, _corpus_with_stimulus)


def assert_same_result(got, want, what):
    assert got.events == want.events, what
    assert got.frames == want.frames, what
    assert got.verdicts == want.verdicts, what
    assert got.coverage.to_json() == want.coverage.to_json(), what
    assert got.decisions == want.decisions, what


def counterexample_paths(analysis, stim, checkers) -> list[tuple[bool, ...]]:
    """The decision path of each counterexample that `explore --budget 16`
    replays on the design, none when the search passes its budget or cap."""
    paths = []
    run = Engine.run

    def replay(eng, path=None, *args, **kwargs):
        paths.append(tuple(path))
        return run(eng, path, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "run", replay)
        try:
            explore_exhaustive(analysis, stim, checkers, budget=16)
        except (DecisionBudgetExceeded, BranchCapExceeded):
            pass
    return paths


def fused_equals_stepped(analysis, stim, checkers, seeds=(1, 2)) -> dict[str, int]:
    """Compare `Engine.run` with the stepped driver and with the reference
    engine on seeded runs and on replays of an empty path, a path shorter
    than its run's opportunities, one that takes every opportunity and each
    explore counterexample's path, each with waves and without.  Returns
    counts of what the runs exercised."""
    eng = Engine(analysis, stim, MsiConfig(), checkers)
    ref = ReferenceEngine(analysis, stim, MsiConfig(), checkers)
    every = (True,) * 64
    while eng.run(path=every, waves=False).decisions > len(every):
        every *= 4
    half = (True, False) * (eng.run(path=every, waves=False).decisions // 4)
    cex = counterexample_paths(analysis, stim, checkers)
    seen = {"runs": 0, "decisions": 0, "events": 0, "counterexamples": len(cex)}
    for kwargs in ([{"seed": s} for s in seeds] + [{"path": p} for p in ((), half, every)]
                   + [{"path": p} for p in cex]):
        for waves in (True, False):
            got = eng.run(waves=waves, **kwargs)
            assert_same_result(got, stepped_run(eng, waves=waves, **kwargs),
                               ("stepped", kwargs, waves))
            assert_same_result(got, ref.run(waves=waves, **kwargs),
                               ("reference", kwargs, waves))
            seen["runs"] += 1
            seen["decisions"] += got.decisions
            seen["events"] += len(got.events)
    return seen


def test_fused_equals_stepped_on_every_corpus_case(corpus_root, case_loader):
    total = {"runs": 0, "decisions": 0, "events": 0, "counterexamples": 0}
    cases = _corpus_with_stimulus(corpus_root)
    assert len(cases) > 20
    for case in cases:
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        for checkers in (_label_checkers(analysis, corpus_root, case),
                         build_checkers(analysis)):
            for key, n in fused_equals_stepped(analysis, stim, checkers).items():
                total[key] += n
    assert all(total.values()), total


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("purpose", ["sim", "explore"])
def test_fused_equals_stepped_on_generated_designs(purpose, seed):
    """The `sim` designs drive random ports, which a seeded run toggles."""
    gen = load_gen()
    if purpose == "sim":
        d = gen.build("sim", seed, 8, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
        select = list(gen.SIM_CHECKERS)
    else:
        d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
        select = list(gen.EXPLORE_CHECKERS)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    stim = parse_stimulus(d.files["stimulus.stim"])
    assert bool(stim.random) == (purpose == "sim")
    seen = fused_equals_stepped(analysis, stim, build_checkers(analysis, select=select))
    assert seen["events"], seen


def test_fused_equals_stepped_on_a_stamped_hierarchy():
    from test_elaborate import HIER_TIES
    analysis = analyze_sources([("rtl.v", HIER_TIES)],
                               "clock clk -period 10 -domain A\n"
                               "clock clk_b -period 7 -domain B\n")
    stim = parse_stimulus("random -ports d,e -p 0.4 -seed 1\nrun 60 of clk\n")
    seen = fused_equals_stepped(analysis, stim, build_checkers(analysis))
    assert seen["events"], seen


# `kill`, decoded from a clk_a counter, resets the clk_b synchronizer: a
# clk_a edge that asserts it makes the commit settle the resets.
RESET_BY_FLOP = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg [1:0] cnt;
  reg src, q1, q2;
  wire kill;
  assign kill = cnt[0] & cnt[1];
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) begin cnt <= 2'b00; src <= 1'b0; end
    else begin cnt <= {cnt[0], ~cnt[1]}; src <= ~src; end
  always @(posedge clk_b or posedge kill)
    if (kill) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= src; q2 <= q1; end
  assign q = q2;
endmodule
"""


@pytest.mark.parametrize("rtl, stimulus", [
    # clk_a and clk_b edge together at every 70th tick, where `req`
    # captures and is a crossing source too
    (REQ_ACK, "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 80 of clk_a\n"),
    # the source port moves one tick before a clk_b edge (ticks 20, 90 and
    # 160), which reads it from the flip history
    (PORT_SOURCE, "at clk_a 0 set rst_b_n 1\nat clk_a 2 set rst_a_n 1\n"
                  "at clk_a 9 set rst_a_n 0\nat clk_a 16 set rst_a_n 1\nrun 20 of clk_a\n"),
    (RESET_BY_FLOP, "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 40 of clk_a\n"),
], ids=["coincident-captures", "port-source-history", "reset-by-flop"])
def test_fused_equals_stepped_on_small_designs(rtl, stimulus):
    analysis = analyze_sources([("t.v", rtl)], A_B7)
    seen = fused_equals_stepped(analysis, parse_stimulus(stimulus),
                                build_checkers(analysis, latency=[("*", 1, 3)]))
    assert seen["events"], seen


@pytest.mark.parametrize("hold", [0, 1, 3])
def test_fused_equals_stepped_through_resets_gating_and_hold_windows(hold):
    """The lockstep design whose resets assert mid-run, whose gated source
    stops and whose sources edge at the edge of the hold window."""
    analysis = analyze_sources([("t.v", PHASES)],
                               PHASES_CLOCKS + f"option hold_window {hold}\n")
    seen = fused_equals_stepped(analysis, parse_stimulus(PHASES_STIMULUS),
                                build_checkers(analysis, latency=[("*", 1, 3)]))
    assert seen["events"], seen


# -- seeds that share a path ---------------------------------------------------

SEEDS = (1, 2, 3)
MSI_CONFIGS = [MsiConfig(probability=p) for p in (0.0, 0.2, 0.5, 1.0)] + [
    MsiConfig(enabled=False)]


def run_seeds_ticks(eng, waves=(True, False)) -> dict[bool, int]:
    """`Engine.run_seeds` over SEEDS gives, seed by seed, the result that
    `run` gives, waves on the first seed only, for each of `waves`.
    Returns, for each, the ticks that it ran, counted over the calls of
    the fused loop."""
    fused, agenda, ran = Engine._fused, list(eng.agenda), []

    def counted(self, state, rng, path, frames, trace=None, start=0, stop=None):
        last = len(agenda) if stop is None else bisect_left(agenda, stop)
        ran.append(last - bisect_left(agenda, start))
        return fused(self, state, rng, path, frames, trace, start, stop)

    ticks = {}
    for w in waves:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Engine, "_fused", counted)
            got = list(eng.run_seeds(list(SEEDS), w))
        ticks[w] = sum(ran)
        ran.clear()
        want = [eng.run(seed=s, waves=w and s == SEEDS[0]) for s in SEEDS]
        assert len(got) == len(want)
        for s, g, r in zip(SEEDS, got, want):
            assert_same_result(g, r, (s, w))
    return ticks


def run_seeds_equals_runs(eng, waves=(True, False)) -> bool:
    """`run_seeds_ticks`, and whether the seeds' ticks ran once, at most
    one run's worth, for each of `waves` alike."""
    shared = {n <= len(eng.agenda) for n in run_seeds_ticks(eng, waves).values()}
    assert len(shared) == 1
    return shared.pop()


def test_seeds_that_share_a_path_equal_their_runs_on_every_corpus_case(corpus_root,
                                                                       case_loader):
    """Every corpus case with the default suite, no checkers, the label's
    checkers and the default suite with `--latency *:1:3`, each at
    probabilities 0, 0.2, 0.5 and 1 and with injection off.  Under the
    default suite at 0.5, the cases whose checkers read no net a decision
    reaches take the shortcut, and those with fifo or mux_enable checkers
    run every seed.  Without waves, the long free-running cases stop once
    their state repeats, within a fifth of their ticks; with waves, they
    run every tick once."""
    shared, ticks = {}, {}
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        suites = {}
        for checkers in (build_checkers(analysis), [],
                         _label_checkers(analysis, corpus_root, case),
                         build_checkers(analysis, latency=[("*", 1, 3)])):
            suites.setdefault(tuple(c.id for c in checkers), checkers)
        for k, checkers in enumerate(suites.values()):
            for msi in MSI_CONFIGS:
                eng = Engine(analysis, stim, msi, checkers)
                if k or msi != MsiConfig():
                    run_seeds_equals_runs(eng, waves=(msi.probability == 0.2,))
                else:
                    ticks[case] = run_seeds_ticks(eng), len(eng.agenda)
                    shared[case] = all(n <= ticks[case][1] for n in ticks[case][0].values())
    for case in ("binary_cross", "gray_cross", "cov_toggle"):
        ran, agenda = ticks[case]
        assert ran[False] < agenda / 5 and ran[True] == agenda, (case, ran, agenda)
    assert not any(shared[c] for c in ("async_fifo", "async_fifo_bug", "codegen_full",
                                       "mux_sync", "mux_sync_bug"))
    assert sum(shared.values()) > 30, shared


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("purpose", ["sim", "explore"])
def test_seeds_that_share_a_path_equal_their_runs_on_generated_designs(purpose, seed):
    """The `sim` designs drive random ports, so every seed runs; the
    `explore` designs' checkers read no net a decision reaches."""
    gen = load_gen()
    if purpose == "sim":
        d = gen.build("sim", seed, 8, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
        select = list(gen.SIM_CHECKERS)
    else:
        d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
        select = list(gen.EXPLORE_CHECKERS)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    eng = Engine(analysis, parse_stimulus(d.files["stimulus.stim"]), MsiConfig(),
                 build_checkers(analysis, select=select))
    assert run_seeds_equals_runs(eng) == (purpose == "explore")


def test_a_random_port_makes_every_seed_run(case_loader):
    """`binary_cross` shares a path across seeds until its stimulus toggles
    a port at random, which each seed's RNG drives apart."""
    analysis, stim_text = case_loader("binary_cross")
    checkers = build_checkers(analysis)
    for text, shared in ((stim_text, True),
                         ("random -ports rst_a_n -p 0.01 -seed 1\n" + stim_text, False)):
        eng = Engine(analysis, parse_stimulus(text), MsiConfig(), checkers)
        assert run_seeds_equals_runs(eng, waves=(False,)) == shared


# d1 accumulates its source, so a decision at d1 moves it for the rest of
# the run.  It reaches d2's reset, or d2's gated clock: either way it
# decides whether d2 captures, so it changes d2's later opportunities.
RESET_BY_DST = """
module top(input clk_a, input clk_b, output q);
  reg src, d1, d2;
  always @(posedge clk_a) src <= ~src;
  always @(posedge clk_b) d1 <= d1 ^ src;
  always @(posedge clk_b or posedge d1)
    if (d1) d2 <= 1'b0; else d2 <= src;
  assign q = d2;
endmodule
"""
CLOCK_BY_DST = """
module top(input clk_a, input clk_b, output q);
  reg src, d1, d2;
  wire gclk;
  assign gclk = clk_b & d1;
  always @(posedge clk_a) src <= ~src;
  always @(posedge clk_b) d1 <= d1 ^ src;
  always @(posedge gclk) d2 <= src;
  assign q = d2;
endmodule
"""
AB = "clock clk_a -period 10 -domain A\nclock clk_b -period 7 -domain B\n"


@pytest.mark.parametrize("rtl, constraints, stimulus", [
    (REQ_ACK, A_B7, "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 40 of clk_a\n"),
    (RESET_BY_DST, AB, "run 40 of clk_a\n"),
    (CLOCK_BY_DST, AB, "run 40 of clk_a\n"),
], ids=["monitored-source", "reset-net", "destination-clock"])
def test_a_decision_that_shapes_later_opportunities_makes_every_seed_run(
        rtl, constraints, stimulus):
    """With no checker to see a decision, one still moves a crossing
    source, a reset net or a destination's clock, and every seed runs.
    Were the shortcut taken, the later seeds' events would differ."""
    analysis = analyze_sources([("t.v", rtl)], constraints)
    eng = Engine(analysis, parse_stimulus(stimulus), MsiConfig(), [])
    assert not run_seeds_equals_runs(eng)


# -- a shared path that stops at a repeat of its state -------------------------


def _increment(reg: str, bits: int, enable: str) -> str:
    """Wires `<reg>_n`: the `bits`-bit `reg` plus `enable`, of one bit."""
    carries = [f"  wire {reg}_c{i};\n  assign {reg}_c{i} = {enable}"
               + "".join(f" & {reg}[{k}:{k}]" for k in range(i)) + ";\n"
               for i in range(1, bits)]
    nxt = ", ".join([f"{reg}[{i}:{i}] ^ {reg}_c{i}" for i in range(bits - 1, 0, -1)]
                    + [f"{reg}[0:0] ^ {enable}"])
    return ("".join(carries) + f"  wire [{bits - 1}:0] {reg}_n;\n"
            f"  assign {reg}_n = {{{nxt}}};\n")


def _counter(bits: int) -> str:
    """A `bits`-bit binary counter on clk_a, crossing whole into clk_b
    through two flops: its values repeat only every 2**bits edges."""
    top = bits - 1
    return (f"module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n,\n"
            f"           output [{top}:0] o);\n  reg [{top}:0] cnt;\n"
            + _increment("cnt", bits, "1'b1")
            + f"  reg [{top}:0] s1;\n  reg [{top}:0] s2;\n"
            "  always @(posedge clk_a or negedge rst_a_n)\n"
            f"    if (!rst_a_n) cnt <= {bits}'d0; else cnt <= cnt_n;\n"
            "  always @(posedge clk_b or negedge rst_b_n)\n"
            f"    if (!rst_b_n) begin s1 <= {bits}'d0; s2 <= {bits}'d0; end\n"
            "    else begin s1 <= cnt; s2 <= s1; end\n"
            "  assign o = s2;\nendmodule\n")


# A toggling source through two flops, whose output counts clk_b edges:
# the counter is in the decision reach, and the static checker that reads
# its top bit fails once it turns, many hyperperiods after the values
# outside the reach first repeat
DST_COUNTER = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output top_bit);
  reg src, q1, q2;
  reg [7:0] dc;
""" + _increment("dc", 8, "q2") + """
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) src <= 1'b0; else src <= ~src;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; dc <= 8'd0; end
    else begin q1 <= src; q2 <= q1; dc <= dc_n; end
  assign top_bit = dc[7:7];
endmodule
"""


# A source that toggles while the port `en` is high, through two flops
ENABLED_TOGGLE = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input en, output o);
  reg src, q1, q2;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) src <= 1'b0; else src <= src ^ en;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= src; q2 <= q1; end
  assign o = q2;
endmodule
"""


# A source that toggles on the first four clk_a edges out of reset, then
# holds its value: the flips stay in a long setup window for a while after
# the values have settled
SETTLING = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output o);
  reg [3:0] sh;
  reg src, q1, q2;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) begin sh <= 4'b0000; src <= 1'b0; end
    else begin sh <= {sh[2:0], 1'b1}; src <= src ^ ~sh[3:3]; end
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= src; q2 <= q1; end
  assign o = q2;
endmodule
"""
RESETS = "reset rst_a_n -active_low -domain A\nreset rst_b_n -active_low -domain B\n"
OUT_OF_RESET = "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"


@pytest.mark.parametrize("rtl, constraints, stimulus, stops", [
    # a source counter whose values repeat only after the run
    (_counter(12), "clock clk_a -period 4 -domain A\nclock clk_b -period 7 -domain B\n"
     + RESETS, OUT_OF_RESET + "run 300 of clk_b\n", False),
    # values repeat from the start, until a set several hyperperiods (of 70
    # ticks) in moves the source; the last two sets, at 300 and 320, toggle
    # it twice within one hyperperiod, so the values at 280 and 350 agree
    (ENABLED_TOGGLE, A_B7, OUT_OF_RESET + "at clk_a 10 set en 1\nat clk_a 17 set en 0\n"
     "at clk_a 30 set en 1\nat clk_a 32 set en 0\nrun 200 of clk_b\n", True),
    # a port source that moves 2 ticks after the boundary at 140, which a
    # capture at 140 sees through its hold window of 3
    (PORT_SOURCE, "clock clk_a -period 10 -phase 2 -domain A\nclock clk_b -period 7 "
     "-domain B\n" + RESETS + "option hold_window 3\n",
     "at clk_a 0 set rst_b_n 1\nat clk_a 3 set rst_a_n 1\nat clk_a 6 set rst_a_n 0\n"
     "at clk_a 14 set rst_a_n 1\nrun 200 of clk_b\n", True),
    # the stability history of 101 samples fills over ten hyperperiods,
    # while the values repeat every two; its first failure comes after that
    (ENABLED_TOGGLE, A_B7 + "option stability_cycles 100\n",
     OUT_OF_RESET + "at clk_a 0 set en 1\nrun 400 of clk_b\n", True),
    # a setup window of 80 ticks, longer than the hyperperiod of 70: the
    # values at 70 and 140 agree, but the flips at 0-30 are in the window
    # of the captures after 70 only
    (SETTLING, A_B7 + "option setup_window 80\n", OUT_OF_RESET + "run 200 of clk_b\n",
     True),
    # a checker that reads the decision reach, which the values compared
    # with injection off must hold
    (DST_COUNTER, A_B7 + "static top_bit\n", OUT_OF_RESET + "run 700 of clk_b\n", False),
    # a counter, with a setup window of 40 ticks past the hyperperiod of 28
    (_counter(3), "clock clk_a -period 4 -domain A\nclock clk_b -period 7 -domain B\n"
     + RESETS + "option setup_window 40\noption hold_window 3\n",
     OUT_OF_RESET + "run 400 of clk_b\n", True),
    # clocks with nonzero phases, and a run that ends inside a hyperperiod
    (_counter(3), "clock clk_a -period 6 -phase 5 -domain A\n"
     "clock clk_b -period 4 -phase 3 -domain B\n" + RESETS,
     OUT_OF_RESET + "run 333 of clk_b\n", True),
    (PHASES, PHASES_CLOCKS, PHASES_STIMULUS.replace("run 30 of clk_a", "run 400 of clk_a"),
     True),
], ids=["long-counter", "late-sets", "port-set-in-hold-window", "checker-history",
        "settling-in-a-long-setup-window", "checker-in-the-reach",
        "counter-in-a-long-setup-window", "phases", "three-clocks"])
def test_a_shared_path_without_waves_equals_its_runs_until_and_past_a_repeat(
        rtl, constraints, stimulus, stops):
    """Without waves, a shared path stops once its state repeats at the
    same clock phase, and extends its opportunities over the rest of the
    run: each seed's events, coverage, verdicts and decisions are those of
    its own run, with the default suite, the same with `--latency *:1:3`
    and with none, at several probabilities and with injection off.  Under
    the default suite, where no repeat comes in the run, it runs every tick
    once."""
    analysis = analyze_sources([("t.v", rtl)], constraints)
    stim = parse_stimulus(stimulus)
    for k, checkers in enumerate((build_checkers(analysis), [],
                                  build_checkers(analysis, latency=[("*", 1, 3)]))):
        for msi in MSI_CONFIGS:
            eng = Engine(analysis, stim, msi, checkers)
            ran = run_seeds_ticks(eng, waves=(False,))[False]
            if not k and (not msi.enabled or eng.decisions_unseen()):
                assert (ran < len(eng.agenda)) == stops, (msi, ran, len(eng.agenda))


# -- the steps a run calls ----------------------------------------------------


def calls(codes, thunk) -> int:
    """The calls of functions with the code objects `codes` while `thunk`
    runs, seen by a profile hook, which replaces nothing."""
    n = 0

    def profile(frame, event, _arg):
        nonlocal n
        if event == "call" and frame.f_code in codes:
            n += 1

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(before)
    return n


def _gray_cross(case_loader):
    analysis, stim_text = case_loader("gray_cross")
    return analysis, parse_stimulus(stim_text)


def test_a_run_makes_no_step_call_even_with_the_steps_wrapped(case_loader, monkeypatch):
    """With both steps wrapped on the class, a seeded run and a replay call
    neither the wrappers nor the steps; the stepped driver calls each once
    per tick through its wrapper."""
    analysis, stim = _gray_cross(case_loader)
    eng = Engine(analysis, stim, MsiConfig(), build_checkers(analysis))
    steps = {Engine.plan_tick.__code__, Engine.commit_tick.__code__}

    def wrap(step):
        def wrapped(*args, **kw):
            return step(*args, **kw)
        return wrapped

    for name in ("plan_tick", "commit_tick"):
        monkeypatch.setattr(Engine, name, wrap(getattr(Engine, name)))
    wrappers = {Engine.plan_tick.__code__, Engine.commit_tick.__code__}
    for run in ({"seed": 1}, {"path": (True,) * 64, "waves": False}):
        assert calls(steps | wrappers, lambda: eng.run(**run)) == 0, run
    for codes in (steps, wrappers):
        assert calls(codes, lambda: stepped_run(eng, seed=1)) == 2 * len(eng.agenda)


def test_the_reference_engine_runs_its_own_steps(case_loader):
    """`ReferenceEngine.run` is the stepped driver over its own steps, and
    it records the run the engine's fused loop records."""
    analysis, stim = _gray_cross(case_loader)
    ref = ReferenceEngine(analysis, stim, MsiConfig(), build_checkers(analysis))
    own = {ReferenceEngine.plan_tick.__code__, ReferenceEngine.commit_tick.__code__}
    got = []
    assert calls(own, lambda: got.append(ref.run(seed=3))) == 2 * len(ref.agenda)
    eng = Engine(analysis, stim, MsiConfig(), build_checkers(analysis))
    assert_same_result(got[0], eng.run(seed=3), "reference")


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_the_benchmark_tracer_times_the_steps_of_a_search_only(corpus_root, tmp_path):
    """perfbench/spans.py wraps the steps on the class.  A traced
    `simulate --seeds 1..2` on `gray_cross` writes the bytes an untraced
    one writes and records no `sim.plan_tick` span, since its runs take the
    fused loop.  A traced `explore`, the benchmark's `msi_latency` probe,
    records one per plan the search makes."""
    spans = _spans()

    def case_args(case):
        d = corpus_root / case
        return [str(d / "rtl.v"), "-c", str(d / "constraints.cdc"),
                "-s", str(d / "stimulus.stim")]

    out = tmp_path / "sim"
    simulate = ["simulate", *case_args("gray_cross"), "--seeds", "1..2", "--out", str(out)]
    assert main(simulate) == 0
    untraced = {p.name: p.read_bytes() for p in out.iterdir()}
    with spans.instrument(spans.Tracer()) as tracer:
        assert main(simulate) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == untraced
    assert tracer.counts()["sim.ticks"] == 0

    explore = ["explore", *case_args("msi_latency"), "--budget", "16",
               "--latency", "cdc0:2:2", "--checkers", "latency",
               "--out", str(tmp_path / "explore")]
    plan, codes = Engine.plan_tick.__code__, []
    with spans.instrument(spans.Tracer()) as tracer:
        plans = calls({plan}, lambda: codes.append(main(explore)))
    assert codes == [3]
    assert tracer.counts()["sim.ticks"] == plans > 0
