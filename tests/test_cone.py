"""A run without waves evaluates only the observed cone (sim.py, What a
run evaluates), and gives what the full evaluation gives: `FullEngine`
(oracles.py) evaluates every net in every run and search.  They are
compared on every corpus case with stimulus and on small designs at the
cone's edges, and the cone's size on the benchmark's generated designs is
pinned, so that a change that widens it shows."""

import pytest

from cdckit.checkers import build_checkers
from cdckit.errors import BranchCapExceeded, DecisionBudgetExceeded
from cdckit.explore import count_tree, explore_exhaustive, walk_tree
from cdckit.netlist import Dff, Gate
from cdckit.pipeline import analyze_sources
from cdckit.sim import Engine, MsiConfig
from cdckit.stimulus import parse_stimulus
from conftest import load_gen
from oracles import FullEngine, ReferenceEngine
from test_explore import DST_IS_RESET, SYNC, _label_checkers
from test_lockstep import A_B7, _corpus_with_stimulus
from test_run_loop import MSI_CONFIGS, SEEDS, assert_same_result


def sim_equals_full(analysis, stim, checkers, msi) -> int:
    """Seeded runs and the seed pool without waves, on the observed cone,
    equal those of the full evaluation in events, verdicts, coverage and
    decision counts.  Returns the events the runs injected."""
    eng = Engine(analysis, stim, msi, checkers)
    full = FullEngine(analysis, stim, msi, checkers)
    want = [full.run(seed=s, waves=False) for s in SEEDS]
    for s, got, w in zip(SEEDS, eng.run_seeds(list(SEEDS), waves=False), want):
        assert_same_result(got, w, ("run_seeds", s, msi))
    got = eng.run(seed=SEEDS[0], waves=False)
    assert_same_result(got, want[0], ("run", msi))
    return sum(len(w.events) for w in want)


def _search(analysis, stim, checkers, engine):
    """`explore_exhaustive`'s search on an engine of class `engine`, or the
    type and message of what it raised."""
    eng = engine(analysis, stim, MsiConfig(), checkers, scope="explore")
    try:
        return (count_tree if eng.decisions_unseen() else walk_tree)(eng, 16)
    except (DecisionBudgetExceeded, BranchCapExceeded) as e:
        return type(e), str(e)


def explore_equals_full(analysis, stim, checkers):
    """The search on the observed cone equals the full-evaluation search in
    verdicts, branches, what it raises, and counterexample events and
    frames.  Returns the outcome."""
    try:
        got = explore_exhaustive(analysis, stim, checkers, budget=16)
    except (DecisionBudgetExceeded, BranchCapExceeded) as e:
        got = type(e), str(e)
    want = _search(analysis, stim, checkers, FullEngine)
    if isinstance(want, tuple):
        assert got == want
        return got
    assert (got.verdicts, got.branches) == (want.verdicts, want.branches)
    assert got.counterexamples.keys() == want.counterexamples.keys()
    for cid, res in want.counterexamples.items():
        cex = got.counterexamples[cid]
        assert (cex.events, cex.frames) == (res.events, res.frames), cid
    return got


def test_cone_equals_full_evaluation_on_every_corpus_case(corpus_root, case_loader):
    """Every corpus case with stimulus under the default suite, no checkers,
    the label's checkers and the default suite with `--latency *:1:3`; the
    runs at injection off and at probabilities 0, 0.2, 0.5 and 1, seeds 1
    to 3, and the search at budget 16."""
    events = searched = smaller = 0
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        suites = {}
        for checkers in (build_checkers(analysis), [],
                         _label_checkers(analysis, corpus_root, case),
                         build_checkers(analysis, latency=[("*", 1, 3)])):
            suites.setdefault(tuple(c.id for c in checkers), checkers)
        for checkers in suites.values():
            for msi in MSI_CONFIGS:
                events += sim_equals_full(analysis, stim, checkers, msi)
            searched += not isinstance(explore_equals_full(analysis, stim, checkers), tuple)
            eng = Engine(analysis, stim, MsiConfig(), checkers)
            smaller += len(eng.observed) < len(analysis.netlist.nets)
    assert events and searched > 60 and smaller > 60, (events, searched, smaller)


# -- designs at the cone's edges ----------------------------------------------

STIM = "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 24 of clk_a\n"
_HEAD = "module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);\n"
# s crosses into q1, which q2 synchronizes; g, on a clock that en gates,
# feeds only an output
GATED_OUTSIDE = SYNC.replace("output q);", "output q, output w);").replace(
    "  assign q = q2;\n", """  reg en, g;
  wire gclk;
  assign gclk = clk_a & en;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) en <= 1'b0; else en <= ~en;
  always @(posedge gclk) g <= ~g;
  assign q = q2;
  assign w = g;
""")
# the source s follows the random port r2; r1, drawn before it, feeds only x
RANDOM_OUTSIDE = """module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n,
           input r1, input r2, output q, output w);
  reg s, q1, q2, x;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) begin s <= 1'b0; x <= 1'b0; end
    else begin s <= r2; x <= x ^ r1; end
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= s; q2 <= q1; end
  assign q = q2;
  assign w = x;
endmodule
"""
# the source g is clocked through a gate that gate_ff holds, so the hold
# lookahead asks whether its gated clock rises at the next clk_a edge
HOLD_THROUGH_GATE = _HEAD.replace("output q);", "input gate_en, output q);") + """\
  reg g, gate_ff, q1, q2;
  wire gclk;
  assign gclk = clk_a & gate_ff;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) gate_ff <= 1'b0; else gate_ff <= gate_en;
  always @(posedge gclk) g <= ~g;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= g; q2 <= q1; end
  assign q = q2;
endmodule
"""
HOLD_STIM = ("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nat clk_a 2 set gate_en 1\n"
             "at clk_a 9 set gate_en 0\nat clk_a 14 set gate_en 1\nrun 24 of clk_a\n")


def _cell(analysis, name: str):
    return next(c for c in analysis.netlist.cells if c.name == name)


def _edge_case_equals_full(analysis, stim, checkers) -> tuple[Engine, int]:
    """`sim_equals_full` under every injection configuration and
    `explore_equals_full`, and each waves run equal to the reference
    engine's, which evaluates every net.  Returns an engine of `checkers`
    that has run without waves only, and the events injected."""
    events = 0
    for msi in MSI_CONFIGS:
        events += sim_equals_full(analysis, stim, checkers, msi)
    explore_equals_full(analysis, stim, checkers)
    ref = ReferenceEngine(analysis, stim, MsiConfig(), checkers)
    for s in SEEDS:
        assert_same_result(Engine(analysis, stim, MsiConfig(), checkers).run(seed=s),
                           ref.run(seed=s), s)
    eng = Engine(analysis, stim, MsiConfig(), checkers)
    eng.run(waves=False)
    return eng, events


def test_a_destination_one_checker_reads_and_another_does_not():
    """q1 is in the cone of latency:cdc0, which samples q2, and outside that
    of stability:cdc0, which samples the source."""
    analysis = analyze_sources([("t.v", SYNC)], A_B7)
    stim = parse_stimulus(STIM)
    checkers = build_checkers(analysis, latency=[("*", 1, 3)])
    by_id = {c.id: c for c in checkers}
    assert by_id.keys() == {"stability:cdc0", "latency:cdc0"}
    q1 = _cell(analysis, "q1").out
    for chosen, inside in (([by_id["stability:cdc0"]], False),
                           ([by_id["latency:cdc0"]], True), (checkers, True)):
        eng, events = _edge_case_equals_full(analysis, stim, chosen)
        assert (q1 in eng.observed) == inside and events, chosen
        assert eng.decisions_unseen() == (not inside), chosen


def test_a_gated_flop_outside_the_cone():
    """g and its gate are outside the cone: a run without waves neither
    clocks g nor compiles its clock, and a run with waves does both."""
    analysis = analyze_sources([("t.v", GATED_OUTSIDE)], A_B7)
    stim = parse_stimulus(STIM)
    g = _cell(analysis, "g")
    eng, _events = _edge_case_equals_full(analysis, stim, build_checkers(analysis))
    assert g.out not in eng.observed and g.clock not in eng.observed
    assert g.index not in eng.clock_cone
    frames = eng.run().frames
    assert g.index in eng.clock_cone
    assert len({f[g.out] for f in frames}) == 2     # g toggles under waves


def test_a_random_port_outside_the_cone_keeps_the_draw_order():
    """r1 is drawn before r2 at every tick and feeds only x: the cone drops
    x but not the draw, so r2, and the source s it drives, move as in the
    full evaluation."""
    analysis = analyze_sources([("t.v", RANDOM_OUTSIDE)], A_B7)
    stim = parse_stimulus("random -ports r1,r2 -p 0.5 -seed 1\n" + STIM)
    nets = analysis.netlist.net_index
    eng, events = _edge_case_equals_full(analysis, stim, build_checkers(analysis))
    assert nets["r1"] not in eng.observed and nets["x"] not in eng.observed
    assert nets["r2"] in eng.observed and events


def test_a_destination_that_drives_a_reset_net():
    """r1 is a destination and the reset of x: a reset net is a root, so r1
    is in the cone, and x, which nothing reads, is not."""
    analysis = analyze_sources([("t.v", DST_IS_RESET)], A_B7)
    stim = parse_stimulus(STIM)
    eng, events = _edge_case_equals_full(analysis, stim, build_checkers(analysis))
    assert _cell(analysis, "r1").out in eng.observed
    assert _cell(analysis, "x").out not in eng.observed
    assert not eng.decisions_unseen() and events


def test_a_source_whose_hold_lookahead_crosses_a_gated_clock():
    """g, a crossing source, is clocked through a gate: its clock kernel is
    in the cone even with no checker, and hold opportunities arise."""
    analysis = analyze_sources([("t.v", HOLD_THROUGH_GATE)], A_B7)
    stim = parse_stimulus(HOLD_STIM)
    g = _cell(analysis, "g")
    for checkers in ([], build_checkers(analysis)):
        eng, events = _edge_case_equals_full(analysis, stim, checkers)
        assert g.index in eng.clock_cone
        assert _cell(analysis, "gate_ff").out in eng.observed
        kinds = {e.kind for e in eng.run(path=(True,) * 64, waves=False).events}
        assert kinds == {"setup", "hold"} and events


# q1, the destination, edges on a clock that gate_ff gates and is reset
# with rst_b_n, which the stimulus asserts mid-run
GATED_DST = _HEAD.replace("output q);", "input gate_en, output q);") + """\
  reg s, gate_ff, q1, q2;
  wire gclk;
  assign gclk = clk_b & gate_ff;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) s <= 1'b0; else s <= ~s;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) gate_ff <= 1'b0; else gate_ff <= gate_en;
  always @(posedge gclk or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= s; q2 <= q1; end
  assign q = q2;
endmodule
"""
GATED_DST_STIM = ("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nat clk_a 2 set gate_en 1\n"
                  "at clk_a 8 set gate_en 0\nat clk_a 11 set gate_en 1\n"
                  "at clk_a 14 set rst_b_n 0\nat clk_a 18 set rst_b_n 1\nrun 24 of clk_a\n")


def test_a_destination_outside_the_cone_that_its_reset_and_clock_gate_hold():
    """q1 is outside the cone of stability:cdc0, which samples the source,
    but its gated clock and its reset, both roots, decide whether it edges,
    and so its opportunities."""
    analysis = analyze_sources([("t.v", GATED_DST)], A_B7)
    stim = parse_stimulus(GATED_DST_STIM)
    q1 = _cell(analysis, "q1")
    checkers = build_checkers(analysis, select=["stability"])
    assert [c.id for c in checkers] == ["stability:cdc0"]
    eng, events = _edge_case_equals_full(analysis, stim, checkers)
    assert q1.out not in eng.observed and q1.index in eng.clock_cone and events
    assert q1.index in {flop for flop, *_rest in eng.view.resets}


def test_a_destination_that_is_its_domains_declared_reset():
    """q1, a destination, is declared the reset of domain B: each checker
    that samples on clk_b reads it, so it is in the cone."""
    analysis = analyze_sources([("t.v", SYNC)], A_B7 + "reset q1 -domain B\n")
    stim = parse_stimulus(STIM)
    checkers = build_checkers(analysis, select=["stability"])
    assert [c.clocks for c in checkers] == [("clk_b",)]
    eng, events = _edge_case_equals_full(analysis, stim, checkers)
    assert _cell(analysis, "q1").out in eng.observed and events


# -- the cone's size on the benchmark's generated designs ----------------------

@pytest.mark.parametrize("purpose, nets, gates, flops", [
    ("explore", (208, 924), (38, 422), (84, 352)),
    ("sim", (1302, 1998), (1088, 1488), (152, 384)),
])
def test_cone_size_on_generated_designs(purpose, nets, gates, flops):
    """Seed 1 of the designs and checkers the benchmark runs: the cone
    holds (in the cone, in the design) nets, gates and flops."""
    gen = load_gen()
    if purpose == "sim":
        d = gen.build("sim", 1, 8, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
        select = list(gen.SIM_CHECKERS)
    else:
        d = gen.build("explore", 1, 8, purpose="explore", run_edges=4, gray_sources=2)
        select = list(gen.EXPLORE_CHECKERS)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    eng = Engine(analysis, parse_stimulus(d.files["stimulus.stim"]), MsiConfig(),
                 build_checkers(analysis, select=select))
    cells = analysis.netlist.cells

    def count(kind):
        of = [c for c in cells if isinstance(c, kind)]
        return sum(c.out in eng.observed for c in of), len(of)

    assert (len(eng.observed), len(analysis.netlist.nets)) == nets
    assert count(Gate) == gates and count(Dff) == flops
