"""The engine equals `ReferenceEngine` (oracles.py), the per-tick engine it
replaced, in lockstep: at every tick both plan the same opportunities, and
with the same decisions, random or all taken, both inject the same events
and reach the same state.  The engine re-evaluates only the gates that the
tick's clocks or the input ports reach, the reference every gate.  The
engine keeps its flip history as recent (tick, flipped bits) entries, the
reference as the last flip tick of each bit; the two are compared through
the flips that a later tick can read."""

import random

import pytest

from cdckit.checkers import build_checkers
from cdckit.pipeline import analyze_sources
from cdckit.sim import Engine, MsiConfig
from cdckit.stimulus import parse_stimulus
from conftest import load_gen
from oracles import ReferenceEngine, reference_simulate, run_waves
from test_sim import AB, RESET_THROUGH_LOGIC


def engine_flips(hist, horizon: int) -> dict[tuple[int, int], int]:
    """{(net, bit): last flip tick} of the flips at ticks >= `horizon` in the
    engine's history, (tick, flipped bits) entries newest first."""
    out: dict[tuple[int, int], int] = {}
    for net, entries in hist.items():
        for t, flipped in entries:
            if t >= horizon:
                for bit in range(flipped.bit_length()):
                    if flipped >> bit & 1:
                        out.setdefault((net, bit), t)
    return out


def reference_flips(hist, horizon: int) -> dict[tuple[int, int], int]:
    """The same map from the reference's last flip tick per bit."""
    return {(net, bit): t for net, ticks in hist.items()
            for bit, t in enumerate(ticks) if t >= horizon}


def assert_same_state(eng, state, ref_state, tick: int):
    """The states after `tick` are equal in every part, the flip history in
    the flips that the ticks after it can read."""
    assert state.values == ref_state.values, tick
    assert state.checkers == ref_state.checkers, tick
    assert state.failures == ref_state.failures, tick
    assert state.decisions == ref_state.decisions, tick
    assert state.hist.keys() == ref_state.hist.keys(), tick
    horizon = tick + 1 - eng.setup_window
    assert engine_flips(state.hist, horizon) == \
        reference_flips(ref_state.hist, horizon), tick


def lockstep(analysis, stimulus, seed: int, all_taken: bool = False,
             select=None) -> dict[str, int]:
    """Run both engines tick by tick from the same seed and compare them
    after every tick.  The random stimulus ports draw from one generator
    per engine, seeded alike, and the decisions from a third.  Returns
    counts of what the run exercised."""
    def engine(cls):
        checkers = build_checkers(analysis, latency=[("*", 1, 3)], select=select)
        return cls(analysis, stimulus, MsiConfig(seed=seed), checkers)

    eng, ref = engine(Engine), engine(ReferenceEngine)
    assert eng.agenda == ref.agenda
    assert eng.edges_per_clock == ref.edges_per_clock
    ports, ref_ports = random.Random(seed), random.Random(seed)
    decide = random.Random(seed + 1000)
    # both evaluate every net, the reference every gate in each pass
    state, ref_state = eng.initial_state(True), ref.initial_state()
    assert _gates_run(ref.full_view, (ref.full_view.groups.full,)) == \
        len(analysis.netlist.comb_topo())
    assert_same_state(eng, state, ref_state, eng.agenda[0] - 1)
    seen = {"opportunities": 0, "hold": 0, "events": 0, "skipped": 0,
            "history": 0}
    for tick in eng.agenda:
        plan = eng.plan_tick(state, tick, ports)
        ref_plan = ref.plan_tick(ref_state, tick, ref_ports)
        assert plan.opps == ref_plan.opps, tick
        assert [d.index for d in plan.dsts] == ref_plan.dsts, tick
        k = len(plan.opps)
        decisions = [True] * k if all_taken else [decide.random() < 0.5 for _ in range(k)]
        state, events = eng.commit_tick(state, plan, decisions)
        ref_state, ref_events = ref.commit_tick(ref_state, ref_plan, decisions)
        assert events == ref_events, tick
        assert_same_state(eng, state, ref_state, tick)
        seen["history"] = max(seen["history"], *map(len, state.hist.values()), 0)
        seen["opportunities"] += k
        seen["hold"] += sum(o.kind == "hold" for o in plan.opps)
        seen["events"] += len(events)
        seen["skipped"] += len(ref.flops_at[tick]) - len(ref_plan.base)
    return seen


def _corpus_with_stimulus(corpus_root):
    return sorted(p.name for p in corpus_root.iterdir()
                  if p.is_dir() and (p / "stimulus.stim").exists())


def test_lockstep_on_every_corpus_case(corpus_root, case_loader):
    cases = _corpus_with_stimulus(corpus_root)
    assert len(cases) > 20
    total = {"opportunities": 0, "hold": 0, "events": 0, "skipped": 0,
             "history": 0}
    for case in cases:
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        for seed in (1, 2, 3):
            for key, n in lockstep(analysis, stim, seed).items():
                total[key] += n
        lockstep(analysis, stim, 1, all_taken=True)
    assert all(total.values()), total


def test_corpus_lockstep_covers_a_gated_flop_whose_clock_does_not_rise(case_loader):
    """codegen_full, one of the corpus cases run in lockstep above, has a
    gated flop whose root clock edges while its gate holds the clock low."""
    analysis, stim_text = case_loader("codegen_full")
    eng = Engine(analysis, parse_stimulus(stim_text), MsiConfig(), [])
    state, still = eng.initial_state(True), 0
    assert len(eng.clock_cone) == 1
    gated = next(iter(eng.clock_cone))
    for tick in eng.agenda:
        plan = eng.plan_tick(state, tick)
        if gated in plan.edges.gated and not eng._rises(gated, plan.vals0):
            still += 1
        state, _ = eng.commit_tick(state, plan, [False] * len(plan.opps))
    assert still


def _gates_run(view, kernels) -> int:
    """The gates that `kernels` of the engine view `view` run; its full
    pass runs all of them."""
    size = {kernel: n for _sig, _gates, kernels, sizes in view.groups.groups
            for kernel, n in zip(kernels, sizes)}
    size[view.groups.full] = sum(size.values())
    return sum(map(size.__getitem__, kernels))


def _generated(purpose: str):
    gen = load_gen()
    if purpose == "sim":
        d = gen.build("sim", 1, 8, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
        select = list(gen.SIM_CHECKERS)
    else:
        d = gen.build("explore", 1, 8, purpose="explore", run_edges=4, gray_sources=2)
        select = list(gen.EXPLORE_CHECKERS)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    return analysis, parse_stimulus(d.files["stimulus.stim"]), select


def test_generated_sim_design_runs_partial_passes():
    """Each edge set's pass, and the port drive's, in the view of every net
    that the lockstep below runs the engine in, runs fewer gates than the
    full pass the reference runs, so the lockstep compares them."""
    analysis, stim, _select = _generated("sim")
    view = Engine(analysis, stim, MsiConfig(), []).full_view
    full = len(analysis.netlist.comb_topo())
    runs = {_gates_run(view, edges.comb) for edges in view.edge_set.values()}
    assert len(runs) > 1 and max(runs) < full, (runs, full)
    assert 0 < _gates_run(view, view.port_comb) < full


@pytest.mark.parametrize("purpose", ["sim", "explore"])
def test_lockstep_on_generated_designs(purpose):
    analysis, stim, select = _generated(purpose)
    seen = lockstep(analysis, stim, 1, select=select)
    assert seen["events"], seen
    lockstep(analysis, stim, 2, all_taken=True, select=select)


# q1 and q3 capture only while a bit of the crossing source enables them;
# q1's data reads the source too.  The destination clock's period is prime
# to the source's, so captures meet source flips both before (setup) and
# after (hold) the edge.
ENABLED_DST = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg [1:0] src;
  reg [1:0] q1;
  reg q3;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) src <= 2'b00; else src <= {src[0], ~src[1]};
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 2'b00; q3 <= 1'b0; end
    else begin
      if (src[0]) q1 <= src ^ q1;
      if (src[1]) q3 <= ~q3;
    end
  assign q = q1[1] ^ q3;
endmodule
"""
# The reset port of domain A is the crossing source: stimulus moves it one
# tick after some destination edges, inside the hold window.
PORT_SOURCE = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg q1, q2;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= rst_a_n; q2 <= q1; end
  assign q = q2;
endmodule
"""
A_B7 = """clock clk_a -period 10 -domain A
clock clk_b -period 7 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""


def test_lockstep_on_an_enabled_destination_reading_its_source():
    analysis = analyze_sources([("t.v", ENABLED_DST)], A_B7)
    assert {(p.dst_name, p.pin) for p in analysis.pairs} == {
        ("q1", "data"), ("q1", "enable"), ("q3", "enable")}
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 40 of clk_a\n")
    for seed in (1, 2, 3):
        seen = lockstep(analysis, stim, seed)
        assert seen["hold"] and seen["events"], seen
    lockstep(analysis, stim, 1, all_taken=True)


# req's next value reads ack2 through a gate, so at a clk_b edge that moves
# ack2 one tick before a clk_a edge, the hold lookahead for req -> ack1 must
# re-evaluate the gates that the edging clk_b flops reach.
REQ_ACK = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg req, ack1, ack2;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) req <= 1'b0; else req <= ~ack2;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin ack1 <= 1'b0; ack2 <= 1'b0; end
    else begin ack1 <= req; ack2 <= ack1; end
  assign q = ack2;
endmodule
"""


def test_lockstep_on_a_source_whose_next_value_reads_the_destination_domain():
    analysis = analyze_sources([("t.v", REQ_ACK)], A_B7)
    assert {(p.src_name, p.dst_name) for p in analysis.pairs} == {
        ("req", "ack1"), ("ack2", "req")}
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 80 of clk_a\n")
    for seed in (1, 2, 3):
        assert lockstep(analysis, stim, seed)["hold"]
    lockstep(analysis, stim, 1, all_taken=True)


def test_a_bit_two_pairs_take_on_one_source_net_is_injected_once():
    """q1's data and enable pairs (cdc0, cdc1) both read `src`: at
    probability 1.0 both take each of its shared bits, and the capture and
    every event see that bit inverted once."""
    analysis = analyze_sources([("t.v", ENABLED_DST)], A_B7)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 40 of clk_a\n")
    eng = Engine(analysis, stim, MsiConfig(probability=1.0), [])
    state, shared = eng.initial_state(), 0
    for tick in eng.agenda:
        plan = eng.plan_tick(state, tick)
        state, events = eng.commit_tick(state, plan, [True] * len(plan.opps))
        takers: dict[tuple[int, int, int], int] = {}
        for opp, event in zip(plan.opps, events, strict=True):
            assert event.resolved == (plan.post[opp.src_net] >> opp.bit & 1) ^ 1, tick
            key = (opp.dst, opp.src_net, opp.bit)
            takers[key] = takers.get(key, 0) + 1
        shared += sum(n > 1 for n in takers.values())
    assert shared
    q1 = analysis.netlist.net_index["q1"]
    run = eng.run()
    assert run_waves(run)[q1] != run_waves(reference_simulate(analysis, stim))[q1]


def test_lockstep_on_a_port_source_inside_a_hold_window():
    analysis = analyze_sources([("t.v", PORT_SOURCE)], A_B7)
    assert [(p.src_name, p.dst_name) for p in analysis.pairs] == [("rst_a_n", "q1")]
    # clk_b edges at 49, one tick before rst_a_n falls at clk_a edge 5
    stim = parse_stimulus("at clk_a 0 set rst_b_n 1\nat clk_a 2 set rst_a_n 1\n"
                          "at clk_a 5 set rst_a_n 0\nat clk_a 9 set rst_a_n 1\n"
                          "run 12 of clk_a\n")
    for seed in (1, 2):
        assert lockstep(analysis, stim, seed)["hold"]
    lockstep(analysis, stim, 1, all_taken=True)


def test_lockstep_on_a_reset_asserted_through_logic():
    analysis = analyze_sources([("t.v", RESET_THROUGH_LOGIC)], AB)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "at clk_a 6 set rst_b_n 0\nat clk_a 6 set d 1\n"
                          "run 10 of clk_a\n")
    for seed in (1, 2):
        assert lockstep(analysis, stim, seed)["skipped"]
    lockstep(analysis, stim, 1, all_taken=True)


WINDOWS = "option setup_window 3\noption hold_window 2\n"


def _with_windows(corpus_root, case: str):
    d = corpus_root / case
    return analyze_sources([(str(d / "rtl.v"), (d / "rtl.v").read_text())],
                           (d / "constraints.cdc").read_text() + WINDOWS)


def test_lockstep_on_every_corpus_case_with_wider_windows(corpus_root):
    """A setup window of 3 ticks and a hold window of 2: a tick reads the
    flips of the three ticks up to it, and the lookahead sees two ticks."""
    total = {"opportunities": 0, "hold": 0, "events": 0, "skipped": 0,
             "history": 0}
    for case in _corpus_with_stimulus(corpus_root):
        analysis = _with_windows(corpus_root, case)
        stim = parse_stimulus((corpus_root / case / "stimulus.stim").read_text())
        for seed in (1, 2):
            for key, n in lockstep(analysis, stim, seed).items():
                total[key] += n
        lockstep(analysis, stim, 1, all_taken=True)
    assert all(total.values()), total


# A Johnson counter on a clock of period 2 crosses into a clock of period 7:
# with a setup window of 3, the counter's flip history holds the entries of
# its last two edges, which flipped different bits, and an update drops the
# older one only once no later tick can read it.
FAST_SOURCE = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg [1:0] cnt;
  reg [1:0] s1, s2;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) cnt <= 2'b00; else cnt <= {cnt[0], ~cnt[1]};
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin s1 <= 2'b00; s2 <= 2'b00; end
    else begin s1 <= cnt; s2 <= s1; end
  assign q = s2[1];
endmodule
"""
A2_B7 = """clock clk_a -period 2 -domain A
clock clk_b -period 7 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""
FAST_STIMULUS = "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 60 of clk_a\n"


def test_lockstep_on_histories_of_several_entries():
    analysis = analyze_sources([("t.v", FAST_SOURCE)], A2_B7 + WINDOWS)
    stim = parse_stimulus(FAST_STIMULUS)
    for seed in (1, 2, 3):
        seen = lockstep(analysis, stim, seed)
        assert seen["history"] == 2 and seen["hold"] and seen["events"], seen
    lockstep(analysis, stim, 1, all_taken=True)
    # with the default windows an update keeps only its own entry
    analysis = analyze_sources([("t.v", FAST_SOURCE)], A2_B7)
    assert lockstep(analysis, stim, 1)["history"] == 1


def _flips_outside_scan(analysis, stimulus, name: str) -> int:
    """Ticks at which the 1-bit crossing source `name` flips though neither
    the edging flops nor the input ports reach it: only a reset moves it."""
    net = analysis.netlist.net_index[name]
    eng = Engine(analysis, stimulus, MsiConfig(), [])
    state, flips = eng.initial_state(), 0
    for tick in eng.agenda:
        plan = eng.plan_tick(state, tick)
        state, _ = eng.commit_tick(state, plan, [False] * len(plan.opps))
        if net not in plan.edges.scan_driven and state.hist[net][:1] == ((tick, 1),):
            flips += 1
    return flips


# s, a crossing source of domain B, is reset through logic by kill, a flop
# of domain A: a clk_a edge that sets kill resets s in the commit's settle,
# on a tick whose edging flops reach no net of domain B.
RESET_FROM_OTHER_DOMAIN = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg kill, s, d1, d2;
  wire rs;
  assign rs = rst_b_n & ~kill;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) kill <= 1'b0; else kill <= ~kill;
  always @(posedge clk_b or negedge rs)
    if (!rs) s <= 1'b0; else s <= ~s;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) begin d1 <= 1'b0; d2 <= 1'b0; end
    else begin d1 <= s; d2 <= d1; end
  assign q = d2;
endmodule
"""


def test_lockstep_on_a_source_reset_by_another_domains_edge():
    analysis = analyze_sources([("t.v", RESET_FROM_OTHER_DOMAIN)], A_B7)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 40 of clk_a\n")
    assert _flips_outside_scan(analysis, stim, "s")
    for seed in (1, 2):
        lockstep(analysis, stim, seed)
    lockstep(analysis, stim, 1, all_taken=True)


# p falling asserts rs, the reset of s, for the tick's port drive alone: the
# clk_a edge of that tick sets f, which releases rs before the commit, so
# only the plan's reset settle moves s, on a tick whose edging flops and
# port drive reach no net of domain B.
RESET_PULSE = """
module top(input clk_a, input clk_b, input p, output q);
  reg f, s, d1, d2;
  wire rs;
  assign rs = p | f;
  always @(posedge clk_a) f <= ~p;
  always @(posedge clk_b or negedge rs)
    if (!rs) s <= 1'b0; else s <= ~s;
  always @(posedge clk_a) begin d1 <= s; d2 <= d1; end
  assign q = d2;
endmodule
"""


def test_lockstep_on_a_source_reset_by_a_port_pulse():
    analysis = analyze_sources([("t.v", RESET_PULSE)],
                               "clock clk_a -period 10 -domain A\n"
                               "clock clk_b -period 7 -domain B\n")
    stim = parse_stimulus("at clk_a 0 set p 1\n" + "".join(
        f"at clk_a {k} set p 0\nat clk_a {k + 1} set p 1\n" for k in range(3, 40, 3))
        + "run 42 of clk_a\n")
    assert _flips_outside_scan(analysis, stim, "s")
    for seed in (1, 2):
        lockstep(analysis, stim, seed)
    lockstep(analysis, stim, 1, all_taken=True)


# Four crossing sources into clk_b (period 7): s on clk_a (period 10, prime
# to 7, so its next edge after a capture lands 1 to 10 ticks later), f on
# clk_f (period 3, at most the widest hold window below), g on clk_a gated
# by gate_ff, and the reset port rst_a_n.  The stimulus twice sets p to the
# value it holds, on a tick where it moves nothing else, and asserts and
# releases both resets mid-run.
PHASES = """
module top(input clk_a, input clk_f, input clk_b, input rst_a_n, input rst_b_n,
           input p, input gate_en, output q);
  reg s, g, gate_ff;
  reg [1:0] f;
  reg qs1, qs2, qg1, qg2, qp1, qp2;
  reg [1:0] qf1, qf2;
  wire gclk;
  assign gclk = clk_a & gate_ff;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) begin s <= 1'b0; gate_ff <= 1'b0; end
    else begin s <= ~s ^ p; gate_ff <= gate_en; end
  always @(posedge clk_f or negedge rst_a_n)
    if (!rst_a_n) f <= 2'b00; else f <= {f[0], ~f[1]};
  always @(posedge gclk) g <= ~g;
  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin
      qs1 <= 1'b0; qs2 <= 1'b0; qg1 <= 1'b0; qg2 <= 1'b0;
      qp1 <= 1'b0; qp2 <= 1'b0; qf1 <= 2'b00; qf2 <= 2'b00;
    end else begin
      qs1 <= s; qs2 <= qs1; qg1 <= g; qg2 <= qg1;
      qp1 <= rst_a_n; qp2 <= qp1; qf1 <= f; qf2 <= qf1;
    end
  assign q = qs2 ^ qg2 ^ qp2 ^ qf2[1];
endmodule
"""
PHASES_CLOCKS = """clock clk_a -period 10 -domain A
clock clk_f -period 3 -domain F
clock clk_b -period 7 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""
PHASES_STIMULUS = """at clk_a 0 set rst_a_n 1
at clk_a 0 set rst_b_n 1
at clk_a 2 set gate_en 1
at clk_a 3 set p 1
at clk_a 5 set p 1
at clk_a 6 set gate_en 0
at clk_a 7 set p 0
at clk_a 9 set gate_en 1
at clk_a 11 set p 0
at clk_a 12 set rst_a_n 0
at clk_a 13 set rst_b_n 0
at clk_a 19 set rst_a_n 1
at clk_a 19 set rst_b_n 1
at clk_a 21 set p 1
run 30 of clk_a
"""


@pytest.mark.parametrize("hold", [0, 1, 3])
def test_lockstep_on_source_clocks_at_the_edge_of_the_hold_window(hold):
    """Per hold window: each source flop has a hold opportunity from an edge
    exactly `hold` ticks after the capture, and the reset port one too (no
    source has any when the window is 0); a set of a port to its own value,
    the resets and the gated source run in lockstep with the reference."""
    analysis = analyze_sources([("t.v", PHASES)],
                               PHASES_CLOCKS + f"option hold_window {hold}\n")
    assert {p.src_name for p in analysis.pairs} == {"s", "f", "g", "rst_a_n"}
    stim = parse_stimulus(PHASES_STIMULUS)
    eng = Engine(analysis, stim, MsiConfig(), [])
    # the ticks from a capture to the next edge of each source
    edges = {n: [c.edge_tick(k) for k in range(eng.end_tick // c.period + 2)]
             for n, (f, *_) in eng.src_flop.items()
             for c in (eng.clocks[eng.flop_root[f.index]],)}
    edges.update((n, [t for t, _v in sched]) for n, sched in eng.port_schedule.items())
    ahead: dict[str, set[int]] = {}
    state = eng.initial_state()
    for tick in eng.agenda:
        plan = eng.plan_tick(state, tick)
        for o in plan.opps:
            if o.kind == "hold":
                ahead.setdefault(analysis.netlist.nets[o.src_net].name, set()).add(
                    min(t for t in edges[o.src_net] if t > tick) - tick)
        state, _ = eng.commit_tick(state, plan, [False] * len(plan.opps))
    if hold == 0:
        assert ahead == {}
    else:
        assert ahead.keys() == {"s", "f", "g", "rst_a_n"}, ahead
        assert all(hold in ahead[n] for n in "sfg"), ahead
    for seed in (1, 2):
        seen = lockstep(analysis, stim, seed)
        assert seen["skipped"] and seen["events"], seen
    lockstep(analysis, stim, 1, all_taken=True)


def test_lockstep_on_a_stamped_hierarchy():
    """The `hier-ties` design of scripts/output_digests.py, whose repeated
    modules the elaborator stamps, with its inputs toggling at random."""
    from test_elaborate import HIER_TIES
    analysis = analyze_sources([("rtl.v", HIER_TIES)],
                               "clock clk -period 10 -domain A\n"
                               "clock clk_b -period 7 -domain B\n")
    stim = parse_stimulus("random -ports d,e -p 0.4 -seed 1\nrun 60 of clk\n")
    for seed in (1, 2):
        assert lockstep(analysis, stim, seed)["events"]
    lockstep(analysis, stim, 3, all_taken=True)
