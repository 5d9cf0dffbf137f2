import pytest

from cdckit.errors import StimulusOutOfRange
from cdckit.pipeline import analyze_sources
from cdckit.sim import MsiConfig, reference_simulate, simulate
from cdckit.stimulus import parse_stimulus
from oracles import gray_neighbor_sets

AB = """clock clk_a -period 10 -domain A
clock clk_b -period 10 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""

CONST_ONE = """
module top(input clk_a, input rst_a_n, output q);
  wire one;
  assign one = 1'b1;
  reg r;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) r <= 1'b0;
    else r <= one;
  end
  assign q = r;
endmodule
"""


def _analyze(rtl, cons=AB):
    return analyze_sources([("t.v", rtl)], cons)


def test_constant_input_flop():
    a = _analyze(CONST_ONE, "clock clk_a -period 10 -domain A\n"
                            "reset rst_a_n -active_low -domain A\n")
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nrun 5 of clk_a\n")
    res = reference_simulate(a, stim)
    wave = res.waves[a.netlist.net("r").index]
    assert wave[0][1] == 0          # reset value
    assert wave[-1] == (0, 1)       # rises at the first edge, stays 1


def test_two_dff_pipeline_depth(case_loader):
    analysis, stim_text = case_loader("missing_sync_clean")
    stim = parse_stimulus(stim_text)
    res = reference_simulate(analysis, stim)
    nl = analysis.netlist
    w = {n: res.waves[nl.net(n).index] for n in ("src", "q1", "q2")}
    # src rises at edge 2 (tick 20); the crossing capture at the same tick
    # sees the new value, and the second stage follows one edge later
    assert (20, 1) in w["src"]
    assert (20, 1) in w["q1"]
    assert (30, 1) in w["q2"]


def test_reference_determinism(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    r1 = reference_simulate(analysis, stim)
    r2 = reference_simulate(analysis, stim)
    assert r1.waves == r2.waves


def test_msi_off_equals_reference_everywhere(corpus_root, case_loader):
    for case in sorted(p.name for p in corpus_root.iterdir() if p.is_dir()):
        analysis, stim_text = case_loader(case)
        if not stim_text:
            continue
        stim = parse_stimulus(stim_text)
        ref = reference_simulate(analysis, stim)
        off = simulate(analysis, stim, MsiConfig(enabled=False), [])
        assert off.waves == ref.waves, case
        assert off.events == [] and off.coverage.total() == 0, case


def test_pure_setup_delay_regime():
    a = _analyze("""
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output o);
  reg src, dst;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0;
    else src <= ~src;
  end
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) dst <= 1'b0;
    else dst <= src;
  end
  assign o = dst;
endmodule
""")
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 12 of clk_b\n")
    ref = reference_simulate(a, stim)
    msi = simulate(a, stim, MsiConfig(probability=1.0, seed=5), [])
    dst_net = a.netlist.net("dst").index
    rw = ref.waves[dst_net]
    mw = msi.waves[dst_net]
    shifted = {(t + 10, v) for t, v in rw}
    assert all((t, v) in shifted for t, v in mw if t >= 0)
    assert all(e.kind == "setup" for e in msi.events)


def test_seed_reproducibility(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    r1 = simulate(analysis, stim, MsiConfig(probability=0.5, seed=42), [])
    r2 = simulate(analysis, stim, MsiConfig(probability=0.5, seed=42), [])
    assert r1.events == r2.events
    assert r1.waves == r2.waves
    assert r1.coverage.to_json() == r2.coverage.to_json()
    r3 = simulate(analysis, stim, MsiConfig(probability=0.5, seed=43), [])
    assert r3.events != r1.events


def test_every_resolution_is_old_or_new(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    res = simulate(analysis, stim, MsiConfig(probability=0.7, seed=9), [])
    src_net = analysis.pairs[0].src_net
    wave = dict()
    timeline = res.waves[src_net]

    def src_at(t):
        v = timeline[0][1]
        for tt, vv in timeline:
            if tt <= t:
                v = vv
            else:
                break
        return v

    for e in res.events:
        # the resolved bit is the complement of the post-edge source bit for
        # setup (old value) and for hold (the upcoming toggle): both in {0,1}
        assert e.resolved in (0, 1)
        cur = (src_at(e.tick) >> e.bit) & 1
        assert e.resolved == cur ^ 1 or e.kind == "hold"


def test_displacement_bound_one_bit(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    ref = reference_simulate(analysis, stim)
    msi = simulate(analysis, stim, MsiConfig(probability=0.5, seed=11), [])
    nl = analysis.netlist
    dst = nl.cells[analysis.pairs[0].dst]
    spec = analysis.constraints.clock_by_name("clk_b")

    def captures(res):
        out = []
        timeline = res.waves[dst.out]
        k = 0
        for i in range(res.edge_counts["clk_b"]):
            t = spec.edge_tick(i)
            v = timeline[0][1]
            for tt, vv in timeline:
                if tt <= t:
                    v = vv
                else:
                    break
            out.append(v)
        return out

    r = captures(ref)
    m = captures(msi)
    for i in range(1, len(r) - 1):
        assert m[i] in (r[i], r[i - 1], r[i + 1])


def test_coverage_counts_equal_event_log(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=42), [])
    recount = {}
    for e in res.events:
        key = (e.pair, e.bit, f"{'setup' if e.kind == 'setup' else 'hold'}{e.resolved}")
        recount[key] = recount.get(key, 0) + 1
    for (pair, bit, name), n in recount.items():
        assert res.coverage.count(pair, bit, name) == n
    assert res.coverage.total() == len(res.events)


def test_hold_events_only_with_near_edges(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)
    res = simulate(analysis, stim, MsiConfig(probability=1.0, seed=1), [])
    # coincident 10/10 clocks never present a hold window of one tick
    assert res.events and all(e.kind == "setup" for e in res.events)


def test_gray_sampling_stays_on_neighbor_codewords(case_loader):
    analysis, stim_text = case_loader("gray_cross")
    stim = parse_stimulus(stim_text)
    nl = analysis.netlist
    pair = analysis.pairs[0]
    dst = nl.cells[pair.dst]
    spec = analysis.constraints.clock_by_name("clk_b")
    for seed in range(1, 4):
        res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=seed), [])
        neighbors = gray_neighbor_sets(res.waves[pair.src_net])
        timeline = res.waves[dst.out]
        v = timeline[0][1]
        k = 0
        for i in range(300):
            t = spec.edge_tick(i)
            while k < len(timeline) and timeline[k][0] <= t:
                v = timeline[k][1]
                k += 1
            assert v in neighbors(t), (seed, t, v)


def test_binary_sampling_escapes_neighbors(case_loader):
    analysis, stim_text = case_loader("binary_cross")
    stim = parse_stimulus(stim_text)
    nl = analysis.netlist
    pair = analysis.pairs[0]
    dst = nl.cells[pair.dst]
    spec = analysis.constraints.clock_by_name("clk_b")
    res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=7), [])
    neighbors = gray_neighbor_sets(res.waves[pair.src_net])
    timeline = res.waves[dst.out]
    v = timeline[0][1]
    k = 0
    bad = 0
    for i in range(1000):
        t = spec.edge_tick(i)
        while k < len(timeline) and timeline[k][0] <= t:
            v = timeline[k][1]
            k += 1
        if v not in neighbors(t):
            bad += 1
    assert bad > 0


def test_stimulus_validation(case_loader):
    analysis, _ = case_loader("missing_sync")
    with pytest.raises(StimulusOutOfRange):
        simulate(analysis, parse_stimulus("at clk_a 0 set nosuch 1\nrun 5 of clk_a\n"),
                 MsiConfig(), [])
    with pytest.raises(StimulusOutOfRange):
        simulate(analysis, parse_stimulus("at clk_a 90 set d 1\nrun 5 of clk_a\n"),
                 MsiConfig(), [])
    with pytest.raises(StimulusOutOfRange):
        simulate(analysis, parse_stimulus("run 5 of clk_zz\n"), MsiConfig(), [])


def test_random_driver_is_seeded(case_loader):
    analysis, _ = case_loader("missing_sync")
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "random -ports d -p 0.4 -seed 3\nrun 40 of clk_b\n")
    r1 = reference_simulate(analysis, stim)
    r2 = reference_simulate(analysis, stim)
    assert r1.waves == r2.waves
    assert len(r1.waves[analysis.netlist.net("d").index]) > 2


def test_suppressed_pairs_get_no_injection(case_loader):
    analysis, stim_text = case_loader("static_not_constrained_clean")
    stim = parse_stimulus(stim_text)
    res = simulate(analysis, stim, MsiConfig(probability=1.0, seed=1), [])
    assert res.events == []
    assert res.coverage.total() == 0


RESET_THROUGH_LOGIC = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d,
           output q);
  reg src;
  reg rs1;
  reg rs2;
  wire rq;
  reg q1;
  reg q2;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0;
    else src <= d;
  end
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) begin
      rs1 <= 1'b1;
      rs2 <= 1'b1;
    end else begin
      rs1 <= 1'b0;
      rs2 <= rs1;
    end
  end
  assign rq = ~rs2;
  always @(posedge clk_b or negedge rq) begin
    if (!rq) begin
      q1 <= 1'b0;
      q2 <= 1'b0;
    end else begin
      q1 <= src;
      q2 <= q1;
    end
  end
  assign q = q2;
endmodule
"""


def test_reset_asserted_through_logic_blocks_injection():
    # rst_b_n forces the reset synchronizer rs1/rs2 to 1 at tick 60, which
    # asserts rq = ~rs2 on the next settle pass.  q1 already holds its reset
    # value, yet it is held in reset and must not capture the src change
    # of the same tick, so there is no injection opportunity on cdc0.
    a = _analyze(RESET_THROUGH_LOGIC)
    assert [(p.id, p.src_name, p.dst_name) for p in a.pairs] == [("cdc0", "src", "q1")]
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "at clk_a 6 set rst_b_n 0\nat clk_a 6 set d 1\n"
                          "run 10 of clk_a\n")
    res = simulate(a, stim, MsiConfig(probability=1.0, seed=1), [])
    w = res.wave_by_name(a.netlist)
    assert (60, 1) in w["src"] and (60, 0) in w["rq"]
    assert w["q1"] == [(-(10 ** 9), 0)]
    assert [e for e in res.events if e.tick == 60] == []
