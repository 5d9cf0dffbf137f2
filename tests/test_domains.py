import random

import pytest

from cdckit.constraints import ClockSpec, ConstraintSet
from cdckit.domains import assign_domains, extract_cdc_pairs, gate_enable
from cdckit.errors import UndeclaredClock
from cdckit.pipeline import analyze_sources
from oracles import brute_force_pairs, exhaustive_flop_domains, random_netlist

AB = """clock clk_a -period 10 -domain A
clock clk_b -period 10 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""


def _analyze(rtl, cons=AB):
    return analyze_sources([("t.v", rtl)], cons)


def test_single_flop_domain():
    a = _analyze("""
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg r;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) r <= 1'b0; else r <= d;
  end
  assign q = r;
endmodule
""")
    flop = a.netlist.dffs()[0]
    assert a.domains.flop_domain[flop.index] == "A"


def test_gated_clock_keeps_root_domain():
    a = _analyze("""
module top(input clk_a, input rst_a_n, input en, input d, output q);
  reg en_ff;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) en_ff <= 1'b0; else en_ff <= en;
  end
  wire gclk;
  assign gclk = clk_a & en_ff;
  reg r;
  always @(posedge gclk) r <= d;
  assign q = r;
endmodule
""", "clock clk_a -period 10 -domain A\nreset rst_a_n -active_low -domain A\n")
    nl = a.netlist
    flop = next(f for f in nl.dffs() if f.name == "r")
    assert a.domains.flop_domain[flop.index] == "A"
    assert a.domains.clock_root[flop.index] == "clk_a"
    note = next(n for n in a.domains.gate_notes if n.flop == "r")
    assert nl.cells[note.gate].out == flop.clock
    assert note.root == nl.net_index["clk_a"]
    assert gate_enable(nl, note, []) == nl.net_index["en_ff"]


def test_undeclared_clock_is_an_error():
    with pytest.raises(UndeclaredClock):
        _analyze("""
module top(input clk_a, input clk_x, input d, output reg q);
  always @(posedge clk_x) q <= d;
endmodule
""", "clock clk_a -period 10 -domain A\n")


def test_random_designs_match_exhaustive_clock_search():
    for seed in range(10):
        rng = random.Random(100 + seed)
        nl, clock_domains = random_netlist(rng, n_flops=20, n_gates=15,
                                           n_domains=2)
        cs = ConstraintSet(clocks=[
            ClockSpec(name, 10 + 2 * i, 0, dom)
            for i, (name, dom) in enumerate(sorted(clock_domains.items()))])
        dm = assign_domains(nl, cs)
        oracle = exhaustive_flop_domains(nl, clock_domains)
        assert dm.flop_domain == oracle


def test_direct_pair_and_same_domain_exclusion():
    a = _analyze("""
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg sa, partner, db;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) begin sa <= 1'b0; partner <= 1'b0; end
    else begin sa <= d; partner <= sa; end
  end
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) db <= 1'b0;
    else db <= sa;
  end
  assign q = db;
endmodule
""")
    assert [(p.src_name, p.dst_name, p.pin) for p in a.pairs] == \
        [("sa", "db", "data")]
    assert a.pairs[0].path == ()


def test_pairs_never_share_domains():
    analysis = _analyze("""
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg s, t;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) s <= 1'b0; else s <= d;
  end
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) t <= 1'b0; else t <= s;
  end
  assign q = t;
endmodule
""")
    for p in analysis.pairs:
        assert p.src_domain != p.dst_domain


def test_false_path_suppression_is_marked_not_dropped(case_loader):
    analysis, _ = case_loader("static_not_constrained_clean")
    assert len(analysis.pairs) == 1
    assert analysis.pairs[0].suppressed == "static"


def test_extraction_matches_brute_force_on_random_designs():
    mismatches = 0
    designs = 0
    for seed in range(25):
        rng = random.Random(1000 + seed)
        nl, clock_domains = random_netlist(
            rng, n_flops=10 + seed % 8, n_gates=20 + seed % 10,
            n_domains=2 + seed % 2)
        assert len(nl.cells) <= 100
        cs = ConstraintSet(clocks=[
            ClockSpec(name, 10, 0, dom)
            for name, dom in sorted(clock_domains.items())])
        dm = assign_domains(nl, cs)
        pairs = extract_cdc_pairs(nl, dm, cs)
        got = {(p.src_name, p.dst_name, p.pin) for p in pairs}
        port_domains = {p_.index: clock_domains[p_.name]
                        for p_ in nl.ports if p_.name in clock_domains}
        want = brute_force_pairs(nl, dm.flop_domain, port_domains)
        designs += 1
        if got != want:
            mismatches += 1
    assert designs >= 25 and mismatches == 0


def test_rdc_extraction(case_loader):
    analysis, _ = case_loader("missing_rdc_sync")
    assert len(analysis.rdc_pairs) == 1
    rp = analysis.rdc_pairs[0]
    assert (rp.src_name, rp.dst_name) == ("soft_rst_n", "dst")
    assert (rp.src_domain, rp.dst_domain) == ("A", "B")


def test_rdc_same_domain_reset_is_not_a_pair():
    a = _analyze("""
module top(input clk_b, input rst_b_n, input d, output q);
  reg r;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) r <= 1'b0; else r <= d;
  end
  assign q = r;
endmodule
""", "clock clk_b -period 10 -domain B\nreset rst_b_n -active_low -domain B\n")
    assert a.rdc_pairs == []


def test_pair_ids_stable_across_runs(case_loader, corpus_root):
    a1, _ = case_loader("codegen_full")
    case = corpus_root / "codegen_full"
    a2 = analyze_sources([(str(case / "rtl.v"), (case / "rtl.v").read_text())],
                         (case / "constraints.cdc").read_text())
    assert [(p.id, p.src_name, p.dst_name) for p in a1.pairs] == \
        [(p.id, p.src_name, p.dst_name) for p in a2.pairs]
