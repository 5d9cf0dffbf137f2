import random

import pytest

from cdckit.constraints import ClockSpec, ConstraintSet, parse_constraints
from cdckit.domains import assign_domains, extract_cdc_pairs, gate_enable
from cdckit.elaborate import elaborate
from cdckit.errors import UndeclaredClock
from cdckit.netlist import Netlist
from cdckit.pipeline import analyze_sources
from cdckit.verilog import parse_verilog
from conftest import corpus_designs, generated_designs
from oracles import (brute_force_pairs, exhaustive_flop_domains, random_netlist,
                     reference_clock_domains, reference_net_domains)

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


# A floating wire, constants alone and mixed with a clocked net, an
# undeclared input port, a declared reset as a mux select, and a black box.
DOMAIN_CORNERS = """module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, input u,
           output [3:0] o);
  reg ra, rb;
  wire floating, k, w1, w2, w3, w4, bo;
  always @(posedge clk_a) ra <= d;
  always @(posedge clk_b) rb <= ra;
  assign k = 1'b1 & 1'b0;
  assign w1 = ra & k;
  assign w2 = floating | k;
  assign w3 = (rb ^ w1) & u;
  assign w4 = rst_a_n ? bo : w2;
  mystery u0(.i(w3), .o(bo));
  assign o = {w1, w2, w3, w4};
endmodule
"""


def _inline_designs():
    yield "domain-corners", DOMAIN_CORNERS, AB


@pytest.mark.parametrize("designs", [_inline_designs, corpus_designs,
                                     generated_designs],
                         ids=["inline", "corpus", "generated"])
def test_net_domains_equal_reference(designs):
    for name, rtl, cons in designs():
        a = _analyze(rtl, cons)
        assert a.domains.net_domain == reference_net_domains(a.netlist, a.domains), name


def test_net_domains_equal_reference_on_random_designs():
    kinds = set()
    for seed in range(30):
        rng = random.Random(300 + seed)
        nl, clock_domains = random_netlist(rng, n_flops=8 + seed % 6,
                                           n_gates=20 + seed % 15,
                                           n_domains=1 + seed % 3)
        cs = ConstraintSet(clocks=[
            ClockSpec(name, 10, 0, dom) for name, dom in sorted(clock_domains.items())])
        dm = assign_domains(nl, cs)
        assert dm.net_domain == reference_net_domains(nl, dm), seed
        kinds |= {"constant" if nd.constant
                  else "unclocked" if nd.unclocked and not nd.domains
                  else "mixed" if nd.unclocked or len(nd.domains) > 1
                  else "single" for nd in dm.net_domain.values()}
    assert kinds == {"single", "mixed", "unclocked"}


def test_assign_domains_walks_only_clock_cones(monkeypatch):
    walked = []
    fanin_cone = Netlist.fanin_cone

    def recording(self, net_idx):
        walked.append(net_idx)
        return fanin_cone(self, net_idx)

    monkeypatch.setattr(Netlist, "fanin_cone", recording)
    designs = {name: (rtl, cons) for name, rtl, cons
               in [*corpus_designs(), *generated_designs(blocks=(3,))]}
    for name in ("gated_clock_glitch", "async_fifo", "blackbox", "hier3-s1"):
        rtl, cons = designs[name]
        modules = parse_verilog(rtl)
        inner = {i.module for m in modules for i in m.instances}
        nl = elaborate(modules, next(m.name for m in modules if m.name not in inner))
        walked.clear()
        assign_domains(nl, parse_constraints(cons))
        assert walked and set(walked) <= {f.clock for f in nl.dffs()}, name


# Clock cones that `assign_domains` rejects or that several flops share: a
# gated clock shared by three flops, a bad clock net shared by three flops
# after a good one, a black box on a clock path, and two declared clocks
# reaching one flop through a gate.
CLOCK_CASES = {
    "shared-gated-clock": """
module top(input clk_a, input clk_b, input en, input d, output q);
  wire gclk;
  reg e, r0, r1, r2, s;
  always @(posedge clk_a) e <= en;
  assign gclk = clk_a & e;
  always @(posedge gclk) begin r0 <= d; r1 <= r0; r2 <= r1; end
  always @(posedge clk_b) s <= r2;
  assign q = s;
endmodule
""",
    "shared-bad-clock": """
module top(input clk_a, input clk_b, input clk_x, input d, output q);
  reg r0, r1, r2, r3;
  always @(posedge clk_a) r0 <= d;
  always @(posedge clk_x) begin r1 <= r0; r2 <= r1; r3 <= r2; end
  assign q = r3;
endmodule
""",
    "blackbox-clock": """
module top(input clk_a, input clk_b, input d, output q);
  wire gclk;
  reg r0, r1, r2;
  always @(posedge clk_b) r0 <= d;
  mystery u0(.i(clk_a), .o(gclk));
  always @(posedge gclk) begin r1 <= r0; r2 <= r1; end
  assign q = r2;
endmodule
""",
    "two-clocks": """
module top(input clk_a, input clk_b, input en, input d, output q);
  wire gclk, hclk;
  reg r0, r1, r2;
  assign hclk = clk_a & en;
  always @(posedge hclk) r0 <= d;
  assign gclk = hclk ^ clk_b;
  always @(posedge gclk) begin r1 <= r0; r2 <= r1; end
  assign q = r2;
endmodule
""",
}


def _clock_outcome(judge, nl: Netlist, cs: ConstraintSet):
    try:
        return judge(nl, cs)
    except UndeclaredClock as e:
        return str(e)


def _assigned(nl: Netlist, cs: ConstraintSet):
    dm = assign_domains(nl, cs)
    return dm.flop_domain, dm.clock_root, dm.gate_notes


def test_clock_domains_equal_the_per_flop_reference():
    cons = "clock clk_a -period 10 -domain A\nclock clk_b -period 7 -domain B\n"
    designs = [(name, rtl, cons) for name, rtl in CLOCK_CASES.items()]
    designs += [*corpus_designs(), *generated_designs(blocks=(1, 6), seeds=(1, 2))]
    rejected = []
    for name, rtl, cs_text in designs:
        modules = parse_verilog(rtl)
        inner = {i.module for m in modules for i in m.instances}
        nl = elaborate(modules, next(m.name for m in modules if m.name not in inner))
        cs = parse_constraints(cs_text)
        got = _clock_outcome(_assigned, nl, cs)
        assert got == _clock_outcome(reference_clock_domains, nl, cs), name
        if isinstance(got, str):
            rejected.append((name, got))
        elif name == "shared-gated-clock":
            assert [n.flop for n in got[2]] == ["r0", "r1", "r2"]
    assert rejected == [
        ("shared-bad-clock", "clock of flop 'r1' does not resolve to exactly one "
                             "declared clock (cone reaches ['clk_x'])"),
        ("blackbox-clock", "clock of flop 'r1' does not resolve to exactly one "
                           "declared clock (cone reaches ['u0'])"),
        ("two-clocks", "clock of flop 'r1' does not resolve to exactly one "
                       "declared clock (cone reaches ['en', 'clk_a', 'clk_b'])"),
    ]
