import pytest

from cdckit.elaborate import elaborate
from cdckit.errors import (ElabError, MultipleDrivers, PortWidthMismatch,
                           RecursiveInstantiation, UnresolvedModule)
from cdckit.netlist import BlackBox, Dff, Gate
from cdckit.pipeline import (analyze_sources, findings_report, pairs_report,
                             syncs_report)
from cdckit.verilog import parse_verilog
from oracles import count_dffs_recursive

SYNC2 = """
module sync2(input clk, input rst_n, input d, output q);
  reg q1, q2;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= d; q2 <= q1; end
  end
  assign q = q2;
endmodule
"""


def test_identity_elaboration():
    mods = parse_verilog(
        "module top(input clk, input d, output reg q);\n"
        "  always @(posedge clk) q <= d;\nendmodule\n")
    nl = elaborate(mods, "top")
    assert len([c for c in nl.cells if isinstance(c, Dff)]) == 1
    assert {"clk", "d", "q"} <= set(nl.net_index)


def test_two_instances_of_sync2():
    mods = parse_verilog(SYNC2 + """
module top(input clk_b, input rst_n, input a, input b, output qa, output qb);
  sync2 s0(.clk(clk_b), .rst_n(rst_n), .d(a), .q(qa));
  sync2 s1(.clk(clk_b), .rst_n(rst_n), .d(b), .q(qb));
endmodule
""")
    nl = elaborate(mods, "top")
    names = sorted(c.name for c in nl.cells if isinstance(c, Dff))
    assert names == ["s0.q1", "s0.q2", "s1.q1", "s1.q2"]


def test_diamond_hierarchy_matches_recursive_count_oracle():
    text = """
module d(input clk, input x, output reg y);
  always @(posedge clk) y <= x;
endmodule
module b(input clk, input x, output y);
  reg r1, r2;
  always @(posedge clk) begin r1 <= x; r2 <= r1; end
  d d0(.clk(clk), .x(r2), .y(y));
endmodule
module c(input clk, input x, output y);
  reg r;
  always @(posedge clk) r <= x;
  d d0(.clk(clk), .x(r), .y(y));
  d d1(.clk(clk), .x(r), .y());
endmodule
module a(input clk, input x, output y1, output y2);
  b b0(.clk(clk), .x(x), .y(y1));
  c c0(.clk(clk), .x(x), .y(y2));
endmodule
"""
    mods = parse_verilog(text)
    nl = elaborate(mods, "a")
    got = len([cell for cell in nl.cells if isinstance(cell, Dff)])
    assert got == count_dffs_recursive(mods, "a")


def test_net_merge_keeps_topmost_name():
    mods = parse_verilog(SYNC2 + """
module top(input clk_b, input rst_n, input a, output qa);
  sync2 s0(.clk(clk_b), .rst_n(rst_n), .d(a), .q(qa));
endmodule
""")
    nl = elaborate(mods, "top")
    clk = nl.net("clk_b")
    assert clk.name == "clk_b"
    assert "s0.clk" in clk.aliases
    assert nl.net("s0.clk") is clk


def test_unresolved_module_error_and_blackbox_mode():
    mods = parse_verilog(
        "module top(input clk, input x, output q);\n"
        "  wire y;\n  mystery u0(.i(x), .o(y));\n  assign q = y;\nendmodule\n")
    with pytest.raises(UnresolvedModule):
        elaborate(mods, "no_such_top")
    nl = elaborate(mods, "top")
    box = next(c for c in nl.cells if isinstance(c, BlackBox))
    assert box.module == "mystery"
    assert len(box.outs) == 1 and len(box.inputs) == 1


def test_recursive_instantiation():
    mods = parse_verilog(
        "module a(input clk); b b0(.clk(clk)); endmodule\n"
        "module b(input clk); a a0(.clk(clk)); endmodule\n")
    with pytest.raises(RecursiveInstantiation):
        elaborate(mods, "a")


def test_port_width_mismatch():
    mods = parse_verilog(
        "module w2(input [1:0] x, output [1:0] y); assign y = x; endmodule\n"
        "module top(input a, output z);\n"
        "  wire q;\n  w2 u(.x(a), .y(q));\n  assign z = q;\nendmodule\n")
    with pytest.raises(PortWidthMismatch):
        elaborate(mods, "top")


def test_multiple_drivers_rejected_at_build():
    mods = parse_verilog(
        "module top(input a, input b, output w);\n"
        "  assign w = a;\n  assign w = b;\nendmodule\n")
    with pytest.raises(MultipleDrivers):
        elaborate(mods, "top")


def test_enable_arm_becomes_enable_pin():
    mods = parse_verilog(
        "module top(input clk, input en, input d, output reg q);\n"
        "  always @(posedge clk) begin if (en) q <= d; end\nendmodule\n")
    nl = elaborate(mods, "top")
    flop = next(c for c in nl.cells if isinstance(c, Dff))
    assert flop.enable is not None
    assert nl.nets[flop.enable].name == "en"
    assert nl.nets[flop.data].name == "d"


def test_mux_expression_stays_explicit():
    mods = parse_verilog(
        "module top(input clk, input s, input a, input b, output reg q);\n"
        "  always @(posedge clk) q <= s ? a : b;\nendmodule\n")
    nl = elaborate(mods, "top")
    flop = next(c for c in nl.cells if isinstance(c, Dff))
    drv = nl.nets[flop.data].driver
    gate = nl.cells[drv[1]]
    assert isinstance(gate, Gate) and gate.op == "MUX"


def test_reset_values_captured():
    mods = parse_verilog(
        "module top(input clk, input rst_n, input [3:0] d, output reg [3:0] q);\n"
        "  always @(posedge clk or negedge rst_n) begin\n"
        "    if (!rst_n) q <= 4'h9;\n    else q <= d;\n  end\nendmodule\n")
    nl = elaborate(mods, "top")
    flop = next(c for c in nl.cells if isinstance(c, Dff))
    assert flop.reset_value == 9
    assert flop.reset_active_low


def test_determinism():
    mods = parse_verilog(SYNC2 + """
module top(input clk_b, input rst_n, input a, output qa);
  sync2 s0(.clk(clk_b), .rst_n(rst_n), .d(a), .q(qa));
endmodule
""")
    a = elaborate(mods, "top").to_json_dict()
    b = elaborate(parse_verilog(SYNC2 + """
module top(input clk_b, input rst_n, input a, output qa);
  sync2 s0(.clk(clk_b), .rst_n(rst_n), .d(a), .q(qa));
endmodule
"""), "top").to_json_dict()
    assert a == b


def test_one_operand_concat_is_its_operand():
    """`{a}` on a crossing path elaborates to `a`: same pairs, synchronizers
    and findings, where a one-input CONCAT gate used to hide the sync."""
    rtl = """
module top(input clk_a, input clk_b, input d, output q);
  reg a, s1, s2;
  wire y;
  always @(posedge clk_a) a <= d;
  assign y = %s;
  always @(posedge clk_b) begin s1 <= y; s2 <= s1; end
  assign q = s2;
endmodule
"""
    cons = "clock clk_a -period 10 -domain A\nclock clk_b -period 14 -domain B\n"
    reports = []
    for expr in ("a", "{a}"):
        analysis = analyze_sources([("rtl.v", rtl % expr)], cons)
        reports.append((pairs_report(analysis), syncs_report(analysis),
                        findings_report(analysis)))
    assert reports[0] == reports[1]
    assert len(reports[0][0]["pairs"]) == 1 and len(reports[0][1]["syncs"]) == 1


def test_one_operand_concat_keeps_width_rules():
    for body, error in (("assign y = {1};", ElabError),
                        ("assign y = {a};", PortWidthMismatch)):
        mods = parse_verilog(f"module top(input [1:0] a, output y);\n  {body}\nendmodule\n")
        with pytest.raises(error):
            elaborate(mods, "top")
