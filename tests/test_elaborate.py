import importlib.util
from pathlib import Path
from unittest import mock

import hypothesis
import pytest

from cdckit.elaborate import _Elaborator, elaborate
from cdckit.errors import (ElabError, MultipleDrivers, PortWidthMismatch,
                           RecursiveInstantiation, UnresolvedModule)
from cdckit.netlist import BlackBox, Dff, Gate
from cdckit.pipeline import (analyze_sources, findings_report, pairs_report,
                             syncs_report)
from cdckit.verilog import parse_verilog
from conftest import corpus_designs, generated_designs, hier_sources, load_gen
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


# -- stamped module bodies ------------------------------------------------------

_spec = importlib.util.spec_from_file_location(
    "output_digests", Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py")
_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_digests)
HIER_TIES = _digests.HIER_TIES


def _outcome(mods, top: str):
    """The elaborated netlist as JSON, or the type and message of the
    error that rejects it."""
    try:
        return elaborate(mods, top).to_json_dict()
    except ElabError as e:
        return type(e).__name__, str(e)


def _unstamped(mods, top: str):
    """`_outcome` with every module counted as expanded once, so no body is
    recorded and every instance is lowered from its module's text."""
    with mock.patch.object(_Elaborator, "expansions",
                           lambda self, order: dict.fromkeys(order, 1)):
        return _outcome(mods, top)


def _top(mods) -> str:
    instantiated = {i.module for m in mods for i in m.instances}
    [top] = [m.name for m in mods if m.name not in instantiated]
    return top


def _stamp_designs():
    """(name, rtl.v text) of the corpus, generated hier and flat designs,
    the benchmark's simulation and exploration designs, and `hier-ties`."""
    for name, rtl, _cons in corpus_designs():
        yield name, rtl
    for name, rtl, _cons in generated_designs(blocks=(1, 2, 3, 5, 8, 24)):
        yield name, rtl
    gen = load_gen()
    for seed in (1, 2, 3):
        yield f"sim-s{seed}", gen.build("sim", seed, 8, block=gen.SIM_BLOCK, purpose="sim",
                                        run_edges=30).files["rtl.v"]
        yield f"explore-s{seed}", gen.build("explore", seed, 8, purpose="explore",
                                            run_edges=4, gray_sources=2).files["rtl.v"]
    yield "hier-ties", HIER_TIES


def test_stamped_bodies_elaborate_as_every_instance_lowered_again():
    stamped = 0
    for name, rtl in _stamp_designs():
        mods = parse_verilog(rtl, "rtl.v")
        top = _top(mods)
        got = _outcome(mods, top)
        assert isinstance(got, dict), (name, got)
        assert got == _unstamped(mods, top), name
        stamped += name.startswith(("hier", "sim", "explore"))
    assert stamped == 13


@hypothesis.given(hier_sources())
@hypothesis.settings(max_examples=150, deadline=None)
def test_stamped_bodies_elaborate_as_drawn_hierarchies_lowered_again(rtl):
    mods = parse_verilog(rtl, "rtl.v")
    assert _outcome(mods, "top") == _unstamped(mods, "top")


def _recorded(rtl: str) -> set[str]:
    mods = parse_verilog(rtl)
    elab = _Elaborator(mods, _top(mods))
    elab.expand_all()
    return set(elab.bodies)


def test_only_modules_expanded_more_than_once_are_recorded():
    gen = load_gen()
    assert _recorded(gen.build("flat6", 1, 6, shape="flat").files["rtl.v"]) == set()
    hier = gen.build("hier6", 1, 6, shape="hier").files["rtl.v"]
    mods = parse_verilog(hier)
    uses: dict[str, int] = {}
    for m in mods:
        for inst in m.instances:
            uses[inst.module] = uses.get(inst.module, 0) + 1
    assert _recorded(hier) == {name for name, n in uses.items() if n > 1} != set()
    assert _recorded(HIER_TIES) == {"cell", "pair"}
    assert _recorded(_digests._chain(30)) == set()


def test_expansion_counts_multiply_down_the_hierarchy_and_stop_at_two():
    mods = parse_verilog("""
module leaf(input a, output y);
  assign y = a;
endmodule
module once(input a, output y);
  leaf l(.a(a), .y(y));
endmodule
module twice(input a, output y);
  once o(.a(a), .y(y));
endmodule
module top(input a, output y, output z, output w);
  twice t0(.a(a), .y(y));
  twice t1(.a(a), .y(z));
  once o(.a(a), .y(w));
endmodule
""")
    elab = _Elaborator(mods, "top")
    assert elab.expansions(elab.check_acyclic()) == {
        "top": 1, "twice": 2, "once": 2, "leaf": 2}


@pytest.mark.parametrize("levels", [600, 3000])
def test_deep_chains_elaborate_without_recursion(levels):
    analysis = analyze_sources([("rtl.v", _digests._chain(levels))],
                               "clock clk -period 10 -domain A\n"
                               "clock clk_b -period 7 -domain B\n")
    assert len(analysis.netlist.instances) == levels - 1
    assert len(analysis.pairs) == 1


# -- width errors carry the position of their expression -------------------------

SUB = "module sub(input a, output y);\n  assign y = a;\nendmodule\n"


@pytest.mark.parametrize("body, error, message", [
    ("assign w = a;", PortWidthMismatch, "rtl.v:2:14: a is 2 bits, expected 1"),
    ("assign w = 2'd1;", PortWidthMismatch, "rtl.v:2:14: literal is 2 bits, expected 1"),
    ("assign w = {a[0], a[1]};", PortWidthMismatch,
     "rtl.v:2:14: concat is 2 bits, expected 1"),
    ("assign w = a[1:0];", PortWidthMismatch, "rtl.v:2:14: slice is 2 bits, expected 1"),
    ("sub u(.a(1), .y(w));", ElabError,
     "rtl.v:2:12: unsized literal 1 needs a width context in m"),
    ("assign w = {1};", ElabError, "rtl.v:2:15: concat operand needs an explicit width"),
    ("assign w = {a, 1};", ElabError, "rtl.v:2:18: concat operand needs an explicit width"),
    ("wire [1:0] x; assign x = 5;", ElabError, "rtl.v:2:28: literal 5 does not fit in 2 bits"),
    ("sub u(.a(~1), .y(w));", ElabError, "rtl.v:2:13: cannot infer width of '~' operand"),
    ("sub u(.a(1 & 1), .y(w));", ElabError,
     "rtl.v:2:12: cannot infer width of '&' expression"),
    ("sub u(.a(a[0] ? 1 : 0), .y(w));", ElabError,
     "rtl.v:2:12: cannot infer width of conditional expression"),
])
def test_width_errors_name_their_position(body, error, message):
    rtl = f"module m(input clk, input [1:0] a, output w);\n  {body}\nendmodule\n"
    with pytest.raises(error) as e:
        analyze_sources([("rtl.v", rtl), ("sub.v", SUB)], "clock clk -period 10 -domain A\n",
                        top="m")
    assert str(e.value) == message


def test_a_width_error_in_a_repeated_module_names_its_first_instance():
    sub = "module sub(input [1:0] a, output y);\n  assign y = a;\nendmodule\n"
    top = ("module top(input clk, input [1:0] a, output p, output q);\n"
           "  sub u0(.a(a), .y(p));\n  sub u1(.a(a), .y(q));\nendmodule\n")
    with pytest.raises(PortWidthMismatch) as e:
        analyze_sources([("top.v", top), ("sub.v", sub)], "clock clk -period 10 -domain A\n")
    assert str(e.value) == "sub.v:2:14: u0.a is 2 bits, expected 1"
