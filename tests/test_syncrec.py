import pytest

from cdckit.pipeline import analyze_sources
from cdckit.syncrec import recognize
from conftest import corpus_designs, generated_designs
from oracles import reference_recognize

AB = """clock clk_a -period 10 -domain A
clock clk_b -period 10 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""


def _analyze(rtl, cons=AB):
    return analyze_sources([("t.v", rtl)], cons)


CHAIN3 = """
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0; else src <= d;
  end
  reg q1, q2, q3;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; q3 <= 1'b0; end
    else begin q1 <= src; q2 <= q1; q3 <= q2; end
  end
  assign q = q3;
endmodule
"""


def test_textbook_two_flop(case_loader):
    analysis, _ = case_loader("missing_sync_clean")
    assert [(s.kind, s.depth) for s in analysis.syncs] == [("ndff", 2)]
    s = analysis.syncs[0]
    assert analysis.netlist.cells[s.head].name == "q1"
    assert s.protected == ("cdc0",)


def test_first_stage_fanout_disqualifies():
    a = _analyze("""
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q, output leak);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0; else src <= d;
  end
  reg q1, q2;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= src; q2 <= q1; end
  end
  assign q = q2;
  assign leak = q1;
endmodule
""")
    assert a.syncs == []
    assert a.status["cdc0"].state == "unsynchronized"


def test_maximality_three_chain_is_one_instance():
    a = _analyze(CHAIN3)
    assert [(s.kind, s.depth) for s in a.syncs] == [("ndff", 3)]


def test_min_depth_option():
    a = _analyze(CHAIN3, AB + "option ndff_min_depth 4\n")
    assert a.syncs == []


def test_member_disjointness_and_idempotence(case_loader):
    analysis, _ = case_loader("codegen_full")
    seen = set()
    for s in analysis.syncs:
        if s.kind == "ndff":
            assert not (set(s.members) & seen)
            seen |= set(s.members)
    again = recognize(analysis.netlist, analysis.domains, analysis.pairs,
                      analysis.constraints)
    assert [(s.id, s.kind, s.members) for s in again] == \
        [(s.id, s.kind, s.members) for s in analysis.syncs]


def test_pulse_and_fifo_absorb_their_chains(case_loader):
    analysis, _ = case_loader("codegen_full")
    kinds = sorted(s.kind for s in analysis.syncs)
    # composite instances swallow their chains; the two plain ndffs are the
    # one-bit crossing and the gray-coded bus, nothing from pulse/mux/fifo
    assert kinds == ["fifo", "mux", "ndff", "ndff", "pulse"]
    ndff_heads = {analysis.netlist.cells[s.head].name
                  for s in analysis.syncs if s.kind == "ndff"}
    assert ndff_heads == {"q1", "gs1"}


def test_pulse_members(case_loader):
    analysis, _ = case_loader("wide_pulse")
    inst = analysis.syncs[0]
    assert inst.kind == "pulse"
    names = sorted(analysis.netlist.cells[m].name for m in inst.members)
    # chain stages, delay stage, the toggle flop, and the recombining xor
    assert [n for n in names if not n.startswith("__")] == ["q1", "q2", "q3", "tgl"]
    assert any("xor" in n for n in names)


def test_fifo_roles(case_loader):
    analysis, _ = case_loader("async_fifo")
    inst = next(s for s in analysis.syncs if s.kind == "fifo")
    assert inst.extra["write_ptr"] == "wgray"
    assert inst.extra["read_ptr"] == "rgray"
    assert inst.extra["ptr_width"] == 3
    assert inst.extra["depth"] == 4


def test_fifo_roles_without_guard(case_loader):
    analysis, _ = case_loader("async_fifo_bug")
    inst = next(s for s in analysis.syncs if s.kind == "fifo")
    assert inst.extra["write_ptr"] == "wgray"


USER_SYNC = """
module magic_sync(input clk, input rst_n, input d, output q);
  reg m1, m2;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin m1 <= 1'b0; m2 <= 1'b0; end
    else begin m1 <= d; m2 <= m1; end
  end
  assign q = m2;
endmodule
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0; else src <= d;
  end
  magic_sync u0(.clk(clk_b), .rst_n(rst_b_n), .d(src), .q(q));
endmodule
"""


def test_user_defined_sync_cells():
    a = _analyze(USER_SYNC, AB + "sync_cells magic_sync\n")
    kinds = {s.kind for s in a.syncs}
    assert "user" in kinds
    user = next(s for s in a.syncs if s.kind == "user")
    assert a.status["cdc0"].state == "synchronized"
    assert a.status["cdc0"].sync_id == user.id


def test_classification_statuses(case_loader):
    analysis, _ = case_loader("comb_on_cdc")
    for p in analysis.pairs:
        st = analysis.status[p.id]
        assert st.state == "unsynchronized" and st.comb_disqualified

    clean, _ = case_loader("missing_sync_clean")
    assert clean.status["cdc0"].state == "synchronized"
    assert clean.status["cdc0"].sync_kind == "ndff"

    raw, _ = case_loader("missing_sync")
    assert raw.status["cdc0"].state == "unsynchronized"
    assert not raw.status["cdc0"].comb_disqualified

    suppressed, _ = case_loader("static_not_constrained_clean")
    assert suppressed.status["cdc0"].state == "suppressed"
    assert suppressed.status["cdc0"].reason == "static"


def test_classification_is_total(case_loader):
    for name in ("codegen_full", "mux_sync", "async_fifo"):
        analysis, _ = case_loader(name)
        assert set(analysis.status) == {p.id for p in analysis.pairs}


def _generated_designs():
    return generated_designs(blocks=(1, 3, 6), seeds=(1, 2, 3))


# Matcher corner cases: an enable through NOT (c1), a second capture on an
# already used select chain (c2), a mux with no feedback arm (c3), a select
# chain from another domain (c4), a feedback arm through SLICE (c5), and a
# pulse whose XOR is not the tail's first reader, pairing with the later of
# two delay stages.
MATCHER_CORNERS = """module top(input clk_a, input clk_b, input clk_c, input rst_a_n, input rst_b_n,
           input rst_c_n, input [3:0] din, input en_in, input pulse_in, input x,
           output [3:0] o1, output [3:0] o2, output [3:0] o3, output [3:0] o4, output [3:0] o5,
           output p_out, output other, output p_late);
  reg [3:0] bus;
  reg en_a;
  reg tgl;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) begin bus <= 4'h0; en_a <= 1'b0; tgl <= 1'b0; end
    else begin bus <= din; en_a <= en_in; tgl <= tgl ^ pulse_in; end
  end
  reg e1, e2, g1, g2, h1, h2;
  reg [3:0] c1, c2, c3, c4, c5;
  reg f1, f2;
  always @(posedge clk_c or negedge rst_c_n) begin
    if (!rst_c_n) begin f1 <= 1'b0; f2 <= 1'b0; end
    else begin f1 <= en_a; f2 <= f1; end
  end
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) begin
      e1 <= 1'b0; e2 <= 1'b0; g1 <= 1'b0; g2 <= 1'b0; h1 <= 1'b0; h2 <= 1'b0;
      c1 <= 4'h0; c2 <= 4'h0; c3 <= 4'h0; c4 <= 4'h0; c5 <= 4'h0;
    end else begin
      e1 <= en_a;
      e2 <= e1;
      g1 <= en_a;
      g2 <= g1;
      h1 <= en_a;
      h2 <= h1;
      if (~e2) c1 <= bus;
      c2 <= e2 ? bus : c2;
      c3 <= h2 ? bus : din;
      c5 <= g2 ? bus : c5[3:0];
      c4 <= f2 ? bus : c4;
    end
  end
  reg q1, q2, q3, q3b;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; q3 <= 1'b0; q3b <= 1'b0; end
    else begin q1 <= tgl; q2 <= q1; q3 <= q2; q3b <= q2; end
  end
  assign other = q2 & x;
  assign p_late = q3;
  assign p_out = q2 ^ q3b;
  assign o1 = c1;
  assign o2 = c2;
  assign o3 = c3;
  assign o4 = c4;
  assign o5 = c5;
endmodule
"""

ABC = AB + """clock clk_c -period 14 -domain C
reset rst_c_n -active_low -domain C
"""

NESTED_USER_SYNC = """module inner_sync(input clk, input rst_n, input d, output q);
  reg m1, m2;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin m1 <= 1'b0; m2 <= 1'b0; end
    else begin m1 <= d; m2 <= m1; end
  end
  assign q = m2;
endmodule
module outer_sync(input clk, input rst_n, input d, output q);
  wire w;
  reg o1;
  inner_sync i0(.clk(clk), .rst_n(rst_n), .d(d), .q(w));
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) o1 <= 1'b0; else o1 <= w;
  end
  assign q = o1;
endmodule
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d,
           output q, output q2);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0; else src <= d;
  end
  outer_sync u0(.clk(clk_b), .rst_n(rst_b_n), .d(src), .q(q));
  inner_sync u1(.clk(clk_b), .rst_n(rst_b_n), .d(src), .q(q2));
endmodule
"""


def _fifo_parts(t: str, guard_extra: str = "", read_guard: bool = True) -> dict[str, str]:
    """Gray pointers of a 4-entry async fifo between clk_w and clk_r, with
    names ending in `_t`: the pointer logic, and the always blocks of its two
    synchronizer chains.  `guard_extra` is appended to the full flag; without
    `read_guard` the read pointer ignores the empty flag."""
    n = {k: f"{k}_{t}" for k in ("wg", "rg", "wq1", "wq2", "rq1", "rq2", "wb", "wn",
                                "rb", "rn", "fd", "ed", "full", "empty")}
    logic = """  reg [2:0] {wg}, {rg}, {wq1}, {wq2}, {rq1}, {rq2};
  wire [2:0] {wb}, {wn}, {rb}, {rn}, {fd}, {ed};
  wire {full}, {empty};
  assign {wb} = {{{wg}[2:2], {wg}[2:2] ^ {wg}[1:1], ({wg}[2:2] ^ {wg}[1:1]) ^ {wg}[0:0]}};
  assign {wn} = {{{wb}[2:2] ^ ({wb}[1:1] & {wb}[0:0]), {wb}[1:1] ^ {wb}[0:0], ~{wb}[0:0]}};
  assign {rb} = {{{rg}[2:2], {rg}[2:2] ^ {rg}[1:1], ({rg}[2:2] ^ {rg}[1:1]) ^ {rg}[0:0]}};
  assign {rn} = {{{rb}[2:2] ^ ({rb}[1:1] & {rb}[0:0]), {rb}[1:1] ^ {rb}[0:0], ~{rb}[0:0]}};
  assign {fd} = {wg} ^ {{~{wq2}[2:2], ~{wq2}[1:1], {wq2}[0:0]}};
  assign {full} = ~({fd}[2:2] | {fd}[1:1] | {fd}[0:0]){guard};
  assign {ed} = {rg} ^ {rq2};
  assign {empty} = ~({ed}[2:2] | {ed}[1:1] | {ed}[0:0]);
  always @(posedge clk_w) if (we & ~{full}) {wg} <= {{{wn}[2:2], {wn}[2:2] ^ {wn}[1:1], {wn}[1:1] ^ {wn}[0:0]}};
  always @(posedge clk_r) if (re{rguard}) {rg} <= {{{rn}[2:2], {rn}[2:2] ^ {rn}[1:1], {rn}[1:1] ^ {rn}[0:0]}};
""".format(guard=guard_extra, rguard=f" & ~{n['empty']}" if read_guard else "", **n)
    return {"logic": logic,
            "wsync": "  always @(posedge clk_w) begin {wq1} <= {rg}; {wq2} <= {wq1}; end\n"
                     .format(**n),
            "rsync": "  always @(posedge clk_r) begin {rq1} <= {wg}; {rq2} <= {rq1}; end\n"
                     .format(**n)}


# Three fifos between the same two domains.  Fifo a's full flag also reads
# fifo b's synced read pointer, so a's write pointer is coupled to both read
# pointers.  Chain order makes it the first candidate, and b's read pointer
# the first coupled one, so the greedy pairing takes (wg_a, rg_b) and leaves
# rg_a and wg_b to plain ndff chains.  Fifo c pairs past two uncoupled
# candidates, and only its later candidate (wg_c) reads the other's synced
# copy, because its read side has no empty guard.
_FA, _FB = _fifo_parts("a", " | wq2_b[0:0]"), _fifo_parts("b")
_FC = _fifo_parts("c", read_guard=False)
THREE_FIFOS = (
    "module top(input clk_w, input clk_r, input we, input re, output [2:0] o);\n"
    + _FA["logic"] + _FB["logic"] + _FC["logic"]
    + _FA["rsync"] + _FB["wsync"] + _FA["wsync"] + _FB["rsync"]
    + _FC["wsync"] + _FC["rsync"]
    + "  assign o = wg_a ^ rg_b ^ wg_c;\nendmodule\n")
WR = "clock clk_w -period 10 -domain W\nclock clk_r -period 14 -domain R\n"


def test_fifo_pointers_pair_greedily_in_candidate_order():
    a = _analyze(THREE_FIFOS, WR)
    got = [(s.kind, sorted(a.netlist.cells[m].name for m in s.members))
           for s in a.syncs]
    assert got == [
        ("ndff", ["rq1_b", "rq2_b"]),
        ("ndff", ["wq1_a", "wq2_a"]),
        ("fifo", ["rg_b", "rq1_a", "rq2_a", "wg_a", "wq1_b", "wq2_b"]),
        ("fifo", ["rg_c", "rq1_c", "rq2_c", "wg_c", "wq1_c", "wq2_c"]),
    ]


def _inline_designs():
    yield "chain3", CHAIN3, AB
    yield "user", USER_SYNC, AB + "sync_cells magic_sync\n"
    yield "nested-user", NESTED_USER_SYNC, \
        AB + "sync_cells inner_sync\nsync_cells outer_sync\n"
    yield "matcher-corners", MATCHER_CORNERS, ABC
    yield "three-fifos", THREE_FIFOS, WR


def _fields(inst):
    return (inst.id, inst.kind, inst.members, inst.head, inst.tail, inst.depth,
            inst.dst_domain, inst.protected, inst.role, inst.extra)


@pytest.mark.parametrize("designs", [_inline_designs, corpus_designs,
                                     _generated_designs],
                         ids=["inline", "corpus", "generated"])
def test_recognize_matches_reference(designs):
    n_syncs = 0
    for name, rtl, cons in designs():
        a = _analyze(rtl, cons)
        ref = reference_recognize(a.netlist, a.domains, a.pairs, a.constraints)
        assert [_fields(s) for s in a.syncs] == [_fields(s) for s in ref], name
        n_syncs += len(ref)
    assert n_syncs > 0
