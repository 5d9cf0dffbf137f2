import hypothesis
import pytest
from hypothesis import strategies as st

from cdckit.errors import CdcError, DuplicateModule, ParseError, UnsupportedConstruct
from cdckit.verilog import (Binary, Ident, Literal, Ternary, Unary,
                            parse_verilog, tokenize)
from conftest import corpus_designs, generated_designs
from oracles import reference_tokenize, to_source

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


def test_single_dff_module():
    mods = parse_verilog(
        "module m(input clk, input d, output reg q);\n"
        "  always @(posedge clk) q <= d;\nendmodule\n")
    assert len(mods) == 1
    m = mods[0]
    assert m.name == "m"
    assert len(m.always_blocks) == 1
    blk = m.always_blocks[0]
    assert blk.clock == "clk" and blk.reset is None
    assert len(blk.body) == 1
    assert blk.body[0].target == "q"


def test_two_stage_chain_parses():
    m = parse_verilog(SYNC2)[0]
    blk = m.always_blocks[0]
    assert blk.reset == "rst_n" and blk.reset_edge == "negedge"
    # reset arm plus two chained functional assignments are all visible
    top_if = blk.body[0]
    assert len(top_if.then) == 2 and len(top_if.other) == 2
    targets = [s.target for s in top_if.other]
    assert targets == ["q1", "q2"]


def test_initial_block_rejected():
    with pytest.raises(UnsupportedConstruct) as e:
        parse_verilog("module m(input a);\n  initial begin\n  end\nendmodule\n")
    assert e.value.line == 2


@pytest.mark.parametrize("snippet,construct", [
    ("module m(inout a); endmodule", "inout"),
    ("module m(input a); wire w; assign w = #1 a; endmodule", "delay"),
    ("module m(input a); parameter W = 4; endmodule", "parameter"),
    ("module m(input clk, input a, output reg q); always @(posedge clk) q = a; endmodule",
     "blocking"),
    ("module m(input a, output w); assign w = {2{a}}; endmodule", "replication"),
    ("module m(input a); `define X 1\nendmodule", "directive"),
])
def test_out_of_subset_rejected(snippet, construct):
    with pytest.raises(UnsupportedConstruct):
        parse_verilog(snippet)


def test_duplicate_module():
    with pytest.raises(DuplicateModule):
        parse_verilog("module m(input a); endmodule\nmodule m(input a); endmodule\n")


def test_positioned_syntax_error():
    with pytest.raises(ParseError) as e:
        parse_verilog("module m(input a)\n  wire w;\nendmodule\n")
    assert e.value.line in (1, 2)
    assert e.value.expected is not None


def test_expression_precedence():
    m = parse_verilog(
        "module m(input a, input b, input c, output w);\n"
        "  assign w = a | b & c;\nendmodule\n")[0]
    expr = m.assigns[0].expr
    assert isinstance(expr, Binary) and expr.op == "|"
    assert isinstance(expr.rhs, Binary) and expr.rhs.op == "&"


def test_ternary_and_not_lowering():
    m = parse_verilog(
        "module m(input s, input a, input b, output w);\n"
        "  assign w = !s ? a : b;\nendmodule\n")[0]
    expr = m.assigns[0].expr
    assert isinstance(expr, Ternary)
    assert expr.cond == Unary("~", Ident("s"))


def test_sized_literals():
    m = parse_verilog(
        "module m(output [3:0] w);\n  assign w = 4'hA;\nendmodule\n")[0]
    assert m.assigns[0].expr == Literal(10, 4)


@pytest.mark.parametrize("name", ["sync2"])
def test_roundtrip_fixed(name):
    mods = parse_verilog(SYNC2)
    again = parse_verilog(to_source(mods[0]))
    assert again == mods


def test_roundtrip_corpus(corpus_root):
    for case in sorted(corpus_root.iterdir()):
        rtl = case / "rtl.v"
        if not rtl.exists():
            continue
        mods = parse_verilog(rtl.read_text(), str(rtl))
        printed = "\n".join(to_source(m) for m in mods)
        assert parse_verilog(printed) == mods, case.name


@hypothesis.given(st.text(max_size=300))
@hypothesis.settings(max_examples=300, deadline=None)
def test_parser_total_on_arbitrary_text(text):
    try:
        parse_verilog(text)
    except CdcError:
        pass  # positioned diagnostics are the only acceptable failure


@hypothesis.given(st.binary(max_size=200))
@hypothesis.settings(max_examples=200, deadline=None)
def test_parser_total_on_bytes(data):
    try:
        parse_verilog(data.decode("utf-8", errors="replace"))
    except CdcError:
        pass


def _tokens_or_error(fn, text):
    try:
        return [tuple(t) for t in fn(text, "t.v")]
    except ParseError as e:
        return type(e), str(e), e.line, e.column


def _assert_same_tokens(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(reference_tokenize, text)


@pytest.mark.parametrize("designs", [corpus_designs, generated_designs],
                         ids=["corpus", "generated"])
def test_tokenize_equals_reference(designs):
    for name, rtl, _cons in designs():
        assert tokenize(rtl) == reference_tokenize(rtl), name


@pytest.mark.parametrize("text", [
    "", "\n", "a", "a\n", "  a  b\n\n c", "a // c", "a // c\nb", "/* x */", "/* x\n\n y */ a",
    "a /* x\n y */ $b", "a\n  /* x\n */ %", "/*", "a\n /* no end\n", "/*/ a */", "/**/",
    "`define X", "x #1", "a\r\nb\r\n", "reg [3:0] q <= 4'hF;", "wire initial;",
    "8'bx1 12_3 q$1", "a\x0bb\x0cc",
])
def test_tokenize_equals_reference_on_edge_texts(text):
    _assert_same_tokens(text)


_PIECES = st.sampled_from([
    "module", "endmodule", "wire", "reg", "always", "begin", "end", "posedge", "or",
    "initial", "parameter", "case", "signed", "a", "q_1", "x$y", "_n", "4'b10_1",
    "8'hFz", "3'd7", "12", "1_000", "<=", "(", ")", "[", "]", "{", "}", ",", ";",
    ":", ".", "=", "@", "?", "~", "!", "&", "|", "^", "`define", "#1", "$display",
    "'", '"', "\\", "%", "-", "*", "/", "<", "\u00e9",
])
_GAPS = st.sampled_from([
    " ", "  \t", "\n", "\n\n", "\r\n", "\n  \n", "// note\n", "// to the end",
    "/* one */", "/* two\n lines */", "/*\n\n*/", "/* unterminated", "/*/",
])


@hypothesis.given(st.lists(st.one_of(_PIECES, _GAPS, st.text(max_size=3)), max_size=40),
                  st.booleans())
@hypothesis.settings(max_examples=400, deadline=None)
def test_tokenize_equals_reference_on_drawn_text(parts, final_newline):
    _assert_same_tokens("".join(parts) + ("\n" if final_newline else ""))
