import random
import re

import hypothesis
import pytest
from hypothesis import strategies as st

from cdckit import verilog
from cdckit.errors import CdcError, DuplicateModule, ParseError, UnsupportedConstruct
from cdckit.verilog import (Binary, Ident, Literal, Ternary, Unary, line_starts,
                            parse_verilog, position, tokenize)
from conftest import corpus_designs, generated_designs
from oracles import expr_idents, reference_check_module, reference_tokenize, to_source

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


def _positioned(text, origin="<input>"):
    """Each token as (kind, text, line, column), its offset looked up in the
    text's line starts."""
    starts = line_starts(text)
    return [(kind, tok, *position(starts, offset))
            for kind, tok, offset in tokenize(text, origin)]


def _tokens_or_error(fn, text):
    try:
        return fn(text, "t.v")
    except ParseError as e:
        return type(e), str(e), e.line, e.column


def _assert_same_tokens(text):
    assert _tokens_or_error(_positioned, text) == _tokens_or_error(reference_tokenize, text)


@pytest.mark.parametrize("designs", [corpus_designs, generated_designs],
                         ids=["corpus", "generated"])
def test_tokenize_equals_reference(designs):
    for name, rtl, _cons in designs():
        assert _positioned(rtl) == reference_tokenize(rtl), name


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


# --- names: the parser against the elaborator's old check -------------------

def _rejection(text):
    """How `parse_verilog` rejects `text`: (message, line, column), or None."""
    try:
        parse_verilog(text, "t.v")
    except ParseError as e:
        return str(e).split(": ", 1)[1], e.line, e.column
    return None


def _reference_rejection(text, monkeypatch):
    """How `reference_check_module` rejects the modules of `text`, parsed
    without the parser's own name check: (message, line) or None, and the
    names read in instance connections, which it does not check."""
    with monkeypatch.context() as m:
        m.setattr(verilog._Parser, "check_names", lambda self, declared, regs: None)
        modules = parse_verilog(text, "t.v")
    conn_names = {name for mod in modules for inst in mod.instances
                  for _port, expr in inst.conns if expr is not None
                  for name in expr_idents(expr)}
    try:
        for mod in modules:
            reference_check_module(mod, text, "t.v")
    except ParseError as e:
        return (str(e).split(": ", 1)[1], e.line), conn_names
    return None, conn_names


def _name_edits(text, rng, renames=6, swaps=4):
    """Seeded single-defect edits of `text`, as (edited text, renamed token
    or None).  A rename gives one identifier use an undeclared name; a swap
    turns one `reg` declaration into a wire, or one wire into a `reg` (an
    output port's `reg` is dropped or added)."""
    tokens = reference_tokenize(text)
    starts = line_starts(text)
    uses, swaps_at = [], []
    in_decl = in_header = False     # in a declaration; in a module header
    for i, (kind, tok, _line, _col) in enumerate(tokens):
        if tok == "module":
            in_decl = in_header = True
        elif kind == "kw" and tok in ("wire", "reg"):
            swaps_at.append((i, "" if in_header else {"wire": "reg", "reg": "wire"}[tok]))
            in_decl = True
        elif tok == "output" and tokens[i + 1][1] != "reg":
            swaps_at.append((i, "output reg"))
        elif tok == ";":
            in_decl = in_header = False
        elif (kind == "id" and not in_decl and tokens[i - 1][1] != "."
              and tokens[i - 1][0] != "id" and tokens[i + 1][0] != "id"):
            uses.append(i)   # not a module, instance or port name

    def edit(i, new):
        _kind, tok, line, col = tokens[i]
        at = starts[line - 1] + col - 1
        return text[:at] + new + text[at + len(tok):]

    for i in rng.sample(uses, min(renames, len(uses))):
        yield edit(i, "nope_"), tokens[i]
    for i, new in rng.sample(swaps_at, min(swaps, len(swaps_at))):
        yield edit(i, new), None


def test_name_check_equals_reference_on_single_defect_edits(monkeypatch):
    edits = rejected = in_conns = 0
    for name, rtl, _cons in (*corpus_designs(), *generated_designs()):
        assert _rejection(rtl) is None, name
        assert _reference_rejection(rtl, monkeypatch)[0] is None, name
        rng = random.Random(name)
        for text, renamed in _name_edits(rtl, rng):
            edits += 1
            got = _rejection(text)
            want, conn_names = _reference_rejection(text, monkeypatch)
            if renamed is not None:     # the renamed use is the one defect
                assert got == ("undeclared identifier 'nope_'", *renamed[2:]), name
            if want is None and renamed is not None:
                # the old check never read instance connections
                assert "nope_" in conn_names, (name, renamed)
                in_conns += 1
                continue
            assert (got is None) == (want is None), (name, text)
            if got is None:
                continue
            rejected += 1
            assert got[:2] == want, name
            named = re.search(r"'(\w+)'", got[0])[1]
            assert ("id", named, got[1], got[2]) in reference_tokenize(text), name
    assert edits > 400 and rejected > 350 and in_conns, (edits, rejected, in_conns)
