import random
import re
from collections import Counter

import hypothesis
import pytest
from hypothesis import strategies as st

from cdckit import verilog
from cdckit.elaborate import elaborate
from cdckit.errors import CdcError, DuplicateModule, ParseError, UnsupportedConstruct
from cdckit.pipeline import analyze_sources
from cdckit.verilog import (Binary, Ident, Literal, Ternary, Unary, line_starts,
                            parse_verilog, position, tokenize)
from conftest import corpus_designs, generated_designs
from oracles import (expr_idents, reference_check_module, reference_shape_errors,
                     reference_tokenize, to_source)

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
        analyze_sources([("d.v", "module m(input a); endmodule\nmodule m(input a); endmodule\n")],
                        "")


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
    without the parser's own name and shape checks: (message, line) or
    None, and the names read in instance connections, which it does not
    check."""
    with monkeypatch.context() as m:
        m.setattr(verilog._Parser, "check_names", lambda self, declared, regs: None)
        m.setattr(verilog._Parser, "check_shape", lambda self, widths: None)
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


# --- shapes: the parser against the elaborator's old checks -----------------

def _top(modules):
    inner = {i.module for m in modules for i in m.instances}
    [top] = [m.name for m in modules if m.name not in inner]
    return top


def _shape_rejection(text):
    """How parsing and elaborating `text` rejects it: the message without its
    position, or None."""
    try:
        modules = parse_verilog(text, "t.v")
        elaborate(modules, _top(modules))
    except CdcError as e:
        return re.sub(r"^t\.v:\d+:\d+: ", "", str(e))
    return None


def _reference_shape_errors(text, monkeypatch, top=None):
    """`reference_shape_errors` on the modules of `text`, parsed without the
    parser's own shape check, with the instance paths taken out of the
    messages."""
    with monkeypatch.context() as m:
        m.setattr(verilog._Parser, "check_shape", lambda self, widths: None)
        modules = parse_verilog(text, "t.v")
    return [re.sub(r"\b[\w$]+\.", "", e)
            for e in reference_shape_errors(modules, top or _top(modules))]


SHAPE_EDITS = ("polarity", "reset-width", "reset-literal", "fold-equal", "fold-differ",
               "slice", "conn-twice")


def _shape_edits(text, rng, per_kind=2, conns=12):
    """Seeded single-defect edits of `text`, as (kind, edited text, module of
    the instance whose connection is duplicated, or None).  The kinds: flip
    the polarity of a reset condition; widen a reset to 2 bits; give a reset
    arm's register a reset value that is not a literal (the reset itself);
    wrap a reset arm's assignment `t <= v;` into `if (rst) t <= v; else
    t <= v;`, which folds to `v`, or into `... else t <= t;`, which does not;
    read a name as a slice at its width; connect a port twice (`conns` of
    these, since few designs have instances)."""
    tokens = reference_tokenize(text)
    starts = line_starts(text)

    def at(i):
        return starts[tokens[i][2] - 1] + tokens[i][3] - 1

    def closing(i, open_, close):      # index of the token closing tokens[i]
        depth = 0
        for k in range(i, len(tokens)):
            depth += (tokens[k][1] == open_) - (tokens[k][1] == close)
            if depth == 0:
                return k
        raise AssertionError(text)

    widths = {m.name: m.declared_widths() for m in parse_verilog(text)}
    sites = {kind: [] for kind in SHAPE_EDITS}
    module = start = inst_module = None
    in_decl = False
    for i, (kind, tok, _line, _col) in enumerate(tokens[:-1]):     # not the end token
        prev, nxt = tokens[i - 1], tokens[i + 1]
        if tok == "module":
            module, start, in_decl = tokens[i + 1][1], i, True
        elif tok in ("wire", "reg", "input", "output"):
            in_decl = True
        elif tok == ";":
            in_decl = False
        elif tok == "always" and tokens[i + 5][1] == "or":
            reset = tokens[i + 7][1]
            j = i + 9 + (tokens[i + 9][1] == "begin")
            cond = tokens[j + 2]
            sites["polarity"].append(
                (at(j + 2), 1, "") if cond[1] in ("!", "~") else (at(j + 2), 0, "!"))
            decl = next(k for k in range(start, i) if tokens[k][1] == reset
                        and tokens[k - 1][1] in ("input", "wire", "reg"))
            sites["reset-width"].append((at(decl), 0, "[1:0] "))
            then = closing(j + 1, "(", ")") + 1
            end = closing(then, "begin", "end") if tokens[then][1] == "begin" else then + 3
            for k in range(then, end):
                if (tokens[k + 1][0] == "nba" and tokens[k + 2][0] in ("sized", "number")
                        and tokens[k + 3][1] == ";"):
                    t, v = tokens[k][1], tokens[k + 2][1]
                    stmt = (at(k), at(k + 3) + 1 - at(k))
                    sites["reset-literal"].append((at(k + 2), len(v), reset))
                    sites["fold-equal"].append((*stmt, f"if ({reset}) {t} <= {v}; "
                                                       f"else {t} <= {v};"))
                    sites["fold-differ"].append((*stmt, f"if ({reset}) {t} <= {v}; "
                                                        f"else {t} <= {t};"))
        elif kind == "id" and prev[0] == "id" and nxt[1] == "(":
            inst_module = prev[1]
        elif tok == "." and nxt[0] == "id":
            conn = text[at(i):at(closing(i + 2, "(", ")")) + 1]
            sites["conn-twice"].append((at(i) + len(conn), 0, ", " + conn, inst_module))
        if (kind == "id" and not in_decl and prev[1] not in (".", "posedge", "negedge", "assign")
                and prev[0] != "id" and nxt[0] not in ("id", "nba") and nxt[1] != "["):
            w = widths[module][tok]
            sites["slice"].append((at(i), len(tok), f"{tok}[{w}]"))

    for kind in SHAPE_EDITS:
        n = min(conns if kind == "conn-twice" else per_kind, len(sites[kind]))
        for offset, cut, new, *inst in rng.sample(sites[kind], n):
            yield kind, text[:offset] + new + text[offset + cut:], (inst or [None])[0]


def test_shape_checks_equal_reference_on_single_defect_edits(monkeypatch):
    edits = Counter()
    for name, rtl, _cons in (*corpus_designs(), *generated_designs()):
        assert _shape_rejection(rtl) is None, name
        assert _reference_shape_errors(rtl, monkeypatch) == [], name
        defined = {m.name for m in parse_verilog(rtl)}
        for kind, text, inst_module in _shape_edits(rtl, random.Random(name)):
            edits[kind] += 1
            got = _shape_rejection(text)
            want = _reference_shape_errors(text, monkeypatch)
            if got is not None and not want:
                # the old checks never saw a black box's connections, nor a
                # slice that the fold discards
                assert (kind == "conn-twice" and inst_module not in defined
                        or kind == "slice" and got.startswith("slice ")), (name, text)
                edits["new: " + kind] += 1
                continue
            assert (got is None) == (not want), (name, kind, text)
            assert got is None or got in want, (name, kind, got, want)
            edits["rejected"] += got is not None
    assert sum(edits[k] for k in SHAPE_EDITS) >= 300, edits
    assert all(edits[k] >= 20 for k in SHAPE_EDITS), edits
    assert edits["rejected"] >= 250 and edits["new: conn-twice"], edits


@pytest.mark.parametrize("module, line", [
    ("lost", "  sub u(.a(d[0]), .y(q));\n"),
    ("top", "  bb u(.a(d), .a(d), .y(q));\n"),
    ("top", "  reg r;\n  always @(posedge clk) begin r <= d[5]; r <= d[0]; end\n"
            "  assign q = r;\n"),
], ids=["unreached-module", "blackbox-twice", "folded-away-slice"])
def test_shape_checks_reach_what_elaboration_skipped(monkeypatch, module, line):
    """The three inputs the old elaborate-time checks accepted: a module no
    instance reaches, a black box connecting one port twice, and a slice
    the fold discards."""
    text = ("module lost(input a, output y);\n  assign y = a[1];\nendmodule\n"
            if module == "lost" else "")
    text += ("module sub(input a, output y);\n  assign y = a;\nendmodule\n"
             f"module top(input clk, input [1:0] d, output q);\n{line}endmodule\n")
    with pytest.raises(ParseError) as e:
        parse_verilog(text)
    headers = [row for row in text.split("\n")[:e.value.line] if row.startswith("module ")]
    assert headers[-1].startswith(f"module {module}(")
    assert _reference_shape_errors(text, monkeypatch, top="top") == []
