"""Structural-Verilog subset front end.

Hand-rolled lexer and recursive-descent parser for the module subset the
rest of the toolkit understands: ANSI port lists, `wire`/`reg` declarations
with `[msb:0]` ranges, continuous assigns, single-clock `always` blocks with
an optional asynchronous reset arm and optional enable arm, nonblocking
assignments only, and named-port instances.  Expressions cover `& | ^ ~ ?:`,
concatenation, constant slices, and sized/unsized literals.

Everything outside the subset raises a positioned diagnostic instead of
being skipped, so a file is either fully understood or rejected.  That
includes expressions nested deeper than `MAX_EXPR_DEPTH` and statements
nested deeper than `MAX_STMT_DEPTH`, which would otherwise exhaust the
recursion of this parser and of the walks over its trees.  The grammar is
documented in docs/subset.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import DuplicateModule, ParseError, UnsupportedConstruct

# Deepest expression accepted: nested parentheses, concatenations, `?:` arms
# and unary operators, and the operator depth of the tree (a chain
# `a & b & c` is two levels deep).
MAX_EXPR_DEPTH = 100
_TOO_DEEP = f"expression nested deeper than {MAX_EXPR_DEPTH} levels"

# Deepest `if` statement accepted: an `if` in an arm of another is one level
# deeper.  Nested arms fold into nested `?:` expressions, so the elaborator
# walks this many levels on top of the deepest expression.
MAX_STMT_DEPTH = 100
_STMT_TOO_DEEP = f"statement nested deeper than {MAX_STMT_DEPTH} levels"

# --- expression AST ----------------------------------------------------------

@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Literal:
    value: int
    width: int | None  # None for unsized literals; width comes from context


@dataclass(frozen=True)
class Unary:
    op: str  # "~"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # "&", "|", "^"
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Ternary:
    cond: "Expr"
    if_true: "Expr"
    if_false: "Expr"


@dataclass(frozen=True)
class Concat:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class Slice:
    name: str
    msb: int
    lsb: int


Expr = Ident | Literal | Unary | Binary | Ternary | Concat | Slice


# --- statement / module AST --------------------------------------------------

@dataclass(frozen=True)
class NbAssign:
    target: str
    expr: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class IfStmt:
    cond: Expr
    then: tuple["Stmt", ...]
    other: tuple["Stmt", ...] | None
    line: int = field(default=0, compare=False)


Stmt = NbAssign | IfStmt


@dataclass(frozen=True)
class AlwaysBlock:
    clock: str
    reset: str | None          # reset signal name, or None
    reset_edge: str | None     # "posedge" | "negedge"
    body: tuple[Stmt, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AssignItem:
    target: str
    expr: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Instance:
    module: str
    name: str
    conns: tuple[tuple[str, Expr | None], ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PortDecl:
    name: str
    direction: str  # "in" | "out"
    width: int
    is_reg: bool = False


@dataclass(frozen=True)
class NetDecl:
    name: str
    width: int
    is_reg: bool


@dataclass(frozen=True)
class ParsedModule:
    name: str
    ports: tuple[PortDecl, ...]
    decls: tuple[NetDecl, ...]
    assigns: tuple[AssignItem, ...]
    always_blocks: tuple[AlwaysBlock, ...]
    instances: tuple[Instance, ...]
    line: int = field(default=0, compare=False)

    def declared_widths(self) -> dict[str, int]:
        widths = {p.name: p.width for p in self.ports}
        widths.update({d.name: d.width for d in self.decls})
        return widths


# --- lexer -------------------------------------------------------------------

KEYWORDS = {
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "assign", "always", "begin", "end", "if", "else", "posedge", "negedge",
    "or",
}

# Constructs recognized only to produce a precise rejection.
UNSUPPORTED_KEYWORDS = {
    "initial", "for", "while", "repeat", "forever", "case", "casex", "casez",
    "function", "task", "generate", "endgenerate", "genvar", "parameter",
    "localparam", "integer", "real", "specify", "fork", "join", "defparam",
    "primitive", "tri", "supply0", "supply1", "wand", "wor", "event", "time",
    "deassign", "force", "release", "wait", "disable", "signed",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<lcomment>//[^\n]*)
  | (?P<bcomment>/\*.*?\*/)
  | (?P<sized>\d+'[bBdDhH][0-9a-fA-F_xzXZ?]+)
  | (?P<number>\d[\d_]*)
  | (?P<id>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<nba><=)
  | (?P<punct>[()\[\]{},;:.=@?~!&|^])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


@dataclass(frozen=True)
class Token:
    kind: str   # "id", "kw", "number", "sized", "punct", "nba", "eof"
    text: str
    line: int
    column: int


def tokenize(text: str, origin: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:  # pragma: no cover - regex has a catch-all group
            raise ParseError("cannot tokenize input", line, pos - line_start + 1, origin)
        kind = m.lastgroup
        tok_text = m.group()
        col = m.start() - line_start + 1
        if kind in ("ws", "lcomment", "bcomment"):
            nl = tok_text.count("\n")
            if nl:
                line += nl
                line_start = m.start() + tok_text.rindex("\n") + 1
        elif kind == "bad":
            ch = tok_text
            if ch == "`":
                raise UnsupportedConstruct("compiler directive", line, col, origin)
            if ch == "#":
                raise UnsupportedConstruct("delay control", line, col, origin)
            if ch == "$":
                raise UnsupportedConstruct("system task", line, col, origin)
            raise ParseError(f"unexpected character {ch!r}", line, col, origin)
        elif kind == "id":
            if tok_text in UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstruct(tok_text, line, col, origin)
            tokens.append(Token("kw" if tok_text in KEYWORDS else "id",
                                tok_text, line, col))
        else:
            tokens.append(Token(kind, tok_text, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


def _parse_sized_literal(text: str, line: int, col: int, origin: str) -> Literal:
    width_str, rest = text.split("'", 1)
    base_ch = rest[0].lower()
    digits = rest[1:].replace("_", "")
    if any(c in "xzXZ?" for c in digits):
        raise UnsupportedConstruct("x/z literal", line, col, origin)
    base = {"b": 2, "d": 10, "h": 16}[base_ch]
    width = int(width_str)
    value = int(digits, base)
    if width < 1:
        raise ParseError("literal width must be >= 1", line, col, origin)
    if value >= (1 << width):
        raise ParseError(f"literal value does not fit in {width} bits", line, col, origin)
    return Literal(value, width)


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], origin: str):
        self.tokens = tokens
        self.pos = 0
        self.origin = origin
        self.depth = 0          # expression nesting at the current token
        self.stmt_depth = 0     # `if` nesting at the current token

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, expected: str | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column, self.origin, expected)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            self.error(f"expected {text!r}, found {tok.text!r}", tok, expected=text)
        return self.next()

    def accept(self, text: str) -> Token | None:
        if self.peek().text == text:
            return self.next()
        return None

    def expect_id(self) -> Token:
        tok = self.peek()
        if tok.kind != "id":
            self.error(f"expected identifier, found {tok.text!r}", tok, expected="identifier")
        return self.next()

    # -- top level --

    def parse_source(self) -> list[ParsedModule]:
        modules: list[ParsedModule] = []
        seen: dict[str, int] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text != "module":
                self.error(f"expected 'module', found {tok.text!r}", tok, expected="module")
            mod = self.parse_module()
            if mod.name in seen:
                raise DuplicateModule(f"module {mod.name!r} already defined at line {seen[mod.name]}",
                                      mod.line, 0, self.origin)
            seen[mod.name] = mod.line
            modules.append(mod)
        return modules

    def parse_module(self) -> ParsedModule:
        start = self.expect("module")
        name = self.expect_id().text
        ports: list[PortDecl] = []
        self.expect("(")
        if self.peek().text != ")":
            while True:
                ports.append(self.parse_port_decl())
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")

        decls: list[NetDecl] = []
        assigns: list[AssignItem] = []
        always_blocks: list[AlwaysBlock] = []
        instances: list[Instance] = []
        declared = {p.name for p in ports}

        while self.peek().text != "endmodule":
            tok = self.peek()
            if tok.kind == "eof":
                self.error("unexpected end of file inside module", tok, expected="endmodule")
            if tok.text in ("wire", "reg"):
                for d in self.parse_net_decl():
                    if d.name in declared:
                        self.error(f"{d.name!r} already declared", tok)
                    declared.add(d.name)
                    decls.append(d)
            elif tok.text == "assign":
                assigns.append(self.parse_assign())
            elif tok.text == "always":
                always_blocks.append(self.parse_always())
            elif tok.text in ("input", "output"):
                raise UnsupportedConstruct("non-ANSI port declaration", tok.line, tok.column, self.origin)
            elif tok.kind == "id":
                instances.append(self.parse_instance())
            else:
                self.error(f"unexpected {tok.text!r} in module body", tok)

        self.expect("endmodule")
        return ParsedModule(name, tuple(ports), tuple(decls), tuple(assigns),
                            tuple(always_blocks), tuple(instances), start.line)

    def parse_port_decl(self) -> PortDecl:
        tok = self.peek()
        if tok.text == "inout":
            raise UnsupportedConstruct("inout port", tok.line, tok.column, self.origin)
        if tok.text not in ("input", "output"):
            self.error(f"expected port direction, found {tok.text!r}", tok, expected="input/output")
        direction = "in" if self.next().text == "input" else "out"
        is_reg = bool(self.accept("reg"))
        width = self.parse_range()
        name = self.expect_id().text
        if is_reg and direction == "in":
            self.error("input port cannot be reg", tok)
        return PortDecl(name, direction, width, is_reg)

    def parse_range(self) -> int:
        if not self.accept("["):
            return 1
        msb_tok = self.peek()
        msb = self.parse_int()
        self.expect(":")
        lsb = self.parse_int()
        self.expect("]")
        if lsb != 0:
            raise UnsupportedConstruct("declaration range with nonzero lsb",
                                       msb_tok.line, msb_tok.column, self.origin)
        if msb < 0:
            self.error("bad range", msb_tok)
        return msb + 1

    def parse_int(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            self.error(f"expected integer, found {tok.text!r}", tok, expected="integer")
        self.next()
        return int(tok.text.replace("_", ""))

    def parse_net_decl(self) -> list[NetDecl]:
        is_reg = self.next().text == "reg"
        width = self.parse_range()
        out = []
        while True:
            name = self.expect_id().text
            out.append(NetDecl(name, width, is_reg))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def parse_assign(self) -> AssignItem:
        start = self.expect("assign")
        target = self.expect_id().text
        if self.peek().text == "[":
            raise UnsupportedConstruct("assignment to a slice", start.line, start.column, self.origin)
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return AssignItem(target, expr, start.line)

    def parse_always(self) -> AlwaysBlock:
        start = self.expect("always")
        self.expect("@")
        self.expect("(")
        edge_tok = self.peek()
        if edge_tok.text == "negedge":
            raise UnsupportedConstruct("negedge clock", edge_tok.line, edge_tok.column, self.origin)
        if edge_tok.text != "posedge":
            raise UnsupportedConstruct("combinational always block",
                                       edge_tok.line, edge_tok.column, self.origin)
        self.next()
        clock = self.expect_id().text
        reset = None
        reset_edge = None
        if self.accept("or"):
            rtok = self.peek()
            if rtok.text not in ("posedge", "negedge"):
                self.error("expected posedge/negedge in event list", rtok)
            reset_edge = self.next().text
            reset = self.expect_id().text
        self.expect(")")
        body = self.parse_stmt_block()
        return AlwaysBlock(clock, reset, reset_edge, tuple(body), start.line)

    def parse_stmt_block(self) -> list[Stmt]:
        if self.accept("begin"):
            stmts = []
            while self.peek().text != "end":
                if self.peek().kind == "eof":
                    self.error("unexpected end of file inside begin/end")
                stmts.append(self.parse_stmt())
            self.expect("end")
            return stmts
        return [self.parse_stmt()]

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text == "if":
            self.stmt_depth += 1
            if self.stmt_depth > MAX_STMT_DEPTH:
                self.error(_STMT_TOO_DEEP, tok)
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = tuple(self.parse_stmt_block())
            other = None
            if self.accept("else"):
                other = tuple(self.parse_stmt_block())
            self.stmt_depth -= 1
            return IfStmt(cond, then, other, tok.line)
        if tok.kind == "id":
            target = self.next().text
            nxt = self.peek()
            if nxt.text == "=":
                raise UnsupportedConstruct("blocking assignment in always block",
                                           nxt.line, nxt.column, self.origin)
            if nxt.kind != "nba":
                self.error(f"expected '<=', found {nxt.text!r}", nxt, expected="<=")
            self.next()
            expr = self.parse_expr()
            self.expect(";")
            return NbAssign(target, expr, tok.line)
        self.error(f"expected statement, found {tok.text!r}", tok)
        raise AssertionError  # unreachable

    def parse_instance(self) -> Instance:
        mod_tok = self.expect_id()
        inst_tok = self.peek()
        if inst_tok.kind != "id":
            # common error shape: `foo = ...` outside assign
            self.error(f"expected instance name after {mod_tok.text!r}", inst_tok,
                       expected="identifier")
        inst = self.next().text
        self.expect("(")
        conns: list[tuple[str, Expr | None]] = []
        if self.peek().text != ")":
            while True:
                dot = self.expect(".")
                port = self.expect_id().text
                self.expect("(")
                expr = None
                if self.peek().text != ")":
                    expr = self.parse_expr()
                self.expect(")")
                conns.append((port, expr))
                if not self.accept(","):
                    break
                del dot
        self.expect(")")
        self.expect(";")
        return Instance(mod_tok.text, inst, tuple(conns), mod_tok.line)

    # -- expressions (precedence: ?: < | < ^ < & < unary < primary) --

    def nest(self, tok: Token):
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.error(_TOO_DEEP, tok)

    def parse_expr(self) -> Expr:
        start = self.peek()
        self.nest(start)
        expr = self.parse_or()
        if self.accept("?"):
            if_true = self.parse_expr()
            self.expect(":")
            if_false = self.parse_expr()
            expr = Ternary(expr, if_true, if_false)
        self.depth -= 1
        if self.depth == 0 and _expr_depth(expr) > MAX_EXPR_DEPTH:
            self.error(_TOO_DEEP, start)
        return expr

    def parse_or(self) -> Expr:
        lhs = self.parse_xor()
        while self.peek().text == "|":
            self.next()
            lhs = Binary("|", lhs, self.parse_xor())
        return lhs

    def parse_xor(self) -> Expr:
        lhs = self.parse_and()
        while self.peek().text == "^":
            self.next()
            lhs = Binary("^", lhs, self.parse_and())
        return lhs

    def parse_and(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek().text == "&":
            self.next()
            lhs = Binary("&", lhs, self.parse_unary())
        return lhs

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text in ("~", "!"):
            self.next()
            self.nest(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Unary("~", operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.text == "{":
            self.next()
            parts = [self.parse_expr()]
            if self.peek().text == "{":
                raise UnsupportedConstruct("replication", tok.line, tok.column, self.origin)
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return Concat(tuple(parts))
        if tok.kind == "sized":
            self.next()
            return _parse_sized_literal(tok.text, tok.line, tok.column, self.origin)
        if tok.kind == "number":
            self.next()
            return Literal(int(tok.text.replace("_", "")), None)
        if tok.kind == "id":
            self.next()
            if self.accept("["):
                msb = self.parse_int()
                lsb = msb
                if self.accept(":"):
                    lsb = self.parse_int()
                self.expect("]")
                if msb < lsb:
                    self.error("slice msb < lsb", tok)
                return Slice(tok.text, msb, lsb)
            return Ident(tok.text)
        self.error(f"expected expression, found {tok.text!r}", tok, expected="expression")
        raise AssertionError  # unreachable


def parse_verilog(text: str, origin: str = "<input>") -> list[ParsedModule]:
    """Parse one source file into its module definitions."""
    return _Parser(tokenize(text, origin), origin).parse_source()


def _expr_depth(expr: Expr) -> int:
    """Operator depth of an expression tree, walked without recursion."""
    deepest = 0
    stack = [(expr, 0)]
    while stack:
        e, d = stack.pop()
        match e:
            case Unary(_, operand):
                kids: tuple[Expr, ...] = (operand,)
            case Binary(_, lhs, rhs):
                kids = (lhs, rhs)
            case Ternary(c, t, f):
                kids = (c, t, f)
            case Concat(parts):
                kids = parts
            case _:
                kids = ()
        if kids:
            d += 1
            deepest = max(deepest, d)
            stack.extend((k, d) for k in kids)
    return deepest


# --- identifier / structure checks --------------------------------------------

def expr_idents(expr: Expr) -> set[str]:
    match expr:
        case Ident(name) | Slice(name, _, _):
            return {name}
        case Literal():
            return set()
        case Unary(_, operand):
            return expr_idents(operand)
        case Binary(_, lhs, rhs):
            return expr_idents(lhs) | expr_idents(rhs)
        case Ternary(c, t, f):
            return expr_idents(c) | expr_idents(t) | expr_idents(f)
        case Concat(parts):
            out: set[str] = set()
            for p in parts:
                out |= expr_idents(p)
            return out
    raise AssertionError(expr)


def check_module(mod: ParsedModule, origin: str = "<input>") -> None:
    """Enforce declaration discipline: used names declared, nonblocking
    targets reg, assign targets not reg."""
    widths = mod.declared_widths()
    regs = {p.name for p in mod.ports if p.is_reg} | {d.name for d in mod.decls if d.is_reg}

    def need(name: str, line: int):
        if name not in widths:
            raise ParseError(f"undeclared identifier {name!r}", line, 0, origin)

    for a in mod.assigns:
        need(a.target, a.line)
        if a.target in regs:
            raise ParseError(f"assign target {a.target!r} is a reg", a.line, 0, origin)
        for name in expr_idents(a.expr):
            need(name, a.line)

    def walk(stmts: tuple[Stmt, ...], line: int):
        for s in stmts:
            if isinstance(s, NbAssign):
                need(s.target, s.line)
                if s.target not in regs:
                    raise ParseError(f"nonblocking target {s.target!r} is not a reg",
                                     s.line, 0, origin)
                for name in expr_idents(s.expr):
                    need(name, s.line)
            else:
                for name in expr_idents(s.cond):
                    need(name, s.line)
                walk(s.then, s.line)
                if s.other is not None:
                    walk(s.other, s.line)

    for blk in mod.always_blocks:
        need(blk.clock, blk.line)
        if blk.reset is not None:
            need(blk.reset, blk.line)
        walk(blk.body, blk.line)
