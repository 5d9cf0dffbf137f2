"""Structural-Verilog subset front end.

Hand-rolled lexer and recursive-descent parser for the module subset the
rest of the toolkit understands: ANSI port lists, `wire`/`reg` declarations
with `[msb:0]` ranges, continuous assigns, single-clock `always` blocks with
an optional asynchronous reset arm and optional enable arm, nonblocking
assignments only, and named-port instances.  Expressions cover `& | ^ ~ ?:`,
concatenation, constant slices, and sized/unsized literals.

The lexer is one `re.split` of the whole text.  The parser reads the tokens
a production expects by index, and parses the binary operators in one
precedence-climbing loop; `tests/oracles.py` keeps the parser that took one
`peek`, `accept` or `expect` per token and one method per precedence, and
the tests hold the two to the same trees and errors.

Everything outside the subset raises a positioned diagnostic instead of
being skipped, so a file is either fully understood or rejected.  That
includes expressions nested deeper than `MAX_EXPR_DEPTH` and statements
nested deeper than `MAX_STMT_DEPTH`, which would otherwise exhaust the
recursion of this parser and of the walks over its trees, and widths and
numbers past `MAX_WIDTH` bits, which would otherwise exhaust `int`'s
conversions and the formats of later stages.  The parser also
decides each rule that needs only the module's own text: at `endmodule` it
rejects the first name error, then the first shape error (reset arms,
slices, connections), in source order.  docs/subset.md has the rules.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice

from .errors import ParseError, UnsupportedConstruct

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

# Widest net, literal or slice: the least width that IEEE 1364-2005 lets a
# tool support.  A range or slice bound at or past it, a wider literal and
# an unsized number of more bits are positioned errors.
MAX_WIDTH = 65536

# the binary operators, loosest first
_PRECEDENCE = {"|": 1, "^": 2, "&": 3}
# a sized literal's base letter -> (base, the digits valid in it)
_BASES = {"b": (2, "01"), "d": (10, "0123456789"), "h": (16, "0123456789abcdefABCDEF")}

# --- expression AST ----------------------------------------------------------

# Ident, Literal, Concat and Slice hold the offset of their first token in
# the module's text, where a width error inside them is reported; -1 where
# the elaborator makes one.  It is not compared, so equal expressions stay
# equal wherever they are written.  A design holds an expression node per
# operand and operator, so they have slots and no instance dict.

@dataclass(frozen=True, slots=True)
class Ident:
    name: str
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True, slots=True)
class Literal:
    value: int
    width: int | None  # None for unsized literals; width comes from context
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "~"
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # "&", "|", "^"
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, slots=True)
class Ternary:
    cond: "Expr"
    if_true: "Expr"
    if_false: "Expr"


@dataclass(frozen=True, slots=True)
class Concat:
    parts: tuple["Expr", ...]
    offset: int = field(default=-1, compare=False)


@dataclass(frozen=True, slots=True)
class Slice:
    name: str
    msb: int
    lsb: int
    offset: int = field(default=-1, compare=False)


Expr = Ident | Literal | Unary | Binary | Ternary | Concat | Slice


# --- statement / module AST --------------------------------------------------

@dataclass(frozen=True)
class NbAssign:
    target: str
    expr: Expr


@dataclass(frozen=True)
class IfStmt:
    cond: Expr
    then: tuple["Stmt", ...]
    other: tuple["Stmt", ...] | None


Stmt = NbAssign | IfStmt


@dataclass(frozen=True)
class AlwaysBlock:
    clock: str
    reset: str | None          # reset signal name, or None
    reset_edge: str | None     # "posedge" | "negedge"
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class AssignItem:
    target: str
    expr: Expr


@dataclass(frozen=True)
class Instance:
    module: str
    name: str
    conns: tuple[tuple[str, Expr | None], ...]
    line: int = field(default=0, compare=False)     # of the instance name
    column: int = field(default=0, compare=False)


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
    line: int = field(default=0, compare=False)     # of the `module` token
    column: int = field(default=0, compare=False)
    origin: str = field(default="<input>", compare=False)
    # `line_starts` of the module's text, to place an expression's offset
    starts: tuple[int, ...] | list[int] = field(default=(), compare=False, repr=False)

    def declared_widths(self) -> dict[str, int]:
        widths = {p.name: p.width for p in self.ports}
        widths.update({d.name: d.width for d in self.decls})
        return widths


def fold(stmts: tuple[Stmt, ...], env: dict[str, Expr]) -> dict[str, Expr]:
    """Each target's value after `stmts`, starting from `env`: the arms of
    an `if` fold into a `?:` per target, and a target that one arm leaves
    alone keeps its value there (the target itself if it has none)."""
    env = dict(env)
    for s in stmts:
        if isinstance(s, NbAssign):
            env[s.target] = s.expr
        else:
            t_env = fold(s.then, env)
            e_env = fold(s.other, env) if s.other is not None else dict(env)
            for target in sorted(set(t_env) | set(e_env)):
                tv = t_env.get(target, env.get(target, Ident(target)))
                ev = e_env.get(target, env.get(target, Ident(target)))
                env[target] = tv if tv == ev else Ternary(s.cond, tv, ev)
    return env


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

# Characters that open a construct outside the subset.
_STRAY_CONSTRUCTS = {"`": "compiler directive", "#": "delay control", "$": "system task"}

# One `re.split` cuts the text into its gaps (the even items) and, captured
# by the group, its tokens and complete comments (the odd items).  No token
# or comment starts with whitespace, so a gap holds only whitespace unless
# the text has a character that starts none of them; an unterminated `/*`
# leaves its `/` in a gap.  A token's kind follows from its text, so it is
# worked out once per distinct text.
_SPLIT_RE = re.compile(r"""(
    //[^\n]* | /\*.*?\*/
  | [A-Za-z_][A-Za-z0-9_$]*
  | \d+'[bBdDhH][0-9a-fA-F_xzXZ?]+
  | \d[\d_]*
  | <=
  | [()\[\]{},;:.=@?~!&|^]
)""", re.VERBOSE | re.DOTALL)

# a token's kind by its first character; the others start with a digit
_KIND_OF_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "id"),
    "/": "comment", "<": "nba", **dict.fromkeys("()[]{},;:.=@?~!&|^", "punct")}


# A token is a plain tuple (kind, text, offset): kind is "id", "kw",
# "number", "sized", "punct", "nba" or "eof", and offset is where its text
# starts.  A subclass of tuple would keep every token tracked by the garbage
# collector; line and column are computed only where they are needed.
Token = tuple[str, str, int]


def line_starts(text: str) -> list[int]:
    """Offset of the first character of each line of `text` (and one past
    the end)."""
    return list(accumulate((len(line) + 1 for line in text.split("\n")), initial=0))


def position(starts: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of `offset`, given `line_starts` of its text."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


def _kind(text: str) -> str:
    kind = _KIND_OF_FIRST.get(text[0])
    if kind is None:
        return "sized" if "'" in text else "number"
    if kind == "id" and text in KEYWORDS:
        return "kw"
    return kind


def tokenize(text: str, origin: str = "<input>") -> list[Token]:
    parts = _SPLIT_RE.split(text)
    texts = parts[1::2]
    kinds = {t: _kind(t) for t in dict.fromkeys(texts)}
    if "".join(parts[0::2]).strip() or not kinds.keys().isdisjoint(UNSUPPORTED_KEYWORDS):
        _reject(parts, text, origin)
    # each token starts where the parts before it end
    starts = list(islice(accumulate(map(len, parts)), 0, None, 2))
    del parts   # the gaps go before the tokens are built
    tokens = list(zip(map(kinds.__getitem__, texts), texts, starts))
    del texts, starts
    if "comment" in kinds.values():
        tokens = [tok for tok in tokens if tok[0] != "comment"]
    tokens.append(("eof", "", len(text)))
    return tokens


def _reject(parts: list[str], text: str, origin: str):
    """Raise the error of the first gap character that is not whitespace
    or of the first unsupported keyword, whichever comes first."""
    offset = 0
    for i, part in enumerate(parts):
        if i % 2 == 0 and part.strip():
            offset += len(part) - len(part.lstrip())
            where = position(line_starts(text), offset)
            if text[offset] in _STRAY_CONSTRUCTS:
                raise UnsupportedConstruct(_STRAY_CONSTRUCTS[text[offset]], *where, origin)
            raise ParseError(f"unexpected character {text[offset]!r}", *where, origin)
        if i % 2 and part in UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(part, *position(line_starts(text), offset), origin)
        offset += len(part)
    raise AssertionError("nothing to reject")


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, origin: str):
        self.tokens = tokenize(text, origin)
        self.starts = line_starts(text)
        self.pos = 0
        self.origin = origin
        self.depth = 0          # expression nesting at the current token
        self.stmt_depth = 0     # `if` nesting at the current token
        # every name the current module reads or drives, in source order,
        # as a token whose kind is its role: "id" for a read, a clock or a
        # reset, "assign" or "nb" for the target of that assignment
        self.names: list[Token] = []
        # what the current module's shape check reads: each always block
        # with a reset, as (reset token, index of the body's first token,
        # length of `names` before the body, block); each slice, as (offset,
        # name, msb, lsb); each port connected again, as (offset, message)
        self.resets: list[tuple[Token, int, int, AlwaysBlock]] = []
        self.slices: list[tuple[int, str, int, int]] = []
        self.twice: list[tuple[int, str]] = []

    def where(self, tok: Token) -> tuple[int, int]:
        return position(self.starts, tok[2])

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None, expected: str | None = None):
        tok = tok or self.peek()
        raise ParseError(message, *self.where(tok), self.origin, expected)

    def unsupported(self, construct: str, tok: Token):
        raise UnsupportedConstruct(construct, *self.where(tok), self.origin)

    # Below, a method that has matched a token other than the end of input
    # steps past it with `self.pos += 1`, without `next`'s check.

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[1] != text:
            self.error(f"expected {text!r}, found {tok[1]!r}", tok, expected=text)
        self.pos += 1
        return tok

    def accept(self, text: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok[1] == text:
            self.pos += 1
            return tok
        return None

    def expect_id(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "id":
            self.error(f"expected identifier, found {tok[1]!r}", tok, expected="identifier")
        self.pos += 1
        return tok

    # -- top level --

    def parse_source(self) -> list[ParsedModule]:
        modules: list[ParsedModule] = []
        while self.peek()[0] != "eof":
            tok = self.peek()
            if tok[1] != "module":
                self.error(f"expected 'module', found {tok[1]!r}", tok, expected="module")
            modules.append(self.parse_module())
        return modules

    def parse_module(self) -> ParsedModule:
        start = self.expect("module")
        name = self.expect_id()[1]
        ports: list[PortDecl] = []
        widths: dict[str, int] = {}
        self.expect("(")
        if self.peek()[1] != ")":
            while True:
                tok = self.peek()
                port = self.parse_port_decl()
                if port.name in widths:
                    self.error(f"{port.name!r} already declared", tok)
                widths[port.name] = port.width
                ports.append(port)
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")

        decls: list[NetDecl] = []
        assigns: list[AssignItem] = []
        always_blocks: list[AlwaysBlock] = []
        instances: list[Instance] = []
        self.names, self.resets, self.slices, self.twice = [], [], [], []

        while self.peek()[1] != "endmodule":
            tok = self.peek()
            kind, text, _ = tok
            if kind == "eof":
                self.error("unexpected end of file inside module", tok, expected="endmodule")
            if text in ("wire", "reg"):
                for d in self.parse_net_decl():
                    if d.name in widths:
                        self.error(f"{d.name!r} already declared", tok)
                    widths[d.name] = d.width
                    decls.append(d)
            elif text == "assign":
                assigns.append(self.parse_assign())
            elif text == "always":
                always_blocks.append(self.parse_always())
            elif text in ("input", "output"):
                self.unsupported("non-ANSI port declaration", tok)
            elif kind == "id":
                instances.append(self.parse_instance())
            else:
                self.error(f"unexpected {text!r} in module body", tok)

        self.check_names(widths, {p.name for p in ports if p.is_reg}
                         | {d.name for d in decls if d.is_reg})
        self.check_shape(widths)
        self.expect("endmodule")
        return ParsedModule(name, tuple(ports), tuple(decls), tuple(assigns),
                            tuple(always_blocks), tuple(instances),
                            *self.where(start), self.origin, self.starts)

    def check_names(self, declared: dict[str, int], regs: set[str]) -> None:
        """Reject the module's first name that is undeclared, or that is
        an `assign` target declared `reg` or a nonblocking target that is
        not; a name may be used before its declaration."""
        for role, name, offset in self.names:
            if name not in declared:
                message = f"undeclared identifier {name!r}"
            elif role == "assign" and name in regs:
                message = f"assign target {name!r} is a reg"
            elif role == "nb" and name not in regs:
                message = f"nonblocking target {name!r} is not a reg"
            else:
                continue
            raise ParseError(message, *position(self.starts, offset), self.origin)

    def check_shape(self, widths: dict[str, int]) -> None:
        """Reject the module's first shape error in source order: a bad
        async reset arm (at most one per always block), a slice past its
        net's width, or an instance port connected twice."""
        errors = [e for r in self.resets for e in self.reset_errors(widths, *r)]
        errors += [(offset, f"slice [{msb}:{lsb}] out of range for {name} ({widths[name]} bits)")
                   for offset, name, msb, lsb in self.slices if msb >= widths[name]]
        errors += self.twice
        if errors:
            offset, message = min(errors, key=lambda e: e[0])
            raise ParseError(message, *position(self.starts, offset), self.origin)

    def reset_errors(self, widths: dict[str, int], reset_tok: Token, first: int,
                     n_names: int, blk: AlwaysBlock) -> list[tuple[int, str]]:
        """The (offset, message) errors of an always block with an async
        reset: of its width, of its body's shape, of its condition's
        polarity, or else of each reset value that is no literal or too wide."""
        _, reset, offset = reset_tok
        if widths[reset] != 1:
            return [(offset, f"reset {reset!r} must be 1 bit wide")]
        body = blk.body
        if len(body) != 1 or not isinstance(body[0], IfStmt) or body[0].other is None:
            return [(self.tokens[first][2],
                     "always block with async reset must be 'if (reset) ... else ...'")]
        want = Unary("~", Ident(reset)) if blk.reset_edge == "negedge" else Ident(reset)
        if body[0].cond != want:
            # `if (` or `begin if (` comes before the condition
            cond = first + (3 if self.tokens[first][1] == "begin" else 2)
            return [(self.tokens[cond][2], f"reset condition must test {reset!r} "
                                           "with the polarity of its edge event")]
        errors = []
        for target, value in fold(body[0].then, {}).items():
            if not isinstance(value, Literal):
                message = f"reset value of {target!r} must be a constant literal"
            elif value.value >= 1 << widths[target]:
                message = f"reset value of {target!r} does not fit"
            else:
                continue
            # the reset arm is the first of the block to assign its targets
            errors.append((next(o for role, name, o in islice(self.names, n_names, None)
                                if role == "nb" and name == target), message))
        return errors

    # The productions below that every design repeats (ports, declarations,
    # statements, operands, an instance's head) read the tokens they expect
    # by index, and raise at any other token the error that `expect` or
    # `expect_id` would.

    def parse_port_decl(self) -> PortDecl:
        tokens = self.tokens
        tok = tokens[self.pos]
        direction = tok[1]
        if direction not in ("input", "output"):
            if direction == "inout":
                self.unsupported("inout port", tok)
            self.error(f"expected port direction, found {direction!r}", tok,
                       expected="input/output")
        self.pos += 1
        is_reg = tokens[self.pos][1] == "reg"
        self.pos += is_reg
        width = self.parse_range()
        name_tok = tokens[self.pos]
        if name_tok[0] != "id":
            self.expect_id()
        self.pos += 1
        if is_reg and direction == "input":
            self.error("input port cannot be reg", tok)
        return PortDecl(name_tok[1], "in" if direction == "input" else "out", width, is_reg)

    def parse_range(self) -> int:
        if not self.accept("["):
            return 1
        msb_tok = self.peek()
        msb = self.parse_int()
        self.expect(":")
        lsb = self.parse_int()
        self.expect("]")
        if lsb != 0:
            self.unsupported("declaration range with nonzero lsb", msb_tok)
        return msb + 1

    def parse_int(self) -> int:
        """A range or slice bound, which names a bit of a net."""
        tok = self.tokens[self.pos]
        if tok[0] != "number":
            self.error(f"expected integer, found {tok[1]!r}", tok, expected="integer")
        self.pos += 1
        value = _decimal(tok[1].replace("_", ""))
        if value >= MAX_WIDTH:
            self.error(f"bit index past the widest net of {MAX_WIDTH} bits", tok)
        return value

    def parse_net_decl(self) -> list[NetDecl]:
        tokens = self.tokens
        is_reg = tokens[self.pos][1] == "reg"
        self.pos += 1
        width = self.parse_range()
        out = []
        while True:
            tok = tokens[self.pos]
            if tok[0] != "id":
                self.expect_id()
            out.append(NetDecl(tok[1], width, is_reg))
            if tokens[self.pos + 1][1] != ",":
                break
            self.pos += 2
        self.pos += 1
        self.expect(";")
        return out

    def parse_assign(self) -> AssignItem:
        start = self.expect("assign")
        _, target, offset = self.expect_id()
        self.names.append(("assign", target, offset))
        if self.peek()[1] == "[":
            self.unsupported("assignment to a slice", start)
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return AssignItem(target, expr)

    def parse_always(self) -> AlwaysBlock:
        self.expect("always")
        self.expect("@")
        self.expect("(")
        edge_tok = self.peek()
        if edge_tok[1] == "negedge":
            self.unsupported("negedge clock", edge_tok)
        if edge_tok[1] != "posedge":
            self.unsupported("combinational always block", edge_tok)
        self.next()
        clock_tok = self.expect_id()
        self.names.append(clock_tok)
        clock = clock_tok[1]
        reset = reset_edge = reset_tok = None
        if self.accept("or"):
            rtok = self.peek()
            if rtok[1] not in ("posedge", "negedge"):
                self.error("expected posedge/negedge in event list", rtok)
            reset_edge = self.next()[1]
            reset_tok = self.expect_id()
            self.names.append(reset_tok)
            reset = reset_tok[1]
        self.expect(")")
        first, n_names = self.pos, len(self.names)
        blk = AlwaysBlock(clock, reset, reset_edge, tuple(self.parse_stmt_block()))
        if reset_tok is not None:
            self.resets.append((reset_tok, first, n_names, blk))
        return blk

    def parse_stmt_block(self) -> list[Stmt]:
        tokens = self.tokens
        if tokens[self.pos][1] != "begin":
            return [self.parse_stmt()]
        self.pos += 1
        stmts = []
        while True:
            tok = tokens[self.pos]
            if tok[1] == "end":
                self.pos += 1
                return stmts
            if tok[0] == "eof":
                self.error("unexpected end of file inside begin/end")
            stmts.append(self.parse_stmt())

    def parse_stmt(self) -> Stmt:
        tokens = self.tokens
        tok = tokens[self.pos]
        if tok[0] == "id":
            _, target, offset = tok
            self.names.append(("nb", target, offset))
            nxt = tokens[self.pos + 1]
            if nxt[0] != "nba":
                if nxt[1] == "=":
                    self.unsupported("blocking assignment in always block", nxt)
                self.error(f"expected '<=', found {nxt[1]!r}", nxt, expected="<=")
            self.pos += 2
            expr = self.parse_expr()
            self.expect(";")
            return NbAssign(target, expr)
        if tok[1] == "if":
            self.stmt_depth += 1
            if self.stmt_depth > MAX_STMT_DEPTH:
                self.error(_STMT_TOO_DEEP, tok)
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = tuple(self.parse_stmt_block())
            other = None
            if tokens[self.pos][1] == "else":
                self.pos += 1
                other = tuple(self.parse_stmt_block())
            self.stmt_depth -= 1
            return IfStmt(cond, then, other)
        self.error(f"expected statement, found {tok[1]!r}", tok)
        raise AssertionError  # unreachable

    def parse_instance(self) -> Instance:
        tokens = self.tokens
        mod_tok = tokens[self.pos]
        inst_tok = tokens[self.pos + 1]
        if inst_tok[0] != "id":
            # common error shape: `foo = ...` outside assign
            self.error(f"expected instance name after {mod_tok[1]!r}", inst_tok,
                       expected="identifier")
        inst = inst_tok[1]
        self.pos += 2
        self.expect("(")
        conns: list[tuple[str, Expr | None]] = []
        connected = set()
        if tokens[self.pos][1] != ")":
            while True:
                self.expect(".")
                _, port, offset = self.expect_id()
                self.expect("(")
                if port in connected:
                    self.twice.append((offset, f"{inst}: port {port!r} connected twice"))
                connected.add(port)
                expr = None
                if tokens[self.pos][1] != ")":
                    expr = self.parse_expr()
                self.expect(")")
                conns.append((port, expr))
                if tokens[self.pos][1] != ",":
                    break
                self.pos += 1
        self.expect(")")
        self.expect(";")
        return Instance(mod_tok[1], inst, tuple(conns), *self.where(inst_tok))

    # -- expressions (precedence: ?: < | < ^ < & < unary < primary) --

    def nest(self, tok: Token):
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.error(_TOO_DEEP, tok)

    def parse_expr(self) -> Expr:
        first = self.pos
        start = self.tokens[first]
        self.nest(start)
        expr = self.parse_binary(1)
        if self.tokens[self.pos][1] == "?":
            self.pos += 1
            if_true = self.parse_expr()
            self.expect(":")
            if_false = self.parse_expr()
            expr = Ternary(expr, if_true, if_false)
        self.depth -= 1
        # every operator level of the tree took a token of its own, so an
        # expression of at most MAX_EXPR_DEPTH tokens needs no walk
        if (self.depth == 0 and self.pos - first > MAX_EXPR_DEPTH
                and _expr_depth(expr) > MAX_EXPR_DEPTH):
            self.error(_TOO_DEEP, start)
        return expr

    def parse_binary(self, lowest: int) -> Expr:
        """Operands joined by the binary operators of precedence `lowest`
        and above, each operator left-associative."""
        tokens = self.tokens
        lhs = self.parse_unary()
        while True:
            op = tokens[self.pos][1]
            prec = _PRECEDENCE.get(op, 0)
            if prec < lowest:
                return lhs
            self.pos += 1
            lhs = Binary(op, lhs, self.parse_binary(prec + 1))

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok[1] in ("~", "!"):
            self.pos += 1
            self.nest(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Unary("~", operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tokens = self.tokens
        tok = tokens[self.pos]
        kind, text, offset = tok
        if kind == "id":
            self.names.append(tok)
            self.pos += 1
            if tokens[self.pos][1] != "[":
                return Ident(text, offset)
            self.pos += 1
            msb = self.parse_int()
            lsb = msb
            if self.accept(":"):
                lsb = self.parse_int()
            self.expect("]")
            if msb < lsb:
                self.error("slice msb < lsb", tok)
            self.slices.append((offset, text, msb, lsb))
            return Slice(text, msb, lsb, offset)
        if kind == "sized":
            self.pos += 1
            return self.sized_literal(tok)
        if kind == "number":
            self.pos += 1
            return self.unsized_literal(tok)
        if text == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if text == "{":
            self.pos += 1
            parts = [self.parse_expr()]
            if self.peek()[1] == "{":
                self.unsupported("replication", tok)
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return Concat(tuple(parts), offset)
        self.error(f"expected expression, found {text!r}", tok, expected="expression")
        raise AssertionError  # unreachable

    def unsized_literal(self, tok: Token) -> Literal:
        value = _decimal(tok[1].replace("_", ""))
        if value >> MAX_WIDTH:
            self.error(f"number does not fit in {MAX_WIDTH} bits", tok)
        return Literal(value, None, tok[2])

    def sized_literal(self, tok: Token) -> Literal:
        width_str, rest = tok[1].split("'", 1)
        base_ch = rest[0].lower()
        digits = rest[1:].replace("_", "")
        if any(c in "xzXZ?" for c in digits):
            self.unsupported("x/z literal", tok)
        width = _decimal(width_str)
        if width > MAX_WIDTH:
            self.error(f"literal wider than {MAX_WIDTH} bits", tok)
        if width < 1:
            self.error("literal width must be >= 1", tok)
        base, valid = _BASES[base_ch]
        if not digits or digits.strip(valid):
            self.error(f"literal digits are not base {base}", tok)
        value = _decimal(digits) if base == 10 else int(digits, base)
        if value >= (1 << width):
            self.error(f"literal value does not fit in {width} bits", tok)
        return Literal(value, width, tok[2])


def parse_verilog(text: str, origin: str = "<input>") -> list[ParsedModule]:
    """Parse one source file into its module definitions."""
    return _Parser(text, origin).parse_source()


def _decimal(digits: str) -> int:
    """The value of a string of decimal digits, read in pieces where it is
    longer than `int` reads at once (600 digits stay below 640, the least
    limit `sys.set_int_max_str_digits` takes).  A value of more than
    `MAX_WIDTH` bits is read only as far as it takes to pass 2 ** MAX_WIDTH."""
    try:
        return int(digits)
    except ValueError:
        value = 0
        for i in range(0, len(digits), 600):
            piece = digits[i:i + 600]
            value = value * 10 ** len(piece) + int(piece)
            if value >> MAX_WIDTH:
                break
        return value


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
