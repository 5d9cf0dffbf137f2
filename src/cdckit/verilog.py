"""Structural-Verilog subset front end.

Hand-rolled lexer and recursive-descent parser for the module subset the
rest of the toolkit understands: ANSI port lists, `wire`/`reg` declarations
with `[msb:0]` ranges, continuous assigns, single-clock `always` blocks with
an optional asynchronous reset arm and optional enable arm, nonblocking
assignments only, and named-port instances.  Expressions cover `& | ^ ~ ?:`,
concatenation, constant slices, and sized/unsized literals.

The lexer cuts the text with a few whole-text string passes (comments out,
spaces around the one-character tokens, `str.split`), and gives the tokens
as two parallel lists (kinds and texts) with no object per token.  Where a
token is in the text is worked out only when a diagnostic asks (`Positions`),
so a text that parses places none of its tokens; the records name their
tokens by index.  The parser reads the tokens a production expects by index,
and parses the binary operators in one precedence-climbing loop;
`tests/oracles.py` keeps the parser that took one `peek`, `accept` or
`expect` per token and one method per precedence, and the tests hold the
two to the same trees and errors.

Everything outside the subset raises a positioned diagnostic instead of
being skipped, so a file is either fully understood or rejected.  That
includes expressions nested deeper than `MAX_EXPR_DEPTH` and statements
nested deeper than `MAX_STMT_DEPTH`, which would otherwise exhaust the
recursion of this parser and of the walks over its trees, and widths and
numbers past `MAX_WIDTH` bits, which would otherwise exhaust `int`'s
conversions and the formats of later stages.  The parser also
decides each rule that needs only the module's own text: at `endmodule` it
rejects the first name error (an undeclared name, a target of the wrong
kind, a second driver), then the first shape error (reset arms, slices,
connections), in source order.  docs/subset.md has the rules.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress, islice

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

# Ident, Literal, Concat and Slice hold the index of their first token in
# the module's text, where a width error inside them is reported; -1 where
# the elaborator makes one.  It is not compared, so equal expressions stay
# equal wherever they are written.  A design holds an expression node per
# operand and operator, so the records have slots and no instance dict.
# They are not frozen, because a frozen `__init__` writes each field through
# `object.__setattr__`; no stage writes to a record once it is made, which
# tests/test_records.py checks.

@dataclass(slots=True, unsafe_hash=True)
class Ident:
    name: str
    token: int = field(default=-1, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Literal:
    value: int
    width: int | None  # None for unsized literals; width comes from context
    token: int = field(default=-1, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Unary:
    op: str  # "~"
    operand: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Binary:
    op: str  # "&", "|", "^"
    lhs: "Expr"
    rhs: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Ternary:
    cond: "Expr"
    if_true: "Expr"
    if_false: "Expr"


@dataclass(slots=True, unsafe_hash=True)
class Concat:
    parts: tuple["Expr", ...]
    token: int = field(default=-1, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Slice:
    name: str
    msb: int
    lsb: int
    token: int = field(default=-1, compare=False)


Expr = Ident | Literal | Unary | Binary | Ternary | Concat | Slice


# --- statement / module AST --------------------------------------------------

@dataclass(slots=True, unsafe_hash=True)
class NbAssign:
    target: str
    expr: Expr


@dataclass(slots=True, unsafe_hash=True)
class IfStmt:
    cond: Expr
    then: tuple["Stmt", ...]
    other: tuple["Stmt", ...] | None


Stmt = NbAssign | IfStmt


@dataclass(slots=True, unsafe_hash=True)
class AlwaysBlock:
    clock: str
    reset: str | None          # reset signal name, or None
    reset_edge: str | None     # "posedge" | "negedge"
    body: tuple[Stmt, ...]


@dataclass(slots=True, unsafe_hash=True)
class AssignItem:
    target: str
    expr: Expr


@dataclass(slots=True, unsafe_hash=True)
class Instance:
    module: str
    name: str
    conns: tuple[tuple[str, Expr | None], ...]
    token: int = field(default=-1, compare=False)   # the instance name


@dataclass(slots=True, unsafe_hash=True)
class PortDecl:
    name: str
    direction: str  # "in" | "out"
    width: int
    is_reg: bool = False


@dataclass(slots=True, unsafe_hash=True)
class NetDecl:
    name: str
    width: int
    is_reg: bool


@dataclass(slots=True, unsafe_hash=True)
class ParsedModule:
    name: str
    ports: tuple[PortDecl, ...]
    decls: tuple[NetDecl, ...]
    assigns: tuple[AssignItem, ...]
    always_blocks: tuple[AlwaysBlock, ...]
    instances: tuple[Instance, ...]
    token: int = field(compare=False)     # the `module` token
    # where the tokens of the module's text are, which places its diagnostics
    positions: Positions = field(compare=False, repr=False)

    @property
    def origin(self) -> str:
        return self.positions.origin

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

# The tokens other than comments, which start with disjoint characters: a
# chunk of text without whitespace that this matches whole is one token,
# and one that its `split` leaves no gap in is several with no gap between
# them (`a<=b`).  `_SPLIT_RE` adds the comments, and is the one definition
# of where tokens are and of what is rejected: it cuts a whole text into
# its gaps (the even items) and, captured by the group, its tokens and
# complete comments (the odd items).  No token or comment starts with
# whitespace, so a gap holds only whitespace unless the text has a
# character that starts none of them; an unterminated `/*` leaves its `/`
# in a gap.
_TOKEN = r"""[A-Za-z_][A-Za-z0-9_$]*
  | [()\[\]{},;:.=@?~!&|^]
  | \d+(?:'[bBdDhH][0-9a-fA-F_xzXZ?]+)?[\d_]*
  | <="""
_COMMENT = r"//[^\n]* | /\*.*?\*/"
_TOKEN_RE = re.compile(f"({_TOKEN})", re.VERBOSE)
_SPLIT_RE = re.compile(f"({_TOKEN} | {_COMMENT})", re.VERBOSE | re.DOTALL)
_COMMENT_RE = re.compile(_COMMENT, re.VERBOSE | re.DOTALL)
# The one-character tokens that no other token contains: spaced apart, they
# end the chunks that `str.split` cuts.  `=`, `<`, `?` and `'` are left, since
# `<=` and sized literals (`4'b1?0?`) hold them.
_SPACED = "()[]{},;:.@~!&|^"

# a token's kind by its first character; the others start with a digit
_KIND_OF_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "id"),
    "<": "nba", **dict.fromkeys("()[]{},;:.=@?~!&|^", "punct")}


# The tokens of a text are two parallel lists, indexed by token: their kinds
# ("id", "kw", "number", "sized", "punct", "nba", and "eof" last) and their
# texts, with the text's `Positions`.  No token is an object of its own, and
# none is placed until a diagnostic asks where it is.
Tokens = tuple[list[str], list[str], "Positions"]


def line_starts(text: str) -> list[int]:
    """Offset of the first character of each line of `text` (and one past
    the end)."""
    return list(accumulate((len(line) + 1 for line in text.split("\n")), initial=0))


def position(starts: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of `offset`, given `line_starts` of its text."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


class Positions:
    """Where the tokens of one text are, worked out on the first request:
    the offsets where `_SPLIT_RE` starts them, comments dropped, and the
    end of the text for "eof"."""

    __slots__ = ("text", "origin", "_offsets", "_starts")

    def __init__(self, text: str, origin: str):
        self.text = text
        self.origin = origin
        self._offsets: list[int] | None = None
        self._starts: list[int] = []

    def offsets(self) -> list[int]:
        if self._offsets is None:
            parts = _SPLIT_RE.split(self.text)
            keep = [part[0] != "/" for part in parts[1::2]]
            keep.append(True)
            # each token starts where the parts before it end
            self._offsets = list(compress(islice(accumulate(map(len, parts)), 0, None, 2),
                                          keep))
            self._starts = line_starts(self.text)
        return self._offsets

    def where(self, tok: int) -> tuple[int, int]:
        """1-based line and column of token `tok`."""
        offset = self.offsets()[tok]
        return position(self._starts, offset)


def _kind(text: str) -> str:
    kind = _KIND_OF_FIRST.get(text[0])
    if kind is None:
        return "sized" if "'" in text else "number"
    if kind == "id" and text in KEYWORDS:
        return "kw"
    return kind


def tokenize(text: str, origin: str = "<input>") -> Tokens:
    """The tokens of `text`, cut by whole-text string passes; each distinct
    chunk that is not one token is split once.  They are the tokens of
    `_SPLIT_RE`: the comments it finds are the ones `_COMMENT_RE` does,
    since no token holds a `/`; no token spans an inserted space, since the
    spaced characters are whole tokens; and `str.split` cuts at the
    whitespace that `_reject`'s `str.strip` passes over.  Any text these
    passes do not take apart cleanly (a stray character, an unterminated
    comment, an unsupported keyword) goes to `_reject`."""
    spaced = _COMMENT_RE.sub(" ", text) if "/" in text else text
    for char in _SPACED:
        spaced = spaced.replace(char, f" {char} ")
    texts = spaced.split()
    kind_of: dict[str, str] = {}
    several: dict[str, list[str]] = {}
    for chunk in set(texts):
        if _TOKEN_RE.fullmatch(chunk):
            kind_of[chunk] = _kind(chunk)
            continue
        parts = _TOKEN_RE.split(chunk)
        if any(parts[0::2]):
            _reject(text, origin)
        several[chunk] = parts[1::2]
        for tok in parts[1::2]:
            kind_of[tok] = _kind(tok)
    if not kind_of.keys().isdisjoint(UNSUPPORTED_KEYWORDS):
        _reject(text, origin)
    if several:
        texts = [tok for chunk in texts for tok in several.get(chunk, (chunk,))]
    kinds = list(map(kind_of.__getitem__, texts))
    kinds.append("eof")
    texts.append("")
    return kinds, texts, Positions(text, origin)


def _reject(text: str, origin: str):
    """Raise the error of the first gap character that is not whitespace
    or of the first unsupported keyword, whichever comes first."""
    offset = 0
    for i, part in enumerate(_SPLIT_RE.split(text)):
        if i % 2 == 0 and part.strip():
            offset += len(part) - len(part.lstrip())
            where = position(line_starts(text), offset)
            if text[offset] in _STRAY_CONSTRUCTS:
                raise UnsupportedConstruct(_STRAY_CONSTRUCTS[text[offset]], *where, origin)
            if text.startswith("/*", offset):
                raise ParseError("unterminated comment", *where, origin)
            raise ParseError(f"unexpected character {text[offset]!r}", *where, origin)
        if i % 2 and part in UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(part, *position(line_starts(text), offset), origin)
        offset += len(part)
    raise AssertionError("nothing to reject")


# --- parser ------------------------------------------------------------------

class _Parser:
    """A parser over the tokens of one text.  A token is named by its index
    in the token lists, and `pos` is the index of the next one to read."""

    def __init__(self, text: str, origin: str):
        self.kinds, self.texts, self.positions = tokenize(text, origin)
        self.pos = 0
        self.origin = origin
        self.depth = 0          # expression nesting at the current token
        self.stmt_depth = 0     # `if` nesting at the current token
        # the token of every name the current module reads or drives, in
        # source order; `check_names` reads each one's role off its
        # neighbouring tokens
        self.names: list[int] = []
        # what the current module's shape check reads: each always block
        # with a reset, as (reset token, the body's first token, length of
        # `names` before the body, block); each slice, as (token, name,
        # msb, lsb); each port connected again, as (token, message)
        self.resets: list[tuple[int, int, int, AlwaysBlock]] = []
        self.slices: list[tuple[int, str, int, int]] = []
        self.twice: list[tuple[int, str]] = []

    def where(self, tok: int) -> tuple[int, int]:
        return self.positions.where(tok)

    def peek(self) -> str:
        """The text of the next token."""
        return self.texts[self.pos]

    def error(self, message: str, tok: int | None = None, expected: str | None = None):
        raise ParseError(message, *self.where(self.pos if tok is None else tok),
                         self.origin, expected)

    def unsupported(self, construct: str, tok: int):
        raise UnsupportedConstruct(construct, *self.where(tok), self.origin)

    # A method steps past a token only once it has matched it, so `pos`
    # never passes the end of input.

    def expect(self, text: str) -> int:
        tok = self.pos
        if self.texts[tok] != text:
            self.error(f"expected {text!r}, found {self.texts[tok]!r}", tok, expected=text)
        self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect_id(self) -> int:
        tok = self.pos
        if self.kinds[tok] != "id":
            self.error(f"expected identifier, found {self.texts[tok]!r}", tok,
                       expected="identifier")
        self.pos += 1
        return tok

    # -- top level --

    def parse_source(self) -> list[ParsedModule]:
        modules: list[ParsedModule] = []
        while self.kinds[self.pos] != "eof":
            if self.peek() != "module":
                self.error(f"expected 'module', found {self.peek()!r}", expected="module")
            modules.append(self.parse_module())
        return modules

    def parse_module(self) -> ParsedModule:
        start = self.expect("module")
        name = self.texts[self.expect_id()]
        ports: list[PortDecl] = []
        widths: dict[str, int] = {}
        self.expect("(")
        if self.peek() != ")":
            while True:
                tok = self.pos
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

        kinds, texts = self.kinds, self.texts
        while (text := texts[self.pos]) != "endmodule":
            tok = self.pos
            kind = kinds[tok]
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
                         | {d.name for d in decls if d.is_reg},
                         [p.name for p in ports if p.direction == "in"])
        self.check_shape(widths)
        self.expect("endmodule")
        return ParsedModule(name, tuple(ports), tuple(decls), tuple(assigns),
                            tuple(always_blocks), tuple(instances), start, self.positions)

    def check_names(self, declared: dict[str, int], regs: set[str],
                    inputs: list[str]) -> None:
        """Reject the module's first name that is undeclared, that is an
        `assign` target declared `reg` or a nonblocking target that is not,
        or that gets a second driver; a name may be used before its
        declaration.  An input port is driven from outside the module, an
        `assign` drives its target and an always block its nonblocking
        targets.  A name's role follows from its neighbours: an `assign`
        target comes after `assign`, a nonblocking target before `<=`, and
        an always block's clock and reset after their edges."""
        texts, kinds = self.texts, self.kinds
        # name -> (what drives it: its `assign`'s target, its always block's
        # last edged name, or -1 for an input port; its first driven token)
        drivers = dict.fromkeys(inputs, (-1, -1))
        block = -1
        for tok in self.names:
            name = texts[tok]
            before = texts[tok - 1]
            if name not in declared:
                message = f"undeclared identifier {name!r}"
            elif before == "assign":
                if name in regs:
                    message = f"assign target {name!r} is a reg"
                elif (first := drivers.setdefault(name, (tok, tok)))[0] == tok:
                    continue
                else:
                    message = self.driven_twice(name, first[1])
            elif kinds[tok + 1] == "nba":
                if name not in regs:
                    message = f"nonblocking target {name!r} is not a reg"
                elif (first := drivers.setdefault(name, (block, tok)))[0] == block:
                    continue
                else:
                    message = self.driven_twice(name, first[1])
            else:
                if before in ("posedge", "negedge"):
                    block = tok
                continue
            raise ParseError(message, *self.where(tok), self.origin)

    def driven_twice(self, name: str, first: int) -> str:
        if first < 0:
            return f"assign target {name!r} is an input port"
        return f"{name!r} already driven at line {self.where(first)[0]}"

    def check_shape(self, widths: dict[str, int]) -> None:
        """Reject the module's first shape error in source order: a bad
        async reset arm (at most one per always block), a slice past its
        net's width, or an instance port connected twice."""
        errors = [e for r in self.resets for e in self.reset_errors(widths, *r)]
        errors += [(tok, f"slice [{msb}:{lsb}] out of range for {name} ({widths[name]} bits)")
                   for tok, name, msb, lsb in self.slices if msb >= widths[name]]
        errors += self.twice
        if errors:
            tok, message = min(errors, key=lambda e: e[0])
            raise ParseError(message, *self.where(tok), self.origin)

    def reset_errors(self, widths: dict[str, int], reset_tok: int, first: int,
                     n_names: int, blk: AlwaysBlock) -> list[tuple[int, str]]:
        """The (token, message) errors of an always block with an async
        reset: of its width, of its body's shape, of its condition's
        polarity, or else of each reset value that is no literal or too wide."""
        texts = self.texts
        reset = texts[reset_tok]
        if widths[reset] != 1:
            return [(reset_tok, f"reset {reset!r} must be 1 bit wide")]
        body = blk.body
        if len(body) != 1 or not isinstance(body[0], IfStmt) or body[0].other is None:
            return [(first,
                     "always block with async reset must be 'if (reset) ... else ...'")]
        want = Unary("~", Ident(reset)) if blk.reset_edge == "negedge" else Ident(reset)
        if body[0].cond != want:
            # `if (` or `begin if (` comes before the condition
            cond = first + (3 if texts[first] == "begin" else 2)
            return [(cond, f"reset condition must test {reset!r} "
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
            errors.append((next(tok for tok in islice(self.names, n_names, None)
                                if texts[tok] == target and self.kinds[tok + 1] == "nba"),
                           message))
        return errors

    # The productions below that every design repeats (ports, declarations,
    # statements, operands, an instance's head) read the tokens they expect
    # by index, and raise at any other token the error that `expect` or
    # `expect_id` would.

    def parse_port_decl(self) -> PortDecl:
        texts = self.texts
        tok = self.pos
        direction = texts[tok]
        if direction not in ("input", "output"):
            if direction == "inout":
                self.unsupported("inout port", tok)
            self.error(f"expected port direction, found {direction!r}", tok,
                       expected="input/output")
        self.pos += 1
        is_reg = texts[self.pos] == "reg"
        self.pos += is_reg
        width = self.parse_range()
        name = self.pos
        if self.kinds[name] != "id":
            self.expect_id()
        self.pos += 1
        if is_reg and direction == "input":
            self.error("input port cannot be reg", tok)
        return PortDecl(texts[name], "in" if direction == "input" else "out", width, is_reg)

    def parse_range(self) -> int:
        if not self.accept("["):
            return 1
        msb_tok = self.pos
        msb = self.parse_int()
        self.expect(":")
        lsb = self.parse_int()
        self.expect("]")
        if lsb != 0:
            self.unsupported("declaration range with nonzero lsb", msb_tok)
        return msb + 1

    def parse_int(self) -> int:
        """A range or slice bound, which names a bit of a net."""
        tok = self.pos
        if self.kinds[tok] != "number":
            self.error(f"expected integer, found {self.texts[tok]!r}", tok, expected="integer")
        self.pos += 1
        value = _decimal(self.texts[tok].replace("_", ""))
        if value >= MAX_WIDTH:
            self.error(f"bit index past the widest net of {MAX_WIDTH} bits", tok)
        return value

    def parse_net_decl(self) -> list[NetDecl]:
        kinds, texts = self.kinds, self.texts
        is_reg = texts[self.pos] == "reg"
        self.pos += 1
        width = self.parse_range()
        out = []
        while True:
            tok = self.pos
            if kinds[tok] != "id":
                self.expect_id()
            out.append(NetDecl(texts[tok], width, is_reg))
            if texts[tok + 1] != ",":
                break
            self.pos += 2
        self.pos += 1
        self.expect(";")
        return out

    def parse_assign(self) -> AssignItem:
        start = self.expect("assign")
        target = self.expect_id()
        self.names.append(target)
        if self.peek() == "[":
            self.unsupported("assignment to a slice", start)
        self.expect("=")
        expr = self.parse_expr()
        self.expect(";")
        return AssignItem(self.texts[target], expr)

    def parse_always(self) -> AlwaysBlock:
        texts = self.texts
        self.expect("always")
        self.expect("@")
        self.expect("(")
        edge = self.pos
        if texts[edge] == "negedge":
            self.unsupported("negedge clock", edge)
        if texts[edge] != "posedge":
            self.unsupported("combinational always block", edge)
        self.pos += 1
        clock = self.expect_id()
        self.names.append(clock)
        reset = reset_edge = reset_tok = None
        if self.accept("or"):
            reset_edge = self.peek()
            if reset_edge not in ("posedge", "negedge"):
                self.error("expected posedge/negedge in event list")
            self.pos += 1
            reset_tok = self.expect_id()
            self.names.append(reset_tok)
            reset = texts[reset_tok]
        self.expect(")")
        first, n_names = self.pos, len(self.names)
        blk = AlwaysBlock(texts[clock], reset, reset_edge, tuple(self.parse_stmt_block()))
        if reset_tok is not None:
            self.resets.append((reset_tok, first, n_names, blk))
        return blk

    def parse_stmt_block(self) -> list[Stmt]:
        kinds, texts = self.kinds, self.texts
        if texts[self.pos] != "begin":
            return [self.parse_stmt()]
        self.pos += 1
        stmts = []
        while True:
            tok = self.pos
            if texts[tok] == "end":
                self.pos += 1
                return stmts
            if kinds[tok] == "eof":
                self.error("unexpected end of file inside begin/end")
            stmts.append(self.parse_stmt())

    def parse_stmt(self) -> Stmt:
        kinds, texts = self.kinds, self.texts
        tok = self.pos
        if kinds[tok] == "id":
            self.names.append(tok)
            nxt = tok + 1
            if kinds[nxt] != "nba":
                if texts[nxt] == "=":
                    self.unsupported("blocking assignment in always block", nxt)
                self.error(f"expected '<=', found {texts[nxt]!r}", nxt, expected="<=")
            self.pos += 2
            expr = self.parse_expr()
            self.expect(";")
            return NbAssign(texts[tok], expr)
        if texts[tok] == "if":
            self.stmt_depth += 1
            if self.stmt_depth > MAX_STMT_DEPTH:
                self.error(_STMT_TOO_DEEP, tok)
            self.pos += 1
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = tuple(self.parse_stmt_block())
            other = None
            if texts[self.pos] == "else":
                self.pos += 1
                other = tuple(self.parse_stmt_block())
            self.stmt_depth -= 1
            return IfStmt(cond, then, other)
        self.error(f"expected statement, found {texts[tok]!r}", tok)
        raise AssertionError  # unreachable

    def parse_instance(self) -> Instance:
        kinds, texts = self.kinds, self.texts
        mod_tok = self.pos
        inst_tok = mod_tok + 1
        if kinds[inst_tok] != "id":
            # common error shape: `foo = ...` outside assign
            self.error(f"expected instance name after {texts[mod_tok]!r}", inst_tok,
                       expected="identifier")
        inst = texts[inst_tok]
        self.pos += 2
        self.expect("(")
        conns: list[tuple[str, Expr | None]] = []
        connected = set()
        if texts[self.pos] != ")":
            while True:
                self.expect(".")
                port_tok = self.expect_id()
                port = texts[port_tok]
                self.expect("(")
                if port in connected:
                    self.twice.append((port_tok,
                                       f"{inst}: port {port!r} connected twice"))
                connected.add(port)
                expr = None
                if texts[self.pos] != ")":
                    expr = self.parse_expr()
                self.expect(")")
                conns.append((port, expr))
                if texts[self.pos] != ",":
                    break
                self.pos += 1
        self.expect(")")
        self.expect(";")
        return Instance(texts[mod_tok], inst, tuple(conns), inst_tok)

    # -- expressions (precedence: ?: < | < ^ < & < unary < primary) --

    def nest(self, tok: int):
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            self.error(_TOO_DEEP, tok)

    def parse_expr(self) -> Expr:
        first = self.pos
        self.nest(first)
        expr = self.parse_binary(1)
        if self.texts[self.pos] == "?":
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
            self.error(_TOO_DEEP, first)
        return expr

    def parse_binary(self, lowest: int) -> Expr:
        """Operands joined by the binary operators of precedence `lowest`
        and above, each operator left-associative."""
        texts = self.texts
        lhs = self.parse_unary()
        while True:
            op = texts[self.pos]
            prec = _PRECEDENCE.get(op, 0)
            if prec < lowest:
                return lhs
            self.pos += 1
            lhs = Binary(op, lhs, self.parse_binary(prec + 1))

    def parse_unary(self) -> Expr:
        tok = self.pos
        if self.texts[tok] in ("~", "!"):
            self.pos += 1
            self.nest(tok)
            operand = self.parse_unary()
            self.depth -= 1
            return Unary("~", operand)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        texts = self.texts
        tok = self.pos
        kind = self.kinds[tok]
        if kind == "id":
            self.names.append(tok)
            self.pos += 1
            if texts[tok + 1] != "[":
                return Ident(texts[tok], tok)
            self.pos += 1
            msb = self.parse_int()
            lsb = msb
            if self.accept(":"):
                lsb = self.parse_int()
            self.expect("]")
            if msb < lsb:
                self.error("slice msb < lsb", tok)
            name = texts[tok]
            self.slices.append((tok, name, msb, lsb))
            return Slice(name, msb, lsb, tok)
        if kind == "sized":
            self.pos += 1
            return self.sized_literal(tok)
        if kind == "number":
            self.pos += 1
            return self.unsized_literal(tok)
        text = texts[tok]
        if text == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if text == "{":
            self.pos += 1
            parts = [self.parse_expr()]
            if self.peek() == "{":
                self.unsupported("replication", tok)
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return Concat(tuple(parts), tok)
        self.error(f"expected expression, found {text!r}", tok, expected="expression")
        raise AssertionError  # unreachable

    def unsized_literal(self, tok: int) -> Literal:
        value = _decimal(self.texts[tok].replace("_", ""))
        if value >> MAX_WIDTH:
            self.error(f"number does not fit in {MAX_WIDTH} bits", tok)
        return Literal(value, None, tok)

    def sized_literal(self, tok: int) -> Literal:
        width_str, rest = self.texts[tok].split("'", 1)
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
        return Literal(value, width, tok)


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
