"""Independent oracle implementations used to compute expected values.

Everything here deliberately avoids the library's traversal/memoization
machinery: tokens come from one anchored match per token or skipped gap,
parse trees from `ReferenceParser`, which steps through those tokens one
`peek`, `accept` or `expect` at a time with a method per operator
precedence, counts are recursive multiplications over the parsed module tree,
expressions lowered by the elaborator's first `match` over the node classes
(`ReferenceElaborator`), a built netlist from resolving every pin through
the union-find, each stamped cell relocated on its own, and sorting every
reader list, cones from naive path enumeration and, in order, from the
walk that enters each net through an iterator of its own, gate order from a Kahn
loop that re-sorts its ready list, netlist invariants from every driver
and reader recomputed and compared with the builder's, flop domains from
exhaustive backward search and, with root clocks and clock-gate notes,
from each flop's clock cone judged again per flop, net domains from each
net's own cone, crossing pairs from brute-force path walks, and synchronizers from the
first-written matchers, which scan every cell and chain.  Gate values come
from a string-dispatch interpreter, the reference for the simulator's
compiled kernels; ticks from `ReferenceEngine`, which recomputes each
tick's edging flops, captures and sampling checkers, the reference for the
engine's per-edge-set schedules, with a flip history of the last flip tick
per bit; waves from `WaveRecorder`, which compares every net after each
commit and keeps per-net change lists, the reference for a run's frames;
exhaustive exploration is redone by replaying every decision path
from the start; and VCD text from the writer that formats each value change
through a call of its own.  A module's names are checked
as the elaborator once did, over the parsed tree, assigns before always
blocks, and its shape (reset arms, slices, connections) per instance, over
the lowered expressions only.  Also here: the MSI-off reference run, a
printer back to subset source text, and the generated assertions
interpreted over a run's waves (`sva_interp`).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import ne

from cdckit.checkers import build_checkers
from cdckit.codegen import generate_all
from cdckit.constraints import ConstraintSet
from cdckit.domains import CdcPair, ClockGateNote, DomainMap, NetDomain, _ref_name
from cdckit.elaborate import _Elaborator, _infer_width, _Scope, _shown
from cdckit.errors import (ElabError, MultipleDrivers, ParseError,
                           PortWidthMismatch, SimDivergence, UndeclaredClock,
                           UnsupportedConstruct)
from cdckit.netlist import (GATE_OPS, BlackBox, Cell, Cone, Const, Dff, Gate, Net,
                            Netlist, NetlistBuilder, Port, Ref, _name_rank)
from cdckit.sim import (Engine, MsiConfig, MsiEvent, Opportunity,
                        SimResult, _State, cone_kernels, simulate)
from cdckit.syncrec import (SyncInstance, _chains, _fifo_roles, _gray_shape,
                             _net_driver_gate)
from cdckit.vcd import _var_id
from cdckit.verilog import (_STMT_TOO_DEEP, _TOO_DEEP, KEYWORDS, MAX_EXPR_DEPTH,
                            MAX_STMT_DEPTH, UNSUPPORTED_KEYWORDS, Binary, Concat,
                            Expr, Ident, IfStmt, Instance, Literal, NbAssign,
                            NetDecl, ParsedModule, PortDecl, Slice, Stmt,
                            Ternary, Unary, _expr_depth, _Parser, fold)
from sva_interp import evaluate_module, parse_bindings, parse_checker_module


def reference_simulate(analysis, stimulus, checkers=None,
                       scope: str = "ref") -> SimResult:
    """One run with metastability injection off."""
    return simulate(analysis, stimulus, MsiConfig(enabled=False),
                    checkers or [], scope)


_NEG = -(10 ** 9)      # the tick of a net's initial value in its wave


def frame_waves(ticks, frames: list[list[int]]) -> dict[int, list[tuple[int, int]]]:
    """Per-net waves from frames (the values before `ticks[0]`, then after
    each tick): per net, its first value at tick `_NEG`, then (tick, value)
    at each tick that changed it."""
    waves = {n: [(_NEG, v)] for n, v in enumerate(frames[0])}
    for tick, old, new in zip(ticks, frames, frames[1:]):
        for n in compress(range(len(new)), map(ne, new, old)):
            waves[n].append((tick, new[n]))
    return waves


def run_waves(res: SimResult) -> dict[int, list[tuple[int, int]]]:
    """A recorded run's waves, net -> [(tick, value)], from its frames."""
    return frame_waves(res.ticks, res.frames)


def wave_by_name(res: SimResult, netlist: Netlist) -> dict[str, list[tuple[int, int]]]:
    """A run's waves keyed by net name."""
    return {netlist.nets[i].name: w for i, w in run_waves(res).items()}


class WaveRecorder(Engine):
    """`Engine` with the per-net change recorder that frames replaced, the
    reference they are tested against: after each commit it compares
    every net with its value before the tick and appends (tick, value) to
    `waves[net]` for each one that changed.  Replacing `commit_tick` makes
    `run` step through it."""

    def initial_state(self) -> _State:
        state = super().initial_state()
        self.waves = {n: [(_NEG, v)] for n, v in enumerate(state.values)}
        return state

    def commit_tick(self, state, plan, decisions, reference=None):
        old = state.values
        state, events = super().commit_tick(state, plan, decisions, reference)
        new = state.values
        for n in compress(range(len(new)), map(ne, new, old)):
            self.waves[n].append((plan.tick, new[n]))
        return state, events


_REF_TOKEN_RE = re.compile(r"""
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


def reference_tokenize(text: str, origin: str = "<input>"
                       ) -> list[tuple[str, str, int, int]]:
    """Tokens as (kind, text, line, column), by one anchored match per token
    or skipped gap, tracking the line at every whitespace or comment match."""
    tokens: list[tuple[str, str, int, int]] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
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
            if text.startswith("/*", pos):
                raise ParseError("unterminated comment", line, col, origin)
            raise ParseError(f"unexpected character {ch!r}", line, col, origin)
        elif kind == "id":
            if tok_text in UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstruct(tok_text, line, col, origin)
            tokens.append(("kw" if tok_text in KEYWORDS else "id",
                           tok_text, line, col))
        else:
            tokens.append((kind, tok_text, line, col))
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


@dataclass
class _TokenPlaces:
    """The line and column of each token, as `reference_tokenize` gave them,
    in place of the parser's `Positions`."""
    origin: str
    places: list[tuple[int, int]]

    def where(self, tok: int) -> tuple[int, int]:
        return self.places[tok]


class ReferenceParser(_Parser):
    """The parser as it stepped through tokens one `peek`, `accept` or
    `expect` at a time, with one method per binary operator's precedence,
    on tokens from `reference_tokenize`.  It shares with the parser the
    productions that were not rewritten, and the integer rules
    (`parse_int` and the literals)."""

    def __init__(self, text: str, origin: str = "<input>"):
        tokens = reference_tokenize(text, origin)
        super().__init__("", origin)
        self.kinds = [kind for kind, _tok, _line, _col in tokens]
        self.texts = [tok for _kind, tok, _line, _col in tokens]
        self.positions = _TokenPlaces(origin, [(line, col) for _kind, _tok, line, col in tokens])

    def next(self) -> int:
        """Step past the next token, unless it is the end of input, and
        return its index."""
        tok = self.pos
        if self.kinds[tok] != "eof":
            self.pos += 1
        return tok

    def parse_port_decl(self) -> PortDecl:
        tok = self.pos
        if self.peek() == "inout":
            self.unsupported("inout port", tok)
        if self.peek() not in ("input", "output"):
            self.error(f"expected port direction, found {self.peek()!r}", tok,
                       expected="input/output")
        direction = "in" if self.texts[self.next()] == "input" else "out"
        is_reg = self.accept("reg")
        width = self.parse_range()
        name = self.texts[self.expect_id()]
        if is_reg and direction == "in":
            self.error("input port cannot be reg", tok)
        return PortDecl(name, direction, width, is_reg)

    def parse_net_decl(self) -> list[NetDecl]:
        is_reg = self.texts[self.next()] == "reg"
        width = self.parse_range()
        out = []
        while True:
            name = self.texts[self.expect_id()]
            out.append(NetDecl(name, width, is_reg))
            if not self.accept(","):
                break
        self.expect(";")
        return out

    def parse_stmt_block(self) -> list[Stmt]:
        if self.accept("begin"):
            stmts = []
            while self.peek() != "end":
                if self.kinds[self.pos] == "eof":
                    self.error("unexpected end of file inside begin/end")
                stmts.append(self.parse_stmt())
            self.expect("end")
            return stmts
        return [self.parse_stmt()]

    def parse_stmt(self) -> Stmt:
        tok = self.pos
        if self.peek() == "if":
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
            return IfStmt(cond, then, other)
        if self.kinds[tok] == "id":
            target = self.texts[self.next()]
            self.names.append(tok)
            nxt = self.pos
            if self.peek() == "=":
                self.unsupported("blocking assignment in always block", nxt)
            if self.kinds[nxt] != "nba":
                self.error(f"expected '<=', found {self.peek()!r}", nxt, expected="<=")
            self.next()
            expr = self.parse_expr()
            self.expect(";")
            return NbAssign(target, expr)
        self.error(f"expected statement, found {self.peek()!r}", tok)
        raise AssertionError  # unreachable

    def parse_instance(self) -> Instance:
        mod = self.texts[self.expect_id()]
        inst_tok = self.pos
        if self.kinds[inst_tok] != "id":
            self.error(f"expected instance name after {mod!r}", inst_tok,
                       expected="identifier")
        inst = self.texts[self.next()]
        self.expect("(")
        conns: list[tuple[str, Expr | None]] = []
        connected = set()
        if self.peek() != ")":
            while True:
                self.expect(".")
                port_tok = self.expect_id()
                port = self.texts[port_tok]
                if port in connected:
                    self.twice.append((port_tok,
                                       f"{inst}: port {port!r} connected twice"))
                connected.add(port)
                self.expect("(")
                expr = None
                if self.peek() != ")":
                    expr = self.parse_expr()
                self.expect(")")
                conns.append((port, expr))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        return Instance(mod, inst, tuple(conns), inst_tok)

    def parse_expr(self) -> Expr:
        first = self.pos
        self.nest(first)
        expr = self.parse_or()
        if self.accept("?"):
            if_true = self.parse_expr()
            self.expect(":")
            if_false = self.parse_expr()
            expr = Ternary(expr, if_true, if_false)
        self.depth -= 1
        if (self.depth == 0 and self.pos - first > MAX_EXPR_DEPTH
                and _expr_depth(expr) > MAX_EXPR_DEPTH):
            self.error(_TOO_DEEP, first)
        return expr

    def parse_or(self) -> Expr:
        lhs = self.parse_xor()
        while self.accept("|"):
            lhs = Binary("|", lhs, self.parse_xor())
        return lhs

    def parse_xor(self) -> Expr:
        lhs = self.parse_and()
        while self.accept("^"):
            lhs = Binary("^", lhs, self.parse_and())
        return lhs

    def parse_and(self) -> Expr:
        lhs = self.parse_unary()
        while self.accept("&"):
            lhs = Binary("&", lhs, self.parse_unary())
        return lhs

    def parse_primary(self) -> Expr:
        tok = self.pos
        kind, text = self.kinds[tok], self.peek()
        if text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if text == "{":
            self.next()
            parts = [self.parse_expr()]
            if self.peek() == "{":
                self.unsupported("replication", tok)
            while self.accept(","):
                parts.append(self.parse_expr())
            self.expect("}")
            return Concat(tuple(parts), tok)
        if kind == "sized":
            self.next()
            return self.sized_literal(tok)
        if kind == "number":
            self.next()
            return self.unsized_literal(tok)
        if kind == "id":
            self.next()
            self.names.append(tok)
            if self.accept("["):
                msb = self.parse_int()
                lsb = msb
                if self.accept(":"):
                    lsb = self.parse_int()
                self.expect("]")
                if msb < lsb:
                    self.error("slice msb < lsb", tok)
                self.slices.append((tok, text, msb, lsb))
                return Slice(text, msb, lsb, tok)
            return Ident(text, tok)
        self.error(f"expected expression, found {text!r}", tok, expected="expression")
        raise AssertionError  # unreachable


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


@lru_cache(maxsize=1)
def _statement_lines(text: str) -> dict[str, tuple[list[int], ...]]:
    """For each module of `text`, the lines of its `assign`s, of its
    nonblocking targets, of its `always` blocks and of its `if`s, in source
    order, from the reference tokenizer."""
    out: dict[str, tuple[list[int], ...]] = {}
    toks = reference_tokenize(text)
    for i, tok in enumerate(toks):
        if tok[1] == "module":
            assigns, nbs, always, ifs = out[toks[i + 1][1]] = [], [], [], []
        elif tok[1] == "assign":
            assigns.append(tok[2])
        elif tok[0] == "nba":
            nbs.append(toks[i - 1][2])
        elif tok[1] == "always":
            always.append(tok[2])
        elif tok[1] == "if":
            ifs.append(tok[2])
    return out


def reference_check_module(mod: ParsedModule, text: str,
                           origin: str = "<input>") -> None:
    """Enforce declaration discipline the way the elaborator once did, on a
    module parsed from `text`: used names declared, nonblocking targets reg,
    assign targets not reg.  Assigns are checked before always blocks, and an
    error is raised at the line of its statement, column 0.  Instance
    connections are not checked."""
    assign_lines, nb_lines, always_lines, if_lines = _statement_lines(text)[mod.name]
    nb_line, if_line = iter(nb_lines), iter(if_lines)
    widths = mod.declared_widths()
    regs = {p.name for p in mod.ports if p.is_reg} | {d.name for d in mod.decls if d.is_reg}

    for a, line in zip(mod.assigns, assign_lines, strict=True):
        _need(widths, a.target, line, origin)
        if a.target in regs:
            raise ParseError(f"assign target {a.target!r} is a reg", line, 0, origin)
        for name in expr_idents(a.expr):
            _need(widths, name, line, origin)

    for blk, blk_line in zip(mod.always_blocks, always_lines, strict=True):
        _need(widths, blk.clock, blk_line, origin)
        if blk.reset is not None:
            _need(widths, blk.reset, blk_line, origin)
        # statements in source order, on an explicit stack
        stack: list[Stmt] = list(reversed(blk.body))
        while stack:
            s = stack.pop()
            if isinstance(s, NbAssign):
                line = next(nb_line)
                _need(widths, s.target, line, origin)
                if s.target not in regs:
                    raise ParseError(f"nonblocking target {s.target!r} is not a reg",
                                     line, 0, origin)
                for name in expr_idents(s.expr):
                    _need(widths, name, line, origin)
            else:
                line = next(if_line)
                for name in expr_idents(s.cond):
                    _need(widths, name, line, origin)
                if s.other is not None:
                    stack.extend(reversed(s.other))
                stack.extend(reversed(s.then))


def _need(widths: dict, name: str, line: int, origin: str) -> None:
    if name not in widths:
        raise ParseError(f"undeclared identifier {name!r}", line, 0, origin)


def _lowered_slices(expr: Expr | None):
    """The slices of an expression in the order the elaborator lowers them."""
    match expr:
        case Slice():
            yield expr
        case Unary(_, operand):
            yield from _lowered_slices(operand)
        case Binary(_, lhs, rhs):
            yield from _lowered_slices(lhs)
            yield from _lowered_slices(rhs)
        case Ternary(c, t, f):
            for e in (c, t, f):
                yield from _lowered_slices(e)
        case Concat(parts):
            for e in parts:
                yield from _lowered_slices(e)


def reference_shape_errors(modules: list[ParsedModule], top: str) -> list[str]:
    """The shape errors the elaborator once raised, per instance, in the
    order it met them, each check going on past its error as the code after
    it would have: modules defined twice, then the instances below `top`
    depth first, each module's assigns, always blocks (reset width, reset
    shape, polarity, literal reset values; per register its lowered slices
    and whether its reset value fits) and connections (missing port, port
    connected twice, output port on an expression, lowered slices).  Only
    lowered expressions are checked, so a module no instance reaches, a
    black box's connections and a slice the fold discards are not.  The
    messages carry the old instance paths and no line."""
    errors: list[str] = []
    by_name: dict[str, ParsedModule] = {}
    for m in modules:
        if by_name.setdefault(m.name, m) is not m:
            errors.append(f"module {m.name!r} defined more than once")

    def slices(prefix: str, widths: dict[str, int], expr: Expr | None) -> None:
        for s in _lowered_slices(expr):
            if s.msb >= widths[s.name]:
                errors.append(f"slice [{s.msb}:{s.lsb}] out of range for "
                              f"{prefix}{s.name} ({widths[s.name]} bits)")

    def own(mod: ParsedModule, prefix: str) -> None:
        widths = mod.declared_widths()
        for a in mod.assigns:
            slices(prefix, widths, a.expr)
        for blk in mod.always_blocks:
            reset_env: dict[str, Expr] = {}
            body = blk.body
            if blk.reset is not None:
                if widths[blk.reset] != 1:
                    errors.append(f"reset {blk.reset!r} must be 1 bit wide")
                if len(body) != 1 or not isinstance(body[0], IfStmt) or body[0].other is None:
                    errors.append("always block with async reset must be "
                                  "'if (reset) ... else ...'")
                    continue
                want = (Unary("~", Ident(blk.reset)) if blk.reset_edge == "negedge"
                        else Ident(blk.reset))
                if body[0].cond != want:
                    errors.append(f"reset condition must test {blk.reset!r} with the "
                                  "polarity of its edge event")
                reset_env = fold(body[0].then, {})
                body = body[0].other
                for target, expr in reset_env.items():
                    if not isinstance(expr, Literal):
                        errors.append(f"reset value of {target!r} must be a constant literal")
            func_env = fold(body, {})
            for target in sorted(set(func_env) | set(reset_env)):
                nxt = func_env.get(target, Ident(target))
                enable = None
                if isinstance(nxt, Ternary) and Ident(target) in (nxt.if_true, nxt.if_false):
                    enable, nxt = nxt.cond, (nxt.if_true if nxt.if_false == Ident(target)
                                             else nxt.if_false)
                slices(prefix, widths, nxt)
                slices(prefix, widths, enable)
                rv = reset_env.get(target)
                if isinstance(rv, Literal) and rv.value >= 1 << widths[target]:
                    errors.append(f"reset value of {target!r} does not fit")

    def visit(mod: ParsedModule, prefix: str, chain: tuple[str, ...]) -> None:
        own(mod, prefix)
        widths = mod.declared_widths()
        for inst in mod.instances:
            path = prefix + inst.name
            child = by_name.get(inst.module)
            if child is None:
                for _port, expr in inst.conns:
                    slices(prefix, widths, expr)
                continue
            port_dirs = {p.name: p.direction for p in child.ports}
            seen = set()
            for port, expr in inst.conns:
                if port not in port_dirs:
                    errors.append(f"{path}: module {inst.module!r} has no port {port!r}")
                    continue
                if port in seen:
                    errors.append(f"{path}: port {port!r} connected twice")
                seen.add(port)
                if expr is None or isinstance(expr, Ident):
                    continue
                if port_dirs[port] == "out":
                    errors.append(f"{path}: output port {port!r} must connect to a plain net")
                slices(prefix, widths, expr)
            if child.name not in chain:
                visit(child, path + ".", (*chain, child.name))

    if top in by_name:
        visit(by_name[top], "", (top,))
    return errors


def count_dffs_recursive(modules: list[ParsedModule], top: str) -> int:
    """Expected flop count of the flattened design: own registers plus the
    recursive sum over instances."""
    by_name = {m.name: m for m in modules}

    def regs_assigned(mod: ParsedModule) -> int:
        targets = set()

        def walk(stmts):
            for s in stmts:
                if hasattr(s, "target"):
                    targets.add(s.target)
                else:
                    walk(s.then)
                    if s.other is not None:
                        walk(s.other)

        for blk in mod.always_blocks:
            walk(blk.body)
        return len(targets)

    def count(name: str) -> int:
        mod = by_name[name]
        total = regs_assigned(mod)
        for inst in mod.instances:
            total += count(inst.module)
        return total

    return count(top)


def naive_cone(netlist: Netlist, net_idx: int):
    """Backward cone by plain path enumeration, no memoization."""
    seq: set = set()
    gates: set[int] = set()
    consts: set[int] = set()

    def walk(idx: int, on_path: frozenset[int]):
        assert idx not in on_path, "combinational loop"
        net = netlist.nets[idx]
        drv = net.driver
        if drv is None:
            return
        if drv[0] == "port":
            seq.add(("port", drv[1], ""))
            return
        cell = netlist.cells[drv[1]]
        if isinstance(cell, Dff):
            seq.add(("cell", cell.index, "out"))
        elif isinstance(cell, BlackBox):
            seq.add(("cell", cell.index, drv[2]))
        elif isinstance(cell, Const):
            consts.add(cell.index)
        else:
            gates.add(cell.index)
            for inp in cell.inputs:
                walk(inp, on_path | {idx})

    walk(net_idx, frozenset())
    return seq, gates, consts


def reference_fanin_cone(netlist: Netlist, net_idx: int) -> Cone:
    """`Netlist.fanin_cone` as it walked, unmemoized: a net is listed when
    it is entered, and a stack holds an iterator over the inputs each
    entered net has left to enter."""
    seq: list[Ref] = []
    gates: list[int] = []
    consts: list[int] = []
    seen: set[int] = set()
    stack = []

    def enter(idx: int):
        if idx in seen:
            return
        seen.add(idx)
        drv = netlist.nets[idx].driver
        inputs: tuple[int, ...] = ()
        if drv is None:
            pass
        elif drv[0] == "port":
            seq.append(("port", drv[1], ""))
        else:
            cell = netlist.cells[drv[1]]
            if isinstance(cell, Dff):
                seq.append(("cell", cell.index, "out"))
            elif isinstance(cell, BlackBox):
                seq.append(("cell", cell.index, drv[2]))
            elif isinstance(cell, Const):
                consts.append(cell.index)
            else:
                gates.append(cell.index)
                inputs = cell.inputs
        stack.append(iter(inputs))

    enter(net_idx)
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
        else:
            enter(nxt)
    return Cone(tuple(seq), tuple(gates), tuple(consts))


def sorted_comb_topo(netlist: Netlist) -> list[int]:
    """Gate indices in topological order, lowest ready index first: Kahn's
    algorithm re-sorting the ready list after every gate."""
    gate_of_net = {c.out: c.index for c in netlist.cells if isinstance(c, Gate)}
    indeg: dict[int, int] = {}
    succs: dict[int, list[int]] = {}
    for g in netlist.cells:
        if isinstance(g, Gate):
            indeg.setdefault(g.index, 0)
            for n in g.inputs:
                src = gate_of_net.get(n)
                if src is not None:
                    indeg[g.index] += 1
                    succs.setdefault(src, []).append(g.index)
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        idx = ready.pop(0)
        order.append(idx)
        for s in sorted(succs.get(idx, ())):
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
        ready.sort()
    assert len(order) == len(indeg), "combinational loop"
    return order


def _cell_inputs(cell: Cell) -> list[tuple[str, int]]:
    """Every (pin, net) a cell reads."""
    if isinstance(cell, Dff):
        pins = [("clock", cell.clock), ("data", cell.data)]
        if cell.enable is not None:
            pins.append(("enable", cell.enable))
        if cell.reset is not None:
            pins.append(("reset", cell.reset))
        return pins
    if isinstance(cell, (Gate, BlackBox)):
        return [(f"in{i}", n) for i, n in enumerate(cell.inputs)]
    return []


class ReferenceElaborator(_Elaborator):
    """The elaborator with expressions lowered by one `match` over the node
    classes, making a `fresh` and a `finish` closure per call and scanning
    the module's names for every temporary."""

    def synth(self, scope: _Scope, expr: Expr, ctx_width: int | None,
              out_handle: int | None = None) -> int:
        b = self.builder

        def temp() -> int:
            scope.counter += 1
            return scope.counter

        def fresh(width: int) -> int:
            n = temp()
            while f"__t{n}" in scope.widths:    # a name the module declares
                n = temp()
            return b.add_net(f"{scope.prefix}__t{n}", width)

        def finish(handle: int) -> int:
            if out_handle is not None and handle != out_handle:
                b.merge(out_handle, handle, scope.prefix or "top")
                return out_handle
            return handle

        match expr:
            case Ident(name):
                h = scope.handles[name]
                w = scope.widths[name]
                if ctx_width is not None and w != ctx_width:
                    raise PortWidthMismatch(
                        f"{scope.at(expr)}{scope.prefix}{name} is {w} bits, "
                        f"expected {ctx_width}")
                return finish(h)
            case Literal(value, width):
                w = width if width is not None else ctx_width
                if w is None:
                    raise ElabError(
                        f"{scope.at(expr)}unsized literal {_shown(value)} needs a width "
                        f"context in {scope.prefix or scope.mod.name}")
                if ctx_width is not None and w != ctx_width:
                    raise PortWidthMismatch(
                        f"{scope.at(expr)}literal is {w} bits, expected {ctx_width}")
                if value >= (1 << w):
                    raise ElabError(
                        f"{scope.at(expr)}literal {_shown(value)} does not fit in {w} bits")
                out = out_handle if out_handle is not None else fresh(w)
                n = temp()
                b.add_const(f"{scope.prefix}__c{n}", value, w, out)
                return out
            case Unary(_, operand):
                w = ctx_width or _infer_width(scope, operand)
                if w is None:
                    raise ElabError(f"{scope.at(expr)}cannot infer width of '~' operand")
                a = self.synth(scope, operand, w)
                out = out_handle if out_handle is not None else fresh(w)
                n = temp()
                b.add_gate(f"{scope.prefix}__g{n}_not", "NOT", [a], out, w)
                return out
            case Binary(op, lhs, rhs):
                w = ctx_width or _infer_width(scope, lhs) or _infer_width(scope, rhs)
                if w is None:
                    raise ElabError(
                        f"{scope.at(expr)}cannot infer width of '{op}' expression")
                a = self.synth(scope, lhs, w)
                c = self.synth(scope, rhs, w)
                out = out_handle if out_handle is not None else fresh(w)
                gate_op = {"&": "AND", "|": "OR", "^": "XOR"}[op]
                n = temp()
                b.add_gate(f"{scope.prefix}__g{n}_{gate_op.lower()}", gate_op,
                           [a, c], out, w)
                return out
            case Ternary(cond, if_true, if_false):
                w = ctx_width or _infer_width(scope, if_true) or _infer_width(scope, if_false)
                if w is None:
                    raise ElabError(
                        f"{scope.at(expr)}cannot infer width of conditional expression")
                sel = self.synth(scope, cond, 1)
                a = self.synth(scope, if_true, w)
                c = self.synth(scope, if_false, w)
                out = out_handle if out_handle is not None else fresh(w)
                n = temp()
                b.add_gate(f"{scope.prefix}__g{n}_mux", "MUX", [sel, a, c], out, w)
                return out
            case Concat([part]):
                # {x} is x itself, but x still needs an explicit width
                w = _infer_width(scope, part)
                if w is None:
                    raise ElabError(
                        f"{scope.at(part)}concat operand needs an explicit width")
                return self.synth(scope, part, ctx_width or w, out_handle)
            case Concat(parts):
                handles = []
                widths = []
                for p in parts:
                    w = _infer_width(scope, p)
                    if w is None:
                        raise ElabError(
                            f"{scope.at(p)}concat operand needs an explicit width")
                    handles.append(self.synth(scope, p, w))
                    widths.append(w)
                total = sum(widths)
                if ctx_width is not None and total != ctx_width:
                    raise PortWidthMismatch(
                        f"{scope.at(expr)}concat is {total} bits, expected {ctx_width}")
                out = out_handle if out_handle is not None else fresh(total)
                n = temp()
                b.add_gate(f"{scope.prefix}__g{n}_concat", "CONCAT", handles, out, total)
                return out
            case Slice(name, msb, lsb):
                w = msb - lsb + 1
                if ctx_width is not None and w != ctx_width:
                    raise PortWidthMismatch(
                        f"{scope.at(expr)}slice is {w} bits, expected {ctx_width}")
                out = out_handle if out_handle is not None else fresh(w)
                n = temp()
                b.add_gate(f"{scope.prefix}__g{n}_slice", "SLICE",
                           [scope.handles[name]], out, w, slice_lsb=lsb)
                return out
        raise AssertionError(expr)


def reference_elaborate(modules: list[ParsedModule], top: str) -> Netlist:
    """`elaborate` through `ReferenceElaborator` and `reference_finish`."""
    elab = ReferenceElaborator(modules, top)
    elab.expand_all()
    return reference_finish(elab.builder)


# the positions of the net handles in each kind of pending cell description
_HANDLE_FIELDS = {"gate": (4,), "dff": (3, 4, 5, 6, 7), "const": (4,)}


def pending_cells(b: NetlistBuilder) -> list[tuple]:
    """A builder's pending cell descriptions in cell order, each stamped
    body's cells relocated one description at a time: the instance prefix
    put before the name and the instance's first handle added to every
    handle."""
    out: list[tuple] = []
    for prefix, first, span, descs in [*b._runs, ("", 0, None, b._cells)]:
        if span is None:
            out += descs
            continue
        for desc in descs:
            moved = list(desc)
            moved[1] = prefix + desc[1]
            if desc[0] == "gate":
                assert all(0 <= h < span for h in desc[3])
                moved[3] = tuple(first + h for h in desc[3])
            for i in _HANDLE_FIELDS[desc[0]]:
                if desc[i] is not None:
                    assert 0 <= desc[i] < span
                    moved[i] = first + desc[i]
            out.append(tuple(moved))
    return out


def reference_finish(b: NetlistBuilder) -> Netlist:
    """The netlist a builder describes, resolving every pin through the
    union-find, with readers collected from each cell's pin list and every
    reader list sorted.  Leaves the builder able to finish again."""
    groups: dict[int, list[int]] = {}
    for h in range(len(b._net_names)):
        groups.setdefault(b._find(h), []).append(h)
    net_of_handle: dict[int, int] = {}
    nets: list[Net] = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        names = sorted((b._net_names[h] for h in groups[root]), key=_name_rank)
        idx = len(nets)
        nets.append(Net(idx, names[0], b._net_widths[root], tuple(names[1:])))
        for h in groups[root]:
            net_of_handle[h] = idx

    def res(h: int | None) -> int | None:
        return None if h is None else net_of_handle[b._find(h)]

    cells: list[Cell] = []
    bb_pending = {slot: [res(c) for c in conns] for slot, conns in b._bb_conns}
    for desc in pending_cells(b):
        kind = desc[0]
        idx = len(cells)
        if kind == "dff":
            _, name, width, clock, data, out, enable, reset, alow, rv = desc
            cells.append(Dff(idx, name, width, res(clock), res(data), res(out),
                             res(enable), res(reset), alow, rv))
        elif kind == "gate":
            _, name, op, inputs, out, width, lsb = desc
            cells.append(Gate(idx, name, op, tuple(res(i) for i in inputs),
                              res(out), width, lsb))
        elif kind == "const":
            _, name, value, width, out = desc
            cells.append(Const(idx, name, value, width, res(out)))
        else:
            _, name, module = desc
            cells.append(BlackBox(idx, name, module))
    ports = [Port(i, name, direction, width, res(net))
             for i, (name, direction, width, net) in enumerate(b._ports)]

    driven: dict[int, Ref] = {}

    def claim(net_idx: int, ref: Ref):
        prev = driven.get(net_idx)
        if prev is not None:
            raise MultipleDrivers(b._two_drivers(nets[net_idx], prev, ref, cells, ports))
        driven[net_idx] = ref

    for p in ports:
        if p.direction == "in":
            claim(p.net, ("port", p.index, ""))
    for c in cells:
        if isinstance(c, (Dff, Gate, Const)):
            claim(c.out, ("cell", c.index, "out"))
    # black-box connections: undriven nets become outputs, in slot order
    for slot, conn_nets in bb_pending.items():
        cell = cells[slot]
        ins: list[int] = []
        outs: list[int] = []
        for n in conn_nets:
            if n in driven:
                ins.append(n)
            else:
                claim(n, ("cell", cell.index, f"out{len(outs)}"))
                outs.append(n)
        cell.inputs = tuple(ins)
        cell.outs = tuple(outs)
    for idx, ref in driven.items():
        nets[idx].driver = ref

    readers: dict[int, list[Ref]] = {}
    for c in cells:
        for pin, n in _cell_inputs(c):
            readers.setdefault(n, []).append(("cell", c.index, pin))
    for p in ports:
        if p.direction == "out":
            readers.setdefault(p.net, []).append(("port", p.index, ""))
    for idx, refs in readers.items():
        nets[idx].readers = tuple(sorted(refs))
    netlist = Netlist(b.name, cells, nets, ports, list(b._instances))
    netlist.comb_topo()
    return netlist


@dataclass(frozen=True)
class StructuralIssue:
    kind: str       # "MultipleDrivers" | "NoDriver" | ...
    subject: str
    message: str


_SINGLE_INPUT = {"NOT", "BUF", "SLICE"}


def _cell_outputs(cell: Cell) -> tuple[int, ...]:
    if isinstance(cell, BlackBox):
        return cell.outs
    return (cell.out,)


def netlist_issues(nl: Netlist) -> list[StructuralIssue]:
    """Check structural invariants by recomputing every driver and reader
    from the cells and ports; returns one record per violation."""
    issues: list[StructuralIssue] = []
    drivers: dict[int, list[Ref]] = {}
    for p in nl.ports:
        if p.direction == "in":
            drivers.setdefault(p.net, []).append(("port", p.index, ""))
    for c in nl.cells:
        for out in _cell_outputs(c):
            pin = "out" if not isinstance(c, BlackBox) else f"out{list(c.outs).index(out)}"
            drivers.setdefault(out, []).append(("cell", c.index, pin))
    for net in nl.nets:
        if net.width < 1:
            issues.append(StructuralIssue("BadWidth", net.name, "net width < 1"))
        if not net.name:
            issues.append(StructuralIssue("NoName", f"net#{net.index}", "empty source name"))
        drvs = drivers.get(net.index, [])
        if len(drvs) > 1:
            issues.append(StructuralIssue("MultipleDrivers", net.name,
                                          f"net has {len(drvs)} drivers"))
        elif not drvs:
            if net.readers:
                issues.append(StructuralIssue("NoDriver", net.name, "net has no driver"))
        elif net.driver != drvs[0]:
            issues.append(StructuralIssue("DriverIndex", net.name,
                                          "driver reference disagrees with cell outputs"))
        if len(set(net.readers)) != len(net.readers):
            issues.append(StructuralIssue("DuplicateReader", net.name,
                                          "duplicate reader references"))
    # reader-side consistency
    reader_map: dict[int, set[Ref]] = {}
    for c in nl.cells:
        for pin, n in _cell_inputs(c):
            reader_map.setdefault(n, set()).add(("cell", c.index, pin))
    for p in nl.ports:
        if p.direction == "out":
            reader_map.setdefault(p.net, set()).add(("port", p.index, ""))
    for net in nl.nets:
        if set(net.readers) != reader_map.get(net.index, set()):
            issues.append(StructuralIssue("ReaderIndex", net.name,
                                          "reader references disagree with cell inputs"))
    for c in nl.cells:
        if isinstance(c, Gate):
            if c.op in _SINGLE_INPUT and len(c.inputs) != 1:
                issues.append(StructuralIssue("BadArity", c.name,
                                              f"{c.op} must have 1 input"))
            elif c.op == "MUX" and len(c.inputs) != 3:
                issues.append(StructuralIssue("BadArity", c.name, "MUX must have 3 inputs"))
            elif c.op in ("AND", "OR", "XOR", "CONCAT") and len(c.inputs) < 2:
                issues.append(StructuralIssue("BadArity", c.name,
                                              f"{c.op} must have >= 2 inputs"))
    return issues


def exhaustive_flop_domains(netlist: Netlist, clock_domains: dict[str, str]) -> dict[int, str]:
    """Label each flop with the declared clock found by exhaustive backward
    search from its clock pin."""
    out = {}
    for cell in netlist.cells:
        if not isinstance(cell, Dff):
            continue
        found = set()
        stack = [cell.clock]
        visited = set()
        while stack:
            idx = stack.pop()
            if idx in visited:
                continue
            visited.add(idx)
            drv = netlist.nets[idx].driver
            if drv is None:
                continue
            if drv[0] == "port":
                name = netlist.nets[netlist.ports[drv[1]].net].name
                if name in clock_domains:
                    found.add(clock_domains[name])
            else:
                c = netlist.cells[drv[1]]
                if isinstance(c, Gate):
                    stack.extend(c.inputs)
        assert len(found) == 1, f"flop {cell.name} clock resolves to {found}"
        out[cell.index] = next(iter(found))
    return out


def reference_clock_domains(netlist: Netlist, constraints: ConstraintSet
                            ) -> tuple[dict[int, str], dict[int, str], list[ClockGateNote]]:
    """`assign_domains`'s flop domains, root clock names and clock-gate
    notes, each flop's clock cone judged again for every flop.  Raises
    `UndeclaredClock` for the first flop whose cone does not reach exactly
    one declared clock, or reaches a black box."""
    clock_ports = {}
    for spec in constraints.clocks:
        port = next(p for p in netlist.ports
                    if p.direction == "in" and netlist.nets[p.net].name == spec.name)
        clock_ports[port.index] = spec.domain
    flop_domain: dict[int, str] = {}
    clock_root: dict[int, str] = {}
    notes: list[ClockGateNote] = []
    for flop in netlist.dffs():
        cone = netlist.fanin_cone(flop.clock)
        roots = [ref for ref in cone.seq if ref[0] == "port" and ref[1] in clock_ports]
        other_ports = [ref for ref in cone.seq if ref[0] == "port" and ref[1] not in clock_ports]
        boxes = [ref for ref in cone.seq if ref[0] == "cell"
                 and isinstance(netlist.cells[ref[1]], BlackBox)]
        if len(roots) != 1 or boxes:
            offend = ([_ref_name(netlist, r) for r in boxes]
                      or [_ref_name(netlist, r) for r in other_ports + roots])
            raise UndeclaredClock(
                f"clock of flop {flop.name!r} does not resolve to exactly one "
                f"declared clock (cone reaches {offend or 'nothing'})")
        root = roots[0]
        root_net = netlist.ports[root[1]].net
        flop_domain[flop.index] = clock_ports[root[1]]
        clock_root[flop.index] = netlist.nets[root_net].name
        for g in cone.gates:
            if len(netlist.cells[g].inputs) > 1:
                notes.append(ClockGateNote(flop.name, g, root_net))
    return flop_domain, clock_root, notes


def reference_net_domains(netlist: Netlist, dm: DomainMap) -> dict[int, NetDomain]:
    """Each net's domains from its own backward cone: the domains of the
    sequential sources it reaches, unclocked when one has none, constant
    when it reaches none."""
    out = {}
    for net in netlist.nets:
        cone = netlist.fanin_cone(net.index)
        domains: set[str] = set()
        unclocked = False
        for ref in cone.seq:
            d = dm.domain_of_ref(ref)
            if d is None:
                unclocked = True
            else:
                domains.add(d)
        constant = not cone.seq and not unclocked
        out[net.index] = NetDomain(frozenset(domains), unclocked, constant)
    return out


def brute_force_pairs(netlist: Netlist, flop_domains: dict[int, str],
                      port_domains: dict[int, str]) -> set[tuple[str, str, str]]:
    """All (src, dst, pin) with differing domains and a flop-free path,
    found by enumerating every backward path naively."""
    out = set()
    for dst in netlist.cells:
        if not isinstance(dst, Dff):
            continue
        pins = [("data", dst.data)]
        if dst.enable is not None:
            pins.append(("enable", dst.enable))
        for pin_name, pin_net in pins:

            def walk(idx: int):
                drv = netlist.nets[idx].driver
                if drv is None:
                    return
                if drv[0] == "port":
                    d = port_domains.get(drv[1])
                    if d is not None and d != flop_domains[dst.index]:
                        out.add((netlist.ports[drv[1]].name, dst.name, pin_name))
                    return
                cell = netlist.cells[drv[1]]
                if isinstance(cell, Dff):
                    if flop_domains[cell.index] != flop_domains[dst.index] \
                            and cell.index != dst.index:
                        out.add((cell.name, dst.name, pin_name))
                elif isinstance(cell, Gate):
                    for inp in cell.inputs:
                        walk(inp)

            walk(pin_net)
    return out


def _resolves_to(netlist: Netlist, net_idx: int, flop_idx: int) -> bool:
    """True if net is the flop's output through BUF/NOT/SLICE only."""
    seen = set()
    idx = net_idx
    while True:
        if idx in seen:
            return False
        seen.add(idx)
        flop = netlist.cells[flop_idx]
        if idx == flop.out:
            return True
        gate = _net_driver_gate(netlist, idx)
        if gate is None or gate.op not in ("BUF", "NOT", "SLICE"):
            return False
        idx = gate.inputs[0]


def reference_recognize(netlist: Netlist, domains: DomainMap,
                        pairs: list[CdcPair],
                        constraints: ConstraintSet) -> list[SyncInstance]:
    """The synchronizer matchers as first written: each kind fills a payload
    dict that a second per-kind switch turns into an instance, the pulse
    XOR is searched among all cells, and each select or enable is tried
    against every chain tail."""
    min_depth = constraints.options["ndff_min_depth"]
    pairs_by_dst: dict[int, list[CdcPair]] = {}
    for p in pairs:
        pairs_by_dst.setdefault(p.dst, []).append(p)

    consumed_chains: set[int] = set()   # by head index
    found: list[tuple] = []             # (kind, sort key, payload)

    # user-declared synchronizer modules claim their cells outright; their
    # internals are not matched again as ordinary patterns
    user_cells: set[int] = set()
    sync_mods = set(constraints.sync_cells)
    for rec in netlist.instances:
        if rec.module not in sync_mods:
            continue
        prefix = rec.path + "."
        members = tuple(c.index for c in netlist.cells
                        if isinstance(c, Dff) and c.name.startswith(prefix))
        if members:
            user_cells |= set(members)
            found.append(("user", rec.path, {"members": members,
                                             "module": rec.module,
                                             "path": rec.path}))

    chains = [c for c in _chains(netlist, min_depth) if not set(c) & user_cells]
    chain_of_head = {c[0]: c for c in chains}

    # pulse synchronizers
    for head, chain in sorted(chain_of_head.items()):
        tail = chain[-1]
        tail_out = netlist.nets[netlist.cells[tail].out]
        delay = None
        for kind, idx, pin in tail_out.readers:
            if kind == "cell" and pin == "data":
                cand = netlist.cells[idx]
                if (isinstance(cand, Dff) and cand.clock == netlist.cells[tail].clock
                        and cand.enable is None):
                    delay = cand
        if delay is None:
            continue
        xor = None
        for cell in netlist.cells:
            if isinstance(cell, Gate) and cell.op == "XOR" and set(cell.inputs) == \
                    {netlist.cells[tail].out, delay.out}:
                xor = cell
                break
        if xor is None:
            continue
        toggle = None
        for p in pairs_by_dst.get(head, ()):
            if p.pin != "data" or p.src[0] != "cell":
                continue
            src = netlist.cells[p.src[1]]
            if not isinstance(src, Dff):
                continue
            dgate = _net_driver_gate(netlist, src.data)
            if dgate is not None and dgate.op == "XOR" and len(dgate.inputs) == 2:
                others = [n for n in dgate.inputs if n != src.out]
                if len(others) == 1:
                    toggle = src
                    pulse_in = others[0]
                    break
        if toggle is None:
            continue
        consumed_chains.add(head)
        found.append(("pulse", netlist.cells[head].name, {
            "chain": chain, "delay": delay.index, "xor": xor.index,
            "toggle": toggle.index, "pulse_in": pulse_in,
            "pulse_out": xor.out,
        }))

    # async fifos: opposite-direction pointer crossings with gray shapes
    ptr_cands = []
    for head, chain in sorted(chain_of_head.items()):
        if head in consumed_chains:
            continue
        for p in pairs_by_dst.get(head, ()):
            if p.pin != "data" or p.src[0] != "cell":
                continue
            src = netlist.cells[p.src[1]]
            if isinstance(src, Dff) and _gray_shape(netlist, src.data):
                ptr_cands.append((p.src_domain, p.dst_domain, src.index, head, p.id))
    def _references(flop_idx: int, tail_idx: int) -> bool:
        flop = netlist.cells[flop_idx]
        tail_ref = ("cell", tail_idx, "out")
        nets = [flop.data] + ([flop.enable] if flop.enable is not None else [])
        return any(tail_ref in netlist.fanin_cone(n).seq for n in nets)

    used: set[int] = set()
    for i, a in enumerate(ptr_cands):
        if i in used:
            continue
        for j in range(i + 1, len(ptr_cands)):
            if j in used:
                continue
            b = ptr_cands[j]
            if a[0] != b[1] or a[1] != b[0]:
                continue
            # genuine pointer pairs are coupled: a guard on one side reads
            # the synced copy (the chain tail) of the other pointer
            coupled = _references(a[2], chain_of_head[b[3]][-1]) or \
                _references(b[2], chain_of_head[a[3]][-1])
            if not coupled:
                continue
            used.add(i)
            used.add(j)
            first, second = sorted((a, b), key=lambda t: netlist.cells[t[2]].name)
            consumed_chains.add(first[3])
            consumed_chains.add(second[3])
            found.append(("fifo", netlist.cells[first[2]].name, {
                "ptr_a": first, "ptr_b": second,
                "chain_a": chain_of_head[first[3]],
                "chain_b": chain_of_head[second[3]],
            }))
            break

    # mux/enable-gated bus synchronizers
    for flop in netlist.dffs():
        data_pairs = [p for p in pairs_by_dst.get(flop.index, ()) if p.pin == "data"]
        if not data_pairs:
            continue
        sel_chain = None
        mux_gate = None
        if flop.enable is not None:
            for head, chain in sorted(chain_of_head.items()):
                if head in consumed_chains:
                    continue
                if (_resolves_to(netlist, flop.enable, chain[-1])
                        and domains.flop_domain[chain[0]] == domains.flop_domain[flop.index]):
                    sel_chain = chain
                    break
        else:
            dgate = _net_driver_gate(netlist, flop.data)
            if dgate is not None and dgate.op == "MUX":
                sel, a_net, b_net = dgate.inputs
                feedback = (_resolves_to(netlist, a_net, flop.index)
                            or _resolves_to(netlist, b_net, flop.index))
                if feedback:
                    for head, chain in sorted(chain_of_head.items()):
                        if head in consumed_chains:
                            continue
                        if (_resolves_to(netlist, sel, chain[-1])
                                and domains.flop_domain[chain[0]] == domains.flop_domain[flop.index]):
                            sel_chain = chain
                            mux_gate = dgate
                            break
        if sel_chain is None:
            continue
        consumed_chains.add(sel_chain[0])
        found.append(("mux", flop.name, {
            "capture": flop.index, "chain": sel_chain,
            "mux": mux_gate.index if mux_gate is not None else None,
            "enable_net": flop.enable if flop.enable is not None
            else netlist.cells[sel_chain[-1]].out,
            "data_net": flop.data,
        }))

    # remaining chains as plain (or reset) ndff instances
    for head, chain in sorted(chain_of_head.items()):
        if head in consumed_chains:
            continue
        head_cell = netlist.cells[head]
        is_reset_sync = False
        if head_cell.reset is not None and all(
                netlist.cells[c].reset == head_cell.reset for c in chain):
            dn = domains.net_domain[head_cell.data]
            if dn.constant:
                rd = domains.net_domain[head_cell.reset]
                own = domains.flop_domain[head]
                if rd.unclocked or rd.domains - {own}:
                    is_reset_sync = True
        protected_exists = bool(pairs_by_dst.get(head)) or is_reset_sync
        if not protected_exists:
            continue
        found.append(("ndff", netlist.cells[head].name, {
            "chain": chain, "reset_sync": is_reset_sync,
        }))

    # materialize with deterministic ids and protected-pair assignment
    order = {"ndff": 0, "pulse": 1, "mux": 2, "fifo": 3, "user": 4}
    found.sort(key=lambda t: (order[t[0]], t[1]))
    instances: list[SyncInstance] = []
    for n, (kind, _key, info) in enumerate(found):
        sid = f"sync{n}"
        if kind == "ndff":
            chain = info["chain"]
            dst_dom = domains.flop_domain[chain[0]]
            prot = tuple(p.id for p in pairs_by_dst.get(chain[0], ()) if p.pin == "data")
            instances.append(SyncInstance(
                sid, "ndff", tuple(chain), chain[0], chain[-1], len(chain),
                dst_dom, prot, "reset" if info["reset_sync"] else "cdc",
                {"depth": len(chain)}))
        elif kind == "pulse":
            chain = info["chain"]
            members = tuple(chain) + (info["delay"], info["xor"], info["toggle"])
            dst_dom = domains.flop_domain[chain[0]]
            prot = tuple(p.id for p in pairs_by_dst.get(chain[0], ())
                         if p.pin == "data")
            instances.append(SyncInstance(
                sid, "pulse", members, chain[0], chain[-1], len(chain), dst_dom,
                prot, "cdc",
                {"toggle": netlist.cells[info["toggle"]].name,
                 "xor": netlist.cells[info["xor"]].name,
                 "pulse_in": info["pulse_in"], "pulse_out": info["pulse_out"],
                 "delay": info["delay"]}))
        elif kind == "mux":
            chain = info["chain"]
            cap = info["capture"]
            members = tuple(chain) + (cap,) + ((info["mux"],) if info["mux"] is not None else ())
            dst_dom = domains.flop_domain[cap]
            prot = tuple(p.id for p in pairs_by_dst.get(cap, ()) if p.pin == "data")
            prot += tuple(p.id for p in pairs_by_dst.get(chain[0], ()) if p.pin == "data")
            instances.append(SyncInstance(
                sid, "mux", members, cap, chain[-1], len(chain), dst_dom,
                tuple(sorted(set(prot))), "cdc",
                {"capture": netlist.cells[cap].name, "sel_head": chain[0],
                 "enable_net": info["enable_net"], "data_net": info["data_net"],
                 "mux": info["mux"]}))
        elif kind == "fifo":
            a, b = info["ptr_a"], info["ptr_b"]
            chain_a, chain_b = info["chain_a"], info["chain_b"]
            members = (a[2], b[2]) + tuple(chain_a) + tuple(chain_b)
            roles = _fifo_roles(netlist, a, b, chain_a, chain_b)
            width = netlist.cells[roles["wptr"]].width
            instances.append(SyncInstance(
                sid, "fifo", members, None, None, len(chain_a),
                domains.flop_domain[a[3]],
                tuple(sorted((a[4], b[4]))), "cdc",
                {"write_ptr": netlist.cells[roles["wptr"]].name,
                 "read_ptr": netlist.cells[roles["rptr"]].name,
                 "heads": sorted((chain_a[0], chain_b[0])),
                 "ptr_width": width, "depth": 1 << (width - 1),
                 **roles}))
        else:
            members = info["members"]
            doms = sorted({domains.flop_domain[m] for m in members})
            prot = tuple(p.id for p in pairs
                         if p.dst in set(members))
            instances.append(SyncInstance(
                sid, "user", members, None, None, len(members),
                doms[0] if doms else "?", prot, "cdc",
                {"module": info["module"], "path": info["path"]}))

    seen_members: set[int] = set()
    for inst in instances:
        if inst.kind == "ndff":
            assert not (set(inst.members) & seen_members), "overlapping ndff members"
            seen_members |= set(inst.members)
    return instances


def random_netlist(rng: random.Random, n_flops: int = 12, n_gates: int = 25,
                   n_domains: int = 2, n_ports: int = 3,
                   max_width: int = 4) -> tuple[Netlist, dict[str, str]]:
    """Random acyclic multi-domain design built straight on the IR (see
    `random_builder`)."""
    b, clock_domains = random_builder(rng, n_flops, n_gates, n_domains, n_ports,
                                      max_width)
    return b.finish(), clock_domains


def random_builder(rng: random.Random, n_flops: int = 12, n_gates: int = 25,
                   n_domains: int = 2, n_ports: int = 3,
                   max_width: int = 4) -> tuple[NetlistBuilder, dict[str, str]]:
    """The builder of a random acyclic multi-domain design.  Gates draw every
    op in GATE_OPS; ports and flops are 1 to `max_width` bits wide (the first
    data port is 1 bit, so selects and enables exist), and CONCAT and SLICE
    make other widths."""
    b = NetlistBuilder("rand")
    domains = [chr(ord("A") + i) for i in range(n_domains)]
    clock_domains = {}
    clock_handles = {}
    for d in domains:
        h = b.add_net(f"clk_{d}", 1)
        b.add_port(f"clk_{d}", "in", 1, h)
        clock_handles[d] = h
        clock_domains[f"clk_{d}"] = d
    pool: list[tuple[int, int]] = []        # (net handle, width)
    for i in range(n_ports):
        w = 1 if i == 0 else rng.randint(1, max_width)
        h = b.add_net(f"in{i}", w)
        b.add_port(f"in{i}", "in", w, h)
        pool.append((h, w))
    flop_out = []
    for i in range(n_flops):
        w = rng.randint(1, max_width)
        flop_out.append((b.add_net(f"ff{i}", w), w))
    pool += flop_out

    def pick(width: int | None = None) -> tuple[int, int]:
        return rng.choice([n for n in pool if width is None or n[1] == width])

    n_driven = len(pool)
    for i in range(n_gates):
        op = rng.choice(GATE_OPS)
        lsb = 0
        if op in ("NOT", "BUF"):
            ins = [pick()]
            w = ins[0][1]
        elif op == "MUX":
            a = pick()
            ins = [pick(1), a, pick(a[1])]
            w = a[1]
        elif op == "CONCAT":
            ins = [pick() for _ in range(rng.randint(2, 3))]
            w = sum(n[1] for n in ins)
        elif op == "SLICE":
            ins = [pick()]
            lsb = rng.randrange(ins[0][1])
            w = rng.randint(1, ins[0][1] - lsb)
        else:
            a = pick()
            ins = [a] + [pick(a[1]) for _ in range(rng.randint(1, 2))]
            w = a[1]
        out = b.add_net(f"g{i}", w)
        b.add_gate(f"g{i}_cell", op, [h for h, _w in ins], out, w, slice_lsb=lsb)
        pool.append((out, w))

    for i, (out, w) in enumerate(flop_out):
        data = pick(w)[0]
        enable = pick(1)[0] if rng.random() < 0.25 else None
        dom = rng.choice(domains)
        b.add_dff(f"ff{i}", w, clock_handles[dom], data, out, enable=enable)
    # keep at least one net observable so netlist_issues sees no dangling outputs
    sink, w = rng.choice(pool[n_driven:] or flop_out)
    b.add_port("out0", "out", w, sink)
    return b, clock_domains


def gate_value(nl: Netlist, g: Gate, values) -> int:
    """Reference interpreter: the value of one gate, dispatched on its op."""
    mask = (1 << g.width) - 1
    op = g.op
    if op == "AND":
        v = mask
        for i in g.inputs:
            v &= values[i]
        return v
    if op == "OR":
        v = 0
        for i in g.inputs:
            v |= values[i]
        return v
    if op == "XOR":
        v = 0
        for i in g.inputs:
            v ^= values[i]
        return v
    if op == "NOT":
        return (~values[g.inputs[0]]) & mask
    if op == "BUF":
        return values[g.inputs[0]] & mask
    if op == "MUX":
        sel = values[g.inputs[0]] & 1
        return values[g.inputs[1]] if sel else values[g.inputs[2]]
    if op == "CONCAT":
        v = 0
        for i in g.inputs:
            w = nl.nets[i].width
            v = (v << w) | (values[i] & ((1 << w) - 1))
        return v & mask
    if op == "SLICE":
        return (values[g.inputs[0]] >> g.slice_lsb) & mask
    raise SimDivergence(f"unknown gate op {op}")


def eval_comb(nl: Netlist, values: list[int]) -> None:
    """Reference interpreter: every gate in topological order, in place."""
    for i in nl.comb_topo():
        g = nl.cells[i]
        values[g.out] = gate_value(nl, g, values)


def eval_with_subs(nl: Netlist, net_idx: int, vals0: list[int],
                   subs: dict[int, int], memo: dict[int, int]) -> int:
    """Reference interpreter: the value of a net when the nets in `subs`
    carry the given values, by recursion over its gate cone."""
    if net_idx in subs:
        return subs[net_idx]
    if net_idx in memo:
        return memo[net_idx]
    drv = nl.nets[net_idx].driver
    if drv is None or drv[0] == "port":
        v = vals0[net_idx]
    else:
        cell = nl.cells[drv[1]]
        if isinstance(cell, Gate):
            saved = [eval_with_subs(nl, i, vals0, subs, memo) for i in cell.inputs]
            v = gate_value(nl, cell, Overlay(vals0, dict(zip(cell.inputs, saved))))
        else:
            v = vals0[net_idx]
    memo[net_idx] = v
    return v


class Overlay:
    """List-like view of `base` with sparse overrides (read-only)."""

    __slots__ = ("base", "over")

    def __init__(self, base: list[int], over: dict[int, int]):
        self.base = base
        self.over = over

    def __getitem__(self, i: int) -> int:
        v = self.over.get(i)
        return self.base[i] if v is None else v


def gray_neighbor_sets(src_wave: list[tuple[int, int]]):
    """For a source waveform, a function tick -> {previous, current, next}
    codewords of the source sequence at that tick."""
    ticks = [t for t, _v in src_wave]
    vals = [v for _t, v in src_wave]

    def neighbors(t: int) -> set[int]:
        cur = 0
        for i, tt in enumerate(ticks):
            if tt <= t:
                cur = i
            else:
                break
        prev = vals[max(cur - 1, 0)]
        nxt = vals[min(cur + 1, len(vals) - 1)]
        return {prev, vals[cur], nxt}

    return neighbors


@dataclass
class _ReferencePlan:
    tick: int
    vals0: list[int]                    # pre-edge state incl. port updates
    dsts: list[int]                     # crossing destinations capturing
    base: dict[int, int]                # capturing flop -> base next value
    opps: list[Opportunity]
    clock_edges: list[str]


class ReferenceEngine(Engine):
    """The per-tick engine that `Engine` replaced, kept as its oracle.

    Each tick looks up the clocks that edge and the flops on them, filters
    those flops for reset and gating one by one, keeps their next values in
    a dict keyed by flop, captures every crossing destination through its
    cone kernel (identity captures included), evaluates the hold lookahead
    and the commit as changes applied to a copy of the pre-edge values, and
    finds the checkers to sample per edging clock.  The agenda and the edges
    per clock are counted tick by tick.  Its flip history keeps, per bit of
    each monitored net, the last tick that bit flipped, and every monitored
    net is checked for flips on every tick.  Resets, gated clocks and the
    recorded run are `Engine`'s own."""

    def __init__(self, analysis, stimulus, msi, checkers, scope: str = "sim"):
        super().__init__(analysis, stimulus, msi, checkers, scope)
        cs = analysis.constraints
        agenda: set[int] = set()
        self.edges_at: dict[int, list[str]] = {}
        for c in self.clocks.values():
            t = c.phase
            while t <= self.end_tick:
                agenda.add(t)
                self.edges_at.setdefault(t, []).append(c.name)
                t += c.period
        self.agenda = sorted(agenda)
        self.edges_per_clock = {name: 0 for name in self.clocks}
        for t in self.agenda:
            self.edges_at[t] = [c.name for c in cs.clocks if c.name in self.edges_at[t]]
            for name in self.edges_at[t]:
                self.edges_per_clock[name] += 1

        self.pairs_by_dst: dict[int, list[CdcPair]] = {}
        for p in self.pairs:
            self.pairs_by_dst.setdefault(p.dst, []).append(p)
        for plist in self.pairs_by_dst.values():
            plist.sort(key=lambda p: p.id)
        self.src_flop_of_net = {}
        for p in self.pairs:
            if p.src[0] == "cell" and isinstance(self.nl.cells[p.src[1]], Dff):
                self.src_flop_of_net[p.src_net] = p.src[1]
        srcs_of = {dst: tuple(dict.fromkeys(p.src_net for p in plist))
                   for dst, plist in self.pairs_by_dst.items()}
        specs = []
        for dst, srcs in srcs_of.items():
            f = self.nl.cells[dst]
            specs.append(((f.data,) if f.enable is None else (f.enable, f.data), srcs))
        # per crossing destination: its (dst, src_net) resolution keys and
        # its capture cone
        self.capture = {dst: (tuple((dst, s) for s in srcs), k)
                        for (dst, srcs), k in zip(srcs_of.items(),
                                                  cone_kernels(self.nl, specs))}
        self.flops_at: dict[int, list[int]] = {
            t: [f.index for f in self.flops if self.flop_root[f.index] in names]
            for t, names in self.edges_at.items()}
        self.next_pins = {f.index: (f.out, f.data, f.enable) for f in self.flops}
        self.checkers_by_clock: dict[str, list[int]] = {}
        for i, c in enumerate(checkers):
            for clk in c.clocks:
                self.checkers_by_clock.setdefault(clk, []).append(i)

    def initial_state(self) -> _State:
        state = super().initial_state()
        state.hist = {n: [_NEG] * self.nl.nets[n].width for n in self.monitored}
        return state

    def _captured(self, values: list[int], nextvals: dict[int, int]) -> list[int]:
        """A copy of the settled `values` with the flops in `nextvals` set to
        their new values and the gates re-evaluated when some output
        changed."""
        out = list(values)
        changed = False
        for idx, v in nextvals.items():
            net = self.next_pins[idx][0]
            if out[net] != v:
                out[net] = v
                changed = True
        if changed:
            self.comb(out)
        return out

    def plan_tick(self, state: _State, tick: int, rng=None) -> _ReferencePlan:
        vals0 = list(state.values)
        driven = False
        for net, value in self.sets_at.get(tick, ()):
            if vals0[net] != value:
                driven = True
            vals0[net] = value
        if self.random_driver and rng is not None:
            for pname in self.random_driver.ports:
                if rng.random() < self.random_driver.probability:
                    vals0[self.port_net[pname]] ^= 1
                    driven = True
        if driven:
            self.comb(vals0)

        in_reset = self._settle_resets(vals0)
        gated = self.clock_cone
        edged = [i for i in self.flops_at.get(tick, ())
                 if i not in in_reset and (i not in gated or self._rises(i, vals0))]
        base: dict[int, int] = {}   # each edged flop's next value
        for i in edged:
            out, data, enable = self.next_pins[i]
            base[i] = vals0[out] if enable is not None and not vals0[enable] & 1 \
                else vals0[data]

        dsts = [i for i in edged if i in self.pairs_by_dst]
        opps: list[Opportunity] = []
        if self.msi.enabled:
            lookahead: list[list[int]] = []     # made on first need
            for dst in dsts:
                for p in self.pairs_by_dst[dst]:
                    flipped_now = (self._post_value(p.src_net, base, vals0)
                                   ^ state.values[p.src_net])
                    hist = state.hist[p.src_net]
                    hold = None
                    for bit in range(p.width):
                        m = 1 << bit
                        if flipped_now & m or hist[bit] >= tick - self.setup_window:
                            opps.append(Opportunity(p.id, dst, p.src_net, bit, "setup"))
                            continue
                        if hold is None:
                            hold = self._ref_hold_toggles(p, tick, base, vals0, lookahead)
                        if hold & m:
                            opps.append(Opportunity(p.id, dst, p.src_net, bit, "hold"))
        return _ReferencePlan(tick, vals0, dsts, base, opps, self.edges_at.get(tick, []))

    def _post_value(self, src_net: int, base: dict[int, int],
                    vals0: list[int]) -> int:
        f = self.src_flop_of_net.get(src_net)
        if f is not None and f in base:
            return base[f]
        return vals0[src_net]

    def _ref_hold_toggles(self, p: CdcPair, tick: int, base: dict[int, int],
                          vals0: list[int], lookahead: list[list[int]]) -> int:
        src_flop = self.src_flop_of_net.get(p.src_net)
        if src_flop is not None:
            f = self.nl.cells[src_flop]
            spec = self.clocks[self.flop_root[src_flop]]
            # next source-domain posedge strictly after this tick
            k = (tick - spec.phase) // spec.period + 1
            u = spec.edge_tick(max(k, 0))
            if not tick < u <= tick + self.hold_window:
                return 0
            if not lookahead:
                lookahead.append(self._captured(vals0, base))
            post = lookahead[0]
            if f.reset is not None:
                v = post[f.reset] & 1
                if (v == 0) if f.reset_active_low else (v == 1):
                    return 0
            if src_flop in self.clock_cone and not self._rises(src_flop, post):
                return 0
            if f.enable is not None and (post[f.enable] & 1) == 0:
                return 0
            return post[f.data] ^ self._post_value(p.src_net, base, vals0)
        # port source: consult the stimulus schedule
        cur = vals0[p.src_net]
        for t, v in self.port_schedule.get(p.src_net, ()):
            if tick < t <= tick + self.hold_window:
                return v ^ cur
            if t > tick + self.hold_window:
                break
        return 0

    def commit_tick(self, state: _State, plan: _ReferencePlan, decisions):
        assert len(decisions) == len(plan.opps)
        tick = plan.tick
        vals0 = plan.vals0
        nl = self.nl

        # resolve injections per (dst, src_net)
        eff: dict[tuple[int, int], int] = {}
        for p_dst in plan.dsts:
            for p in self.pairs_by_dst[p_dst]:
                eff[(p_dst, p.src_net)] = self._post_value(p.src_net, plan.base, vals0)
        events: list[MsiEvent] = []
        for opp, take in zip(plan.opps, decisions):
            if not take:
                continue
            key = (opp.dst, opp.src_net)
            # the taken bit is the reference bit inverted, however many take it
            m = 1 << opp.bit
            new_eff = eff[key] & ~m | ~self._post_value(opp.src_net, plan.base, vals0) & m
            eff[key] = new_eff
            resolved = (new_eff >> opp.bit) & 1
            events.append(MsiEvent(tick, opp.pair, opp.bit, opp.kind, resolved))

        newvals: dict[int, int] = dict(plan.base)
        for dst in plan.dsts:
            keys, cone = self.capture[dst]
            got = cone(vals0, *map(eff.__getitem__, keys))
            out, _data, enable = self.next_pins[dst]
            if enable is None:
                newvals[dst] = got
            else:
                newvals[dst] = got[1] if got[0] & 1 else vals0[out]

        final = self._captured(vals0, newvals)
        self._settle_resets(final)

        old = state.values
        hist = state.hist
        for n in self.monitored:
            flipped = final[n] ^ old[n]
            if flipped:
                if hist is state.hist:
                    hist = dict(hist)
                bits = hist[n] = list(hist[n])
                for bit in range(nl.nets[n].width):
                    if flipped & (1 << bit):
                        bits[bit] = tick

        checkers, failures = state.checkers, state.failures
        get = final.__getitem__
        for clk in plan.clock_edges:
            sampling = self.checkers_by_clock.get(clk)
            if not sampling:
                continue
            if checkers is state.checkers:
                checkers = list(checkers)
            in_reset = any((final[n] & 1) == active
                           for n, active in self.clock_resets[clk])
            for ci in sampling:
                checkers[ci], message = self.checkers[ci].sample(
                    checkers[ci], clk, get, in_reset)
                if message is not None and failures[ci] is None:
                    if failures is state.failures:
                        failures = list(failures)
                    failures[ci] = (tick, message)
        return (_State(final, hist, checkers, failures,
                       state.decisions + len(plan.opps)), events)


def _vcd_change(value: int, width: int, vid: str) -> str:
    if width == 1:
        return f"{value & 1}{vid}"
    return f"b{value:0{width}b} {vid}"


def reference_write_vcd(netlist: Netlist, waves: dict[int, list[tuple[int, int]]],
                        timescale: str = "1ns") -> str:
    """The VCD writer that `write_vcd` replaced, formatting each value
    change through a call of its own."""
    nets = sorted(waves, key=lambda i: netlist.nets[i].name)
    ids = {n: _var_id(k) for k, n in enumerate(nets)}
    lines = ["$version cdckit $end", f"$timescale {timescale} $end",
             f"$scope module {netlist.name} $end"]
    for n in nets:
        net = netlist.nets[n]
        ref = net.name if net.width == 1 else f"{net.name}[{net.width - 1}:0]"
        lines.append(f"$var wire {net.width} {ids[n]} {ref} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    by_tick: dict[int, list[str]] = {}
    initials = []
    for n in nets:
        width = netlist.nets[n].width
        for tick, value in waves[n]:
            if tick < 0:
                initials.append(_vcd_change(value, width, ids[n]))
            else:
                by_tick.setdefault(tick, []).append(_vcd_change(value, width, ids[n]))
    lines.append("$dumpvars")
    lines.extend(initials)
    lines.append("$end")
    for tick in sorted(by_tick):
        lines.append(f"#{tick}")
        lines.extend(by_tick[tick])
    return "\n".join(lines) + "\n"


def replay_explore(analysis, stimulus, checkers):
    """Bounded exhaustive exploration by replay alone.

    Every decision path is enumerated in lexicographic order, False (the
    reference resolution) first, and each path is simulated from the start
    with `Engine.run(path)`.  A path is a leaf when the run makes exactly
    `len(path)` decisions; otherwise it extends by one decision.  Like the
    depth-first search it checks, enumeration stops once every checker has
    a counterexample.  Returns (verdicts, counterexamples, branches).
    """
    eng = Engine(analysis, stimulus, MsiConfig(), checkers, scope="explore")
    ids = [c.id for c in checkers]
    cex: dict = {}
    branches = 0
    todo = [()]
    while todo and not (ids and len(cex) == len(ids)):
        path = todo.pop()
        res = eng.run(path)
        if res.decisions > len(path):
            todo += [path + (True,), path + (False,)]
            continue
        branches += 1
        for v in res.verdicts:
            if not v.passed and v.checker not in cex:
                cex[v.checker] = res
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return verdicts, cex, branches


def mirror_verdicts(analysis, stimulus, msi):
    """Verdicts of the default checker suite on one run, and of the
    generated properties interpreted over that run's waves, each as
    {checker id: passed}.  A generated checker passes when every property
    that names it in its `// checker:` comment passes."""
    res = simulate(analysis, stimulus, msi, build_checkers(analysis))
    runtime = {v.checker: v.passed for v in res.verdicts}
    files = generate_all(analysis)
    binds = parse_bindings(next(f for f in files if f.generator == "bind").text)
    waves = wave_by_name(res, analysis.netlist)
    generated: dict[str, bool] = {}
    for f in files:
        if f.generator in ("bind", "coverage"):
            continue
        mod = parse_checker_module(f.text)
        for r in evaluate_module(mod, binds[mod.name], waves,
                                 analysis.constraints, res.coverage.edges):
            generated[r.mirrors] = generated.get(r.mirrors, True) and r.passed
    return runtime, generated


# --- generated-SVA lint, one regex pass per check -----------------------------

_LINT_BALANCED = (("module", "endmodule"), ("property", "endproperty"),
                  ("covergroup", "endgroup"), ("begin", "end"))
_LINT_KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "property", "endproperty",
    "assert", "disable", "iff", "posedge", "negedge", "covergroup", "endgroup",
    "coverpoint", "bins", "bind", "begin", "end",
}
_LINT_NAME = r"([A-Za-z_]\w*)"
_LINT_TOKEN = r"(?<![\w$.'])"


def _lint_mask(text: str) -> tuple[str, list[str]]:
    """`text` with each comment cut to its `//` and each escaped identifier
    replaced by a backslash and its index in the returned list, so that no
    later pattern can match inside either."""
    escapes: list[str] = []

    def mask(m):
        if m[0].startswith("//"):
            return "//"
        escapes.append(m[0])
        return f"\\{len(escapes) - 1}"

    return re.sub(r"//[^\n]*|\\\S+", mask, text), escapes


def reference_lint_generated(files, netlist: Netlist) -> list[str]:
    """The regex lint that `codegen.lint_generated` replaced: balanced
    structure, unique port names and identifier resolution, one `findall`
    per check over a masked copy of each file."""
    problems: list[str] = []
    module_names: set[str] = set()
    masked = []
    for f in files:
        text, escapes = _lint_mask(f.text)
        masked.append((f, text, escapes))
        for opener, closer in _LINT_BALANCED:
            if opener == "property":
                # `assert property (...)` is a use, not an opener
                n_open = len(re.findall(r"(?<!\bassert )\bproperty\b", text, re.A))
            else:
                n_open = len(re.findall(rf"\b{opener}\b", text, re.A))
            n_close = len(re.findall(rf"\b{closer}\b", text, re.A))
            if n_open != n_close:
                problems.append(f"{f.path}: unbalanced {opener}/{closer}")
        if f.generator != "bind":
            module_names.update(re.findall(
                rf"{_LINT_TOKEN}module(?=\s+{_LINT_NAME})", text, re.A))

    def unmask(s: str, escapes: list[str]) -> str:
        return re.sub(r"\\(\d+)", lambda m: escapes[int(m[1])], s)

    for f, text, escapes in masked:
        if f.generator == "bind":
            for m in re.finditer(r"\.\w+\(((?:\\\S+(?=\s)|[^)\\/\n])*)\)", text, re.A):
                net = unmask(m[1], escapes).strip()
                net = re.sub(r"\\(\S+)\s?", r"\1", net)
                if net and net not in netlist.net_index:
                    problems.append(f"{f.path}: unknown signal {net!r}")
            for m in re.finditer(r"^bind[ \t]+(?:\w+|\\\S+)[ \t]+(\w+)", text,
                                 re.A | re.M):
                if m[1] not in module_names:
                    problems.append(f"{f.path}: bind of unknown module {m[1]!r}")
            continue
        # each file holds one module, whose ports must be declared once
        ports = re.findall(rf"{_LINT_TOKEN}input(?=\s+wire\b\s*(?:\[[^\]\\/]*\]\s*)?"
                           rf"{_LINT_NAME})", text, re.A)
        local = set(ports)
        if len(local) < len(ports):
            for port in sorted(local):
                if ports.count(port) > 1:
                    problems.append(f"{f.path}: port {port!r} declared twice")
        # identifiers inside a module must be declared in it; an escaped
        # identifier is never a keyword
        for kw in ("property", "covergroup", "bins", "module"):
            local.update(re.findall(rf"{_LINT_TOKEN}{kw}(?=\s+{_LINT_NAME})", text, re.A))
        for m in re.finditer(rf"{_LINT_TOKEN}{_LINT_NAME}|\\(\d+)", text, re.A):
            if m[2] is not None:
                name = escapes[int(m[2])]
                if name[1:] not in local:
                    problems.append(f"{f.path}: unresolved identifier {name!r}")
            elif m[1] not in _LINT_KEYWORDS and m[1] not in local:
                problems.append(f"{f.path}: unresolved identifier {m[1]!r}")
    return problems


def _expr_to_str(expr: Expr, parent_prec: int = 0) -> str:
    # precedence: ternary 1, | 2, ^ 3, & 4, unary 5
    match expr:
        case Ident(name):
            return name
        case Literal(value, width):
            if width is None:
                return str(value)
            return f"{width}'h{value:x}"
        case Slice(name, msb, lsb):
            return f"{name}[{msb}:{lsb}]"
        case Unary(op, operand):
            return f"{op}{_expr_to_str(operand, 5)}"
        case Binary(op, lhs, rhs):
            prec = {"|": 2, "^": 3, "&": 4}[op]
            s = f"{_expr_to_str(lhs, prec)} {op} {_expr_to_str(rhs, prec + 1)}"
            return f"({s})" if parent_prec > prec else s
        case Ternary(c, t, f):
            s = f"{_expr_to_str(c, 2)} ? {_expr_to_str(t, 1)} : {_expr_to_str(f, 1)}"
            return f"({s})" if parent_prec > 1 else s
        case Concat(parts):
            return "{" + ", ".join(_expr_to_str(p, 0) for p in parts) + "}"
    raise AssertionError(expr)


def _stmt_lines(stmts: tuple[Stmt, ...], indent: str) -> list[str]:
    out = []
    for s in stmts:
        if isinstance(s, NbAssign):
            out.append(f"{indent}{s.target} <= {_expr_to_str(s.expr)};")
        else:
            out.append(f"{indent}if ({_expr_to_str(s.cond)}) begin")
            out.extend(_stmt_lines(s.then, indent + "  "))
            if s.other is not None:
                out.append(f"{indent}end else begin")
                out.extend(_stmt_lines(s.other, indent + "  "))
            out.append(f"{indent}end")
    return out


def to_source(mod: ParsedModule) -> str:
    """Print a module back to subset source text (stable formatting)."""
    lines = []
    port_bits = []
    for p in mod.ports:
        d = "input" if p.direction == "in" else "output"
        r = " reg" if p.is_reg else ""
        w = f" [{p.width - 1}:0]" if p.width > 1 else ""
        port_bits.append(f"{d}{r}{w} {p.name}")
    lines.append(f"module {mod.name}(" + ", ".join(port_bits) + ");")
    for d in mod.decls:
        w = f" [{d.width - 1}:0]" if d.width > 1 else ""
        lines.append(f"  {'reg' if d.is_reg else 'wire'}{w} {d.name};")
    for a in mod.assigns:
        lines.append(f"  assign {a.target} = {_expr_to_str(a.expr)};")
    for blk in mod.always_blocks:
        ev = f"posedge {blk.clock}"
        if blk.reset is not None:
            ev += f" or {blk.reset_edge} {blk.reset}"
        lines.append(f"  always @({ev}) begin")
        lines.extend(_stmt_lines(blk.body, "    "))
        lines.append("  end")
    for inst in mod.instances:
        conns = ", ".join(
            f".{p}({_expr_to_str(e) if e is not None else ''})" for p, e in inst.conns)
        lines.append(f"  {inst.module} {inst.name}({conns});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
