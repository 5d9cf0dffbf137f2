"""Flatten parsed modules into a gate-level netlist.

Instances are expanded depth first with hierarchical names (`inst.sub.net`),
on an explicit stack, so hierarchy depth is not bounded by the interpreter's
recursion limit.  Port connections merge parent and child nets, keeping the
topmost name as the canonical one.  A module's body (what follows its
ports) lowers the same way in every instance, so a module expanded more
than once, as the instance graph counts it, is recorded at its first
expansion and stamped at the others: its nets and merges are added again
under the instance's prefix, with no expression lowered twice, and its
cells are built by `NetlistBuilder.finish` straight from the recorded body.

Expressions lower, through a table keyed by node type (`_SYNTH`), to
AND/OR/XOR/NOT/BUF/MUX/CONCAT/SLICE gates and constant cells; a one-operand
concatenation `{x}` is `x` itself.  Sequential blocks lower to one Dff per
assigned register: if/else arms fold into mux expressions, a top-level
`if (en) r <= e;` shape becomes the flop's enable pin, and the async reset
arm supplies the reset value.

The parser has checked what each module's own text decides, so the errors
left here need another module or the widths of expressions.  A width error
names the file, line and column of its expression; one inside a repeated
module comes from its first expansion.  Instances of modules with no
definition become black-box cells whose port directions are inferred from
driver availability.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import (ElabError, PortWidthMismatch, RecursiveInstantiation,
                     UnresolvedModule)
from .netlist import BodyRecord, Netlist, NetlistBuilder
from .verilog import (AlwaysBlock, Binary, Concat, Expr, Ident, Instance,
                      Literal, ParsedModule, Slice, Ternary, Unary, fold)


@dataclass(slots=True)
class _Scope:
    prefix: str
    mod: ParsedModule
    widths: dict[str, int]
    temp_names: bool        # the module declares a name that begins `__t`
    handles: dict[str, int]
    counter: int = 0

    def at(self, expr: Expr) -> str:
        """`origin:line:col: ` of the leftmost operand of `expr`, or nothing
        for an expression the elaborator made."""
        while isinstance(expr, (Unary, Binary, Ternary)):
            expr = (expr.operand if isinstance(expr, Unary)
                    else expr.lhs if isinstance(expr, Binary) else expr.cond)
        return "" if expr.token < 0 else self.place(expr.token)

    def place(self, tok: int) -> str:
        """`origin:line:col: ` of token `tok` of the module's text."""
        line, column = self.mod.positions.where(tok)
        return f"{self.mod.origin}:{line}:{column}: "


def _shown(value: int) -> str:
    """A literal's value in a message: in decimal, or as its bit count where
    it has more decimal digits than `str` writes."""
    try:
        return str(value)
    except ValueError:
        return f"of {value.bit_length()} bits"


def _infer_width(scope: _Scope, expr: Expr) -> int | None:
    match expr:
        case Ident(name):
            return scope.widths[name]
        case Literal(_, width):
            return width
        case Unary(_, operand):
            return _infer_width(scope, operand)
        case Binary(_, lhs, rhs):
            return _infer_width(scope, lhs) or _infer_width(scope, rhs)
        case Ternary(_, t, f):
            return _infer_width(scope, t) or _infer_width(scope, f)
        case Slice(_, msb, lsb):
            return msb - lsb + 1
        case Concat(parts):
            total = 0
            for p in parts:
                w = _infer_width(scope, p)
                if w is None:
                    return None
                total += w
            return total
    raise AssertionError(expr)


class _Elaborator:
    def __init__(self, modules: list[ParsedModule], top: str):
        self.by_name = {m.name: m for m in modules}
        if top not in self.by_name:
            raise UnresolvedModule(f"top module {top!r} not found")
        self.top = top
        self.builder = NetlistBuilder(top)
        # the modules to record at their first expansion, and the records:
        # each body with the scope's temp counter after it
        self.repeated: set[str] = set()
        self.bodies: dict[str, tuple[BodyRecord, int]] = {}
        # each module's declared widths, and whether it declares a name of
        # the form the elaborator gives its temporaries
        self.declared: dict[str, tuple[dict[str, int], bool]] = {}

    # -- recursion guard --

    def check_acyclic(self) -> list[str]:
        """Reject recursive instantiation.  Returns the defined modules
        below the top (the top first), each after every module that
        instances it."""
        # depth first over defined modules; `chain` is the instantiation
        # path from the top, `stack` the instances each one has left
        state: dict[str, int] = {self.top: 1}   # 1 = on the chain, 2 = done
        chain = [self.top]
        stack = [iter(self.by_name[self.top].instances)]
        done: list[str] = []
        while stack:
            inst = next(stack[-1], None)
            if inst is None:
                stack.pop()
                name = chain.pop()
                state[name] = 2
                done.append(name)
                continue
            name = inst.module
            if name not in self.by_name or state.get(name) == 2:
                continue
            if state.get(name) == 1:
                cycle = " -> ".join(chain + [name])
                raise RecursiveInstantiation(f"recursive instantiation: {cycle}")
            state[name] = 1
            chain.append(name)
            stack.append(iter(self.by_name[name].instances))
        done.reverse()
        return done

    def expansions(self, order: list[str]) -> dict[str, int]:
        """How many times each module of `order` (as `check_acyclic` gives
        it) is expanded, capped at 2: its instances in each module that
        instances it, times that module's count."""
        count = dict.fromkeys(order, 0)
        count[self.top] = 1
        for name in order:
            n = count[name]
            for inst in self.by_name[name].instances:
                if inst.module in count:
                    count[inst.module] = min(2, count[inst.module] + n)
        return count

    # -- expression synthesis --

    def synth(self, scope: _Scope, expr: Expr, ctx_width: int | None,
              out_handle: int | None = None) -> int:
        """Lower an expression to gates; returns the net handle carrying its
        value.  When `out_handle` is given, the expression drives that net.
        Each node kind lowers in a method of its own, found by `type(expr)`
        in `_SYNTH`; operands recurse through the table directly."""
        return _SYNTH[type(expr)](self, scope, expr, ctx_width, out_handle)

    def _fresh(self, scope: _Scope, width: int) -> int:
        """A temporary net of the next temp number that the module does not
        declare as a name."""
        scope.counter += 1
        n = scope.counter
        if scope.temp_names:
            while f"__t{n}" in scope.widths:
                scope.counter += 1
                n = scope.counter
        return self.builder.add_net(f"{scope.prefix}__t{n}", width)

    def _ident(self, scope: _Scope, expr: Ident, ctx_width: int | None,
               out_handle: int | None) -> int:
        name = expr.name
        w = scope.widths[name]
        if ctx_width is not None and w != ctx_width:
            raise PortWidthMismatch(
                f"{scope.at(expr)}{scope.prefix}{name} is {w} bits, "
                f"expected {ctx_width}")
        h = scope.handles[name]
        if out_handle is not None and h != out_handle:
            self.builder.merge(out_handle, h, scope.prefix or "top")
            return out_handle
        return h

    def _literal(self, scope: _Scope, expr: Literal, ctx_width: int | None,
                 out_handle: int | None) -> int:
        value, w = expr.value, expr.width
        if w is None:
            w = ctx_width
            if w is None:
                raise ElabError(
                    f"{scope.at(expr)}unsized literal {_shown(value)} needs a width "
                    f"context in {scope.prefix or scope.mod.name}")
        elif ctx_width is not None and w != ctx_width:
            raise PortWidthMismatch(
                f"{scope.at(expr)}literal is {w} bits, expected {ctx_width}")
        if value.bit_length() > w:
            raise ElabError(
                f"{scope.at(expr)}literal {_shown(value)} does not fit in {w} bits")
        out = out_handle if out_handle is not None else self._fresh(scope, w)
        scope.counter += 1
        self.builder.add_const(f"{scope.prefix}__c{scope.counter}", value, w, out)
        return out

    def _unary(self, scope: _Scope, expr: Unary, ctx_width: int | None,
               out_handle: int | None) -> int:
        operand = expr.operand
        w = ctx_width or _infer_width(scope, operand)
        if w is None:
            raise ElabError(f"{scope.at(expr)}cannot infer width of '~' operand")
        a = _SYNTH[type(operand)](self, scope, operand, w, None)
        out = out_handle if out_handle is not None else self._fresh(scope, w)
        scope.counter += 1
        self.builder.add_gate(f"{scope.prefix}__g{scope.counter}_not", "NOT", [a], out, w)
        return out

    def _binary(self, scope: _Scope, expr: Binary, ctx_width: int | None,
                out_handle: int | None) -> int:
        lhs, rhs = expr.lhs, expr.rhs
        w = ctx_width or _infer_width(scope, lhs) or _infer_width(scope, rhs)
        if w is None:
            raise ElabError(
                f"{scope.at(expr)}cannot infer width of '{expr.op}' expression")
        a = _SYNTH[type(lhs)](self, scope, lhs, w, None)
        c = _SYNTH[type(rhs)](self, scope, rhs, w, None)
        out = out_handle if out_handle is not None else self._fresh(scope, w)
        gate_op, suffix = _GATE_OF[expr.op]
        scope.counter += 1
        self.builder.add_gate(f"{scope.prefix}__g{scope.counter}{suffix}", gate_op,
                              [a, c], out, w)
        return out

    def _ternary(self, scope: _Scope, expr: Ternary, ctx_width: int | None,
                 out_handle: int | None) -> int:
        cond, if_true, if_false = expr.cond, expr.if_true, expr.if_false
        w = ctx_width or _infer_width(scope, if_true) or _infer_width(scope, if_false)
        if w is None:
            raise ElabError(
                f"{scope.at(expr)}cannot infer width of conditional expression")
        sel = _SYNTH[type(cond)](self, scope, cond, 1, None)
        a = _SYNTH[type(if_true)](self, scope, if_true, w, None)
        c = _SYNTH[type(if_false)](self, scope, if_false, w, None)
        out = out_handle if out_handle is not None else self._fresh(scope, w)
        scope.counter += 1
        self.builder.add_gate(f"{scope.prefix}__g{scope.counter}_mux", "MUX",
                              [sel, a, c], out, w)
        return out

    def _concat(self, scope: _Scope, expr: Concat, ctx_width: int | None,
                out_handle: int | None) -> int:
        parts = expr.parts
        if len(parts) == 1:
            # {x} is x itself, but x still needs an explicit width
            part = parts[0]
            w = _infer_width(scope, part)
            if w is None:
                raise ElabError(
                    f"{scope.at(part)}concat operand needs an explicit width")
            return _SYNTH[type(part)](self, scope, part, ctx_width or w, out_handle)
        handles = []
        total = 0
        for p in parts:
            w = _infer_width(scope, p)
            if w is None:
                raise ElabError(
                    f"{scope.at(p)}concat operand needs an explicit width")
            handles.append(_SYNTH[type(p)](self, scope, p, w, None))
            total += w
        if ctx_width is not None and total != ctx_width:
            raise PortWidthMismatch(
                f"{scope.at(expr)}concat is {total} bits, expected {ctx_width}")
        out = out_handle if out_handle is not None else self._fresh(scope, total)
        scope.counter += 1
        self.builder.add_gate(f"{scope.prefix}__g{scope.counter}_concat", "CONCAT",
                              handles, out, total)
        return out

    def _slice(self, scope: _Scope, expr: Slice, ctx_width: int | None,
               out_handle: int | None) -> int:
        lsb = expr.lsb
        w = expr.msb - lsb + 1
        if ctx_width is not None and w != ctx_width:
            raise PortWidthMismatch(
                f"{scope.at(expr)}slice is {w} bits, expected {ctx_width}")
        out = out_handle if out_handle is not None else self._fresh(scope, w)
        scope.counter += 1
        self.builder.add_gate(f"{scope.prefix}__g{scope.counter}_slice", "SLICE",
                              [scope.handles[expr.name]], out, w, slice_lsb=lsb)
        return out

    # -- always-block lowering --

    def lower_always(self, scope: _Scope, blk: AlwaysBlock):
        """One Dff per assigned register; a reset block's body is
        `if (reset) <literals> else <logic>`, as the parser checked."""
        b = self.builder
        clock = scope.handles[blk.clock]
        reset_env: dict[str, Expr] = {}
        body = blk.body
        if blk.reset is not None:
            reset_env = fold(body[0].then, {})
            body = body[0].other
        func_env = fold(body, {})
        for target in sorted(set(func_env) | set(reset_env)):
            width = scope.widths[target]
            out = scope.handles[target]
            nxt = func_env.get(target, Ident(target))
            enable_expr: Expr | None = None
            data_expr = nxt
            if isinstance(nxt, Ternary):
                if nxt.if_false == Ident(target):
                    enable_expr, data_expr = nxt.cond, nxt.if_true
                elif nxt.if_true == Ident(target):
                    enable_expr, data_expr = Unary("~", nxt.cond), nxt.if_false
            data = self.synth(scope, data_expr, width)
            enable = (self.synth(scope, enable_expr, 1)
                      if enable_expr is not None else None)
            rv_expr = reset_env.get(target)
            b.add_dff(f"{scope.prefix}{target}", width, clock, data, out,
                      enable=enable,
                      reset=None if rv_expr is None else scope.handles[blk.reset],
                      reset_active_low=(blk.reset_edge == "negedge"),
                      reset_value=0 if rv_expr is None else rv_expr.value)

    # -- module expansion --

    def expand_all(self):
        """Reject recursive instantiation, then expand the top and every
        instance below it, depth first: each instance is expanded whole
        before its next sibling is bound."""
        count = self.expansions(self.check_acyclic())
        self.repeated = {name for name, n in count.items() if n > 1}
        stack = [self.expand(self.by_name[self.top], "", {})]
        while stack:
            scope, pending = stack[-1]
            inst = next(pending, None)
            if inst is None:
                stack.pop()
                continue
            child = self.expand_instance(scope, inst)
            if child is not None:
                stack.append(child)

    def expand(self, mod: ParsedModule, prefix: str, bindings: dict[str, int]
               ) -> tuple[_Scope, Iterator[Instance]]:
        """Lower one module's own nets, assigns and always blocks; returns
        its scope and the instances it has left to expand.

        What follows the ports is the same for every instance of a module
        but for the prefix of its names and the first handle of its nets,
        so a module expanded more than once records it at its first
        expansion (the nets, merges and cells, and the temp counter after
        them, which the instance connections continue) and stamps it at
        the others."""
        b = self.builder
        first = b.net_count
        declared = self.declared.get(mod.name)
        if declared is None:
            widths = mod.declared_widths()
            declared = self.declared[mod.name] = (
                widths, any(name.startswith("__t") for name in widths))
        scope = _Scope(prefix, mod, *declared, {})
        for p in mod.ports:
            h = b.add_net(prefix + p.name, p.width)
            scope.handles[p.name] = h
            if p.name in bindings:
                b.merge(bindings[p.name], h, f"port {p.name} of {prefix or mod.name}")
        recorded = self.bodies.get(mod.name)
        if recorded is not None:
            body, scope.counter = recorded
            h = first + len(mod.ports)
            for d in mod.decls:
                scope.handles[d.name] = h
                h += 1
            b.stamp(body, prefix, first)
            return scope, iter(mod.instances)
        mark = b.open_body(first) if mod.name in self.repeated else None
        for d in mod.decls:
            scope.handles[d.name] = b.add_net(prefix + d.name, d.width)
        if not prefix:
            for p in mod.ports:
                b.add_port(p.name, p.direction, p.width, scope.handles[p.name])
        for a in mod.assigns:
            self.synth(scope, a.expr, scope.widths[a.target],
                       out_handle=scope.handles[a.target])
        for blk in mod.always_blocks:
            self.lower_always(scope, blk)
        if mark is not None:
            self.bodies[mod.name] = b.close_body(mark, prefix), scope.counter
        return scope, iter(mod.instances)

    def expand_instance(self, scope: _Scope, inst: Instance
                        ) -> tuple[_Scope, Iterator[Instance]] | None:
        """Bind one instance in `scope`: a black box when its module has no
        definition (returns None), else the child's `expand`."""
        path = scope.prefix + inst.name
        child = self.by_name.get(inst.module)
        if child is None:
            handles = []
            for _port, expr in inst.conns:
                if expr is None:
                    continue
                w = _infer_width(scope, expr)
                handles.append(self.synth(scope, expr, w))
            self.builder.add_instance(path, inst.module)
            self.builder.add_blackbox(path, inst.module, handles)
            return None
        self.builder.add_instance(path, inst.module)
        port_dirs = {p.name: p.direction for p in child.ports}
        bindings: dict[str, int] = {}
        for port, expr in inst.conns:
            if port not in port_dirs:
                raise ElabError(f"{scope.place(inst.token)}{path}: module "
                                f"{inst.module!r} has no port {port!r}")
            if expr is None:
                continue
            if isinstance(expr, Ident):
                bindings[port] = scope.handles[expr.name]
            else:
                if port_dirs[port] == "out":
                    raise ElabError(f"{scope.place(inst.token)}{path}: output port "
                                    f"{port!r} must connect to a plain net")
                w = _infer_width(scope, expr)
                bindings[port] = self.synth(scope, expr, w)
        return self.expand(child, path + ".", bindings)


_SYNTH = {Ident: _Elaborator._ident, Literal: _Elaborator._literal,
          Unary: _Elaborator._unary, Binary: _Elaborator._binary,
          Ternary: _Elaborator._ternary, Concat: _Elaborator._concat,
          Slice: _Elaborator._slice}
_GATE_OF = {"&": ("AND", "_and"), "|": ("OR", "_or"), "^": ("XOR", "_xor")}


def elaborate(modules: list[ParsedModule], top: str) -> Netlist:
    """Flatten `top` and everything below it into a Netlist."""
    elab = _Elaborator(modules, top)
    elab.expand_all()
    return elab.builder.finish()
