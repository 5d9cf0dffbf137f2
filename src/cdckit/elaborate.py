"""Flatten parsed modules into a gate-level netlist.

Instances are expanded depth first with hierarchical names (`inst.sub.net`),
on an explicit stack, so hierarchy depth is not bounded by the interpreter's
recursion limit.  Port connections merge parent and child nets, keeping the
topmost name as the canonical one.  Expressions lower to
AND/OR/XOR/NOT/BUF/MUX/CONCAT/SLICE gates and constant cells; a one-operand
concatenation `{x}` is `x` itself.  Sequential blocks lower to one Dff per
assigned register: if/else arms fold into mux expressions, a top-level
`if (en) r <= e;` shape becomes the flop's enable pin, and the async reset
arm supplies the reset value.

Instances of modules with no definition become black-box cells whose port
directions are inferred from driver availability.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .errors import (ElabError, PortWidthMismatch, RecursiveInstantiation,
                     UnresolvedModule)
from .netlist import Netlist, NetlistBuilder
from .verilog import (AlwaysBlock, Binary, Concat, Expr, Ident, IfStmt,
                      Instance, Literal, NbAssign, ParsedModule, Slice, Stmt,
                      Ternary, Unary)


@dataclass
class _Scope:
    prefix: str
    widths: dict[str, int]
    handles: dict[str, int]
    counter: int = 0

    def temp(self) -> int:
        self.counter += 1
        return self.counter


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
        self.by_name: dict[str, ParsedModule] = {}
        for m in modules:
            if m.name in self.by_name:
                raise ElabError(f"module {m.name!r} defined more than once")
            self.by_name[m.name] = m
        if top not in self.by_name:
            raise UnresolvedModule(f"top module {top!r} not found")
        self.top = top
        self.builder = NetlistBuilder(top)

    # -- recursion guard --

    def check_acyclic(self):
        # depth first over defined modules; `chain` is the instantiation
        # path from the top, `stack` the instances each one has left
        state: dict[str, int] = {self.top: 1}   # 1 = on the chain, 2 = done
        chain = [self.top]
        stack = [iter(self.by_name[self.top].instances)]
        while stack:
            inst = next(stack[-1], None)
            if inst is None:
                stack.pop()
                state[chain.pop()] = 2
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

    # -- expression synthesis --

    def synth(self, scope: _Scope, expr: Expr, ctx_width: int | None,
              out_handle: int | None = None) -> int:
        """Lower an expression to gates; returns the net handle carrying its
        value.  When `out_handle` is given, the expression drives that net."""
        b = self.builder

        def fresh(width: int) -> int:
            n = scope.temp()
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
                        f"{scope.prefix}{name} is {w} bits, expected {ctx_width}")
                return finish(h)
            case Literal(value, width):
                w = width if width is not None else ctx_width
                if w is None:
                    raise ElabError(
                        f"unsized literal {value} needs a width context in {scope.prefix or 'top'}")
                if ctx_width is not None and w != ctx_width:
                    raise PortWidthMismatch(
                        f"literal is {w} bits, expected {ctx_width}")
                if value >= (1 << w):
                    raise ElabError(f"literal {value} does not fit in {w} bits")
                out = out_handle if out_handle is not None else fresh(w)
                n = scope.temp()
                b.add_const(f"{scope.prefix}__c{n}", value, w, out)
                return out
            case Unary(_, operand):
                w = ctx_width or _infer_width(scope, operand)
                if w is None:
                    raise ElabError("cannot infer width of '~' operand")
                a = self.synth(scope, operand, w)
                out = out_handle if out_handle is not None else fresh(w)
                n = scope.temp()
                b.add_gate(f"{scope.prefix}__g{n}_not", "NOT", [a], out, w)
                return out
            case Binary(op, lhs, rhs):
                w = ctx_width or _infer_width(scope, lhs) or _infer_width(scope, rhs)
                if w is None:
                    raise ElabError(f"cannot infer width of '{op}' expression")
                a = self.synth(scope, lhs, w)
                c = self.synth(scope, rhs, w)
                out = out_handle if out_handle is not None else fresh(w)
                gate_op = {"&": "AND", "|": "OR", "^": "XOR"}[op]
                n = scope.temp()
                b.add_gate(f"{scope.prefix}__g{n}_{gate_op.lower()}", gate_op,
                           [a, c], out, w)
                return out
            case Ternary(cond, if_true, if_false):
                w = ctx_width or _infer_width(scope, if_true) or _infer_width(scope, if_false)
                if w is None:
                    raise ElabError("cannot infer width of conditional expression")
                sel = self.synth(scope, cond, 1)
                a = self.synth(scope, if_true, w)
                c = self.synth(scope, if_false, w)
                out = out_handle if out_handle is not None else fresh(w)
                n = scope.temp()
                b.add_gate(f"{scope.prefix}__g{n}_mux", "MUX", [sel, a, c], out, w)
                return out
            case Concat([part]):
                # {x} is x itself, but x still needs an explicit width
                w = _infer_width(scope, part)
                if w is None:
                    raise ElabError("concat operand needs an explicit width")
                return self.synth(scope, part, ctx_width or w, out_handle)
            case Concat(parts):
                handles = []
                widths = []
                for p in parts:
                    w = _infer_width(scope, p)
                    if w is None:
                        raise ElabError("concat operand needs an explicit width")
                    handles.append(self.synth(scope, p, w))
                    widths.append(w)
                total = sum(widths)
                if ctx_width is not None and total != ctx_width:
                    raise PortWidthMismatch(
                        f"concat is {total} bits, expected {ctx_width}")
                out = out_handle if out_handle is not None else fresh(total)
                n = scope.temp()
                b.add_gate(f"{scope.prefix}__g{n}_concat", "CONCAT", handles, out, total)
                return out
            case Slice(name, msb, lsb):
                src_w = scope.widths[name]
                if msb >= src_w:
                    raise ElabError(
                        f"slice [{msb}:{lsb}] out of range for {scope.prefix}{name} ({src_w} bits)")
                w = msb - lsb + 1
                if ctx_width is not None and w != ctx_width:
                    raise PortWidthMismatch(f"slice is {w} bits, expected {ctx_width}")
                out = out_handle if out_handle is not None else fresh(w)
                n = scope.temp()
                b.add_gate(f"{scope.prefix}__g{n}_slice", "SLICE",
                           [scope.handles[name]], out, w, slice_lsb=lsb)
                return out
        raise AssertionError(expr)

    # -- always-block folding --

    @staticmethod
    def _fold(stmts: tuple[Stmt, ...], env: dict[str, Expr]) -> dict[str, Expr]:
        env = dict(env)
        for s in stmts:
            if isinstance(s, NbAssign):
                env[s.target] = s.expr
            else:
                t_env = _Elaborator._fold(s.then, env)
                e_env = _Elaborator._fold(s.other, env) if s.other is not None else dict(env)
                for target in sorted(set(t_env) | set(e_env)):
                    tv = t_env.get(target, env.get(target, Ident(target)))
                    ev = e_env.get(target, env.get(target, Ident(target)))
                    env[target] = tv if tv == ev else Ternary(s.cond, tv, ev)
        return env

    def lower_always(self, scope: _Scope, blk: AlwaysBlock):
        b = self.builder
        clock = scope.handles[blk.clock]
        reset_handle = None
        reset_env: dict[str, Expr] = {}
        body = blk.body
        if blk.reset is not None:
            reset_handle = scope.handles[blk.reset]
            if scope.widths[blk.reset] != 1:
                raise ElabError(f"reset {blk.reset!r} must be 1 bit wide")
            if len(body) != 1 or not isinstance(body[0], IfStmt) or body[0].other is None:
                raise ElabError(
                    f"always block with async reset must be 'if (reset) ... else ...' "
                    f"(module line {blk.line})")
            top = body[0]
            active_low = blk.reset_edge == "negedge"
            want = Unary("~", Ident(blk.reset)) if active_low else Ident(blk.reset)
            if top.cond != want:
                raise ElabError(
                    f"reset condition must test {blk.reset!r} with the polarity of its "
                    f"edge event (line {top.line})")
            reset_env = self._fold(top.then, {})
            body = top.other
            for target, expr in reset_env.items():
                if not isinstance(expr, Literal):
                    raise ElabError(
                        f"reset value of {target!r} must be a constant literal")
        func_env = self._fold(tuple(body), {})
        targets = sorted(set(func_env) | set(reset_env))
        for target in targets:
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
            rv = 0
            if rv_expr is not None:
                rv = rv_expr.value
                if rv >= (1 << width):
                    raise ElabError(f"reset value of {target!r} does not fit")
            b.add_dff(f"{scope.prefix}{target}", width, clock, data, out,
                      enable=enable,
                      reset=reset_handle if rv_expr is not None else None,
                      reset_active_low=(blk.reset_edge == "negedge"),
                      reset_value=rv)

    # -- module expansion --

    def expand_all(self):
        """Expand the top and every instance below it, depth first: each
        instance is expanded whole before its next sibling is bound."""
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
        its scope and the instances it has left to expand."""
        scope = _Scope(prefix, mod.declared_widths(), {})
        for p in mod.ports:
            h = self.builder.add_net(prefix + p.name, p.width)
            scope.handles[p.name] = h
            if p.name in bindings:
                self.builder.merge(bindings[p.name], h,
                                   f"port {p.name} of {prefix or mod.name}")
        for d in mod.decls:
            scope.handles[d.name] = self.builder.add_net(prefix + d.name, d.width)
        if not prefix:
            for p in mod.ports:
                self.builder.add_port(p.name, p.direction, p.width, scope.handles[p.name])
        for a in mod.assigns:
            self.synth(scope, a.expr, scope.widths[a.target],
                       out_handle=scope.handles[a.target])
        for blk in mod.always_blocks:
            self.lower_always(scope, blk)
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
        seen = set()
        for port, expr in inst.conns:
            if port not in port_dirs:
                raise ElabError(f"{path}: module {inst.module!r} has no port {port!r}")
            if port in seen:
                raise ElabError(f"{path}: port {port!r} connected twice")
            seen.add(port)
            if expr is None:
                continue
            if isinstance(expr, Ident):
                bindings[port] = scope.handles[expr.name]
            else:
                if port_dirs[port] == "out":
                    raise ElabError(
                        f"{path}: output port {port!r} must connect to a plain net")
                w = _infer_width(scope, expr)
                bindings[port] = self.synth(scope, expr, w)
        return self.expand(child, path + ".", bindings)


def elaborate(modules: list[ParsedModule], top: str) -> Netlist:
    """Flatten `top` and everything below it into a Netlist."""
    elab = _Elaborator(modules, top)
    elab.check_acyclic()
    elab.expand_all()
    return elab.builder.finish()
