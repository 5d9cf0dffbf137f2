"""Independent oracle implementations used to compute expected values.

Everything here deliberately avoids the library's traversal/memoization
machinery: counts are recursive multiplications over the parsed module
tree, cones come from naive path enumeration, gate order from a Kahn
loop that re-sorts its ready list, domains from exhaustive backward
search, and crossing pairs from brute-force path walks.  Gate
values come from a string-dispatch interpreter, the reference for the
simulator's compiled kernels, and exhaustive exploration is redone by
replaying every decision path from the start.  Also here: the
MSI-off reference run, a printer back to subset source text, and the
generated assertions interpreted over a run's waves (`sva_interp`).
"""

from __future__ import annotations

import random

from cdckit.checkers import build_checkers
from cdckit.codegen import generate_all
from cdckit.errors import SimDivergence
from cdckit.netlist import (GATE_OPS, BlackBox, Const, Dff, Gate, Netlist,
                            NetlistBuilder)
from cdckit.sim import Engine, MsiConfig, SimResult, simulate
from cdckit.verilog import (Binary, Concat, Expr, Ident, Literal, NbAssign,
                            ParsedModule, Slice, Stmt, Ternary, Unary)
from sva_interp import evaluate_module, parse_bindings, parse_checker_module


def reference_simulate(analysis, stimulus, checkers=None,
                       scope: str = "ref") -> SimResult:
    """One run with metastability injection off."""
    return simulate(analysis, stimulus, MsiConfig(enabled=False),
                    checkers or [], scope)


def wave_by_name(res: SimResult, netlist: Netlist) -> dict[str, list[tuple[int, int]]]:
    """A run's waves keyed by net name."""
    return {netlist.nets[i].name: w for i, w in res.waves.items()}


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


def random_netlist(rng: random.Random, n_flops: int = 12, n_gates: int = 25,
                   n_domains: int = 2, n_ports: int = 3,
                   max_width: int = 4) -> tuple[Netlist, dict[str, str]]:
    """Random acyclic multi-domain design built straight on the IR.  Gates
    draw every op in GATE_OPS; ports and flops are 1 to `max_width` bits
    wide (the first data port is 1 bit, so selects and enables exist), and
    CONCAT and SLICE make other widths."""
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
    # keep at least one net observable so validate() sees no dangling outputs
    sink, w = rng.choice(pool[n_driven:] or flop_out)
    b.add_port("out0", "out", w, sink)
    return b.finish(), clock_domains


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
