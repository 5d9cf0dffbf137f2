"""Independent oracle implementations used to compute expected values.

Everything here deliberately avoids the library's traversal/memoization
machinery: tokens come from one anchored match per token or skipped gap,
counts are recursive multiplications over the parsed module tree, cones
come from naive path enumeration, gate order from a Kahn loop that
re-sorts its ready list, netlist invariants from every driver and reader
recomputed and compared with the builder's, flop domains from exhaustive backward search, net
domains from each net's own cone, crossing pairs from brute-force path
walks, and synchronizers from the first-written matchers, which scan every
cell and chain.  Gate
values come from a string-dispatch interpreter, the reference for the
simulator's compiled kernels, and exhaustive exploration is redone by
replaying every decision path from the start.  Also here: the
MSI-off reference run, a printer back to subset source text, and the
generated assertions interpreted over a run's waves (`sva_interp`).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from cdckit.checkers import build_checkers
from cdckit.codegen import generate_all
from cdckit.constraints import ConstraintSet
from cdckit.domains import CdcPair, DomainMap, NetDomain
from cdckit.errors import ParseError, SimDivergence, UnsupportedConstruct
from cdckit.netlist import (GATE_OPS, BlackBox, Cell, Const, Dff, Gate,
                            Netlist, NetlistBuilder, Ref)
from cdckit.sim import Engine, MsiConfig, SimResult, simulate
from cdckit.syncrec import (SyncInstance, _chains, _fifo_roles, _gray_shape,
                             _net_driver_gate)
from cdckit.verilog import (KEYWORDS, UNSUPPORTED_KEYWORDS, Binary, Concat,
                            Expr, Ident, Literal, NbAssign, ParsedModule,
                            Slice, Stmt, Ternary, Token, Unary)
from sva_interp import evaluate_module, parse_bindings, parse_checker_module


def reference_simulate(analysis, stimulus, checkers=None,
                       scope: str = "ref") -> SimResult:
    """One run with metastability injection off."""
    return simulate(analysis, stimulus, MsiConfig(enabled=False),
                    checkers or [], scope)


def wave_by_name(res: SimResult, netlist: Netlist) -> dict[str, list[tuple[int, int]]]:
    """A run's waves keyed by net name."""
    return {netlist.nets[i].name: w for i, w in res.waves.items()}


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


def reference_tokenize(text: str, origin: str = "<input>") -> list[Token]:
    """Tokens by one anchored match per token or skipped gap, tracking the
    line at every whitespace or comment match."""
    tokens: list[Token] = []
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
        for pin, n in nl.cell_inputs(c):
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
    # keep at least one net observable so netlist_issues sees no dangling outputs
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
