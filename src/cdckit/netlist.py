"""Flattened gate-level netlist IR and its traversal primitives.

A `Netlist` is an immutable-after-build graph of cells (flops, gates,
constants, black boxes) connected by nets.  Every net has at most one
driver — a cell output or a top-level input port — and any number of
readers; a net with no driver reads as 0.  `NetlistBuilder.finish` is where
a netlist is judged well formed: it rejects a second driver and every
combinational loop.  Multi-bit signals stay vectors in the IR; analyses
that need bit granularity expand them on the fly.

References into the graph are `(kind, index, pin)` triples where kind is
"cell" or "port".  Cell indices point into `Netlist.cells`, port indices
into `Netlist.ports`.

Backward cones are memoized per netlist: repeated queries for the logic
feeding a net do not recompute shared cones.  The simulator's compiled
kernels are cached on the netlist in the same way.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import CombinationalLoop, MultipleDrivers, PortWidthMismatch

Ref = tuple[str, int, str]  # ("cell"|"port", index, pin)

GATE_OPS = ("AND", "OR", "XOR", "NOT", "BUF", "MUX", "CONCAT", "SLICE")
_ARITY = {"NOT": 1, "BUF": 1, "SLICE": 1, "MUX": 3}    # the others take two or more


@dataclass
class Net:
    index: int
    name: str               # canonical hierarchical name, e.g. "u0.sync.q1"
    width: int
    aliases: tuple[str, ...] = ()
    driver: Ref | None = None
    readers: tuple[Ref, ...] = ()


@dataclass
class Dff:
    index: int
    name: str
    width: int
    clock: int              # net indices
    data: int
    out: int
    enable: int | None = None
    reset: int | None = None
    reset_active_low: bool = True
    reset_value: int = 0


@dataclass
class Gate:
    index: int
    name: str
    op: str
    inputs: tuple[int, ...]
    out: int
    width: int
    slice_lsb: int = 0      # SLICE only


@dataclass
class Const:
    index: int
    name: str
    value: int
    width: int
    out: int


@dataclass
class BlackBox:
    """Instance of a module with no definition; port directions are
    resolved by driver availability at build time."""
    index: int
    name: str
    module: str
    inputs: tuple[int, ...] = ()
    outs: tuple[int, ...] = ()


Cell = Dff | Gate | Const | BlackBox


@dataclass
class Port:
    index: int
    name: str
    direction: str  # "in" | "out"
    width: int
    net: int


@dataclass(frozen=True)
class InstanceRecord:
    path: str       # hierarchical instance prefix, e.g. "u0.sync"
    module: str


@dataclass(frozen=True)
class Cone:
    """Backward cone of a net: sequential boundary plus traversed logic."""
    seq: tuple[Ref, ...]        # Dff outputs, input ports, black-box outputs
    gates: tuple[int, ...]
    consts: tuple[int, ...]


class Netlist:
    def __init__(self, name: str, cells: list[Cell], nets: list[Net],
                 ports: list[Port], instances: list[InstanceRecord]):
        self.name = name
        self.cells = cells
        self.nets = nets
        self.ports = ports
        self.instances = instances
        self.net_index: dict[str, int] = {}
        for net in nets:
            self.net_index[net.name] = net.index
            for alias in net.aliases:
                self.net_index.setdefault(alias, net.index)
        self.port_index = {p.name: p.index for p in ports}
        self._cone_cache: dict[int, Cone] = {}
        self._topo: list[int] | None = None
        # compiled simulation kernels, filled on first use by cdckit.sim
        self.kernels: dict = {}

    # -- lookups --

    def net(self, name: str) -> Net:
        return self.nets[self.net_index[name]]

    def dffs(self) -> list[Dff]:
        return [c for c in self.cells if isinstance(c, Dff)]

    def cell_inputs(self, cell: Cell) -> list[tuple[str, int]]:
        if isinstance(cell, Dff):
            pins = [("clock", cell.clock), ("data", cell.data)]
            if cell.enable is not None:
                pins.append(("enable", cell.enable))
            if cell.reset is not None:
                pins.append(("reset", cell.reset))
            return pins
        if isinstance(cell, Gate):
            return [(f"in{i}", n) for i, n in enumerate(cell.inputs)]
        if isinstance(cell, BlackBox):
            return [(f"in{i}", n) for i, n in enumerate(cell.inputs)]
        return []

    # -- traversal --

    def fanin_cone(self, net_idx: int) -> Cone:
        """All logic reachable backward from a net.

        The walk ends at flop outputs, black-box outputs, and input ports.
        It needs no loop check: `NetlistBuilder.finish` rejects every
        combinational loop.
        """
        cached = self._cone_cache.get(net_idx)
        if cached is not None:
            return cached
        seq: list[Ref] = []
        gates: list[int] = []
        consts: list[int] = []
        seen: set[int] = set()
        # Pre-order walk on an explicit stack of the inputs each entered net
        # has left to visit, so long gate chains do not hit the recursion
        # limit.  Every net is entered once and drives one reference, so
        # nothing is listed twice.
        stack: list[Iterator[int]] = []

        def enter(idx: int):
            if idx in seen:
                return
            seen.add(idx)
            drv = self.nets[idx].driver
            inputs: tuple[int, ...] = ()
            if drv is None:
                pass  # floating net: reads as 0, and `analyze` rejects it
            elif drv[0] == "port":
                seq.append(("port", drv[1], ""))
            else:
                cell = self.cells[drv[1]]
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
        cone = Cone(tuple(seq), tuple(gates), tuple(consts))
        self._cone_cache[net_idx] = cone
        return cone

    def comb_topo(self) -> list[int]:
        """Gate indices in topological order (inputs before outputs)."""
        if self._topo is not None:
            return self._topo
        gate_of_net: dict[int, int] = {}
        for c in self.cells:
            if isinstance(c, Gate):
                gate_of_net[c.out] = c.index
        indeg: dict[int, int] = {}
        succs: dict[int, list[int]] = {}
        gates = [c for c in self.cells if isinstance(c, Gate)]
        for g in gates:
            indeg.setdefault(g.index, 0)
            for n in g.inputs:
                src = gate_of_net.get(n)
                if src is not None:
                    indeg[g.index] = indeg.get(g.index, 0) + 1
                    succs.setdefault(src, []).append(g.index)
        # the ready gate of lowest index goes first
        ready = sorted(i for i, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            idx = heappop(ready)
            order.append(idx)
            for s in succs.get(idx, ()):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heappush(ready, s)
        if len(order) != len(gates):
            stuck = sorted(set(indeg) - set(order))
            name = self.cells[stuck[0]].name if stuck else "?"
            raise CombinationalLoop(f"combinational loop involving {name!r}")
        self._topo = order
        return order

    # -- export --

    def to_json_dict(self) -> dict:
        def ref(r: Ref | None):
            return None if r is None else list(r)

        cells = []
        for c in self.cells:
            d: dict = {"name": c.name}
            if isinstance(c, Dff):
                d.update(kind="dff", width=c.width, clock=self.nets[c.clock].name,
                         data=self.nets[c.data].name, out=self.nets[c.out].name,
                         reset_value=c.reset_value)
                if c.enable is not None:
                    d["enable"] = self.nets[c.enable].name
                if c.reset is not None:
                    d["reset"] = self.nets[c.reset].name
                    d["reset_active_low"] = c.reset_active_low
            elif isinstance(c, Gate):
                d.update(kind="gate", op=c.op, width=c.width,
                         inputs=[self.nets[n].name for n in c.inputs],
                         out=self.nets[c.out].name)
                if c.op == "SLICE":
                    d["lsb"] = c.slice_lsb
            elif isinstance(c, Const):
                d.update(kind="const", value=c.value, width=c.width,
                         out=self.nets[c.out].name)
            else:
                d.update(kind="blackbox", module=c.module,
                         inputs=[self.nets[n].name for n in c.inputs],
                         outs=[self.nets[n].name for n in c.outs])
            cells.append(d)
        return {
            "name": self.name,
            "ports": [{"name": p.name, "direction": p.direction, "width": p.width,
                       "net": self.nets[p.net].name} for p in self.ports],
            "nets": [{"name": n.name, "width": n.width, "aliases": list(n.aliases),
                      "driver": ref(n.driver)} for n in self.nets],
            "cells": cells,
            "instances": [{"path": i.path, "module": i.module} for i in self.instances],
        }


# --- builder -------------------------------------------------------------------

def _name_rank(name: str) -> tuple[int, int, str]:
    # topmost hierarchy first, then shortest, then lexicographic
    return (name.count("."), len(name), name)


class NetlistBuilder:
    """Accumulates cells/nets during elaboration, merges connected nets with
    union-find, then produces a consistent `Netlist`."""

    def __init__(self, name: str):
        self.name = name
        self._net_names: list[str] = []
        self._net_widths: list[int] = []
        self._parent: list[int] = []
        self._by_name: dict[str, int] = {}
        self._cells: list[tuple] = []   # pending cell descriptions
        self._ports: list[tuple[str, str, int, int]] = []
        self._instances: list[InstanceRecord] = []
        self._bb_conns: list[tuple[int, list[int]]] = []  # (cell slot, handle list)

    # nets are identified by handles until finish()

    def add_net(self, name: str, width: int) -> int:
        if name in self._by_name:
            raise MultipleDrivers(f"net name {name!r} declared twice")
        handle = len(self._net_names)
        self._net_names.append(name)
        self._net_widths.append(width)
        self._parent.append(handle)
        self._by_name[name] = handle
        return handle

    def _find(self, h: int) -> int:
        root = h
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[h] != root:
            self._parent[h], h = root, self._parent[h]
        return root

    def merge(self, a: int, b: int, context: str = ""):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        wa, wb = self._net_widths[ra], self._net_widths[rb]
        if wa != wb:
            raise PortWidthMismatch(
                f"width mismatch merging {self._net_names[ra]!r} ({wa}) with "
                f"{self._net_names[rb]!r} ({wb}){' at ' + context if context else ''}")
        self._parent[rb] = ra

    def add_port(self, name: str, direction: str, width: int, net: int):
        self._ports.append((name, direction, width, net))

    def add_instance(self, path: str, module: str):
        self._instances.append(InstanceRecord(path, module))

    def add_dff(self, name: str, width: int, clock: int, data: int, out: int,
                enable: int | None = None, reset: int | None = None,
                reset_active_low: bool = True, reset_value: int = 0):
        self._cells.append(("dff", name, width, clock, data, out, enable,
                            reset, reset_active_low, reset_value))

    def add_gate(self, name: str, op: str, inputs: list[int], out: int,
                 width: int, slice_lsb: int = 0):
        assert op in GATE_OPS, op
        n = len(inputs)
        assert n == _ARITY[op] if op in _ARITY else n >= 2, (name, op, n)
        self._cells.append(("gate", name, op, tuple(inputs), out, width, slice_lsb))

    def add_const(self, name: str, value: int, width: int, out: int):
        self._cells.append(("const", name, value, width, out))

    def add_blackbox(self, name: str, module: str, conns: list[int]):
        slot = len(self._cells)
        self._cells.append(("blackbox", name, module))
        self._bb_conns.append((slot, conns))

    def finish(self) -> Netlist:
        """Raises MultipleDrivers for a net with two drivers and
        CombinationalLoop for a loop of gates; no later stage checks the
        netlist's structure again."""
        # resolve union-find classes to canonical nets
        groups: dict[int, list[int]] = {}
        for h in range(len(self._net_names)):
            groups.setdefault(self._find(h), []).append(h)
        net_of_handle: dict[int, int] = {}
        nets: list[Net] = []
        for root in sorted(groups, key=lambda r: min(groups[r])):
            names = sorted((self._name_of(h) for h in groups[root]), key=_name_rank)
            canonical = names[0]
            idx = len(nets)
            nets.append(Net(idx, canonical, self._net_widths[root],
                            tuple(n for n in names[1:])))
            for h in groups[root]:
                net_of_handle[h] = idx

        def res(h: int | None) -> int | None:
            return None if h is None else net_of_handle[self._find(h)]

        cells: list[Cell] = []
        bb_pending: dict[int, list[int]] = {}
        for slot, conns in self._bb_conns:
            bb_pending[slot] = [net_of_handle[self._find(c)] for c in conns]
        for slot, desc in enumerate(self._cells):
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

        ports = [Port(i, name, direction, width, net_of_handle[self._find(net)])
                 for i, (name, direction, width, net) in enumerate(self._ports)]

        # first driver pass without black boxes
        driven: dict[int, Ref] = {}

        def claim(net_idx: int, ref: Ref):
            prev = driven.get(net_idx)
            if prev is not None:
                raise MultipleDrivers(
                    f"net {nets[net_idx].name!r} driven by both "
                    f"{self._ref_name(prev, cells, ports)} and {self._ref_name(ref, cells, ports)}")
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
            assert isinstance(cell, BlackBox)
            ins: list[int] = []
            outs: list[int] = []
            for n in conn_nets:
                if n in driven:
                    ins.append(n)
                else:
                    pin = f"out{len(outs)}"
                    outs.append(n)
                    claim(n, ("cell", cell.index, pin))
            cell.inputs = tuple(ins)
            cell.outs = tuple(outs)

        for idx, ref in driven.items():
            nets[idx].driver = ref

        # reader references
        readers: dict[int, list[Ref]] = {}
        netlist = Netlist(self.name, cells, nets, ports, list(self._instances))
        for c in cells:
            for pin, n in netlist.cell_inputs(c):
                readers.setdefault(n, []).append(("cell", c.index, pin))
        for p in ports:
            if p.direction == "out":
                readers.setdefault(p.net, []).append(("port", p.index, ""))
        for idx, refs in readers.items():
            nets[idx].readers = tuple(sorted(refs))

        netlist.comb_topo()  # combinational loops are a hard build error
        return netlist

    def _name_of(self, handle: int) -> str:
        return self._net_names[handle]

    @staticmethod
    def _ref_name(ref: Ref, cells: list[Cell], ports: list[Port]) -> str:
        kind, idx, _pin = ref
        return ports[idx].name if kind == "port" else cells[idx].name
