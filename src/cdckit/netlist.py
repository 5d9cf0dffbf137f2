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

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

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
        self._dffs = tuple(c for c in cells if isinstance(c, Dff))
        self._cone_cache: dict[int, Cone] = {}
        self._topo: list[int] | None = None
        # compiled simulation kernels, filled on first use by cdckit.sim
        self.kernels: dict = {}

    # -- lookups --

    def net(self, name: str) -> Net:
        return self.nets[self.net_index[name]]

    def dffs(self) -> tuple[Dff, ...]:
        """The flops, in cell order."""
        return self._dffs

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
        nets, cells = self.nets, self.cells
        seq: list[Ref] = []
        gates: list[int] = []
        consts: list[int] = []
        seen: set[int] = set()
        # Pre-order walk on an explicit stack, so long gate chains do not hit
        # the recursion limit: a net is visited when it is popped, and a
        # gate's inputs are pushed in reverse, so the first is visited next.
        # Every net is visited once and has one driver, so nothing is listed
        # twice.
        stack = [net_idx]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            drv = nets[idx].driver
            if drv is None:
                continue  # floating net: reads as 0, and `analyze` rejects it
            if drv[0] == "port":
                seq.append(("port", drv[1], ""))
                continue
            cell = cells[drv[1]]
            if isinstance(cell, Gate):
                gates.append(cell.index)
                stack.extend(reversed(cell.inputs))
            elif isinstance(cell, Dff):
                seq.append(("cell", cell.index, "out"))
            elif isinstance(cell, BlackBox):
                seq.append(("cell", cell.index, drv[2]))
            else:
                consts.append(cell.index)
        cone = Cone(tuple(seq), tuple(gates), tuple(consts))
        self._cone_cache[net_idx] = cone
        return cone

    def comb_topo(self) -> list[int]:
        """Gate indices in topological order (inputs before outputs)."""
        if self._topo is not None:
            return self._topo
        gates = [c for c in self.cells if isinstance(c, Gate)]
        gate_of_net = [-1] * len(self.nets)
        for g in gates:
            gate_of_net[g.out] = g.index
        # Elaboration mostly adds a gate after the gates that drive it.  Where
        # every gate does, index order is the topological order that puts
        # the ready gate of lowest index first.
        if all(gate_of_net[n] < g.index for g in gates for n in g.inputs):
            self._topo = [g.index for g in gates]
            return self._topo
        indeg = [0] * len(self.cells)
        succs: dict[int, list[int]] = {}
        for g in gates:
            for n in g.inputs:
                src = gate_of_net[n]
                if src >= 0:
                    indeg[g.index] += 1
                    succs.setdefault(src, []).append(g.index)
        # the ready gate of lowest index goes first; gates are in index
        # order, so the first ready list is already a heap
        ready = [g.index for g in gates if not indeg[g.index]]
        order: list[int] = []
        while ready:
            idx = heappop(ready)
            order.append(idx)
            for s in succs.get(idx, ()):
                indeg[s] -= 1
                if indeg[s] == 0:
                    heappush(ready, s)
        if len(order) != len(gates):
            stuck = min(g.index for g in gates if indeg[g.index])
            raise CombinationalLoop(
                f"combinational loop involving {self.cells[stuck].name!r}")
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


class BodyRecord(NamedTuple):
    """The nets, merges and cells one expansion of a module adds after its
    ports, in order: names without the instance prefix, handles relative
    to the instance's first net (see `NetlistBuilder.stamp`)."""
    names: tuple[str, ...]
    widths: tuple[int, ...]
    merges: tuple[tuple[int, int], ...]
    cells: tuple[tuple, ...]


def _relocate(desc: tuple, name: str, moved) -> tuple:
    """The pending cell `desc` renamed `name`, each net handle `h` replaced
    by `moved[h]`.  A body holds gates, flops and constants; its black
    boxes belong to the enclosing scope."""
    kind = desc[0]
    if kind == "gate":
        _, _, op, inputs, out, width, lsb = desc
        return (kind, name, op, tuple([moved[h] for h in inputs]), moved[out], width, lsb)
    if kind == "dff":
        _, _, width, clock, data, out, enable, reset, alow, rv = desc
        return (kind, name, width, moved[clock], moved[data], moved[out],
                None if enable is None else moved[enable],
                None if reset is None else moved[reset], alow, rv)
    assert kind == "const", kind
    _, _, value, width, out = desc
    return (kind, name, value, width, moved[out])


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
        self._merges: list[tuple[int, int]] | None = None   # merges being recorded

    # nets are identified by handles until finish()

    @property
    def net_count(self) -> int:
        """The handle the next net gets."""
        return len(self._net_names)

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
        if self._merges is not None:
            self._merges.append((a, b))
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

    # -- a module body, recorded at its first expansion and stamped after --

    def open_body(self, first: int) -> tuple[int, int, int]:
        """Start recording what is added from here on (nets, merges, cells)
        as part of the body of an instance whose first net is `first`."""
        self._merges = []
        return first, len(self._net_names), len(self._cells)

    def close_body(self, mark: tuple[int, int, int], prefix: str) -> BodyRecord:
        """What was added since `open_body` returned `mark`, with `prefix`
        cut from every name and handles taken relative to the instance's
        first net.  A body names only nets of its own instance."""
        first, nets_from, cells_from = mark
        cut = len(prefix)
        relative = range(-first, len(self._net_names) - first)
        merges, self._merges = self._merges, None
        return BodyRecord(
            tuple(name[cut:] for name in self._net_names[nets_from:]),
            tuple(self._net_widths[nets_from:]),
            tuple((a - first, b - first) for a, b in merges),
            tuple(_relocate(desc, desc[1][cut:], relative)
                  for desc in self._cells[cells_from:]))

    def stamp(self, body: BodyRecord, prefix: str, first: int):
        """Add `body` again, for an instance whose names begin with `prefix`
        and whose first net is `first`: its nets, its merges and its cells
        in the order its first expansion added them."""
        names = [prefix + name for name in body.names]
        if not self._by_name.keys().isdisjoint(names):
            twice = next(name for name in names if name in self._by_name)
            raise MultipleDrivers(f"net name {twice!r} declared twice")
        # one int per handle, shared by every place that holds it
        base = len(self._net_names)
        handles = list(range(first, base + len(names)))
        own = handles[base - first:]
        self._by_name.update(zip(names, own))
        self._net_names += names
        self._net_widths += body.widths
        self._parent += own
        for a, b in body.merges:
            self.merge(handles[a], handles[b], prefix)
        self._cells += [_relocate(desc, prefix + desc[1], handles) for desc in body.cells]

    def finish(self) -> Netlist:
        """Raises MultipleDrivers for a net with two drivers and
        CombinationalLoop for a loop of gates; no later stage checks the
        netlist's structure again."""
        names, widths, parent, find = (self._net_names, self._net_widths,
                                       self._parent, self._find)
        # Nets are numbered in order of their smallest handle, so a class
        # gets its number when its first handle is met.  `canon` maps every
        # handle to its net once; only merged classes rank their names.
        net_of_root = [-1] * len(parent)
        canon: list[int] = []
        firsts: list[int] = []
        merged: dict[int, list[int]] = {}
        for h, p in enumerate(parent):
            root = h if p == h else find(h)
            idx = net_of_root[root]
            if idx < 0:
                idx = net_of_root[root] = len(firsts)
                firsts.append(h)
            else:
                merged.setdefault(idx, [firsts[idx]]).append(h)
            canon.append(idx)
        nets = [Net(i, names[h], widths[h]) for i, h in enumerate(firsts)]
        for idx, handles in merged.items():
            ranked = sorted((names[h] for h in handles), key=_name_rank)
            nets[idx].name = ranked[0]
            nets[idx].aliases = tuple(ranked[1:])

        driver: list[Ref | None] = [None] * len(nets)
        readers: list[list[Ref]] = [[] for _ in nets]
        ports = [Port(i, name, direction, width, canon[net])
                 for i, (name, direction, width, net) in enumerate(self._ports)]
        cells: list[Cell] = []

        def claim(net_idx: int, ref: Ref):
            prev = driver[net_idx]
            if prev is not None:
                raise MultipleDrivers(
                    f"net {nets[net_idx].name!r} driven by both "
                    f"{self._ref_name(prev, cells, ports)} and {self._ref_name(ref, cells, ports)}")
            driver[net_idx] = ref

        for p in ports:
            if p.direction == "in":
                claim(p.net, ("port", p.index, ""))
            else:
                readers[p.net].append(("port", p.index, ""))
        pins = [f"in{i}" for i in range(
            max((len(d[3]) for d in self._cells if d[0] == "gate"), default=0))]
        for idx, desc in enumerate(self._cells):
            kind = desc[0]
            if kind == "gate":
                _, name, op, inputs, out, width, lsb = desc
                ins = tuple(map(canon.__getitem__, inputs))
                for pin, n in zip(pins, ins):
                    readers[n].append(("cell", idx, pin))
                cell: Cell = Gate(idx, name, op, ins, canon[out], width, lsb)
            elif kind == "dff":
                _, name, width, clock, data, out, enable, reset, alow, rv = desc
                cell = Dff(idx, name, width, canon[clock], canon[data], canon[out],
                           None if enable is None else canon[enable],
                           None if reset is None else canon[reset], alow, rv)
                readers[cell.clock].append(("cell", idx, "clock"))
                readers[cell.data].append(("cell", idx, "data"))
                if cell.enable is not None:
                    readers[cell.enable].append(("cell", idx, "enable"))
                if cell.reset is not None:
                    readers[cell.reset].append(("cell", idx, "reset"))
            elif kind == "const":
                _, name, value, width, out = desc
                cell = Const(idx, name, value, width, canon[out])
            else:
                _, name, module = desc
                cells.append(BlackBox(idx, name, module))
                continue
            cells.append(cell)
            claim(cell.out, ("cell", idx, "out"))

        # black-box connections: undriven nets become outputs, in slot order
        for slot, conns in self._bb_conns:
            box = cells[slot]
            assert isinstance(box, BlackBox)
            ins: list[int] = []
            outs: list[int] = []
            for n in map(canon.__getitem__, conns):
                if driver[n] is not None:
                    readers[n].append(("cell", slot, f"in{len(ins)}"))
                    ins.append(n)
                else:
                    claim(n, ("cell", slot, f"out{len(outs)}"))
                    outs.append(n)
            box.inputs = tuple(ins)
            box.outs = tuple(outs)

        for net, ref, refs in zip(nets, driver, readers):
            net.driver = ref
            if refs:
                net.readers = tuple(refs) if len(refs) == 1 else tuple(sorted(refs))

        netlist = Netlist(self.name, cells, nets, ports, list(self._instances))
        netlist.comb_topo()  # combinational loops are a hard build error
        return netlist

    @staticmethod
    def _ref_name(ref: Ref, cells: list[Cell], ports: list[Port]) -> str:
        kind, idx, _pin = ref
        return ports[idx].name if kind == "port" else cells[idx].name
