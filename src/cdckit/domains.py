"""Clock-domain assignment and CDC/RDC pair extraction.

Every flop gets the domain of the single declared clock its clock cone
resolves to; gated clocks keep the domain of the gated clock's root.  Nets
inherit the domains of the sequential sources in their backward cone.  A
crossing pair exists for every flop-free combinational path from a
sequential element in one domain into the data or enable pin of a flop in
another; async-reset-pin crossings are reported separately as RDC pairs.

Pairs matching `false_path` or `static` constraints are kept but marked
suppressed; downstream stages skip them without dropping them from reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .constraints import ConstraintSet
from .errors import AnalysisError, UndeclaredClock
from .netlist import BlackBox, Cone, Const, Dff, Gate, Netlist, Ref


@dataclass(frozen=True)
class NetDomain:
    domains: frozenset[str]
    unclocked: bool = False
    constant: bool = False

    @property
    def kind(self) -> str:
        if self.constant:
            return "constant"
        if self.unclocked and not self.domains:
            return "unclocked"
        if self.unclocked or len(self.domains) > 1:
            return "mixed"
        return "single"

    @property
    def single(self) -> str | None:
        if self.kind == "single":
            return next(iter(self.domains))
        return None


@dataclass(frozen=True)
class ClockGateNote:
    flop: str
    gate: int                  # multi-input gate cell in the flop's clock cone
    root: int                  # root clock net


@dataclass(frozen=True)
class DataOnClockNote:
    flop: str
    source_flop: str


@dataclass
class DomainMap:
    flop_domain: dict[int, str]
    net_domain: dict[int, NetDomain]
    clock_nets: dict[str, set[int]]              # domain -> clock net indices
    clock_root: dict[int, str]                   # flop cell idx -> root clock name
    port_domain: dict[int, str]                  # declared ports (clocks, resets)
    gate_notes: list[ClockGateNote] = field(default_factory=list)
    data_on_clock: list[DataOnClockNote] = field(default_factory=list)

    def domain_of_ref(self, ref: Ref) -> str | None:
        """Domain of a sequential source; None means unclocked."""
        kind, idx, _pin = ref
        if kind == "cell":
            return self.flop_domain.get(idx)
        return self.port_domain.get(idx)


def gate_enable(netlist: Netlist, note: ClockGateNote,
                static_signals: list[str]) -> int | None:
    """The enable net of a gate in the AND(root clock, registered or
    declared-static enable) idiom, or None when the gate is not one."""
    gate = netlist.cells[note.gate]
    if not (isinstance(gate, Gate) and gate.op == "AND" and len(gate.inputs) == 2):
        return None
    others = [n for n in gate.inputs if n != note.root]
    if len(others) != 1:
        return None
    drv = netlist.nets[others[0]].driver
    registered = drv is not None and drv[0] == "cell" and \
        isinstance(netlist.cells[drv[1]], (Dff, Const))
    if registered or netlist.nets[others[0]].name in static_signals:
        return others[0]
    return None


@dataclass(frozen=True)
class CdcPair:
    id: str
    src: Ref                   # flop output or declared input port
    dst: int                   # dst flop cell index
    src_domain: str
    dst_domain: str
    pin: str                   # "data" | "enable"
    path: tuple[int, ...]      # comb cell indices between src and dst pin
    width: int
    src_net: int
    dst_pin_net: int
    src_name: str
    dst_name: str
    suppressed: str | None = None   # "false_path" | "static" | None

    def to_dict(self, netlist: Netlist) -> dict:
        return {
            "id": self.id,
            "src": self.src_name,
            "dst": self.dst_name,
            "src_domain": self.src_domain,
            "dst_domain": self.dst_domain,
            "pin": self.pin,
            "path_length": len(self.path),
            "path": [netlist.cells[c].name for c in self.path],
            "width": self.width,
            "suppressed": self.suppressed,
        }


@dataclass(frozen=True)
class RdcPair:
    id: str
    src: Ref
    dst: int
    src_domain: str
    dst_domain: str
    path: tuple[int, ...]
    src_name: str
    dst_name: str

    def to_dict(self, netlist: Netlist) -> dict:
        return {
            "id": self.id,
            "src": self.src_name,
            "dst": self.dst_name,
            "src_domain": self.src_domain,
            "dst_domain": self.dst_domain,
            "path": [netlist.cells[c].name for c in self.path],
        }


def _ref_name(netlist: Netlist, ref: Ref) -> str:
    kind, idx, _pin = ref
    return netlist.ports[idx].name if kind == "port" else netlist.cells[idx].name


def _ref_out_net(netlist: Netlist, ref: Ref) -> int:
    kind, idx, pin = ref
    if kind == "port":
        return netlist.ports[idx].net
    cell = netlist.cells[idx]
    if isinstance(cell, BlackBox):
        return cell.outs[int(pin[3:])]
    return cell.out


def assign_domains(netlist: Netlist, constraints: ConstraintSet) -> DomainMap:
    """Map every flop and net to a clock domain."""
    port_domain: dict[int, str] = {}
    clock_ports: dict[int, str] = {}
    for spec in constraints.clocks:
        port = next((p for p in netlist.ports
                     if p.direction == "in" and netlist.nets[p.net].name == spec.name), None)
        if port is None:
            raise AnalysisError(f"declared clock {spec.name!r} is not a top-level input")
        clock_ports[port.index] = spec.domain
        port_domain[port.index] = spec.domain
    for rspec in constraints.resets:
        idx = netlist.net_index.get(rspec.net)
        if idx is None:
            raise AnalysisError(f"declared reset {rspec.net!r} not found")
        for p in netlist.ports:
            if p.net == idx and p.direction == "in":
                port_domain.setdefault(p.index, rspec.domain)
    for name in constraints.static_signals:
        if name not in netlist.net_index:
            raise AnalysisError(f"declared static signal {name!r} not found")

    dm = DomainMap({}, {}, {}, {}, port_domain)

    for flop in netlist.dffs():
        cone = netlist.fanin_cone(flop.clock)
        roots = [ref for ref in cone.seq if ref[0] == "port" and ref[1] in clock_ports]
        flop_srcs = [ref for ref in cone.seq if ref[0] == "cell"
                     and isinstance(netlist.cells[ref[1]], Dff)]
        other_ports = [ref for ref in cone.seq if ref[0] == "port" and ref[1] not in clock_ports]
        boxes = [ref for ref in cone.seq if ref[0] == "cell"
                 and isinstance(netlist.cells[ref[1]], BlackBox)]
        # gating enables (ports, flops) may share the cone; exactly one
        # declared clock must be reachable, and black boxes never are
        if len(roots) != 1 or boxes:
            offend = ([_ref_name(netlist, r) for r in boxes]
                      or [_ref_name(netlist, r) for r in other_ports + roots])
            raise UndeclaredClock(
                f"clock of flop {flop.name!r} does not resolve to exactly one "
                f"declared clock (cone reaches {offend or 'nothing'})")
        root = roots[0]
        root_net = netlist.ports[root[1]].net
        domain = clock_ports[root[1]]
        dm.flop_domain[flop.index] = domain
        dm.clock_root[flop.index] = netlist.nets[root_net].name
        dm.clock_nets.setdefault(domain, set()).add(flop.clock)
        dm.clock_nets[domain].add(root_net)
        for ref in flop_srcs:
            dm.data_on_clock.append(DataOnClockNote(flop.name, _ref_name(netlist, ref)))
        for g in cone.gates:
            if len(netlist.cells[g].inputs) > 1:
                dm.gate_notes.append(ClockGateNote(flop.name, g, root_net))

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
        dm.net_domain[net.index] = NetDomain(frozenset(domains), unclocked, constant)
    return dm


def _path_cells(netlist: Netlist, cone: Cone, src_ref: Ref) -> tuple[int, ...]:
    """Comb cells of `cone` lying on some path from `src_ref`."""
    out: list[int] = []
    for g in cone.gates:
        gate = netlist.cells[g]
        sub = netlist.fanin_cone(gate.out)
        if src_ref in sub.seq:
            out.append(g)
    return tuple(sorted(out))


def _alias_set(netlist: Netlist, net_idx: int) -> set[str]:
    net = netlist.nets[net_idx]
    return {net.name, *net.aliases}


def extract_cdc_pairs(netlist: Netlist, domains: DomainMap,
                      constraints: ConstraintSet) -> list[CdcPair]:
    """One pair per cross-domain sequential source reaching a flop's data or
    enable pin through combinational logic only."""
    static_nets = set(constraints.static_signals)
    raw: list[CdcPair] = []
    for flop in netlist.dffs():
        dst_domain = domains.flop_domain[flop.index]
        pins = [("data", flop.data)]
        if flop.enable is not None:
            pins.append(("enable", flop.enable))
        for pin_name, pin_net in pins:
            cone = netlist.fanin_cone(pin_net)
            for ref in cone.seq:
                src_domain = domains.domain_of_ref(ref)
                if src_domain is None or src_domain == dst_domain:
                    continue
                src_net = _ref_out_net(netlist, ref)
                if ref[0] == "cell" and ref[1] == flop.index:
                    continue
                aliases = _alias_set(netlist, src_net)
                dst_aliases = _alias_set(netlist, flop.out)
                suppressed = None
                for fp in constraints.false_paths:
                    if fp.src in aliases and fp.dst in dst_aliases:
                        suppressed = "false_path"
                        break
                if suppressed is None and aliases & static_nets:
                    suppressed = "static"
                raw.append(CdcPair(
                    id="",
                    src=ref, dst=flop.index,
                    src_domain=src_domain, dst_domain=dst_domain,
                    pin=pin_name,
                    path=_path_cells(netlist, cone, ref),
                    width=netlist.nets[src_net].width,
                    src_net=src_net, dst_pin_net=pin_net,
                    src_name=_ref_name(netlist, ref), dst_name=flop.name,
                    suppressed=suppressed))
    raw.sort(key=lambda p: (p.src_name, p.dst_name, p.pin))
    out = []
    for n, p in enumerate(raw):
        out.append(CdcPair(f"cdc{n}", p.src, p.dst, p.src_domain, p.dst_domain,
                           p.pin, p.path, p.width, p.src_net, p.dst_pin_net,
                           p.src_name, p.dst_name, p.suppressed))
    for p in out:
        assert p.src_domain != p.dst_domain
    return out


def unclocked_crossings(netlist: Netlist, domains: DomainMap) -> list[dict]:
    """Informational: undeclared-domain sources reaching flop inputs."""
    info = []
    for flop in netlist.dffs():
        pins = [("data", flop.data)]
        if flop.enable is not None:
            pins.append(("enable", flop.enable))
        for pin_name, pin_net in pins:
            cone = netlist.fanin_cone(pin_net)
            for ref in cone.seq:
                if domains.domain_of_ref(ref) is None:
                    kind, idx, _ = ref
                    through_box = kind == "cell" and isinstance(netlist.cells[idx], BlackBox)
                    info.append({
                        "src": _ref_name(netlist, ref),
                        "dst": flop.name,
                        "pin": pin_name,
                        "via_blackbox": through_box,
                    })
    info.sort(key=lambda d: (d["src"], d["dst"], d["pin"]))
    return info


def extract_rdc_pairs(netlist: Netlist, domains: DomainMap,
                      constraints: ConstraintSet) -> list[RdcPair]:
    """One pair per flop whose async-reset cone has a different-domain source."""
    raw: list[RdcPair] = []
    for flop in netlist.dffs():
        if flop.reset is None:
            continue
        dst_domain = domains.flop_domain[flop.index]
        cone = netlist.fanin_cone(flop.reset)
        for ref in cone.seq:
            src_domain = domains.domain_of_ref(ref)
            if src_domain is None or src_domain == dst_domain:
                continue
            raw.append(RdcPair(
                id="", src=ref, dst=flop.index,
                src_domain=src_domain, dst_domain=dst_domain,
                path=_path_cells(netlist, cone, ref),
                src_name=_ref_name(netlist, ref), dst_name=flop.name))
    raw.sort(key=lambda p: (p.src_name, p.dst_name))
    return [RdcPair(f"rdc{n}", p.src, p.dst, p.src_domain, p.dst_domain,
                    p.path, p.src_name, p.dst_name) for n, p in enumerate(raw)]


def pairs_fingerprint(pairs: list[CdcPair]) -> str:
    """Stable hash of the pair list (ids, endpoints, widths, domains) — not
    the full netlist, so comment-only RTL edits keep coverage valid."""
    basis = [[p.id, p.src_name, p.dst_name, p.width, p.src_domain, p.dst_domain]
             for p in pairs]
    digest = hashlib.sha256(json.dumps(basis, sort_keys=True).encode()).hexdigest()
    return digest[:16]
