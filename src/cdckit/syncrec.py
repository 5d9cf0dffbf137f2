"""Structural recognition of synchronizer schemes.

Matched patterns, in order of specificity:

* PulseToggle — source-domain toggle flop (q XOR-fed back) crossing into a
  flop chain, with a destination-side XOR of the chain tail and a one-stage
  delay of it.
* AsyncFifo — two pointer registers crossing in opposite directions between
  the same two domains, each through a chain, each carrying a gray-encode
  shape (an XOR whose operands trace back to one common register) in its
  data cone.
* MuxEnable — a destination flop whose enable resolves to a chain tail while
  its data cone crosses domains, or an explicit 2:1 mux with a feedback arm
  from the flop's own output and a chain-tail select.
* Ndff — a maximal chain of same-clock flops with exclusively-read
  intermediate stages and no enables; chains whose members share an async
  reset sourced from another domain and whose head data is constant are
  reset synchronizers.

Chains absorbed into a composite (pulse/fifo/mux) are not reported again as
standalone Ndff instances.  Modules listed in `sync_cells` match as
UserDefined by instance boundary, with no internal structure check.

Each matcher builds its `SyncInstance` where it finds it, with an empty id;
ids `sync<n>` follow kind rank and sort key once every matcher has run.
Matchers look structure up instead of scanning for it: the pulse XOR among
the readers of the chain tail's output, and a mux select or enable's chain
through the flop that the net reads via BUF/NOT/SLICE (`_source_flop`),
keyed by chain tail.  Chains are disjoint, so a tail names one chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .constraints import ConstraintSet
from .domains import CdcPair, DomainMap
from .netlist import Dff, Gate, Netlist


@dataclass(slots=True, unsafe_hash=True)
class SyncInstance:
    id: str
    kind: str                       # "ndff" | "pulse" | "mux" | "fifo" | "user"
    members: tuple[int, ...]        # cell indices
    head: int | None                # first capture flop (None for user kind)
    tail: int | None
    depth: int
    dst_domain: str
    protected: tuple[str, ...] = () # pair ids
    role: str = "cdc"               # "cdc" | "reset"
    extra: dict = field(default_factory=dict)

    def to_dict(self, netlist: Netlist) -> dict:
        return {
            "id": self.id,
            "kind": self.kind,
            "members": [netlist.cells[c].name for c in self.members],
            "head": netlist.cells[self.head].name if self.head is not None else None,
            "depth": self.depth,
            "dst_domain": self.dst_domain,
            "protected": list(self.protected),
            "role": self.role,
            "extra": {k: v for k, v in sorted(self.extra.items())
                      if isinstance(v, (str, int, list))},
        }


@dataclass(slots=True, unsafe_hash=True)
class PairStatus:
    state: str                  # "synchronized" | "unsynchronized" | "suppressed"
    sync_id: str | None = None
    sync_kind: str | None = None
    comb_disqualified: bool = False
    reason: str | None = None


_KIND_RANK = {"ndff": 0, "pulse": 1, "mux": 2, "fifo": 3, "user": 4}


def _chain_links(netlist: Netlist) -> dict[int, int]:
    """flop index -> next flop index, where the link is a direct, exclusively
    read, enable-free, same-clock connection."""
    links: dict[int, int] = {}
    for flop in netlist.dffs():
        out = netlist.nets[flop.out]
        if len(out.readers) != 1:
            continue
        kind, idx, pin = out.readers[0]
        if kind != "cell" or pin != "data":
            continue
        nxt = netlist.cells[idx]
        if not isinstance(nxt, Dff):
            continue
        if nxt.clock != flop.clock or nxt.enable is not None or flop.enable is not None:
            continue
        links[flop.index] = idx
    return links


def _chains(netlist: Netlist, min_depth: int) -> list[list[int]]:
    """Maximal link chains, head first, longest-match only."""
    links = _chain_links(netlist)
    has_pred = set(links.values())
    chains = []
    for head in sorted(links):
        if head in has_pred:
            continue
        chain = [head]
        while chain[-1] in links:
            chain.append(links[chain[-1]])
        if len(chain) >= min_depth:
            chains.append(chain)
    return chains


def _net_driver_gate(netlist: Netlist, net_idx: int) -> Gate | None:
    drv = netlist.nets[net_idx].driver
    if drv is None or drv[0] != "cell":
        return None
    cell = netlist.cells[drv[1]]
    return cell if isinstance(cell, Gate) else None


def _source_flop(netlist: Netlist, net_idx: int) -> int | None:
    """The flop whose output the net is through BUF/NOT/SLICE only, or None."""
    while True:
        drv = netlist.nets[net_idx].driver
        if drv is None or drv[0] != "cell":
            return None
        cell = netlist.cells[drv[1]]
        if isinstance(cell, Dff):
            return cell.index
        if not isinstance(cell, Gate) or cell.op not in ("BUF", "NOT", "SLICE"):
            return None
        net_idx = cell.inputs[0]


def _gray_shape(netlist: Netlist, data_net: int) -> bool:
    """A gray-encode witness: an XOR in the cone whose operand cones both
    reach one common sequential source."""
    cone = netlist.fanin_cone(data_net)
    for g in cone.gates:
        gate = netlist.cells[g]
        if gate.op != "XOR":
            continue
        operand_srcs = [set(netlist.fanin_cone(n).seq) for n in gate.inputs]
        common = set.intersection(*operand_srcs) if operand_srcs else set()
        if any(ref[0] == "cell" and isinstance(netlist.cells[ref[1]], Dff)
               for ref in common):
            return True
    return False


def recognize(netlist: Netlist, domains: DomainMap, pairs: list[CdcPair],
              constraints: ConstraintSet) -> list[SyncInstance]:
    min_depth = constraints.options["ndff_min_depth"]
    pairs_by_dst: dict[int, list[CdcPair]] = {}
    for p in pairs:
        pairs_by_dst.setdefault(p.dst, []).append(p)

    def data_pairs(flop_idx: int) -> tuple[str, ...]:
        return tuple(p.id for p in pairs_by_dst.get(flop_idx, ()) if p.pin == "data")

    consumed_chains: set[int] = set()   # by head index
    found: list[tuple[str, SyncInstance]] = []  # (sort key, instance without id)

    # user-declared synchronizer modules claim their cells outright; their
    # internals are not matched again as ordinary patterns.  A flop belongs
    # to each such instance whose path is a dotted prefix of its name.
    sync_mods = set(constraints.sync_cells)
    user_paths = {rec.path: rec.module for rec in netlist.instances
                  if rec.module in sync_mods}
    user_members: dict[str, list[int]] = {}
    if user_paths:
        for flop in netlist.dffs():
            parts = flop.name.split(".")
            for k in range(1, len(parts)):
                path = ".".join(parts[:k])
                if path in user_paths:
                    user_members.setdefault(path, []).append(flop.index)
    user_cells: set[int] = set()
    for path, module in user_paths.items():
        members = tuple(user_members.get(path, ()))
        if not members:
            continue
        member_set = set(members)
        user_cells |= member_set
        found.append((path, SyncInstance(
            "", "user", members, None, None, len(members),
            min(domains.flop_domain[m] for m in members),
            tuple(p.id for p in pairs if p.dst in member_set),
            "cdc", {"module": module, "path": path})))

    chains = [c for c in _chains(netlist, min_depth) if not set(c) & user_cells]
    chain_of_tail = {c[-1]: c for c in chains}

    # pulse synchronizers: the recombining XOR is a reader of the chain tail
    for chain in chains:
        head, tail = netlist.cells[chain[0]], netlist.cells[chain[-1]]
        readers = [(netlist.cells[idx], pin) for kind, idx, pin
                   in netlist.nets[tail.out].readers if kind == "cell"]
        delays = [c for c, pin in readers if pin == "data" and isinstance(c, Dff)
                  and c.clock == tail.clock and c.enable is None]
        if not delays:
            continue
        delay = delays[-1]
        xor = next((g for g, _pin in readers if isinstance(g, Gate) and g.op == "XOR"
                    and set(g.inputs) == {tail.out, delay.out}), None)
        if xor is None:
            continue
        toggle = None
        for p in pairs_by_dst.get(head.index, ()):
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
        consumed_chains.add(head.index)
        found.append((head.name, SyncInstance(
            "", "pulse", tuple(chain) + (delay.index, xor.index, toggle.index),
            head.index, tail.index, len(chain), domains.flop_domain[head.index],
            data_pairs(head.index), "cdc",
            {"toggle": toggle.name, "xor": xor.name, "pulse_in": pulse_in,
             "pulse_out": xor.out, "delay": delay.index})))

    # async fifos: opposite-direction pointer crossings with gray shapes
    ptr_cands = []      # (src domain, dst domain, pointer flop, chain, pair id)
    for chain in chains:
        if chain[0] in consumed_chains:
            continue
        for p in pairs_by_dst.get(chain[0], ()):
            if p.pin != "data" or p.src[0] != "cell":
                continue
            src = netlist.cells[p.src[1]]
            if isinstance(src, Dff) and _gray_shape(netlist, src.data):
                ptr_cands.append((p.src_domain, p.dst_domain, src.index, chain, p.id))
    # genuine pointer pairs are coupled: a guard on one side reads the
    # synced copy (the chain tail) of the other pointer.  Candidate i pairs
    # with the lowest unused coupled j > i whose domains are i's reversed.
    cone_refs: list[set] = []
    by_domains: dict[tuple[str, str], list[int]] = {}
    for k, (src_d, dst_d, ptr, _chain, _pid) in enumerate(ptr_cands):
        flop = netlist.cells[ptr]
        nets = [flop.data] + ([flop.enable] if flop.enable is not None else [])
        cone_refs.append({ref for n in nets for ref in netlist.fanin_cone(n).seq})
        by_domains.setdefault((src_d, dst_d), []).append(k)

    used: set[int] = set()
    for i, a in enumerate(ptr_cands):
        if i in used:
            continue
        a_tail = ("cell", a[3][-1], "out")
        for j in by_domains.get((a[1], a[0]), ()):
            if j <= i or j in used:
                continue
            b = ptr_cands[j]
            if ("cell", b[3][-1], "out") not in cone_refs[i] and a_tail not in cone_refs[j]:
                continue
            used.add(i)
            used.add(j)
            first, second = sorted((a, b), key=lambda t: netlist.cells[t[2]].name)
            chain_a, chain_b = first[3], second[3]
            consumed_chains.add(chain_a[0])
            consumed_chains.add(chain_b[0])
            roles = _fifo_roles(netlist, first, second, chain_a, chain_b)
            width = netlist.cells[roles["wptr"]].width
            found.append((netlist.cells[first[2]].name, SyncInstance(
                "", "fifo", (first[2], second[2]) + tuple(chain_a) + tuple(chain_b),
                None, None, len(chain_a), domains.flop_domain[chain_a[0]],
                tuple(sorted((first[4], second[4]))), "cdc",
                {"write_ptr": netlist.cells[roles["wptr"]].name,
                 "read_ptr": netlist.cells[roles["rptr"]].name,
                 "heads": sorted((chain_a[0], chain_b[0])),
                 "ptr_width": width, "depth": 1 << (width - 1),
                 **roles})))
            break

    # mux/enable-gated bus synchronizers: the enable, or the select of a 2:1
    # mux with a feedback arm, is the output of a chain tail
    for flop in netlist.dffs():
        if not data_pairs(flop.index):
            continue
        mux_gate = None
        sel = flop.enable
        if sel is None:
            dgate = _net_driver_gate(netlist, flop.data)
            if dgate is None or dgate.op != "MUX":
                continue
            sel, a_net, b_net = dgate.inputs
            if flop.index not in (_source_flop(netlist, a_net), _source_flop(netlist, b_net)):
                continue
            mux_gate = dgate
        chain = chain_of_tail.get(_source_flop(netlist, sel))
        if (chain is None or chain[0] in consumed_chains
                or domains.flop_domain[chain[0]] != domains.flop_domain[flop.index]):
            continue
        consumed_chains.add(chain[0])
        members = tuple(chain) + (flop.index,) + ((mux_gate.index,) if mux_gate else ())
        found.append((flop.name, SyncInstance(
            "", "mux", members, flop.index, chain[-1], len(chain),
            domains.flop_domain[flop.index],
            tuple(sorted(set(data_pairs(flop.index) + data_pairs(chain[0])))), "cdc",
            {"capture": flop.name, "sel_head": chain[0],
             "enable_net": flop.enable if flop.enable is not None
             else netlist.cells[chain[-1]].out,
             "data_net": flop.data,
             "mux": mux_gate.index if mux_gate is not None else None})))

    # remaining chains as plain (or reset) ndff instances
    for chain in chains:
        head = netlist.cells[chain[0]]
        if head.index in consumed_chains:
            continue
        is_reset_sync = False
        if head.reset is not None and all(
                netlist.cells[c].reset == head.reset for c in chain):
            dn = domains.net_domain[head.data]
            if dn.constant:
                rd = domains.net_domain[head.reset]
                own = domains.flop_domain[head.index]
                if rd.unclocked or rd.domains - {own}:
                    is_reset_sync = True
        if not (pairs_by_dst.get(head.index) or is_reset_sync):
            continue
        found.append((head.name, SyncInstance(
            "", "ndff", tuple(chain), head.index, chain[-1], len(chain),
            domains.flop_domain[head.index], data_pairs(head.index),
            "reset" if is_reset_sync else "cdc", {"depth": len(chain)})))

    # deterministic ids: kind rank, then sort key
    found.sort(key=lambda t: (_KIND_RANK[t[1].kind], t[0]))
    instances = [replace(inst, id=f"sync{n}") for n, (_key, inst) in enumerate(found)]

    seen_members: set[int] = set()
    for inst in instances:
        if inst.kind == "ndff":
            assert not (set(inst.members) & seen_members), "overlapping ndff members"
            seen_members |= set(inst.members)
    return instances


def _fifo_roles(netlist: Netlist, a, b, chain_a, chain_b) -> dict:
    """Decide which pointer is the write side.

    `chain_a` synchronizes pointer `a` into the opposite domain, so the
    synced copy visible next to pointer `a` is `chain_b`'s tail.  The
    write-side full guard compares its own pointer against an
    inverted-top-bits twist of that synced copy, so a NOT feeding an XOR
    with the opposite tail in its fanin marks the write pointer.  Fallbacks:
    the side whose enable cone never references the opposite tail (a
    guard-free free-running writer), then name order.
    """
    cands = [(a, chain_a, b, chain_b), (b, chain_b, a, chain_a)]

    def feeds_xor(net_idx: int) -> bool:
        # forward through width plumbing only
        frontier = [net_idx]
        seen = set()
        while frontier:
            n = frontier.pop()
            if n in seen:
                continue
            seen.add(n)
            for kind, idx, _pin in netlist.nets[n].readers:
                if kind != "cell":
                    continue
                cell = netlist.cells[idx]
                if not isinstance(cell, Gate):
                    continue
                if cell.op == "XOR":
                    return True
                if cell.op in ("CONCAT", "SLICE", "BUF"):
                    frontier.append(cell.out)
        return False

    def write_structure(ptr_idx: int, opp_tail: int) -> bool:
        flop = netlist.cells[ptr_idx]
        nets = [flop.enable] if flop.enable is not None else []
        nets.append(flop.data)
        opp_ref = ("cell", opp_tail, "out")
        for start in nets:
            cone = netlist.fanin_cone(start)
            for g in cone.gates:
                gate = netlist.cells[g]
                if gate.op != "NOT":
                    continue
                if opp_ref not in netlist.fanin_cone(gate.inputs[0]).seq:
                    continue
                if feeds_xor(gate.out):
                    return True
        return False

    def references_opposite(ptr_idx: int, opp_tail: int) -> bool:
        flop = netlist.cells[ptr_idx]
        if flop.enable is None:
            return False
        return ("cell", opp_tail, "out") in netlist.fanin_cone(flop.enable).seq

    def roles(write, write_chain, read, read_chain) -> dict:
        # write_chain carries the write pointer into the read domain
        return {
            "wptr": write[2], "rptr": read[2],
            "rsync_tail_w": read_chain[-1],   # synced read ptr, write domain
            "wsync_tail_r": write_chain[-1],  # synced write ptr, read domain
            "write_pair": write[4], "read_pair": read[4],
        }

    for side, chain, other, other_chain in cands:
        if write_structure(side[2], other_chain[-1]):
            return roles(side, chain, other, other_chain)
    for side, chain, other, other_chain in cands:
        if not references_opposite(side[2], other_chain[-1]) and \
                references_opposite(other[2], chain[-1]):
            return roles(side, chain, other, other_chain)
    side, chain, other, other_chain = cands[0]
    return roles(side, chain, other, other_chain)


def classify_pairs(pairs: list[CdcPair], syncs: list[SyncInstance],
                   netlist: Netlist) -> dict[str, PairStatus]:
    """Total map pair id -> protection status."""
    protecting: dict[str, SyncInstance] = {}
    for inst in syncs:
        for pid in inst.protected:
            protecting.setdefault(pid, inst)
    allowed_ops = {"BUF", "NOT", "SLICE"}
    out: dict[str, PairStatus] = {}
    for p in pairs:
        if p.suppressed is not None:
            out[p.id] = PairStatus("suppressed", reason=p.suppressed)
            continue
        inst = protecting.get(p.id)
        if inst is None:
            out[p.id] = PairStatus("unsynchronized")
            continue
        extra_allowed: set[int] = set()
        if inst.kind == "mux" and inst.extra.get("mux") is not None:
            extra_allowed.add(inst.extra["mux"])
        bad = [c for c in p.path
               if c not in extra_allowed and netlist.cells[c].op not in allowed_ops]
        if bad:
            out[p.id] = PairStatus("unsynchronized", comb_disqualified=True)
        else:
            out[p.id] = PairStatus("synchronized", inst.id, inst.kind)
    return out
