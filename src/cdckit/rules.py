"""Static lint rules over the analyzed design.

Each rule is an independent read-only pass producing Finding records; the
combined list is deterministically ordered.  Rules never raise — problems
are data.  A suppressed pair generates no findings from any rule.

When a crossing lands on a recognized synchronizer head but is disqualified
by combinational logic on its path, only COMB_ON_CDC is reported (the comb
logic is the specific defect); MISSING_SYNC covers crossings with no
synchronizer at all.  The analogous precedence applies to the reset rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSet
from .domains import CdcPair, DomainMap, RdcPair, gate_enable
from .findings import Finding, sort_findings
from .netlist import BlackBox, Dff, Gate, Netlist
from .syncrec import PairStatus, SyncInstance


@dataclass
class Analysis:
    """Everything the rules (and downstream stages) need, bundled."""
    netlist: Netlist
    constraints: ConstraintSet
    domains: DomainMap
    pairs: list[CdcPair]
    rdc_pairs: list[RdcPair]
    syncs: list[SyncInstance]
    status: dict[str, PairStatus]

    def pair_by_id(self, pid: str) -> CdcPair:
        for p in self.pairs:
            if p.id == pid:
                return p
        raise KeyError(pid)


def _holds_reset_value(nl: Netlist, flop: Dff, consts: list[int]) -> bool:
    """Whether the next value of a flop whose data cone reads only the flop
    and the `consts` cells is its reset value when it holds that value."""
    from .sim import cone_kernel    # sim imports this module
    values = [0] * len(nl.nets)
    for c in consts:
        values[nl.cells[c].out] = nl.cells[c].value
    data = cone_kernel(nl, (flop.data,), (flop.out,))
    return data(values, flop.reset_value) == flop.reset_value


def run_structural(analysis: Analysis) -> list[Finding]:
    a = analysis
    nl = a.netlist
    cs = a.constraints
    findings: list[Finding] = []

    def emit(rule: str, subjects, message, witness, pair_ids=(), sync_ids=()):
        findings.append(Finding(rule, cs.rule_severity(rule), tuple(subjects),
                                message, tuple(witness), tuple(pair_ids),
                                tuple(sync_ids)))

    multi_input = lambda c: isinstance(nl.cells[c], Gate) and len(nl.cells[c].inputs) > 1

    # MISSING_SYNC / COMB_ON_CDC
    for p in a.pairs:
        if p.suppressed is not None:
            continue
        st = a.status[p.id]
        bad_gates = [c for c in p.path if multi_input(c)]
        mixed_nets = []
        for c in p.path:
            out = nl.cells[c].out
            nd = a.domains.net_domain[out]
            if len(nd.domains) > 1 or (nd.domains and nd.unclocked):
                mixed_nets.append(nl.nets[out].name)
        if bad_gates or mixed_nets:
            witness = [nl.cells[c].name for c in bad_gates] + mixed_nets
            emit("COMB_ON_CDC", [p.src_name, p.dst_name],
                 f"combinational logic on crossing {p.src_name} -> {p.dst_name}",
                 witness, [p.id])
        elif st.state == "unsynchronized":
            emit("MISSING_SYNC", [p.src_name, p.dst_name],
                 f"unsynchronized crossing {p.src_name} ({p.src_domain}) -> "
                 f"{p.dst_name} ({p.dst_domain}) [{p.pin} pin]",
                 [p.src_name, p.dst_name], [p.id])

    # reset rules
    reset_sync_members = set()
    reset_sync_tails = {}
    for s in a.syncs:
        if s.role == "reset":
            reset_sync_members |= set(s.members)
            reset_sync_tails[s.tail] = s
    declared_resets = {r.net: r for r in cs.resets}

    def reset_sources(cone):
        """Reset-like sources in a reset cone: declared reset ports and
        reset-synchronizer tails, with their domains."""
        out = []
        for ref in cone.seq:
            kind, idx, _pin = ref
            if kind == "port":
                name = nl.nets[nl.ports[idx].net].name
                if name in declared_resets:
                    out.append((name, declared_resets[name].domain))
            elif idx in reset_sync_tails:
                cell = nl.cells[idx]
                out.append((cell.name, a.domains.flop_domain[idx]))
        return out

    for rp in a.rdc_pairs:
        if rp.dst in reset_sync_members:
            continue  # the synchronizer's own stages legitimately see the raw reset
        flop = nl.cells[rp.dst]
        cone = nl.fanin_cone(flop.reset)
        srcs = reset_sources(cone)
        domains_of_srcs = {d for _n, d in srcs}
        convergent = len(domains_of_srcs) > 1
        conv_gates = [c for c in cone.gates if multi_input(c)] if convergent else []
        bad_gates = [c for c in rp.path if multi_input(c) and c not in conv_gates]
        if convergent and conv_gates:
            emit("RESET_CONVERGENCE", [flop.name],
                 f"reset sources from domains {sorted(domains_of_srcs)} converge "
                 f"before {flop.name}",
                 [nl.cells[c].name for c in conv_gates] + sorted(n for n, _d in srcs))
        elif bad_gates:
            emit("COMB_ON_RDC", [rp.src_name, rp.dst_name],
                 f"combinational logic on reset crossing {rp.src_name} -> {rp.dst_name}",
                 [nl.cells[c].name for c in bad_gates], [rp.id])
        else:
            synced = any(("cell", t, "out") in cone.seq for t in reset_sync_tails)
            if not synced:
                emit("MISSING_RDC_SYNC", [rp.src_name, rp.dst_name],
                     f"async reset of {rp.dst_name} ({rp.dst_domain}) crosses from "
                     f"{rp.src_name} ({rp.src_domain}) without a reset synchronizer",
                     [rp.src_name, rp.dst_name], [rp.id])

    # CONVERGENCE: tails of >= 2 instances with a shared source domain meeting
    # in one flop-free cone
    tail_of = {}
    src_domains_of = {}
    pair_of = {p.id: p for p in a.pairs}
    for s in a.syncs:
        if s.tail is None or s.role != "cdc":
            continue
        tail_of[s.tail] = s
        src_domains_of[s.id] = {pair_of[pid].src_domain for pid in s.protected}
    for flop in nl.dffs():
        pins = [flop.data] + ([flop.enable] if flop.enable is not None else [])
        for pin_net in pins:
            cone = nl.fanin_cone(pin_net)
            insts = sorted({tail_of[ref[1]].id for ref in cone.seq
                            if ref[0] == "cell" and ref[1] in tail_of})
            if len(insts) < 2:
                continue
            for i, s1 in enumerate(insts):
                for s2 in insts[i + 1:]:
                    shared = src_domains_of.get(s1, set()) & src_domains_of.get(s2, set())
                    if shared and cone.gates:
                        emit("CONVERGENCE", [flop.name],
                             f"outputs of {s1} and {s2} (sources in "
                             f"{sorted(shared)}) converge at {flop.name}",
                             [nl.cells[c].name for c in cone.gates],
                             sync_ids=[s1, s2])

    # DIVERGENCE: one source protected by >= 2 instances into one domain
    by_src: dict[tuple, list[CdcPair]] = {}
    for p in a.pairs:
        if p.suppressed is None:
            by_src.setdefault((p.src, p.dst_domain), []).append(p)
    for (src, _dom), plist in sorted(by_src.items(),
                                     key=lambda kv: kv[1][0].src_name):
        insts = sorted({a.status[p.id].sync_id for p in plist
                        if a.status[p.id].state == "synchronized"
                        and a.status[p.id].sync_id})
        if len(insts) >= 2:
            emit("DIVERGENCE", [plist[0].src_name],
                 f"{plist[0].src_name} crosses through multiple synchronizers "
                 f"({', '.join(insts)}) into {plist[0].dst_domain}",
                 [p.dst_name for p in plist],
                 [p.id for p in plist], insts)

    # STATIC_NOT_CONSTRAINED: a source flop that never leaves its reset value
    # (its data reads only itself and constants) but is not declared static
    static_decls = set(cs.static_signals)
    for p in a.pairs:
        if p.suppressed is not None or a.status[p.id].state != "unsynchronized":
            continue
        if p.src[0] != "cell":
            continue
        src = nl.cells[p.src[1]]
        if not isinstance(src, Dff):
            continue
        cone = nl.fanin_cone(src.data)
        others = [r for r in cone.seq if r != ("cell", src.index, "out")]
        names = set(nl.nets[src.out].aliases) | {nl.nets[src.out].name}
        if not others and not names & static_decls \
                and _holds_reset_value(nl, src, cone.consts):
            emit("STATIC_NOT_CONSTRAINED", [p.src_name],
                 f"{p.src_name} never changes after reset but is not declared static",
                 [p.src_name, p.dst_name], [p.id])

    # GATED_CLOCK_GLITCH: a clock cone is idiomatic iff its only multi-input
    # gate is AND(root clock, registered or declared-static enable)
    notes_by_flop: dict[str, list] = {}
    for note in a.domains.gate_notes:
        notes_by_flop.setdefault(note.flop, []).append(note)
    for flop_name, notes in sorted(notes_by_flop.items()):
        gates = [nl.cells[g].name for g in dict.fromkeys(n.gate for n in notes)]
        if len(gates) == 1 and gate_enable(nl, notes[0], cs.static_signals) is not None:
            continue
        emit("GATED_CLOCK_GLITCH", [flop_name],
             f"clock of {flop_name} gated by {', '.join(gates)} outside the "
             f"AND(clock, registered-enable) idiom",
             gates + [flop_name])

    # BLACKBOX_BOUNDARY
    for cell in nl.cells:
        if isinstance(cell, BlackBox):
            outs = [nl.nets[n].name for n in cell.outs]
            emit("BLACKBOX_BOUNDARY", [cell.name],
                 f"instance {cell.name} of undefined module {cell.module!r}; "
                 f"outputs treated as unclocked sources",
                 [cell.name] + outs)

    return sort_findings(findings)
