"""Runtime protocol checkers evaluated online during simulation.

Checkers observe net values sampled at clock posedges, after state update
for that tick.  Sampling is suspended (and history restarted) while the
clock domain's declared reset is asserted, mirroring `disable iff` in the
generated assertion templates; the generated SystemVerilog counterparts in
`codegen` express the same conditions over the same samples, which the
template interpreter cross-checks.

A `Checker` is an immutable spec: `build_checkers` makes each one once and
nothing copies or mutates it afterwards, so one list serves any number of
runs and exploration branches.  The per-run state is a separate immutable
value (`None`, an int or a tuple of those) that starts at the class
attribute `start`.  `sample(state, clock, tick, get, in_reset)` returns
`(new_state, message)`, where `message` is None unless the sample violates
the protocol.  The simulator keeps the state values and latches each
checker's first failure as `(tick, message)`; `verdict(failure)` turns that
into a `Verdict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ParseError
from .netlist import Const, Dff, Gate
from .rules import Analysis

Getter = Callable[[int], int]


@dataclass
class Verdict:
    checker: str
    kind: str
    passed: bool
    tick: int | None = None
    message: str = ""

    def to_dict(self) -> dict:
        return {"checker": self.checker, "kind": self.kind,
                "verdict": "PASS" if self.passed else "FAIL",
                "tick": self.tick, "message": self.message}


class Checker:
    kind = "checker"
    start = None

    def __init__(self, cid: str, clocks: tuple[str, ...]):
        self.id = cid
        self.clocks = clocks

    def sample(self, state, clock: str, tick: int, get: Getter,
               in_reset: bool) -> tuple[object, str | None]:
        raise NotImplementedError

    def verdict(self, failure: tuple[int, str] | None) -> Verdict:
        if failure is None:
            return Verdict(self.id, self.kind, True)
        return Verdict(self.id, self.kind, False, failure[0], failure[1])


class StabilityChecker(Checker):
    """Sampled source value must persist for >= hold_samples consecutive
    destination edges whenever it changes.  State: the last hold_samples + 1
    samples."""
    kind = "stability"
    start = ()

    def __init__(self, cid: str, clock: str, net: int, hold_samples: int,
                 label: str):
        super().__init__(cid, (clock,))
        self.net = net
        self.k = hold_samples
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        h = (state + (get(self.net),))[-(self.k + 1):]
        if len(h) == self.k + 1 and h[-1] != h[-2] and \
                any(h[-2] != h[-2 - i] for i in range(1, self.k)):
            return h, (f"{self.label} changed before being stable for "
                       f"{self.k} destination samples")
        return h, None


class PulseWidthChecker(Checker):
    """Pulse input high for exactly one source cycle.  State: the previous
    sample."""
    kind = "pulse_width"

    def __init__(self, cid: str, clock: str, net: int, label: str):
        super().__init__(cid, (clock,))
        self.net = net
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        v = get(self.net) & 1
        if state == 1 and v == 1:
            return v, f"{self.label} pulse wider than one source cycle"
        return v, None


class GrayCodeChecker(Checker):
    """Consecutive source-domain samples differ in at most one bit.  State:
    the previous sample."""
    kind = "gray_code"

    def __init__(self, cid: str, clock: str, net: int, label: str):
        super().__init__(cid, (clock,))
        self.net = net
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        v = get(self.net)
        if state is not None and (v ^ state).bit_count() > 1:
            return v, (f"{self.label} moved by more than one bit "
                       f"({state:#x} -> {v:#x})")
        return v, None


class StaticChecker(Checker):
    """Declared-static net never changes outside reset.  State: the previous
    sample."""
    kind = "static"

    def __init__(self, cid: str, clock: str, net: int, label: str):
        super().__init__(cid, (clock,))
        self.net = net
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        v = get(self.net)
        if state is not None and v != state:
            return v, (f"declared-static {self.label} changed "
                       f"({state:#x} -> {v:#x})")
        return v, None


class MuxEnableChecker(Checker):
    """Data bus stable at every destination edge where the synchronized
    select captures.  State: the previous data sample."""
    kind = "mux_enable"

    def __init__(self, cid: str, clock: str, enable_net: int, data_net: int,
                 label: str):
        super().__init__(cid, (clock,))
        self.enable_net = enable_net
        self.data_net = data_net
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        data = get(self.data_net)
        if get(self.enable_net) & 1 and state is not None and data != state:
            return data, (f"{self.label} data changed while the synchronized "
                          f"select was capturing")
        return data, None


class FifoChecker(Checker):
    """Async FIFO pointer protocol: gray-coded pointers, no write when the
    write-side view is full, no read when the read-side view is empty.
    State: the previous (pointer, synced other pointer) sample of each side,
    as (write side, read side)."""
    kind = "fifo"
    start = (None, None)

    def __init__(self, cid: str, wclock: str, rclock: str, wgray: int,
                 rgray: int, rsync_w: int, wsync_r: int, width: int,
                 label: str):
        super().__init__(cid, (wclock, rclock))
        self.wclock = wclock
        self.rclock = rclock
        self.wgray = wgray
        self.rgray = rgray
        self.rsync_w = rsync_w      # synced read ptr seen on the write side
        self.wsync_r = wsync_r      # synced write ptr seen on the read side
        self.width = width
        self.label = label

    def _twist(self, v: int) -> int:
        return v ^ (0b11 << (self.width - 2))

    def sample(self, state, clock, tick, get, in_reset):
        prev_w, prev_r = state
        msgs = []
        if clock == self.wclock:
            cur_w = None if in_reset else (get(self.wgray), get(self.rsync_w))
            if cur_w is not None and prev_w is not None:
                (wg, _), (pwg, prs) = cur_w, prev_w
                if (wg ^ pwg).bit_count() > 1:
                    msgs.append(f"{self.label} write pointer moved by more "
                                f"than one bit")
                if wg != pwg and pwg == self._twist(prs):
                    msgs.append(f"{self.label} wrote while full")
            prev_w = cur_w
        if clock == self.rclock:
            cur_r = None if in_reset else (get(self.rgray), get(self.wsync_r))
            if cur_r is not None and prev_r is not None:
                (rg, _), (prg, pws) = cur_r, prev_r
                if (rg ^ prg).bit_count() > 1:
                    msgs.append(f"{self.label} read pointer moved by more "
                                f"than one bit")
                if rg != prg and prg == pws:
                    msgs.append(f"{self.label} read while empty")
            prev_r = cur_r
        return (prev_w, prev_r), (msgs[0] if msgs else None)


class ClockGateChecker(Checker):
    """Gating enable holds each value for at least two root-clock edges.
    State: the last three samples."""
    kind = "clock_gate"
    start = ()

    def __init__(self, cid: str, clock: str, net: int, label: str):
        super().__init__(cid, (clock,))
        self.net = net
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        h = (state + (get(self.net) & 1,))[-3:]
        if len(h) == 3 and h[2] != h[1] and h[1] != h[0]:
            return h, (f"clock-gate enable {self.label} toggles on "
                       f"consecutive edges")
        return h, None


class LatencyChecker(Checker):
    """Destination reflects each source change within [min, max] destination
    edges, counting the edge that observes the change as edge one.  State:
    (previous source sample, pending changes as (expected, edges) pairs)."""
    kind = "latency"
    start = (None, ())

    def __init__(self, cid: str, clock: str, src_net: int, observe_net: int,
                 lo: int, hi: int, label: str):
        super().__init__(cid, (clock,))
        self.src_net = src_net
        self.observe_net = observe_net
        self.lo = lo
        self.hi = hi
        self.label = label

    def sample(self, state, clock, tick, get, in_reset):
        if in_reset:
            return self.start, None
        prev_src, tracks = state
        src = get(self.src_net)
        if prev_src is not None and src != prev_src:
            tracks += ((src, 0),)
        if not tracks:
            return (src, tracks), None
        tracks = tuple((expected, edges + 1) for expected, edges in tracks)
        expected, edges = tracks[0]
        message = None
        if get(self.observe_net) == expected:
            if edges < self.lo:
                message = (f"{self.label} reflected after {edges} edges "
                           f"(< {self.lo})")
            tracks = tracks[1:]
        elif edges >= self.hi:
            message = f"{self.label} not reflected within {self.hi} edges"
            tracks = tracks[1:]
        return (src, tracks), message


def parse_latency(specs) -> list[tuple[str, int, int]]:
    """Latency checker specs `[pair:]min:max` as (pair id or "*", min, max)."""
    out = []
    for s in specs or ():
        parts = s.split(":")
        try:
            if len(parts) not in (2, 3):
                raise ValueError(s)
            out.append((parts[0] if len(parts) == 3 else "*",
                        int(parts[-2]), int(parts[-1])))
        except ValueError:
            raise ParseError(f"bad latency spec {s!r}; use [pair:]min:max") from None
    return out


def build_checkers(analysis: Analysis,
                   latency: list[tuple[str, int, int]] | None = None,
                   select: list[str] | None = None) -> list[Checker]:
    """Default checker suite derived from recognition plus constraints.

    `latency` entries are (pair id or "*", min, max).  `select`, when given,
    keeps only checkers whose id starts with one of the entries.
    """
    a = analysis
    nl = a.netlist
    cs = a.constraints
    k_stab = cs.options["stability_cycles"]
    root_clock_name = {}
    for flop_idx, port_idx in a.domains.clock_root.items():
        root_clock_name[flop_idx] = nl.nets[nl.ports[port_idx].net].name

    checkers: list[Checker] = []
    by_id = {p.id: p for p in a.pairs}
    for inst in a.syncs:
        if inst.role != "cdc":
            continue
        if inst.kind == "ndff":
            for pid in inst.protected:
                p = by_id[pid]
                if p.suppressed or a.status[pid].state != "synchronized":
                    continue
                clock = root_clock_name[p.dst]
                if p.width == 1:
                    checkers.append(StabilityChecker(
                        f"stability:{pid}", clock, p.src_net, k_stab, p.src_name))
                else:
                    src_clock = root_clock_name.get(p.src[1]) if p.src[0] == "cell" \
                        else clock
                    checkers.append(GrayCodeChecker(
                        f"gray_code:{pid}", src_clock or clock, p.src_net, p.src_name))
        elif inst.kind == "pulse":
            toggle_idx = next(m for m in inst.members
                              if nl.cells[m].name == inst.extra["toggle"])
            clock = root_clock_name[toggle_idx]
            checkers.append(PulseWidthChecker(
                f"pulse_width:{inst.id}", clock, inst.extra["pulse_in"],
                nl.nets[inst.extra["pulse_in"]].name))
        elif inst.kind == "mux":
            cap = inst.extra["capture"]
            cap_idx = next(m for m in inst.members if nl.cells[m].name == cap)
            clock = root_clock_name[cap_idx]
            checkers.append(MuxEnableChecker(
                f"mux_enable:{inst.id}", clock, inst.extra["enable_net"],
                inst.extra["data_net"], cap))
        elif inst.kind == "fifo":
            wptr = nl.cells[inst.extra["wptr"]]
            rptr = nl.cells[inst.extra["rptr"]]
            checkers.append(FifoChecker(
                f"fifo:{inst.id}",
                root_clock_name[wptr.index], root_clock_name[rptr.index],
                wptr.out, rptr.out,
                nl.cells[inst.extra["rsync_tail_w"]].out,
                nl.cells[inst.extra["wsync_tail_r"]].out,
                inst.extra["ptr_width"], inst.id))
        elif inst.kind == "user":
            for pid in inst.protected:
                p = by_id[pid]
                if p.suppressed:
                    continue
                clock = root_clock_name[p.dst]
                checkers.append(StabilityChecker(
                    f"stability:{pid}", clock, p.src_net, k_stab, p.src_name))

    if cs.static_signals and cs.clocks:
        clock = cs.clocks[0].name
        for net_name in cs.static_signals:
            net = nl.find_net(net_name)
            if net is not None:
                checkers.append(StaticChecker(
                    f"static:{net_name}", clock, net.index, net_name))

    static_decls = set(cs.static_signals)
    seen_gates = set()
    for note in a.domains.gate_notes:
        gcell = next((c for c in nl.cells if c.name == note.gate), None)
        if gcell is None or gcell.index in seen_gates:
            continue
        seen_gates.add(gcell.index)
        if isinstance(gcell, Gate) and gcell.op == "AND" and len(gcell.inputs) == 2:
            root_net = nl.net_index.get(note.root)
            others = [n for n in gcell.inputs if n != root_net]
            if len(others) != 1:
                continue
            drv = nl.nets[others[0]].driver
            registered = drv is not None and drv[0] == "cell" and \
                isinstance(nl.cells[drv[1]], (Dff, Const))
            if registered or nl.nets[others[0]].name in static_decls:
                checkers.append(ClockGateChecker(
                    f"clock_gate:{note.flop}", note.root, others[0],
                    nl.nets[others[0]].name))

    for spec in latency or ():
        pid, lo, hi = spec
        targets = [p for p in a.pairs if (pid == "*" or p.id == pid)
                   and not p.suppressed]
        for p in targets:
            st = a.status[p.id]
            observe = nl.cells[p.dst].out
            if st.state == "synchronized" and st.sync_id:
                inst = next(s for s in a.syncs if s.id == st.sync_id)
                if inst.tail is not None:
                    observe = nl.cells[inst.tail].out
            clock = root_clock_name[p.dst]
            checkers.append(LatencyChecker(
                f"latency:{p.id}", clock, p.src_net, observe, lo, hi,
                f"{p.src_name} -> {p.dst_name}"))

    checkers.sort(key=lambda c: c.id)
    if select is not None:
        checkers = [c for c in checkers
                    if any(c.id == s or c.id.startswith(s) for s in select)]
    return checkers
