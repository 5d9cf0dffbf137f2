"""Multi-clock cycle simulator with metastability injection.

Time is integer ticks; the engine only evaluates ticks on which some clock
has a posedge.  At each tick, every flop whose (possibly gated) clock rises
computes its next value from the pre-edge state; flops that are the
destination of crossing pairs then re-capture with the post-edge values of
their cross-domain sources substituted in, which reproduces the idealized
simulator behaviour of always catching data that races the capture edge.

Metastability injection replaces that captured bit per crossing bit with
probability p at each violation opportunity:

* setup opportunity — the source bit flipped within `setup_window` ticks at
  or before the capture edge; injection keeps the old value, so the
  transition lands one destination cycle late;
* hold opportunity — a source-domain edge within `hold_window` ticks after
  the capture edge will flip the bit (next values are functions of current
  state, so the lookahead is exact); injection captures that upcoming
  value, one cycle early.

Either way the resolved bit is one of {old, new}; a third value never
appears.  Every replacement is logged and recorded in the coverage
database.  Exhaustive mode explores every resolution assignment instead of
coin flips, with depth-first reference-first ordering so the first
counterexample found is the lexicographically first failing branch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .checkers import Checker, Verdict
from .constraints import ClockSpec
from .coverage import CoverageDb
from .domains import CdcPair, pairs_fingerprint
from .errors import (DecisionBudgetExceeded, ParseError, SimDivergence,
                     StimulusOutOfRange)
from .netlist import Const, Dff, Gate, Netlist
from .rules import Analysis
from .stimulus import Stimulus

_NEG = -(10 ** 9)
_BRANCH_CAP = 1 << 24


@dataclass
class MsiConfig:
    enabled: bool = True
    probability: float = 0.5
    setup_window: int | None = None     # None: take the constraints option
    hold_window: int | None = None
    pair_probability: dict[str, float] = field(default_factory=dict)
    mode: str = "random"                # "random" | "exhaustive"
    seed: int = 0
    max_decisions: int = 16

    def prob(self, pair_id: str) -> float:
        return self.pair_probability.get(pair_id, self.probability)


def parse_seed_range(spec: str) -> list[int]:
    """Injection seeds of a range `a..b` (inclusive, a <= b)."""
    lo, _, hi = spec.partition("..")
    try:
        seeds = list(range(int(lo), int(hi) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise ParseError(f"bad seed range {spec!r}; use a..b with a <= b")
    return seeds


@dataclass(frozen=True)
class MsiEvent:
    tick: int
    pair: str
    bit: int
    kind: str       # "setup" | "hold"
    resolved: int


@dataclass(frozen=True)
class Opportunity:
    pair: str
    dst: int
    src_net: int
    bit: int
    kind: str


class _Log:
    """Append-only log cloned in O(1) by chaining segments."""

    __slots__ = ("parent", "items")

    def __init__(self, parent: "_Log | None" = None):
        self.parent = parent
        self.items: list = []

    def append(self, item):
        self.items.append(item)

    def clone(self) -> "_Log":
        return _Log(self)

    def all_items(self) -> list:
        segs = []
        node: _Log | None = self
        while node is not None:
            segs.append(node.items)
            node = node.parent
        out: list = []
        for seg in reversed(segs):
            out.extend(seg)
        return out


@dataclass
class SimResult:
    waves: dict[int, list[tuple[int, int]]]     # net index -> [(tick, value)]
    events: list[MsiEvent]
    coverage: CoverageDb
    verdicts: list[Verdict]
    edge_counts: dict[str, int]
    decisions: int

    def wave_by_name(self, netlist: Netlist) -> dict[str, list[tuple[int, int]]]:
        return {netlist.nets[i].name: w for i, w in self.waves.items()}

    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.passed]


class _State:
    __slots__ = ("values", "hist", "checkers", "failures", "coverage", "events",
                 "trace", "edge_counts", "decisions", "rng")

    def __init__(self):
        self.values: list[int] = []
        self.hist: dict[int, list[int]] = {}
        self.checkers: list = []            # per-checker state values
        self.failures: list[tuple[int, str] | None] = []
        self.coverage: CoverageDb | None = None
        self.events: _Log = _Log()
        self.trace: _Log = _Log()
        self.edge_counts: dict[str, int] = {}
        self.decisions = 0
        self.rng: random.Random | None = None

    def clone(self) -> "_State":
        s = _State()
        s.values = list(self.values)
        s.hist = {k: list(v) for k, v in self.hist.items()}
        s.checkers = list(self.checkers)
        s.failures = list(self.failures)
        s.coverage = self.coverage.clone() if self.coverage else None
        s.events = self.events.clone()
        s.trace = self.trace.clone()
        s.edge_counts = dict(self.edge_counts)
        s.decisions = self.decisions
        return s


@dataclass
class _TickPlan:
    tick: int
    vals0: list[int]                    # pre-edge state incl. port updates
    port_changes: list[tuple[int, int]]
    in_reset: set[int]                  # flop indices under async reset
    edged: list[int]                    # flop indices capturing this tick
    base: dict[int, int]                # flop index -> base next value
    opps: list[Opportunity]
    clock_edges: list[str]


class Engine:
    def __init__(self, analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
                 checkers: list[Checker], scope: str = "sim"):
        self.a = analysis
        self.nl = analysis.netlist
        self.msi = msi
        self.scope = scope
        cs = analysis.constraints
        self.setup_window = (msi.setup_window if msi.setup_window is not None
                             else cs.options["setup_window"])
        self.hold_window = (msi.hold_window if msi.hold_window is not None
                            else cs.options["hold_window"])

        self.clocks: dict[str, ClockSpec] = {c.name: c for c in cs.clocks}
        run_clock = self.clocks.get(stimulus.run_clock)
        if run_clock is None:
            raise StimulusOutOfRange(f"run clock {stimulus.run_clock!r} is not declared")
        self.end_tick = run_clock.edge_tick(stimulus.run_edges - 1)
        agenda: set[int] = set()
        self.edges_at: dict[int, list[str]] = {}
        for c in self.clocks.values():
            t = c.phase
            while t <= self.end_tick:
                agenda.add(t)
                self.edges_at.setdefault(t, []).append(c.name)
                t += c.period
        self.agenda = sorted(agenda)
        for t in self.agenda:
            self.edges_at[t] = [c.name for c in cs.clocks if c.name in self.edges_at[t]]

        # port driving
        self.port_net = {p.name: p.net for p in self.nl.ports if p.direction == "in"}
        self.sets_at: dict[int, list[tuple[int, int]]] = {}
        self.port_schedule: dict[int, list[tuple[int, int]]] = {}
        for s in stimulus.sets:
            spec = self.clocks.get(s.clock)
            if spec is None:
                raise StimulusOutOfRange(f"stimulus clock {s.clock!r} is not declared")
            if s.port not in self.port_net:
                raise StimulusOutOfRange(f"stimulus port {s.port!r} is not an input")
            tick = spec.edge_tick(s.edge)
            if tick > self.end_tick:
                raise StimulusOutOfRange(
                    f"stimulus at {s.clock} edge {s.edge} lands after the run ends")
            net = self.port_net[s.port]
            width = self.nl.nets[net].width
            if s.value >= (1 << width):
                raise StimulusOutOfRange(f"value for {s.port!r} exceeds {width} bits")
            self.sets_at.setdefault(tick, []).append((net, s.value))
            self.port_schedule.setdefault(net, []).append((tick, s.value))
        for sched in self.port_schedule.values():
            sched.sort()
        self.random_driver = stimulus.random
        if self.random_driver:
            for p in self.random_driver.ports:
                if p not in self.port_net:
                    raise StimulusOutOfRange(f"random port {p!r} is not an input")
                if self.nl.nets[self.port_net[p]].width != 1:
                    raise StimulusOutOfRange(f"random port {p!r} must be 1 bit wide")

        # flop clocking: root port and gating condition
        self.flops = self.nl.dffs()
        self.flop_root: dict[int, str] = {}   # flop -> root clock name
        self.flop_gated: dict[int, bool] = {}
        for f in self.flops:
            port_idx = analysis.domains.clock_root[f.index]
            root_net = self.nl.ports[port_idx].net
            self.flop_root[f.index] = self.nl.nets[root_net].name
            self.flop_gated[f.index] = f.clock != root_net
        self.root_net = {f.index: self.nl.ports[analysis.domains.clock_root[f.index]].net
                         for f in self.flops}

        # crossing bookkeeping (suppressed pairs are fully ignored)
        self.pairs = [p for p in analysis.pairs if p.suppressed is None]
        self.pairs_by_dst: dict[int, list[CdcPair]] = {}
        for p in self.pairs:
            self.pairs_by_dst.setdefault(p.dst, []).append(p)
        for plist in self.pairs_by_dst.values():
            plist.sort(key=lambda p: p.id)
        self.monitored = sorted({p.src_net for p in self.pairs})
        self.src_flop_of_net = {}
        for p in self.pairs:
            if p.src[0] == "cell" and isinstance(self.nl.cells[p.src[1]], Dff):
                self.src_flop_of_net[p.src_net] = p.src[1]

        self.gates_topo = [self.nl.cells[i] for i in self.nl.comb_topo()]
        self.checkers = checkers
        self.checkers_by_clock: dict[str, list[int]] = {}
        for i, c in enumerate(checkers):
            for clk in c.clocks:
                self.checkers_by_clock.setdefault(clk, []).append(i)

        # per-domain declared resets for checker gating
        self.domain_resets: dict[str, list[tuple[int, bool]]] = {}
        for r in cs.resets:
            net = self.nl.find_net(r.net)
            if net is not None:
                self.domain_resets.setdefault(r.domain, []).append(
                    (net.index, r.active_low))
        self.clock_domain = {c.name: c.domain for c in cs.clocks}
        self.fingerprint = pairs_fingerprint(analysis.pairs)

    # -- state & evaluation helpers --

    def initial_state(self) -> _State:
        st = _State()
        st.values = [0] * len(self.nl.nets)
        for c in self.nl.cells:
            if isinstance(c, Dff):
                st.values[c.out] = c.reset_value
            elif isinstance(c, Const):
                st.values[c.out] = c.value
        self._eval_comb(st.values)
        st.hist = {n: [_NEG] * self.nl.nets[n].width for n in self.monitored}
        st.checkers = [c.start for c in self.checkers]
        st.failures = [None] * len(self.checkers)
        st.coverage = CoverageDb(self.fingerprint, self.scope,
                                 tuple(p.id for p in self.a.pairs))
        if self.msi.mode == "random":
            st.rng = random.Random(self.msi.seed)
        st.edge_counts = {name: 0 for name in self.clocks}
        for net in self.nl.nets:
            st.trace.append((_NEG, net.index, st.values[net.index]))
        return st

    def _gate_value(self, g: Gate, values: list[int]) -> int:
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
                w = self.nl.nets[i].width
                v = (v << w) | (values[i] & ((1 << w) - 1))
            return v & mask
        if op == "SLICE":
            return (values[g.inputs[0]] >> g.slice_lsb) & mask
        raise SimDivergence(f"unknown gate op {op}")

    def _eval_comb(self, values: list[int]):
        for g in self.gates_topo:
            values[g.out] = self._gate_value(g, values)

    def _eval_with_subs(self, net_idx: int, vals0: list[int],
                        subs: dict[int, int], memo: dict[int, int]) -> int:
        if net_idx in subs:
            return subs[net_idx]
        if net_idx in memo:
            return memo[net_idx]
        drv = self.nl.nets[net_idx].driver
        if drv is None or drv[0] == "port":
            v = vals0[net_idx]
        else:
            cell = self.nl.cells[drv[1]]
            if isinstance(cell, Gate):
                saved = [self._eval_with_subs(i, vals0, subs, memo)
                         for i in cell.inputs]
                tmp = dict(zip(cell.inputs, saved))
                v = self._gate_value(cell, _Overlay(vals0, tmp))  # type: ignore
            else:
                v = vals0[net_idx]
        memo[net_idx] = v
        return v

    def _flop_edges(self, f: Dff, tick: int, vals0: list[int]) -> bool:
        root_name = self.flop_root[f.index]
        if root_name not in self.edges_at.get(tick, ()):
            return False
        if not self.flop_gated[f.index]:
            return True
        root = self.root_net[f.index]
        lo = self._eval_with_subs(f.clock, vals0, {root: 0}, {})
        hi = self._eval_with_subs(f.clock, vals0, {root: 1}, {})
        return (lo & 1) == 0 and (hi & 1) == 1

    def _reset_active(self, f: Dff, values: list[int]) -> bool:
        if f.reset is None:
            return False
        v = values[f.reset] & 1
        return v == 0 if f.reset_active_low else v == 1

    def _settle_resets(self, values: list[int]) -> set[int]:
        """Force every flop whose async reset is active to its reset value,
        in place, until no reset changes; returns the flops held in reset.

        Reset networks may themselves be driven by flops being reset, so a
        reset can assert partway through.  A pass only ever moves flops to
        their reset values, so len(flops) + 1 passes always settle.
        """
        held: set[int] = set()
        for _ in range(len(self.flops) + 1):
            changed = False
            for f in self.flops:
                if self._reset_active(f, values):
                    held.add(f.index)
                    if values[f.out] != f.reset_value:
                        values[f.out] = f.reset_value
                        changed = True
            if not changed:
                break
            self._eval_comb(values)
        return held

    def _flop_next(self, f: Dff, values: list[int]) -> int:
        if f.enable is not None and (values[f.enable] & 1) == 0:
            return values[f.out]
        return values[f.data]

    # -- tick planning / committing --

    def plan_tick(self, state: _State, tick: int) -> _TickPlan:
        vals0 = list(state.values)
        port_changes: list[tuple[int, int]] = []
        for net, value in self.sets_at.get(tick, ()):
            if vals0[net] != value:
                port_changes.append((net, value))
            vals0[net] = value
        if self.random_driver and state.rng is not None:
            for pname in self.random_driver.ports:
                if state.rng.random() < self.random_driver.probability:
                    net = self.port_net[pname]
                    vals0[net] ^= 1
                    port_changes.append((net, vals0[net]))
        if port_changes:
            self._eval_comb(vals0)

        in_reset = self._settle_resets(vals0)
        edged = [f.index for f in self.flops
                 if f.index not in in_reset and self._flop_edges(f, tick, vals0)]
        base = {i: self._flop_next(self.nl.cells[i], vals0) for i in edged}

        opps: list[Opportunity] = []
        if self.msi.enabled:
            for dst in edged:
                for p in self.pairs_by_dst.get(dst, ()):
                    post = self._post_value(p.src_net, base, vals0)
                    pre = state.values[p.src_net]
                    flipped_now = post ^ pre
                    hist = state.hist[p.src_net]
                    for bit in range(p.width):
                        m = 1 << bit
                        setup = bool(flipped_now & m) or \
                            hist[bit] >= tick - self.setup_window
                        if setup:
                            opps.append(Opportunity(p.id, dst, p.src_net, bit, "setup"))
                            continue
                        if self._hold_toggles(p, bit, tick, base, vals0):
                            opps.append(Opportunity(p.id, dst, p.src_net, bit, "hold"))
        return _TickPlan(tick, vals0, port_changes, in_reset, edged, base, opps,
                         self.edges_at.get(tick, []))

    def _post_value(self, src_net: int, base: dict[int, int],
                    vals0: list[int]) -> int:
        f = self.src_flop_of_net.get(src_net)
        if f is not None and f in base:
            return base[f]
        return vals0[src_net]

    def _hold_toggles(self, p: CdcPair, bit: int, tick: int,
                      base: dict[int, int], vals0: list[int]) -> bool:
        src_flop = self.src_flop_of_net.get(p.src_net)
        if src_flop is not None:
            f = self.nl.cells[src_flop]
            spec = self.clocks[self.flop_root[src_flop]]
            # next source-domain posedge strictly after this tick
            k = (tick - spec.phase) // spec.period + 1
            u = spec.edge_tick(max(k, 0))
            if not tick < u <= tick + self.hold_window:
                return False
            # post-base-commit view: flop outputs overridden, gates recomputed
            base_map = {self.nl.cells[idx].out: v for idx, v in base.items()}

            def post(net: int) -> int:
                return self._eval_with_subs(net, vals0, base_map, {})

            if f.reset is not None:
                v = post(f.reset) & 1
                if (v == 0) if f.reset_active_low else (v == 1):
                    return False
            if self.flop_gated[src_flop]:
                root = self.root_net[src_flop]
                lo = self._eval_with_subs(f.clock, vals0, {**base_map, root: 0}, {})
                hi = self._eval_with_subs(f.clock, vals0, {**base_map, root: 1}, {})
                if not ((lo & 1) == 0 and (hi & 1) == 1):
                    return False
            cur = self._post_value(p.src_net, base, vals0)
            if f.enable is not None and (post(f.enable) & 1) == 0:
                return False
            future = post(f.data)
            return bool((future ^ cur) & (1 << bit))
        # port source: consult the stimulus schedule
        cur = vals0[p.src_net]
        for t, v in self.port_schedule.get(p.src_net, ()):
            if tick < t <= tick + self.hold_window:
                return bool((v ^ cur) & (1 << bit))
            if t > tick + self.hold_window:
                break
        return False

    def commit_tick(self, state: _State, plan: _TickPlan,
                    decisions: list[bool]) -> None:
        assert len(decisions) == len(plan.opps)
        tick = plan.tick
        vals0 = plan.vals0
        nl = self.nl

        # resolve injections per (dst, src_net)
        eff: dict[tuple[int, int], int] = {}
        for p_dst in plan.edged:
            for p in self.pairs_by_dst.get(p_dst, ()):
                eff[(p_dst, p.src_net)] = self._post_value(p.src_net, plan.base, vals0)
        for opp, take in zip(plan.opps, decisions):
            if not take:
                continue
            key = (opp.dst, opp.src_net)
            new_eff = eff[key] ^ (1 << opp.bit)
            eff[key] = new_eff
            resolved = (new_eff >> opp.bit) & 1
            state.events.append(MsiEvent(tick, opp.pair, opp.bit, opp.kind, resolved))
            state.coverage.record(opp.pair, opp.bit, opp.kind, resolved)
        state.decisions += len(plan.opps)

        newvals: dict[int, int] = dict(plan.base)
        for dst in plan.edged:
            plist = self.pairs_by_dst.get(dst)
            if not plist:
                continue
            f = nl.cells[dst]
            subs = {p.src_net: eff[(dst, p.src_net)] for p in plist}
            memo: dict[int, int] = {}
            if f.enable is not None:
                en = self._eval_with_subs(f.enable, vals0, subs, memo) & 1
                if not en:
                    newvals[dst] = vals0[f.out]
                    continue
            newvals[dst] = self._eval_with_subs(f.data, vals0, subs, memo)

        final = list(vals0)  # plan may be replayed with other decision vectors
        for idx, v in newvals.items():
            final[nl.cells[idx].out] = v
        self._eval_comb(final)
        self._settle_resets(final)

        for n in self.monitored:
            flipped = final[n] ^ state.values[n]
            if flipped:
                hist = state.hist[n]
                for bit in range(nl.nets[n].width):
                    if flipped & (1 << bit):
                        hist[bit] = tick
        for net in nl.nets:
            if final[net.index] != state.values[net.index]:
                state.trace.append((tick, net.index, final[net.index]))
        state.values = final

        get = final.__getitem__
        for clk in plan.clock_edges:
            state.edge_counts[clk] += 1
            domain = self.clock_domain[clk]
            in_reset = any((final[n] & 1) == (0 if active_low else 1)
                           for n, active_low in self.domain_resets.get(domain, ()))
            for ci in self.checkers_by_clock.get(clk, ()):
                st, message = self.checkers[ci].sample(
                    state.checkers[ci], clk, tick, get, in_reset)
                state.checkers[ci] = st
                if message is not None and state.failures[ci] is None:
                    state.failures[ci] = (tick, message)

    # -- drivers --

    def run(self) -> SimResult:
        """Single run; random injection when enabled."""
        state = self.initial_state()
        for tick in self.agenda:
            plan = self.plan_tick(state, tick)
            if self.msi.mode == "random" and state.rng is not None:
                decisions = [state.rng.random() < self.msi.prob(o.pair)
                             for o in plan.opps]
            else:
                decisions = [False] * len(plan.opps)
            self.commit_tick(state, plan, decisions)
        return self._finish(state)

    def _finish(self, state: _State) -> SimResult:
        waves: dict[int, list[tuple[int, int]]] = {}
        for tick, net, value in state.trace.all_items():
            lst = waves.setdefault(net, [])
            if lst and lst[-1][0] == tick:
                lst[-1] = (tick, value)
            elif not lst or lst[-1][1] != value:
                lst.append((tick, value))
        if self.msi.mode == "random":
            state.coverage.seeds.append(self.msi.seed)
        state.coverage.edges = dict(state.edge_counts)
        return SimResult(waves, state.events.all_items(), state.coverage,
                         [c.verdict(f) for c, f in
                          zip(self.checkers, state.failures)],
                         dict(state.edge_counts), state.decisions)


class _Overlay:
    """List-like view of `base` with sparse overrides (read-only)."""

    __slots__ = ("base", "over")

    def __init__(self, base: list[int], over: dict[int, int]):
        self.base = base
        self.over = over

    def __getitem__(self, i: int) -> int:
        v = self.over.get(i)
        return self.base[i] if v is None else v

    def __iter__(self):
        return (self[i] for i in range(len(self.base)))

    def __len__(self):
        return len(self.base)


@dataclass
class ExploreOutcome:
    verdicts: dict[str, str]                    # checker id -> "proven"|"counterexample"
    counterexamples: dict[str, SimResult]
    branches: int
    max_decisions_seen: int


def simulate(analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
             checkers: list[Checker], scope: str = "sim") -> SimResult:
    eng = Engine(analysis, stimulus, msi, checkers, scope)
    return eng.run()


def reference_simulate(analysis: Analysis, stimulus: Stimulus,
                       checkers: list[Checker] | None = None,
                       scope: str = "ref") -> SimResult:
    msi = MsiConfig(enabled=False)
    return simulate(analysis, stimulus, msi, checkers or [], scope)


def explore_exhaustive(analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
                       checkers: list[Checker]) -> ExploreOutcome:
    """Enumerate every resolution of every opportunity, depth first with the
    reference resolution explored first."""
    cfg = MsiConfig(enabled=True, probability=msi.probability,
                    setup_window=msi.setup_window, hold_window=msi.hold_window,
                    pair_probability=dict(msi.pair_probability),
                    mode="exhaustive", max_decisions=msi.max_decisions)
    eng = Engine(analysis, stimulus, cfg, checkers, scope="explore")
    budget = cfg.max_decisions
    counter = {"branches": 0, "max_dec": 0}
    cex: dict[str, SimResult] = {}
    ids = [c.id for c in checkers]

    def leaf(state: _State):
        counter["branches"] += 1
        if counter["branches"] > _BRANCH_CAP:
            raise DecisionBudgetExceeded(counter["max_dec"], budget)
        counter["max_dec"] = max(counter["max_dec"], state.decisions)
        result = None
        for cid, failure in zip(ids, state.failures):
            if failure is not None and cid not in cex:
                if result is None:
                    result = eng._finish(state)
                cex[cid] = result

    def dfs(state: _State, agenda_idx: int):
        if len(cex) == len(ids) and ids:
            return  # every checker already has a counterexample
        for i in range(agenda_idx, len(eng.agenda)):
            tick = eng.agenda[i]
            plan = eng.plan_tick(state, tick)
            k = len(plan.opps)
            if state.decisions + k > budget:
                raise DecisionBudgetExceeded(state.decisions + k, budget)
            if k == 0:
                eng.commit_tick(state, plan, [])
                continue
            for vector in product((False, True), repeat=k):
                branch = state.clone()
                eng.commit_tick(branch, plan, list(vector))
                dfs(branch, i + 1)
            return
        leaf(state)

    dfs(eng.initial_state(), 0)
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return ExploreOutcome(verdicts, cex, counter["branches"], counter["max_dec"])
