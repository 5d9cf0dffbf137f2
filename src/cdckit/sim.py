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

A state holds only what later ticks depend on and is never mutated:
`commit_tick` returns a new state sharing what the tick left unchanged, so
exploration branches share their parent's state.  Only `Engine.run`
records a run (injection log, coverage, and waves when they are to be
written); a counterexample is the replay of its branch's decision path,
exact as exhaustive runs are not random.

Evaluation is compiled, not interpreted (levelized compiled-code
simulation).  Each netlist is compiled once into straight-line Python with
constant masks: `comb`, every gate in topological order, and cone kernels,
the enable and data of one crossing destination with its sources
substituted or one gated flop clock with its root substituted.  Kernels are
split into functions of at most `_CHUNK` gates and cached on the `Netlist`,
so every seed and exploration branch of a design shares them; the cone
kernels an engine needs are compiled together, in one `compile`.  A hold
lookahead is one post-capture `comb` per tick, made on first need.  The
gate interpreter they replace is kept in tests/oracles.py as the reference
they are tested against.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import chain, compress, product
from operator import ne
from typing import NamedTuple

from .checkers import Checker, Verdict
from .constraints import ClockSpec
from .coverage import CoverageDb
from .domains import CdcPair, pairs_fingerprint
from .errors import (BranchCapExceeded, DecisionBudgetExceeded, ParseError,
                     SimDivergence, StimulusOutOfRange)
from .netlist import Const, Dff, Gate, Netlist
from .rules import Analysis
from .stimulus import Stimulus

_NEG = -(10 ** 9)
_BRANCH_CAP = 1 << 24


@dataclass
class MsiConfig:
    enabled: bool = True
    probability: float = 0.5
    seed: int = 0


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


@dataclass
class SimResult:
    waves: dict[int, list[tuple[int, int]]] | None  # net -> [(tick, value)]
    events: list[MsiEvent]
    coverage: CoverageDb
    verdicts: list[Verdict]
    decisions: int

    def failed(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.passed]


class _State(NamedTuple):
    """What the next tick depends on; never mutated once made."""
    values: list[int]
    hist: dict[int, list[int]]      # monitored net -> last flip tick per bit
    checkers: list                  # per-checker state values
    failures: list[tuple[int, str] | None]
    decisions: int


@dataclass
class _TickPlan:
    tick: int
    vals0: list[int]                    # pre-edge state incl. port updates
    dsts: list[int]                     # crossing destinations capturing
    base: dict[int, int]                # capturing flop -> base next value
    opps: list[Opportunity]
    clock_edges: list[str]


# -- compiled kernels ---------------------------------------------------------

_CHUNK = 256        # gates per exec'd function: bounds the compiler's memory
_TERMS = 64         # operands per statement: bounds the compiler's recursion
_CHAIN_OPS = {"AND": "&", "OR": "|", "XOR": "^", "CONCAT": "|"}


def _gate_code(nl: Netlist, g: Gate, ref) -> list[str]:
    """Statements that store the value of gate `g` in `w[g.out]`; `ref(net)`
    is the expression that reads a net."""
    out = f"w[{g.out}]"
    mask = (1 << g.width) - 1
    ins = [ref(i) for i in g.inputs]
    if g.op == "NOT":
        return [f"{out} = ~{ins[0]} & {mask}"]
    if g.op == "BUF":
        return [f"{out} = {ins[0]} & {mask}"]
    if g.op == "SLICE":
        return [f"{out} = {ins[0]} >> {g.slice_lsb} & {mask}"]
    if g.op == "MUX":
        return [f"{out} = {ins[1]} if {ins[0]} & 1 else {ins[2]}"]
    sym = _CHAIN_OPS.get(g.op)
    if sym is None:
        raise SimDivergence(f"unknown gate op {g.op}")
    terms = ins
    if g.op == "AND":
        terms = ins + [str(mask)]
    elif g.op == "CONCAT":
        # each operand lands above the widths of the operands after it
        terms, shift = [], 0
        for net, text in zip(reversed(g.inputs), reversed(ins)):
            width = nl.nets[net].width
            terms.append(f"({text} & {(1 << width) - 1}) << {shift}")
            shift += width
        terms.reverse()
    code = [f"{out} = 0"] if not terms else []
    for k in range(0, len(terms), _TERMS):
        expr = f" {sym} ".join(terms[k:k + _TERMS])
        code.append(f"{out} {sym}= {expr}" if k else f"{out} = {expr}")
    if g.op == "CONCAT" and shift > g.width:
        code.append(f"{out} &= {mask}")
    return code


def _define(name: str, params: str, lines: list[str]) -> str:
    return f"def {name}({params}):\n" + "".join(f"    {line}\n"
                                                for line in lines or ["pass"])


def _function(nl: Netlist, name: str, params: str, head: list[str],
              gates: list[int], written: set[int],
              result: tuple[int, ...]) -> list[str]:
    """Sources of `def name(params)` and its helpers: run `head`, store the
    value of each gate in `w` in the order given, and return the values of
    the `result` nets.

    Nets in `written` are read from `w`, all others from `v`.  The gates go
    into helper functions `name_g<k>` of at most _CHUNK gates, one statement
    each, so no single function grows with the design and no expression
    nests; up to _CHUNK gates go straight into the function."""
    def ref(net: int) -> str:
        return f"w[{net}]" if net in written else f"v[{net}]"

    helpers = []
    body = list(head)
    for k in range(0, len(gates), _CHUNK):
        lines = [line for i in gates[k:k + _CHUNK]
                 for line in _gate_code(nl, nl.cells[i], ref)]
        if len(gates) <= _CHUNK:
            body += lines       # one chunk: no helper call
        else:
            helpers.append(_define(f"{name}_g{k}", "v, w", lines))
            body.append(f"{name}_g{k}(v, w)")
    if result:
        body.append("return " + ", ".join(ref(n) for n in result))
    return helpers + [_define(name, params, body)]


def _compile(sources: list[str], label: str) -> dict:
    """The names that `sources` define, each compiled on its own."""
    ns: dict = {}
    for source in sources:
        exec(compile(source, f"<cdckit kernels {label}>", "exec"), ns)
    return ns


def _compile_comb(nl: Netlist):
    # a compile per chunk: one compile of every chunk is slower
    return _compile(_function(nl, "comb", "v", ["w = v"], nl.comb_topo(),
                              set(), ()), "comb")["comb"]


def _cone_sources(nl: Netlist, name: str, targets: tuple[int, ...],
                  subs: tuple[int, ...]) -> list[str]:
    gates: set[int] = set()
    seen = set(subs)
    stack = list(targets)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        drv = nl.nets[net].driver
        if drv is not None and drv[0] == "cell" and isinstance(nl.cells[drv[1]], Gate):
            gates.add(drv[1])
            stack.extend(nl.cells[drv[1]].inputs)
    order = [i for i in nl.comb_topo() if i in gates]
    written = set(subs) | {nl.cells[i].out for i in order}
    params = ", ".join(["v"] + [f"s{j}" for j in range(len(subs))])
    head = ["w = {}"] + [f"w[{net}] = s{j}" for j, net in enumerate(subs)]
    return _function(nl, name, params, head, order, written, targets)


def _compile_cones(nl: Netlist, specs: list[tuple[tuple[int, ...], tuple[int, ...]]]):
    """The cone kernels of `specs`, (targets, subs) each, from one compile."""
    sources = [source for j, (targets, subs) in enumerate(specs)
               for source in _cone_sources(nl, f"cone{j}", targets, subs)]
    ns = _compile(["".join(sources)], "cones")
    return [ns[f"cone{j}"] for j in range(len(specs))]


def comb_kernel(nl: Netlist):
    """`comb(v)`: evaluates every gate of `nl` in topological order, in place
    on the net value list `v`.  Compiled once per netlist."""
    k = nl.kernels.get("comb")
    if k is None:
        k = nl.kernels["comb"] = _compile_comb(nl)
    return k


def cone_kernels(nl: Netlist, specs: list[tuple[tuple[int, ...], tuple[int, ...]]]):
    """The kernel of each (targets, subs) in `specs`: `cone(v, *values)`
    gives the values of the `targets` nets (a tuple when there are several)
    with the nets `subs` set to `values`.  The gates between them are
    re-evaluated; every other net is read from `v`.  Each kernel is compiled
    once per netlist, and those not compiled yet are compiled together."""
    missing = [s for s in dict.fromkeys(specs) if ("cone", *s) not in nl.kernels]
    if missing:
        for s, k in zip(missing, _compile_cones(nl, missing)):
            nl.kernels[("cone", *s)] = k
    return [nl.kernels[("cone", *s)] for s in specs]


def cone_kernel(nl: Netlist, targets: tuple[int, ...], subs: tuple[int, ...]):
    """The kernel of one cone; see `cone_kernels`."""
    return cone_kernels(nl, [(targets, subs)])[0]


class Engine:
    def __init__(self, analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
                 checkers: list[Checker], scope: str = "sim"):
        self.a = analysis
        self.nl = analysis.netlist
        self.msi = msi
        self.scope = scope
        cs = analysis.constraints
        self.setup_window = cs.options["setup_window"]
        self.hold_window = cs.options["hold_window"]

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
        self.edges_per_clock = {name: 0 for name in self.clocks}
        for t in self.agenda:
            self.edges_at[t] = [c.name for c in cs.clocks if c.name in self.edges_at[t]]
            for name in self.edges_at[t]:
                self.edges_per_clock[name] += 1

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

        # flop clocking: root clock and gating condition
        self.flops = self.nl.dffs()
        self.flop_root = analysis.domains.clock_root   # flop -> root clock name
        self.root_net = {f.index: self.nl.net_index[self.flop_root[f.index]]
                         for f in self.flops}
        self.flop_gated = {f.index: f.clock != self.root_net[f.index]
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

        # compiled kernels, shared with every engine on this netlist: each
        # gated flop clock with its root substituted, and per crossing
        # destination its enable and data with its sources substituted
        self.comb = comb_kernel(self.nl)
        gated = [f for f in self.flops if self.flop_gated[f.index]]
        specs = [((f.clock,), (self.root_net[f.index],)) for f in gated]
        srcs_of = {dst: tuple(dict.fromkeys(p.src_net for p in plist))
                   for dst, plist in self.pairs_by_dst.items()}
        for dst, srcs in srcs_of.items():
            f = self.nl.cells[dst]
            specs.append(((f.data,) if f.enable is None else (f.enable, f.data),
                          srcs))
        cones = cone_kernels(self.nl, specs)
        self.clock_cone = {f.index: k for f, k in zip(gated, cones)}
        # per crossing destination: its (dst, src_net) resolution keys and
        # its capture cone
        self.capture: dict[int, tuple[tuple[tuple[int, int], ...], object]] = {
            dst: (tuple((dst, s) for s in srcs), k)
            for (dst, srcs), k in zip(srcs_of.items(), cones[len(gated):])}
        # flops whose root clock edges at each tick, in flop-index order
        by_names: dict[tuple[str, ...], list[int]] = {}
        self.flops_at: dict[int, list[int]] = {}
        for t, names in self.edges_at.items():
            key = tuple(names)
            if key not in by_names:
                by_names[key] = [f.index for f in self.flops
                                 if self.flop_root[f.index] in names]
            self.flops_at[t] = by_names[key]
        self.resets = [(f.index, f.out, f.reset, 0 if f.reset_active_low else 1,
                        f.reset_value) for f in self.flops if f.reset is not None]
        self.reset_nets = tuple(dict.fromkeys((r[2], r[3]) for r in self.resets))
        self.next_pins = {f.index: (f.out, f.data, f.enable) for f in self.flops}
        self.checkers = checkers
        self.checkers_by_clock: dict[str, list[int]] = {}
        for i, c in enumerate(checkers):
            for clk in c.clocks:
                self.checkers_by_clock.setdefault(clk, []).append(i)

        # per clock: its domain's resets as (net, active value), which
        # disable the checkers sampling on it
        self.clock_resets = {
            c.name: tuple((self.nl.net_index[r.net], int(not r.active_low))
                          for r in cs.clock_resets(c.name))
            for c in cs.clocks}
        self.fingerprint = pairs_fingerprint(analysis.pairs)

    # -- state & evaluation helpers --

    def initial_state(self) -> _State:
        values = [0] * len(self.nl.nets)
        for c in self.nl.cells:
            if isinstance(c, Dff):
                values[c.out] = c.reset_value
            elif isinstance(c, Const):
                values[c.out] = c.value
        self.comb(values)
        return _State(values,
                      {n: [_NEG] * self.nl.nets[n].width for n in self.monitored},
                      [c.start for c in self.checkers],
                      [None] * len(self.checkers), 0)

    def _settle_resets(self, values: list[int]) -> set[int]:
        """Force every flop whose async reset is active to its reset value,
        in place, until no reset changes; returns the flops held in reset.

        Reset networks may themselves be driven by flops being reset, so a
        reset can assert partway through.  A pass only ever moves flops to
        their reset values, so len(flops with a reset) + 1 passes always
        settle.
        """
        held: set[int] = set()
        for net, active in self.reset_nets:
            if (values[net] & 1) == active:
                break
        else:
            return held     # a pass with no reset active changes nothing
        for _ in range(len(self.resets) + 1):
            changed = False
            for idx, out, reset, active, value in self.resets:
                if (values[reset] & 1) == active:
                    held.add(idx)
                    if values[out] != value:
                        values[out] = value
                        changed = True
            if not changed:
                break
            self.comb(values)
        return held

    def _captured(self, values: list[int], nextvals: dict[int, int]) -> list[int]:
        """A copy of the settled `values` with the flops in `nextvals` set to
        their new values and the gates re-evaluated.  The copy leaves a plan
        free to be replayed with other decisions; comb runs only when some
        flop output changed, since settled values are already consistent."""
        out = list(values)
        changed = False
        for idx, v in nextvals.items():
            net = self.next_pins[idx][0]
            if out[net] != v:
                out[net] = v
                changed = True
        if changed:
            self.comb(out)
        return out

    def _rises(self, flop: int, values: list[int]) -> bool:
        """Whether a gated flop clock rises with its root clock."""
        clock = self.clock_cone[flop]
        return (clock(values, 0) & 1) == 0 and (clock(values, 1) & 1) == 1

    # -- tick planning / committing --

    def plan_tick(self, state: _State, tick: int,
                  rng: random.Random | None = None) -> _TickPlan:
        """The tick's pre-edge values, captures and opportunities; `rng`
        drives the random stimulus ports, which stay still without it."""
        vals0 = list(state.values)
        driven = False
        for net, value in self.sets_at.get(tick, ()):
            if vals0[net] != value:
                driven = True
            vals0[net] = value
        if self.random_driver and rng is not None:
            for pname in self.random_driver.ports:
                if rng.random() < self.random_driver.probability:
                    vals0[self.port_net[pname]] ^= 1
                    driven = True
        if driven:
            self.comb(vals0)

        in_reset = self._settle_resets(vals0)
        gated = self.clock_cone
        edged = [i for i in self.flops_at.get(tick, ())
                 if i not in in_reset and (i not in gated or self._rises(i, vals0))]
        base: dict[int, int] = {}   # each edged flop's next value
        for i in edged:
            out, data, enable = self.next_pins[i]
            base[i] = vals0[out] if enable is not None and not vals0[enable] & 1 \
                else vals0[data]

        dsts = [i for i in edged if i in self.pairs_by_dst]
        opps: list[Opportunity] = []
        if self.msi.enabled:
            lookahead: list[list[int]] = []     # made on first need
            for dst in dsts:
                for p in self.pairs_by_dst[dst]:
                    flipped_now = (self._post_value(p.src_net, base, vals0)
                                   ^ state.values[p.src_net])
                    hist = state.hist[p.src_net]
                    hold = None
                    for bit in range(p.width):
                        m = 1 << bit
                        if flipped_now & m or hist[bit] >= tick - self.setup_window:
                            opps.append(Opportunity(p.id, dst, p.src_net, bit, "setup"))
                            continue
                        if hold is None:
                            hold = self._hold_toggles(p, tick, base, vals0, lookahead)
                        if hold & m:
                            opps.append(Opportunity(p.id, dst, p.src_net, bit, "hold"))
        return _TickPlan(tick, vals0, dsts, base, opps, self.edges_at.get(tick, []))

    def _post_value(self, src_net: int, base: dict[int, int],
                    vals0: list[int]) -> int:
        f = self.src_flop_of_net.get(src_net)
        if f is not None and f in base:
            return base[f]
        return vals0[src_net]

    def _hold_toggles(self, p: CdcPair, tick: int, base: dict[int, int],
                      vals0: list[int], lookahead: list[list[int]]) -> int:
        """Bits of the pair's source that a source-domain edge within
        `hold_window` ticks after this one will flip.  `lookahead` holds the
        values after the base captures commit once a pair of the tick has
        needed them."""
        src_flop = self.src_flop_of_net.get(p.src_net)
        if src_flop is not None:
            f = self.nl.cells[src_flop]
            spec = self.clocks[self.flop_root[src_flop]]
            # next source-domain posedge strictly after this tick
            k = (tick - spec.phase) // spec.period + 1
            u = spec.edge_tick(max(k, 0))
            if not tick < u <= tick + self.hold_window:
                return 0
            if not lookahead:
                lookahead.append(self._captured(vals0, base))
            post = lookahead[0]
            if f.reset is not None:
                v = post[f.reset] & 1
                if (v == 0) if f.reset_active_low else (v == 1):
                    return 0
            if src_flop in self.clock_cone and not self._rises(src_flop, post):
                return 0
            if f.enable is not None and (post[f.enable] & 1) == 0:
                return 0
            return post[f.data] ^ self._post_value(p.src_net, base, vals0)
        # port source: consult the stimulus schedule
        cur = vals0[p.src_net]
        for t, v in self.port_schedule.get(p.src_net, ()):
            if tick < t <= tick + self.hold_window:
                return v ^ cur
            if t > tick + self.hold_window:
                break
        return 0

    def commit_tick(self, state: _State, plan: _TickPlan,
                    decisions: Sequence[bool]) -> tuple[_State, list[MsiEvent]]:
        """The state after the tick, with one decision per opportunity, and
        the injections taken.  `state` is left as it was; each of its parts
        is copied only when the tick changes it."""
        assert len(decisions) == len(plan.opps)
        tick = plan.tick
        vals0 = plan.vals0
        nl = self.nl

        # resolve injections per (dst, src_net)
        eff: dict[tuple[int, int], int] = {}
        for p_dst in plan.dsts:
            for p in self.pairs_by_dst[p_dst]:
                eff[(p_dst, p.src_net)] = self._post_value(p.src_net, plan.base, vals0)
        events: list[MsiEvent] = []
        for opp, take in zip(plan.opps, decisions):
            if not take:
                continue
            key = (opp.dst, opp.src_net)
            new_eff = eff[key] ^ (1 << opp.bit)
            eff[key] = new_eff
            resolved = (new_eff >> opp.bit) & 1
            events.append(MsiEvent(tick, opp.pair, opp.bit, opp.kind, resolved))

        newvals: dict[int, int] = dict(plan.base)
        for dst in plan.dsts:
            keys, cone = self.capture[dst]
            got = cone(vals0, *map(eff.__getitem__, keys))
            out, _data, enable = self.next_pins[dst]
            if enable is None:
                newvals[dst] = got
            else:
                newvals[dst] = got[1] if got[0] & 1 else vals0[out]

        final = self._captured(vals0, newvals)
        self._settle_resets(final)

        old = state.values
        hist = state.hist
        for n in self.monitored:
            flipped = final[n] ^ old[n]
            if flipped:
                if hist is state.hist:
                    hist = dict(hist)
                bits = hist[n] = list(hist[n])
                for bit in range(nl.nets[n].width):
                    if flipped & (1 << bit):
                        bits[bit] = tick

        checkers, failures = state.checkers, state.failures
        get = final.__getitem__
        for clk in plan.clock_edges:
            sampling = self.checkers_by_clock.get(clk)
            if not sampling:
                continue
            if checkers is state.checkers:
                checkers = list(checkers)
            in_reset = any((final[n] & 1) == active
                           for n, active in self.clock_resets[clk])
            for ci in sampling:
                checkers[ci], message = self.checkers[ci].sample(
                    checkers[ci], clk, tick, get, in_reset)
                if message is not None and failures[ci] is None:
                    if failures is state.failures:
                        failures = list(failures)
                    failures[ci] = (tick, message)
        return (_State(final, hist, checkers, failures,
                       state.decisions + len(plan.opps)), events)

    # -- drivers --

    def run(self, path: Sequence[bool] | None = None,
            waves: bool = True) -> SimResult:
        """One recorded run.  Without `path` the seeded RNG draws every
        decision and drives the random stimulus ports.  With a `path`, even
        an empty one, opportunity i takes `path[i]`, those past the end of
        `path` keep the reference value, and the random ports stay still.
        Without `waves` the result holds no waves (`None`); its events,
        verdicts and coverage are the same."""
        rng = random.Random(self.msi.seed) if path is None else None
        state = self.initial_state()
        events: list[MsiEvent] = []
        trace = {n: [(_NEG, v)] for n, v in enumerate(state.values)} if waves else None
        for tick in self.agenda:
            plan = self.plan_tick(state, tick, rng)
            if rng is not None:
                decisions = [rng.random() < self.msi.probability
                             for _ in plan.opps]
            else:
                taken = path[state.decisions:state.decisions + len(plan.opps)]
                decisions = [*taken] + [False] * (len(plan.opps) - len(taken))
            old = state.values
            state, injected = self.commit_tick(state, plan, decisions)
            events += injected
            if trace is not None:
                new = state.values
                for n in compress(range(len(new)), map(ne, new, old)):
                    trace[n].append((tick, new[n]))
        return self._finish(state, events, trace, rng is not None)

    def _finish(self, state: _State, events: list[MsiEvent],
                waves: dict[int, list[tuple[int, int]]] | None,
                seeded: bool) -> SimResult:
        coverage = CoverageDb(self.fingerprint, self.scope,
                              tuple(p.id for p in self.a.pairs))
        for e in events:
            coverage.record(e.pair, e.bit, e.kind, e.resolved)
        if seeded:
            coverage.seeds.append(self.msi.seed)
        coverage.edges = dict(self.edges_per_clock)
        return SimResult(waves, events, coverage,
                         [c.verdict(f) for c, f in
                          zip(self.checkers, state.failures)],
                         state.decisions)


@dataclass
class ExploreOutcome:
    verdicts: dict[str, str]                    # checker id -> "proven"|"counterexample"
    counterexamples: dict[str, SimResult]
    branches: int


def simulate(analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
             checkers: list[Checker], scope: str = "sim",
             waves: bool = True) -> SimResult:
    eng = Engine(analysis, stimulus, msi, checkers, scope)
    return eng.run(waves=waves)


def explore_exhaustive(analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
                       checkers: list[Checker], budget: int) -> ExploreOutcome:
    """Enumerate every resolution of every opportunity, depth first with the
    reference resolution explored first.  A path of more than `budget`
    decisions raises DecisionBudgetExceeded, and more than _BRANCH_CAP
    leaves raise BranchCapExceeded.

    Paths that reach the same state are merged: the search remembers the
    number of leaves below each state it has explored, and a state seen
    again adds that number to `branches` without walking its subtree.  The
    merge is exact.  A state is keyed on its agenda index, its decision
    count and every part of it that later ticks read (net values, flip
    history, checker states, failures), so its subtree is the same, and
    that subtree was walked on a lexicographically earlier path: each
    checker's first counterexample is still found there, and a path over
    the budget raised there first."""
    eng = Engine(analysis, stimulus, replace(msi, enabled=True), checkers,
                 scope="explore")
    branches = 0
    cex: dict[str, SimResult] = {}
    ids = [c.id for c in checkers]
    leaves: dict[tuple, int] = {}   # explored state -> leaves below it
    first: dict[int, list] = {}     # agenda index -> state first seen there

    def count(n: int):
        nonlocal branches
        branches += n
        if branches > _BRANCH_CAP:
            raise BranchCapExceeded(_BRANCH_CAP)

    def leaf(state: _State, path: tuple[bool, ...]):
        count(1)
        result = None
        for cid, failure in zip(ids, state.failures):
            if failure is not None and cid not in cex:
                if result is None:
                    # exhaustive runs draw no random numbers, so replaying
                    # the branch's decisions reproduces it exactly
                    result = eng.run(path)
                cex[cid] = result

    def dfs(state: _State, agenda_idx: int, path: tuple[bool, ...]):
        if len(cex) == len(ids) and ids:
            return  # every checker already has a counterexample
        # the state as the places where it differs from the first state
        # seen at this agenda index, with its values there: equal exactly
        # for equal states, and a few values in place of one per net
        flat = [*state.values, *chain.from_iterable(state.hist.values()),
                *state.checkers, *state.failures]
        changed = tuple(compress(range(len(flat)), map(
            ne, flat, first.setdefault(agenda_idx, flat))))
        key = (agenda_idx, changed, tuple(map(flat.__getitem__, changed)),
               state.decisions)
        below = leaves.get(key)
        if below is not None:
            count(below)
            return
        start = branches
        walk(state, agenda_idx, path)
        leaves[key] = branches - start

    def walk(state: _State, agenda_idx: int, path: tuple[bool, ...]):
        for i in range(agenda_idx, len(eng.agenda)):
            tick = eng.agenda[i]
            plan = eng.plan_tick(state, tick)
            k = len(plan.opps)
            if state.decisions + k > budget:
                raise DecisionBudgetExceeded(state.decisions + k, budget)
            if k == 0:
                state, _ = eng.commit_tick(state, plan, ())
                continue
            for vector in product((False, True), repeat=k):
                branch, _ = eng.commit_tick(state, plan, vector)
                dfs(branch, i + 1, path + vector)
            return
        leaf(state, path)

    dfs(eng.initial_state(), 0, ())
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return ExploreOutcome(verdicts, cex, branches)
