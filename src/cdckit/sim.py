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
database.  Exhaustive mode (explore.py) explores every resolution
assignment instead of coin flips.

A state holds only what later ticks depend on; a run advances one state
in place (`commit_tick` writes the tick into the state it is given), and
explore.py copies the states it keeps.

`plan_tick` and `commit_tick` are explore's branching steps.  A recorded
run (`Engine.run`: injection log, coverage, and the frames of its waves
when they are to be written) does the same work in one fused loop body
per tick, with the engine's constants in locals, and calls neither step:
it builds no plan, draws or reads each decision as its opportunity is
found, and calls the helpers that do the work of some ticks only
(`_drive`, `_View.settle_resets`, `_rises`, `_hold_toggles`, `_capture`),
which the steps call too.  tests/oracles.py keeps the driver that records
a run through the two steps, a plan and a commit per tick, and
tests/test_run_loop.py holds the fused loop to it and to
`ReferenceEngine`.  A counterexample is the replay of its branch's
decision path, exact as exhaustive runs are not random.

What a run evaluates.  A run without waves reports verdicts, injection
events, coverage and its decision count, and these read only a few nets,
the roots: each checker's `nets` and the resets of its clocks' domains,
the monitored crossing sources, the reset nets and each destination
flop's clock.  The engine computes once the observed cone
(`Engine.observed`), the roots closed backward over gate inputs and over
each flop's data, enable, clock and reset (Clarke, Grumberg and Peled,
"Model Checking", MIT Press 1999, on cone-of-influence reduction).  No
net of the cone is driven by a net outside it, so by induction over the
ticks a run that evaluates only the cone gives its nets the values that
evaluating every net gives them: a tick reads only cone nets to drive its
gates, to decide which flops capture and which resets hold, and to find
which source bits flip near a capture.  Such a run (`Engine.view`, the
state's `_View`) compiles only the cone's gates, clocks only its flops
and captures only the destinations inside it; the nets outside it,
but for the input ports that the stimulus drives, keep their initial
values.  It still searches every destination for
opportunities, whose clock and reset are roots, and it still draws for
every random port, so the events, the coverage, the decision counts and
the RNG's draw order are those of the full evaluation.  A run with waves
writes every net of every tick, so it evaluates every net
(`Engine.full_view`).  The gates outside the cone are compiled on its
first need, into kernels that run after the cone's own in each activity
group, which is topological as no gate of the cone reads a net outside
it; no gate is compiled twice.  `run(waves=...)`, `run_seeds` and
`initial_state(waves)` pick the view, and `plan_tick` and `commit_tick`
evaluate the view of the state they are given.

Evaluation is compiled, not interpreted (levelized compiled-code
simulation).  Each netlist is compiled once into straight-line Python with
constant masks: the gates, and cone kernels, the enable and data of one
crossing destination with its sources substituted or one gated flop clock
with its root substituted.  Kernels are cached on the `Netlist`, so every
seed and exploration branch of a design shares them; the cone kernels a
view needs are compiled together, in one `compile`.  A group of gates
(below) is cut into runs, consecutive gates of one instance, and a shape
of run that recurs (the same module's gates in another instance, wired
alike) is compiled once, with placeholders for its nets; each of its runs
gets that code with its own net indices put in as constants, which runs
as if it were compiled for the run alone (`_bound`).  The other gates are
compiled with constants, in functions of at most `_CHUNK` gates.  A
destination without an enable whose data net is its only source captures
the substituted value itself, with no kernel.  The gate interpreter the
kernels replace is kept in tests/oracles.py as the reference they are
tested against.

The gates are grouped by activity signature, the set of clock roots and
input ports in their fan-in (`CombGroups`), and each group is compiled
once.  Groups run in (popcount, signature) order, which is topological.  A
full pass runs every group of a view: the initial state and each reset
settle use it.  A pass after some nets changed runs only the groups whose signature
meets theirs: the port drive runs the groups the input ports reach, and
the hold lookahead and the commit run the groups that the outputs of the
tick's edging flops reach, since those are the only nets in which their
values differ from the tick's settled pre-edge values.

Scheduling is done once per engine, not per tick.  What a tick does that
depends only on which clocks edge at it (the flops that capture, the
crossing destinations among them, the gated flops whose clock must be
checked, and the checkers that sample) is one `_EdgeSet`, built with its
view for each distinct set of clocks that edge together.  A
clock edges at its phase plus each multiple of its period, with 0 <= phase
< period, so which clocks edge at a tick depends only on the tick modulo
the hyperperiod, the least common multiple of the periods: the engine maps
each tick of one hyperperiod to its edge set, and the agenda and the run
go over that map once per hyperperiod, so nothing of the schedule grows
with the run's length.  A tick's plan holds its values as
lists: the pre-edge values, which are the state's own list unless a port
moves or a reset is active (those write into a copy), and `post`, those
with each edged flop's next value written in, so a commit copies `post`,
writes any destination captures and re-evaluates the gates only when
something changed.  A hold lookahead is one `comb` over a copy of `post`,
made on first need.  The per-tick engine this replaced is kept in
tests/oracles.py as `ReferenceEngine`, which the engine is tested against
in lockstep.

A tick's bookkeeping is word-level.  The flip history of a monitored net
(a crossing source) is a tuple of (tick, flipped bits) entries, newest
first: a commit prepends one entry per changed net and drops those at or
before the tick less `setup_window`, which no later tick reads, so with the
default window of 1 a history holds one entry.  The opportunity search ORs
a pair's recent entries into its setup bits, calls the hold lookahead only
when some bit is not a setup bit and the source's clock, from the pair's
phase and period, edges within `hold_window` ticks after this one, and
walks the set bits upward.  A commit checks for flips only the monitored
nets the tick can change: each edge set lists those whose activity
signature meets its flops' (and those the input ports reach too, for a
tick whose port drive moved a port), and a tick on which a reset held a
flop checks them all.

A tick settles the resets only when a reset net is at its active value,
and a commit settles them again only when its edge set's flops reach a
reset net (`_EdgeSet.settle`, from the activity signatures).  Otherwise the
reset nets keep the values the plan's settle saw, so every flop a reset
holds is at its reset value already and did not capture: the settle would
change nothing.

Seeds that share a path.  The decision reach R (`Engine.decision_reach`)
is the set of nets that a decision can change: the injectable
destinations' outputs, closed forward through every gate and flop input.
`Engine.decisions_unseen` holds when R misses the observed cone.  R is
closed forward and the cone backward over the same pins, so that is when
no checker reads a net of R, neither one of its `nets` nor a reset of its
clocks' domains, and R holds no net that shapes a tick's opportunities:
no monitored crossing source, reset net or destination flop clock.  Then,
by the induction of explore.py's
Counted trees, every net outside R has the same value on every decision
path: each checker's samples, and each tick's opportunity list with each
opportunity's kind and its source's post-edge value, are those of any
other path.  A seed picks a path only through its decisions when the
stimulus has no `random` ports; a random port is driven by the seed's own
RNG, which moves nets outside R apart from seed to seed, so such a design
runs every seed.  Otherwise a seeded run draws from its RNG only at
opportunities, one draw each, in the order the run finds them.  So
`Engine.run_seeds` runs the ticks once.  With waves it runs the first
seed's, tracing every opportunity as the event that taking it gives, and
each later seed's events are the traced events that its own draws take,
with the first run's failures and decision count (without waves, see A
run that repeats).  With injection off there are no
opportunities, and every seed is the first seed's run.  A traced event's
`resolved` bit is `(post[src] >> bit & 1) ^ 1`: an injection inverts the
bit it captures, and it is the bit `(post[src] ^ flipped) >> bit & 1`
that a run records, because `flipped` holds that bit.

A run that repeats.  Without waves, seeds that share a path need of the
run only its verdicts and its opportunities, and those of the reference
path (no injection) serve: `run_seeds` traces that path, and every seed,
the first one too, draws over the trace.  Once the stimulus runs free,
after the last scheduled `set` (and there are no random ports), what a
tick does depends only on the state and on the tick modulo the
hyperperiod: the edge sets repeat, the hold lookahead reads `(phase -
tick) % period`, and no port moves.  So at a hyperperiod boundary B the
rest of the run is fixed by the state's key at B:
* the values of the observed cone's nets, which R misses (or, with
  injection off, which no decision moves) and which no net outside the
  cone feeds;
* each monitored net's flips that a tick at or after B can read, those at
  or after B - `setup_window`, as (B - tick, flipped bits);
* the checker states.
When the key at a boundary B' equals the key at an earlier boundary B,
the run from B' is the run from B shifted by P = B' - B, and so on to the
end: each opportunity of [B, B') recurs every P ticks.  The run stops
there and every seed draws over the trace, then over its repeats, built
only when taken (`_extend`); the decision count is the extended trace's
length.  Each verdict and first failure are those at B': a checker's
messages after B' repeat those it gave in [B, B'), so each has been
latched already, and the key needs no failures.  The run goes in steps
of whole hyperperiods, of at least `_REPEAT_TICKS` ticks, and compares
the key after each step with one saved key, replaced at power-of-two step
counts (Brent, "An improved Monte Carlo factorization algorithm", BIT
1980), so the search holds two keys whatever the run's length; a run of
fewer than two steps past its stimulus makes no search.  With waves every
tick is written, and the run goes to the end.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
from math import lcm
from operator import itemgetter
from types import FunctionType
from typing import NamedTuple

from .checkers import Checker, Verdict
from .constraints import ClockSpec
from .coverage import CoverageDb
from .domains import CdcPair, pairs_fingerprint
from .errors import ParseError, SimDivergence, StimulusOutOfRange
from .netlist import Const, Dff, Gate, Netlist
from .rules import Analysis
from .stimulus import Stimulus, run_clock_edges


@dataclass
class MsiConfig:
    enabled: bool = True
    probability: float = 0.5
    seed: int = 0


MAX_SEEDS = 1_000_000     # seeds one range may name
# fewest ticks between two checks for a repeat of a run's state: a check
# costs about as much as a tick of a small design
_REPEAT_TICKS = 32


def parse_seed_range(spec: str) -> list[int]:
    """Injection seeds of a range `a..b` (inclusive, a <= b), at most
    `MAX_SEEDS` of them, a bound checked before the list is built."""
    lo, _, hi = spec.partition("..")
    bad = f"bad seed range {spec!r}; use a..b with a <= b"
    try:
        first, last = int(lo), int(hi)
    except ValueError:
        raise ParseError(bad) from None
    if first > last:
        raise ParseError(bad)
    if last - first >= MAX_SEEDS:
        raise ParseError(f"seed range {spec!r} names more than {MAX_SEEDS:,} seeds")
    return list(range(first, last + 1))


class MsiEvent(NamedTuple):
    tick: int
    pair: str
    bit: int
    kind: str       # "setup" | "hold"
    resolved: int


class Opportunity(NamedTuple):
    pair: str
    dst: int
    src_net: int
    bit: int
    kind: str


@dataclass
class SimResult:
    frames: list[list[int]] | None  # values before `ticks`, then after each
    ticks: Sequence[int]            # the run's agenda
    events: list[MsiEvent]
    coverage: CoverageDb
    verdicts: list[Verdict]
    decisions: int


class _State:
    """What the next tick depends on, advanced in place by `commit_tick`:
    the net values (a commit replaces the list and writes none), each
    monitored net's recent flips as (tick, flipped bits), newest first, the
    checker states, the first failures and the decision count; and the
    engine's `_View` that its ticks evaluate, the observed cone's or every
    net's (module docstring, What a run evaluates)."""
    __slots__ = ("values", "hist", "checkers", "failures", "decisions", "view")

    def __init__(self, values, hist, checkers, failures, decisions, view):
        self.values, self.hist, self.checkers = values, hist, checkers
        self.failures, self.decisions, self.view = failures, decisions, view


class _Dst(NamedTuple):
    """A crossing destination flop, as a tick that edges it captures."""
    index: int
    out: int
    enable: int | None
    srcs: tuple[int, ...]           # its pairs' source nets, substituted
    # capture cone; None when it is srcs[0], and outside the observed cone
    # until the full evaluation compiles it
    kernel: object
    # its pairs by id, as (id, source net, mask of the pair's width, and the
    # source clock's phase and period: a port's are 0 and 1)
    pairs: tuple[tuple[str, int, int, int, int], ...]


class _EdgeSet(NamedTuple):
    """What a tick does that depends only on which clocks edge at it."""
    flops: tuple[tuple[int, int, int, int | None], ...]  # (index, out, data, enable)
    dsts: tuple[_Dst, ...]          # the crossing destinations edging, searched
    captures: tuple[_Dst, ...]      # those among its flops, which capture
    gated: tuple[int, ...]          # the gated flops and destinations among them
    comb: tuple                     # the gate kernels their outputs reach
    # the monitored nets the tick can change: those its flops' outputs
    # reach, and those they or the input ports reach
    scan: tuple[int, ...]
    scan_driven: tuple[int, ...]
    settle: bool                    # whether its flops' outputs reach a reset net
    # per edging clock with checkers: (clock, its resets as (net, active
    # value), (checker index, bound `sample`) of each checker sampling on it)
    checks: tuple[tuple[str, tuple[tuple[int, int], ...],
                        tuple[tuple[int, object], ...]], ...]


class _Agenda(Sequence):
    """The ticks at which some clock edges, up to the run's last tick `end`:
    those of one hyperperiod, `offsets`, repeated every `period` ticks.  It
    holds no list of the run's ticks."""
    __slots__ = ("offsets", "period", "end", "_len")

    def __init__(self, offsets: tuple[int, ...], period: int, end: int):
        self.offsets, self.period, self.end = offsets, period, end
        blocks, rest = divmod(end + 1, period)
        self._len = blocks * len(offsets) + bisect_left(offsets, rest)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> int:
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("agenda index out of range")
        block, k = divmod(i, len(self.offsets))
        return block * self.period + self.offsets[k]

    def __iter__(self):
        offsets, end = self.offsets, self.end
        for base in range(0, end + 1, self.period):
            for offset in offsets:
                if base + offset > end:
                    return
                yield base + offset

    def __eq__(self, other):
        return isinstance(other, Sequence) and len(self) == len(other) and \
            all(a == b for a, b in zip(self, other))

    __hash__ = None


class _TickPlan(NamedTuple):
    tick: int
    vals0: list[int]                # pre-edge values: the state's list unless written
    post: list[int]                 # vals0 with each edged flop's next value
    dsts: Sequence[_Dst]            # crossing destinations capturing (`captures`)
    opps: list[Opportunity]
    edges: _EdgeSet
    scan: Sequence[int]             # the monitored nets the tick can change


# -- compiled kernels ---------------------------------------------------------

_CHUNK = 256        # gates per exec'd function: bounds the compiler's memory
_SHARED = 4         # fewest gates of a run whose shape is compiled once for all
_TERMS = 64         # operands per statement: bounds the compiler's recursion
_CHAIN_OPS = {"AND": "&", "OR": "|", "XOR": "^", "CONCAT": "|"}


def _gate_code(nl: Netlist, g: Gate, ref, out: str | None = None) -> list[str]:
    """Statements that store the value of gate `g` in `out`, by default
    `w[g.out]`; `ref(net)` is the expression that reads a net."""
    out = out or f"w[{g.out}]"
    # constants in hex: `str` writes no int of more than 4300 decimal digits
    mask = hex((1 << g.width) - 1)
    ins = [ref(i) for i in g.inputs]
    if g.op == "NOT":
        return [f"{out} = ~{ins[0]} & {mask}"]
    if g.op == "BUF" or g.op == "SLICE" and not g.slice_lsb:
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
        terms = ins + [mask]
    elif g.op == "CONCAT":
        # each operand lands above the widths of the operands after it; a
        # run of n adjacent copies of one operand of width w is one term,
        # its value times the sum of 1 << i*w for i < n
        terms, shift = [], 0
        for net, run in groupby(reversed(g.inputs)):
            n = len(list(run))
            width = nl.nets[net].width
            m = hex((1 << width) - 1)
            term = f"({ref(net)} & {m})"
            if n > 1:
                term += f" * {hex(sum(1 << i * width for i in range(n)))}"
            elif not shift:
                term = f"{ref(net)} & {m}"
            terms.append(f"{term} << {shift}" if shift else term)
            shift += n * width
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


PORT_BIT = 1        # the activity bit of the input ports


class CombGroups(NamedTuple):
    """The gates of a netlist grouped by activity signature, each gate
    compiled once.  A net's signature holds PORT_BIT when an input port is
    in its fan-in, and the bit of each clock root with a flop in its fan-in
    (see `_activity`); a gate's is the OR of its inputs', so a gate's value
    can change only when a net with a bit of its signature does."""
    activity: list[int]     # signature per net
    # (signature, gate indices, run kernels, gates per kernel) per group, in
    # (popcount, signature) order: a gate's inputs have a subset of its
    # signature, so they come from its own group or an earlier one, and this
    # order is topological.  The kernels run the group's gates in order,
    # each the next `sizes[k]` of them
    groups: tuple[tuple[int, tuple[int, ...], tuple, tuple[int, ...]], ...]
    full: object            # `comb(v)`: every group in order

    def select(self, mask: int) -> tuple:
        """The kernels of the groups whose signature meets `mask`: run in
        order, in place on consistent values in which only nets whose
        signatures lie within `mask` changed, they make them consistent."""
        return tuple(chain.from_iterable(
            kernels for sig, _gates, kernels, _sizes in self.groups if sig & mask))


def _grouped(activity: list[int], groups: tuple) -> CombGroups:
    return CombGroups(activity, groups, _run_all(tuple(chain.from_iterable(
        kernels for _sig, _gates, kernels, _sizes in groups))))


def _joined(first: CombGroups, then: CombGroups) -> CombGroups:
    """The gates of `first` and of `then`, where no gate of `first` reads a
    net that a gate of `then` drives: in each group, `first`'s kernels run
    before `then`'s, which is topological."""
    merged: dict[int, tuple] = {}
    for sig, gates, kernels, sizes in chain(first.groups, then.groups):
        had = merged.get(sig)
        merged[sig] = (sig, gates, kernels, sizes) if had is None else \
            (sig, had[1] + gates, had[2] + kernels, had[3] + sizes)
    return _grouped(first.activity, tuple(
        merged[sig] for sig in sorted(merged, key=lambda sig: (sig.bit_count(), sig))))


def _activity(nl: Netlist) -> list[int]:
    """The activity signature of each net, computed once per netlist.  An
    input port carries PORT_BIT.  A flop output carries one bit per clock
    root, where a root is the set of input ports in the fan-in of the
    flop's clock: the netlist alone tells it, so the kernels can be cached
    on the netlist, and flops of one declared clock share it unless a port
    gates their clock.  Consts, black-box outputs and undriven nets never
    change and carry 0."""
    sig = nl.kernels.get("activity")
    if sig is not None:
        return sig
    sig = nl.kernels["activity"] = [0] * len(nl.nets)
    for p in nl.ports:
        if p.direction == "in":
            sig[p.net] = PORT_BIT
    roots: dict[tuple[int, ...], int] = {}
    for c in nl.cells:
        if isinstance(c, Dff):
            root = tuple(i for kind, i, _pin in nl.fanin_cone(c.clock).seq
                         if kind == "port")
            sig[c.out] = roots.setdefault(root, PORT_BIT << len(roots) + 1)
    for i in nl.comb_topo():
        g = nl.cells[i]
        s = 0
        for net in g.inputs:
            s |= sig[net]
        sig[g.out] = s
    return sig


def _run_all(kernels: tuple):
    def comb(v):
        for kernel in kernels:
            kernel(v)
    return comb


def _runs(nl: Netlist, gates: list[int]) -> list[list[int]]:
    """`gates` cut, in order, into runs of consecutive gates of one
    instance (the gate name up to its last '.'), at most _CHUNK each."""
    runs: list[list[int]] = []
    owner = None
    for i in gates:
        name = nl.cells[i].name
        here = name[:name.rfind(".") + 1]
        if here != owner or len(runs[-1]) == _CHUNK:
            owner = here
            runs.append([])
        runs[-1].append(i)
    return runs


def _shape(nl: Netlist, run: list[int]) -> tuple[tuple, tuple[int, ...]]:
    """The shape of a run of gates, and its nets in order of first
    appearance.  Two runs of one shape compile to the same code but for the
    nets, numbered as they appear: the same ops, widths, slices, CONCAT
    operand widths and wiring, so two operands tied to one net make
    another shape than two nets do."""
    nets = nl.nets
    local: dict[int, int] = {}
    number = local.setdefault
    key = []
    for i in run:
        g = nl.cells[i]
        key.append((g.op, g.width, g.slice_lsb,
                    tuple([nets[n].width for n in g.inputs]) if g.op == "CONCAT" else (),
                    tuple([number(n, len(local)) for n in g.inputs]),
                    number(g.out, len(local))))
    return tuple(key), tuple(local)


def _bound(template, name: str, nets: tuple[int, ...]):
    """The kernel `template`, compiled with the string constant 'n<j>' in
    place of its j-th net, with `nets` in their places: the function that
    compiling it with those nets as constants gives, without a compile."""
    code = template.__code__
    consts = tuple(nets[int(c[1:])] if isinstance(c, str) else c for c in code.co_consts)
    return FunctionType(code.replace(co_consts=consts, co_name=name),
                        template.__globals__, name)


def _compile_comb(nl: Netlist, gates: Sequence[int]) -> CombGroups:
    """The gates `gates`, in topological order, grouped and compiled."""
    activity = _activity(nl)
    members: dict[int, list[int]] = {}
    for i in gates:
        members.setdefault(activity[nl.cells[i].out], []).append(i)
    order = sorted(members, key=lambda sig: (sig.bit_count(), sig))

    # Each group's gates in runs (see `_runs`).  A shape met more than once
    # (the same module's gates in another instance) is compiled once, into
    # `shape<j>(v)` with placeholders for its nets, and each of its runs is
    # a kernel of its own, bound to the run's nets by `_bound`.  A run of
    # fewer than _SHARED gates is not worth a call of its own in every pass.
    # Those runs and the runs of a shape met once are compiled with their
    # nets as constants, consecutive ones together, in functions
    # `comb<sig>_<k>(v)` of at most _CHUNK gates.  One statement per gate;
    # the sources are compiled one by one, as one compile of them all is
    # slower
    runs = {sig: [(run, *_shape(nl, run)) if len(run) >= _SHARED else (run, None, ())
                  for run in _runs(nl, members[sig])]
            for sig in order}
    first: dict[tuple, tuple[list[int], tuple[int, ...]]] = {}
    shared: dict[tuple, str] = {}
    for sig in order:
        for run, key, nets in runs[sig]:
            if key is not None and first.setdefault(key, (run, nets))[0] is not run:
                shared.setdefault(key, f"shape{len(shared)}")
    sources = []
    for key, name in shared.items():
        run, nets = first[key]
        local = {net: f"'n{j}'" for j, net in enumerate(nets)}
        sources.append(_define(name, "v", ["w = v"] + [
            line for i in run
            for line in _gate_code(nl, nl.cells[i], lambda net: f"v[{local[net]}]",
                                   f"w[{local[nl.cells[i].out]}]")]))
    # per group, its kernels as [name, shape or None, nets, gates]
    parts: dict[int, list[list]] = {sig: [] for sig in order}
    for sig in order:
        kernels = parts[sig]
        for run, key, nets in runs[sig]:
            shape = shared.get(key)
            if (shape is None and kernels and kernels[-1][1] is None
                    and len(kernels[-1][3]) + len(run) <= _CHUNK):
                kernels[-1][3] += run
            else:
                kernels.append([f"comb{sig}_{len(kernels)}", shape, nets, list(run)])
        sources += [_define(name, "v", ["w = v"] + [
            line for i in gates
            for line in _gate_code(nl, nl.cells[i], lambda net: f"v[{net}]")])
            for name, shape, _nets, gates in kernels if shape is None]
    ns = _compile(sources, "comb")
    groups = tuple((sig, tuple(members[sig]),
                    tuple(ns[name] if shape is None else _bound(ns[shape], name, nets)
                          for name, shape, nets, _gates in parts[sig]),
                    tuple(len(gates) for *_rest, gates in parts[sig]))
                   for sig in order)
    # the kernels read no global name, so their namespace, which holds
    # them and is their globals, is emptied: no reference cycle is left
    ns.clear()
    return _grouped(activity, groups)


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


def comb_groups(nl: Netlist, gates: Sequence[int] | None = None) -> CombGroups:
    """The grouped kernels of `gates`, in topological order (by default
    every gate of `nl`), compiled once per netlist."""
    key = ("comb", tuple(nl.comb_topo() if gates is None else gates))
    k = nl.kernels.get(key)
    if k is None:
        k = nl.kernels[key] = _compile_comb(nl, key[1])
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


def _capture(vals0: list[int], post: list[int], final: list[int],
             flips: dict[tuple[int, int], int] | None, dsts: Sequence[_Dst]):
    """Write into `final` what each destination of `dsts` captures from the
    tick's pre-edge values `vals0` and its sources' values in `post`, with
    the bits of `flips`, per (dst, source net), inverted; None inverts
    none."""
    for index, out, enable, srcs, kernel, _pairs in dsts:
        if kernel is None:      # captures its one source as it is
            value = post[srcs[0]]
            final[out] = value ^ flips.get((index, srcs[0]), 0) if flips else value
            continue
        if flips:
            subs = [post[s] ^ flips.get((index, s), 0) for s in srcs]
        else:
            subs = [post[s] for s in srcs]
        if enable is None:
            final[out] = kernel(vals0, *subs)
        else:
            enabled, data = kernel(vals0, *subs)
            final[out] = data if enabled & 1 else vals0[out]


def _values_of(nets: Sequence[int]):
    """The function that gives the values of `nets` in a values list, as a
    tuple."""
    if len(nets) > 1:
        return itemgetter(*nets)
    return lambda values: tuple([values[n] for n in nets])


class _View(NamedTuple):
    """What the ticks of a run evaluate: the observed cone's flops and
    gates, or every net's (module docstring, What a run evaluates)."""
    groups: CombGroups              # its gates
    port_comb: tuple                # the kernels of those the input ports reach
    # (flop, out, reset net, active value, reset value) of each flop whose
    # reset it settles: its own and the crossing destinations
    resets: tuple[tuple[int, int, int, int, int], ...]
    edge_set: dict[int, _EdgeSet]   # tick modulo the hyperperiod -> its edge set
    observed: object                # `Engine.observed_values`, for the merge key

    def __deepcopy__(self, memo):
        return self         # the engine's, shared by every state of it

    def settle_resets(self, values: list[int]) -> set[int]:
        """Force every flop whose async reset is active to its reset value,
        in place, until no reset changes; returns the flops held in reset.
        The engine enters it only when a reset net is at its active value.

        Reset networks may themselves be driven by flops being reset, so a
        reset can assert partway through.  A pass only ever moves flops to
        their reset values, so len(flops with a reset) + 1 passes always
        settle.
        """
        held: set[int] = set()
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
            self.groups.full(values)
        return held


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

        def out_of_range(line: int, message: str) -> StimulusOutOfRange:
            return StimulusOutOfRange(f"{stimulus.origin}:{line}:0: {message}")

        self.clocks: dict[str, ClockSpec] = {c.name: c for c in cs.clocks}
        run_clock = self.clocks.get(stimulus.run_clock)
        if run_clock is None:
            raise out_of_range(stimulus.run_line,
                               f"run clock {stimulus.run_clock!r} is not declared")
        self.end_tick = run_clock.edge_tick(stimulus.run_edges - 1)
        self.edges_per_clock = run_clock_edges(stimulus, cs.clocks, self.end_tick)
        # the clocks that edge at each tick of one hyperperiod, bit i for
        # cs.clocks[i].  A clock edges at its phase plus each multiple of
        # its period, and 0 <= phase < period, so the pattern repeats every
        # hyperperiod from tick 0; a run shorter than one is one block
        self.hyperperiod = lcm(*(c.period for c in cs.clocks))
        self.edge_mask: dict[int, int] = {}
        for bit, c in enumerate(cs.clocks):
            for t in range(c.phase, min(self.hyperperiod, self.end_tick + 1), c.period):
                self.edge_mask[t] = self.edge_mask.get(t, 0) | 1 << bit
        self.agenda = _Agenda(tuple(sorted(self.edge_mask)), self.hyperperiod, self.end_tick)

        # port driving
        self.port_net = {p.name: p.net for p in self.nl.ports if p.direction == "in"}
        self.sets_at: dict[int, list[tuple[int, int]]] = {}
        self.port_schedule: dict[int, list[tuple[int, int]]] = {}
        for s in stimulus.sets:
            spec = self.clocks.get(s.clock)
            if spec is None:
                raise out_of_range(s.line, f"stimulus clock {s.clock!r} is not declared")
            if s.port not in self.port_net:
                raise out_of_range(s.line, f"stimulus port {s.port!r} is not an input")
            tick = spec.edge_tick(s.edge)
            if tick > self.end_tick:
                raise out_of_range(
                    s.line, f"stimulus at {s.clock} edge {s.edge} lands after the run ends")
            net = self.port_net[s.port]
            width = self.nl.nets[net].width
            if s.value >= (1 << width):
                raise out_of_range(s.line, f"value for {s.port!r} exceeds {width} bits")
            self.sets_at.setdefault(tick, []).append((net, s.value))
            self.port_schedule.setdefault(net, []).append((tick, s.value))
        for sched in self.port_schedule.values():
            sched.sort()
        # the first hyperperiod boundary after every scheduled set, from
        # which the stimulus runs free, and the whole hyperperiods between
        # two checks for a repeat of the run's state from there
        self.free_from = (max(self.sets_at, default=-1) // self.hyperperiod + 1) \
            * self.hyperperiod
        self.repeat_step = self.hyperperiod * -(-_REPEAT_TICKS // len(self.agenda.offsets))
        self.random_driver = stimulus.random
        self.random_nets: list[int] = []
        if self.random_driver:
            line = self.random_driver.line
            for p in self.random_driver.ports:
                if p not in self.port_net:
                    raise out_of_range(line, f"random port {p!r} is not an input")
                if self.nl.nets[self.port_net[p]].width != 1:
                    raise out_of_range(line, f"random port {p!r} must be 1 bit wide")
                self.random_nets.append(self.port_net[p])

        # flop clocking: root clock and gating condition
        self.flops = self.nl.dffs()
        self.flop_root = analysis.domains.clock_root   # flop -> root clock name
        self.root_net = {f.index: self.nl.net_index[self.flop_root[f.index]]
                         for f in self.flops}

        # crossing bookkeeping (suppressed pairs are fully ignored)
        self.pairs = [p for p in analysis.pairs if p.suppressed is None]
        pairs_by_dst: dict[int, list[CdcPair]] = {}
        for p in self.pairs:
            pairs_by_dst.setdefault(p.dst, []).append(p)
        self.monitored = sorted({p.src_net for p in self.pairs})
        # crossing source net -> its flop, and that flop's root clock phase
        # and period
        self.src_flop: dict[int, tuple[Dff, int, int]] = {}
        for p in self.pairs:
            if p.src[0] == "cell" and isinstance(self.nl.cells[p.src[1]], Dff):
                f = self.nl.cells[p.src[1]]
                spec = self.clocks[self.flop_root[f.index]]
                self.src_flop[p.src_net] = (f, spec.phase, spec.period)
        srcs_of = {dst: tuple(dict.fromkeys(p.src_net for p in plist))
                   for dst, plist in pairs_by_dst.items()}
        # the sources of each destination that captures through a kernel:
        # one with an enable, or whose data net is not its only source
        self.capture_srcs = {dst: srcs for dst, srcs in srcs_of.items()
                             if self.nl.cells[dst].enable is not None
                             or srcs != (self.nl.cells[dst].data,)}
        # compiled on first need by `_view`: the kernel of each gated flop
        # clock with its root substituted, and each destination's capture
        self.clock_cone: dict[int, object] = {}
        self.dsts: dict[int, _Dst] = {
            dst: _Dst(dst, self.nl.cells[dst].out, self.nl.cells[dst].enable, srcs, None,
                      tuple((p.id, p.src_net, (1 << p.width) - 1,
                             *self.src_flop.get(p.src_net, (None, 0, 1))[1:])
                            for p in sorted(pairs_by_dst[dst], key=lambda p: p.id)))
            for dst, srcs in srcs_of.items()}

        self.reset_nets = tuple(dict.fromkeys(
            (f.reset, 0 if f.reset_active_low else 1) for f in self.flops
            if f.reset is not None))
        self.checkers = checkers
        # per clock: its domain's resets as (net, active value), which
        # disable the checkers sampling on it
        self.clock_resets = {
            c.name: tuple((self.nl.net_index[r.net], int(not r.active_low))
                          for r in cs.clock_resets(c.name))
            for c in cs.clocks}
        # the checkers sampling on each clock.  Their `sample` methods are
        # bound here, per engine, so one replaced on its class before the
        # engine is made is the one called
        self.sampling: dict[str, list[tuple[int, object]]] = {}
        for ci, c in enumerate(checkers):
            for clk in c.clocks:
                self.sampling.setdefault(clk, []).append((ci, c.sample))

        # what a run without waves evaluates: the observed cone, whose
        # values are all of the state's values that a repeat's key and a
        # merge key hold
        nl = self.nl
        self.observed = self._observed_cone()
        self.observed_values = _values_of(sorted(self.observed))
        self.view = self._view(
            [f for f in self.flops if f.out in self.observed],
            comb_groups(nl, [i for i in nl.comb_topo() if nl.cells[i].out in self.observed]))
        self.fingerprint = pairs_fingerprint(analysis.pairs)

    def _observed_cone(self) -> frozenset[int]:
        """The nets that the verdicts, events, coverage and decision count
        of a run read (module docstring, What a run evaluates): the roots,
        each checker's `nets` and its clocks' domain resets, the monitored
        crossing sources, the reset nets and each destination flop's
        clock, closed backward over gate inputs and over each flop's data,
        enable, clock and reset.  A black box's outputs never change."""
        nl = self.nl
        todo = [net for c in self.checkers for net in c.nets]
        todo += [net for c in self.checkers for clk in c.clocks
                 for net, _active in self.clock_resets[clk]]
        todo += self.monitored
        todo += [net for net, _active in self.reset_nets]
        todo += [nl.cells[i].clock for i in self.dsts]
        cone: set[int] = set()
        while todo:
            net = todo.pop()
            if net in cone:
                continue
            cone.add(net)
            drv = nl.nets[net].driver
            if drv is not None and drv[0] == "cell":
                c = nl.cells[drv[1]]
                if isinstance(c, Gate):
                    todo.extend(c.inputs)
                elif isinstance(c, Dff):
                    todo += [n for n in (c.data, c.enable, c.clock, c.reset) if n is not None]
        return frozenset(cone)

    @cached_property
    def full_view(self) -> _View:
        """The view of every net, which a run with waves evaluates, built on
        its first need: the observed cone's kernels, then those of the gates
        outside it, compiled now, in each activity group.  No gate of the
        cone reads a net outside it, so that order is topological."""
        nl = self.nl
        rest = [i for i in nl.comb_topo() if nl.cells[i].out not in self.observed]
        if not rest and all(f.out in self.observed for f in self.flops):
            return self.view
        return self._view(self.flops, _joined(self.view.groups, comb_groups(nl, rest))
                          if rest else self.view.groups)

    def _view(self, flops: Sequence[Dff], groups: CombGroups) -> _View:
        """The view that evaluates `flops` and the gates of `groups`, which
        hold every flop and gate that those read.  Its ticks search every
        crossing destination for opportunities and settle and check the
        reset and gated clock of each, which decide whether it edges, but
        capture only those among `flops`.  The clock and capture kernels it
        needs that are not compiled yet are compiled together."""
        nl = self.nl
        inside = {f.index for f in flops}
        clocked = [f for f in self.flops if f.index in inside or f.index in self.dsts]
        gated = [f for f in clocked if f.clock != self.root_net[f.index]
                 and f.index not in self.clock_cone]
        captured = [i for i in self.capture_srcs
                    if i in inside and self.dsts[i].kernel is None]
        kernels = cone_kernels(nl, [((f.clock,), (self.root_net[f.index],)) for f in gated] + [
            ((nl.cells[i].data,) if nl.cells[i].enable is None
             else (nl.cells[i].enable, nl.cells[i].data), self.capture_srcs[i])
            for i in captured])
        self.clock_cone.update(zip((f.index for f in gated), kernels))
        for i, kernel in zip(captured, kernels[len(gated):]):
            self.dsts[i] = self.dsts[i]._replace(kernel=kernel)
        # one schedule per distinct set of clocks that edge together
        edge_sets = {m: self._edge_set(m, inside, groups)
                     for m in sorted(set(self.edge_mask.values()))}
        return _View(
            groups, groups.select(PORT_BIT),
            tuple((f.index, f.out, f.reset, 0 if f.reset_active_low else 1, f.reset_value)
                  for f in clocked if f.reset is not None),
            {t: edge_sets[m] for t, m in sorted(self.edge_mask.items())},
            self.observed_values)

    def _edge_set(self, mask: int, inside: set[int], groups: CombGroups) -> _EdgeSet:
        """The schedule of a tick at which the clocks of `mask` edge, bit i
        for the i-th declared clock, in the view of the flops `inside`."""
        clocks = [c.name for bit, c in enumerate(self.a.constraints.clocks) if mask >> bit & 1]
        edging = [f for f in self.flops if self.flop_root[f.index] in clocks]
        flops = tuple((f.index, f.out, f.data, f.enable) for f in edging if f.index in inside)
        activity = groups.activity
        reach = 0
        for _i, out, _data, _enable in flops:
            reach |= activity[out]
        dsts = tuple(self.dsts[f.index] for f in edging if f.index in self.dsts)
        captures = tuple(d for d in dsts if d.index in inside)
        return _EdgeSet(
            flops, dsts, dsts if len(captures) == len(dsts) else captures,
            tuple(f.index for f in edging if f.index in self.clock_cone
                  and (f.index in inside or f.index in self.dsts)),
            groups.select(reach),
            tuple(n for n in self.monitored if activity[n] & reach),
            tuple(n for n in self.monitored if activity[n] & (reach | PORT_BIT)),
            any(activity[net] & reach for net, _active in self.reset_nets),
            tuple((clk, self.clock_resets[clk], tuple(self.sampling[clk]))
                  for clk in clocks if clk in self.sampling))

    # -- state & evaluation helpers --

    def initial_state(self, waves: bool = False) -> _State:
        """The state before the first tick, in the view of a run with
        `waves` (every net) or of one without (the observed cone)."""
        view = self.full_view if waves else self.view
        values = [0] * len(self.nl.nets)
        for c in self.nl.cells:
            if isinstance(c, Dff):
                values[c.out] = c.reset_value
            elif isinstance(c, Const):
                values[c.out] = c.value
        view.groups.full(values)
        return _State(values, dict.fromkeys(self.monitored, ()),
                      [c.start for c in self.checkers],
                      [None] * len(self.checkers), 0, view)

    def _rises(self, flop: int, values: list[int]) -> bool:
        """Whether a gated flop clock rises with its root clock."""
        clock = self.clock_cone[flop]
        return (clock(values, 0) & 1) == 0 and (clock(values, 1) & 1) == 1

    @cached_property
    def decision_reach(self) -> frozenset[int]:
        """The nets that a decision can change: the injectable destinations'
        outputs, closed forward through every gate and flop input.  A black
        box's outputs never change."""
        nl = self.nl
        reach: set[int] = set()
        todo = [d.out for d in self.dsts.values()]
        while todo:
            net = todo.pop()
            if net not in reach:
                reach.add(net)
                todo.extend(nl.cells[i].out for kind, i, _pin in nl.nets[net].readers
                            if kind == "cell" and isinstance(nl.cells[i], (Gate, Dff)))
        return frozenset(reach)

    def decisions_unseen(self) -> bool:
        """Whether the decision reach misses the observed cone, so that
        every path shares the values of every net outside the reach (module
        docstring, Seeds that share a path)."""
        return self.decision_reach.isdisjoint(self.observed)

    def _repeat_rest(self, state: _State, boundary: int) -> tuple:
        """What a repeat compares at the hyperperiod boundary `boundary`
        besides the observed cone's values: each monitored net's flips that
        a tick at or after it can read, as (boundary - tick, flipped bits),
        and the checker states."""
        horizon = boundary - self.setup_window
        return (tuple(tuple((boundary - t, flipped) for t, flipped in state.hist[n]
                            if t >= horizon) for n in self.monitored),
                tuple(state.checkers))

    # -- tick planning / committing --

    def _drive(self, values: list[int], tick: int, rng: random.Random | None,
               port_comb: tuple) -> list[int]:
        """`values` with the ports the tick moves moved: its scheduled sets
        and, with `rng`, the random port toggles, each port drawn whether or
        not the view reads it.  When some port moves this is a copy with
        the gates the input ports reach re-evaluated by `port_comb`, else
        `values` itself."""
        vals0 = values
        for net, value in self.sets_at.get(tick, ()):
            if vals0[net] != value:
                if vals0 is values:
                    vals0 = values[:]
                vals0[net] = value
        if self.random_nets and rng is not None:
            probability = self.random_driver.probability
            for net in self.random_nets:
                if rng.random() < probability:
                    if vals0 is values:
                        vals0 = values[:]
                    vals0[net] ^= 1
        if vals0 is not values:
            for kernel in port_comb:
                kernel(vals0)
        return vals0

    def plan_tick(self, state: _State, tick: int,
                  rng: random.Random | None = None) -> _TickPlan:
        """The tick's pre-edge values, captures and opportunities; `rng`
        drives the random stimulus ports, which stay still without it.  The
        pre-edge values are the state's own list unless the tick writes them
        (a port moves, or a reset is active): then they are a copy.  The
        state's view decides what the tick evaluates."""
        view = state.view
        vals0 = state.values
        if tick in self.sets_at or self.random_nets and rng is not None:
            vals0 = self._drive(vals0, tick, rng, view.port_comb)
        driven = vals0 is not state.values

        edges = view.edge_set[tick % self.hyperperiod]
        # flops held in reset, and gated flops whose clock does not rise,
        # do not capture
        skip = ()
        for net, active in self.reset_nets:
            if vals0[net] & 1 == active:
                if not driven:
                    vals0 = vals0[:]
                skip = view.settle_resets(vals0)
                break
        # the monitored nets that can differ from the state's after the
        # tick: a reset may have moved any flop
        scan = self.monitored if skip else \
            edges.scan_driven if driven else edges.scan
        for i in edges.gated:
            if i not in skip and not self._rises(i, vals0):
                skip = {i, *skip}
        flops, dsts, captures = edges.flops, edges.dsts, edges.captures
        if skip:
            flops = [f for f in flops if f[0] not in skip]
            dsts = [d for d in dsts if d.index not in skip]
            captures = [d for d in captures if d.index not in skip]
        post = vals0[:]
        for _i, out, data, enable in flops:
            if enable is None or vals0[enable] & 1:
                post[out] = vals0[data]

        opps: list[Opportunity] = []
        if self.msi.enabled and dsts:
            old, hists = state.values, state.hist
            recent = tick - self.setup_window
            lookahead: list[list[int]] = []     # made on first need
            new = tuple.__new__
            for dst in dsts:
                index = dst.index
                for pid, src, full, phase, period in dst.pairs:
                    # the bits that flipped now or within the setup window,
                    # then those a hold lookahead sees flip, lowest first; it
                    # looks only when the source's next edge strictly after
                    # this tick is within the hold window (phase < period)
                    setup = post[src] ^ old[src]
                    for t, flipped in hists[src]:
                        if t < recent:
                            break
                        setup |= flipped
                    bits = setup & full
                    if bits != full and \
                            ((phase - tick) % period or period) <= self.hold_window:
                        bits |= self._hold_toggles(src, tick, post, edges,
                                                   lookahead) & full
                    while bits:
                        low = bits & -bits
                        opps.append(new(Opportunity, (
                            pid, index, src, low.bit_length() - 1,
                            "setup" if setup & low else "hold")))
                        bits ^= low
        return tuple.__new__(_TickPlan, (tick, vals0, post, captures, opps, edges, scan))

    def _hold_toggles(self, src: int, tick: int, post: list[int],
                      edges: _EdgeSet, lookahead: list[list[int]]) -> int:
        """Bits of crossing source net `src` that a source-domain edge within
        `hold_window` ticks after this one will flip, for a source whose
        clock edges within that window (the opportunity search tests that
        first).  `lookahead` holds the values after the flops of this tick's
        `edges` capture once a pair of the tick has needed them."""
        src_flop = self.src_flop.get(src)
        if src_flop is not None:
            f = src_flop[0]
            if not lookahead:
                lookahead.append(post[:])
                for kernel in edges.comb:
                    kernel(lookahead[0])
            nxt = lookahead[0]
            if f.reset is not None:
                v = nxt[f.reset] & 1
                if (v == 0) if f.reset_active_low else (v == 1):
                    return 0
            if f.index in self.clock_cone and not self._rises(f.index, nxt):
                return 0
            if f.enable is not None and (nxt[f.enable] & 1) == 0:
                return 0
            return nxt[f.data] ^ post[src]
        # port source: consult the stimulus schedule
        cur = post[src]
        for t, v in self.port_schedule.get(src, ()):
            if tick < t <= tick + self.hold_window:
                return v ^ cur
            if t > tick + self.hold_window:
                break
        return 0

    def commit_tick(self, state: _State, plan: _TickPlan,
                    decisions: Sequence[bool]) -> tuple[_State, list[MsiEvent]]:
        """Write the tick into `state`, with one decision per opportunity, and
        return it with the injections taken.  Its values become a new list,
        a copy of the plan's `post`, so one plan serves several commits."""
        tick, vals0, post, dsts, opps, edges, scan = plan
        assert len(decisions) == len(opps)
        state.decisions += len(opps)

        # the injected bits per (dst, src_net); a bit that two pairs on one
        # source net both take is injected once
        flips: dict[tuple[int, int], int] = {}
        events: list[MsiEvent] = []
        for opp, take in zip(opps, decisions) if any(decisions) else ():
            if take:
                key = (opp.dst, opp.src_net)
                flips[key] = flipped = flips.get(key, 0) | 1 << opp.bit
                events.append(tuple.__new__(MsiEvent, (tick, opp.pair, opp.bit, opp.kind,
                                            (post[opp.src_net] ^ flipped) >> opp.bit & 1)))

        final = post[:]
        if dsts:
            _capture(vals0, post, final, flips, dsts)
        if final != vals0:      # settled values need no re-evaluation
            for kernel in edges.comb:
                kernel(final)
        if edges.settle:
            for net, active in self.reset_nets:
                if final[net] & 1 == active:
                    state.view.settle_resets(final)
                    scan = self.monitored
                    break

        # each changed monitored net gets an entry of its flipped bits, and
        # loses those no later tick reads: a tick reads the flips at or
        # after it less `setup_window`
        old = state.values
        hist = state.hist
        horizon = tick - self.setup_window
        for n in scan:
            if final[n] != old[n]:
                entries = hist[n]
                for k, (t, _flipped) in enumerate(entries):
                    if t <= horizon:
                        entries = entries[:k]
                        break
                hist[n] = ((tick, final[n] ^ old[n]),) + entries
        state.values = final

        checkers, failures = state.checkers, state.failures
        get = final.__getitem__
        for clk, resets, sampling in edges.checks:
            in_reset = False
            for n, active in resets:
                if final[n] & 1 == active:
                    in_reset = True
                    break
            for ci, sample in sampling:
                checkers[ci], message = sample(checkers[ci], clk, get, in_reset)
                if message is not None and failures[ci] is None:
                    failures[ci] = (tick, message)
        return state, events

    # -- drivers --

    def run(self, path: Sequence[bool] | None = None, waves: bool = True,
            seed: int | None = None) -> SimResult:
        """One recorded run.  Without `path` an RNG seeded with `seed`
        (`msi.seed` by default) draws every decision and drives the random
        stimulus ports.  With a `path`, even an empty one, opportunity i
        takes `path[i]`, those past the end of `path` keep the reference
        value, and the random ports stay still.  With `waves` the run
        evaluates every net and the result keeps as frames the values list
        of every tick, which no tick writes once a state holds it; without,
        it evaluates the observed cone, its frames are None and its events,
        verdicts and coverage are the same.  The ticks run in one fused
        loop body (`_fused`), which makes no `plan_tick` or `commit_tick`
        call."""
        if seed is None:
            seed = self.msi.seed
        rng = random.Random(seed) if path is None else None
        state = self.initial_state(waves)
        frames = [state.values] if waves else None
        state, events = self._fused(state, rng, path, frames)
        return self._finish(state, events, frames, seed if rng is not None else None)

    def run_seeds(self, seeds: Sequence[int], waves: bool = True):
        """Yield, in order, the result that `run(seed=s, waves=...)` gives
        for each seed of `seeds`, with waves for the first seed only.  When
        the seeds share a path (module docstring) their ticks run once:
        with waves, the first seed's run traces every opportunity it finds,
        and each later seed takes, of that trace, those its own RNG's draws
        take; without, the reference path's run traces them, up to the end
        or to a repeat of its state (`_reference_trace`), and every seed
        draws over that trace."""
        stops = not waves and \
            self.end_tick + 1 - self.free_from >= 2 * self.repeat_step
        if len(seeds) < (1 if stops else 2) or self.random_nets or \
                self.msi.enabled and not self.decisions_unseen():
            for k, seed in enumerate(seeds):
                yield self.run(waves=waves and not k, seed=seed)
            return
        trace: list[MsiEvent] = []
        if waves:
            state = self.initial_state(True)
            frames = [state.values]
            state, events = self._fused(state, random.Random(seeds[0]), None, frames, trace)
            yield self._finish(state, events, frames, seeds[0])
            seeds, repeat = seeds[1:], None
        else:
            state, repeat = self._reference_trace(trace, stops)
        probability = self.msi.probability
        for seed in seeds:
            draw = random.Random(seed).random
            events = [e for e in trace if draw() < probability]
            if repeat is not None:
                self._extend(events, *repeat, draw)
            yield self._finish(state, events, None, seed)

    def _reference_trace(self, trace: list[MsiEvent], stops: bool,
                         ) -> tuple[_State, tuple[list[MsiEvent], int] | None]:
        """Run the reference path, appending each opportunity it finds to
        `trace` as the event that taking it gives, and return its state at
        the end of the run, or at a repeat (module docstring, A run that
        repeats) when `stops`.  Then the state's decision count is the
        whole run's, and the second value is (segment, P): the trace's
        last P ticks, which repeat every P ticks to the end of the run;
        else it is None.

        From the first hyperperiod boundary at which the stimulus runs free
        the run goes `repeat_step` ticks at a time, and after each step its
        state is compared with one saved state, which is replaced at the
        power-of-two step counts (Brent's cycle detection), so the search
        keeps two states whatever the run's length."""
        state = self.initial_state()
        if not stops:
            self._fused(state, None, (), None, trace)
            return state, None
        period, end = self.repeat_step, self.end_tick
        base = self.free_from
        self._fused(state, None, (), None, trace, 0, base)
        values, rest = self.observed_values, self._repeat_rest
        # the saved key, its values and the rest, with its boundary and the
        # trace's length there
        saved = (values(state.values), rest(state, base), base, len(trace))
        power = blocks = 1
        while base + 2 * period <= end + 1:
            self._fused(state, None, (), None, trace, base, base + period)
            base += period
            now = values(state.values)
            if now == saved[0] and rest(state, base) == saved[1]:
                segment, repeat = trace[saved[3]:], base - saved[2]
                state.decisions += sum((end - e.tick) // repeat for e in segment)
                return state, (segment, repeat)
            if blocks == power:
                saved = (now, rest(state, base), base, len(trace))
                power *= 2
                blocks = 0
            blocks += 1
        self._fused(state, None, (), None, trace, base)
        return state, None

    def _extend(self, events: list[MsiEvent], segment: list[MsiEvent], repeat: int,
                draw):
        """Append to `events` those of the repeats of `segment`, every
        `repeat` ticks up to the end of the run, that `draw` takes, one draw
        per opportunity in tick order; only a taken event is built."""
        end, probability, new = self.end_tick, self.msi.probability, tuple.__new__
        shift = repeat
        while segment and segment[0].tick + shift <= end:
            for e in segment:
                tick = e.tick + shift
                if tick > end:
                    break
                if draw() < probability:
                    events.append(new(MsiEvent, (tick, *e[1:])))
            shift += repeat

    def _fused(self, state: _State, rng: random.Random | None,
               path: Sequence[bool] | None, frames: list[list[int]] | None,
               trace: list[MsiEvent] | None = None, start: int = 0,
               stop: int | None = None) -> tuple[_State, list[MsiEvent]]:
        """The run's ticks from `state`, those at or after `start`, a
        multiple of the hyperperiod, and before `stop` (by default every
        one), each the work of a `plan_tick` and a `commit_tick` in one loop
        body; returns the state and the events.
        Each decision is drawn from `rng`, or read from `path`, as its
        opportunity is found, after the random port toggles: the order in
        which a plan lists them.  With `trace`, each opportunity found is
        appended to it as the event that taking it gives, and a decision
        that takes it appends that same event to the events.  It builds no
        plan, decision list or per-tick injection record; a tick with no
        crossing destination capturing commits into its `post` list, which
        no other commit shares.  What only some ticks do is left to the
        helpers that the steps call too."""
        values, hist = state.values, state.hist
        checkers, failures = state.checkers, state.failures
        view = state.view
        phases, hyper = tuple(view.edge_set.items()), self.hyperperiod
        sets_at, port_comb = self.sets_at, view.port_comb
        stop = self.end_tick + 1 if stop is None else min(stop, self.end_tick + 1)
        drive, settle_resets = self._drive, view.settle_resets
        rises, hold_toggles = self._rises, self._hold_toggles
        reset_nets, monitored = self.reset_nets, self.monitored
        setup_window, hold_window = self.setup_window, self.hold_window
        inject, probability = self.msi.enabled, self.msi.probability
        moving = bool(self.random_nets) and rng is not None    # ports may move every tick
        draw = rng.random if rng is not None else None
        given = len(path) if path is not None else 0
        decided = state.decisions
        events: list[MsiEvent] = []
        new = tuple.__new__
        for base in range(start, stop, hyper):
            for offset, edges in (phases if base + hyper <= stop else
                                  [p for p in phases if base + p[0] < stop]):
                tick = base + offset
                # the plan: drive the ports, settle an active reset, edge the flops
                vals0 = drive(values, tick, rng, port_comb) if moving or tick in sets_at \
                    else values
                driven = vals0 is not values
                flops, dsts, captures, gated, comb, scan, scan_driven, settle, checks = edges
                skip = ()
                for net, active in reset_nets:
                    if vals0[net] & 1 == active:
                        if not driven:
                            vals0 = vals0[:]
                        skip = settle_resets(vals0)
                        break
                if skip:
                    scan = monitored
                elif driven:
                    scan = scan_driven
                for i in gated:
                    if i not in skip and not rises(i, vals0):
                        skip = {i, *skip}
                if skip:
                    flops = [f for f in flops if f[0] not in skip]
                    dsts = [d for d in dsts if d.index not in skip]
                    captures = [d for d in captures if d.index not in skip]
                post = vals0[:]
                for _i, out, data, enable in flops:
                    if enable is None or vals0[enable] & 1:
                        post[out] = vals0[data]

                # the opportunity search, each decision taken as it is found
                flips = None
                recent = tick - setup_window
                if inject and dsts:
                    lookahead: list[list[int]] = []
                    for dst in dsts:
                        index = dst.index
                        for pid, src, full, phase, period in dst.pairs:
                            setup = post[src] ^ values[src]
                            for t, flipped in hist[src]:
                                if t < recent:
                                    break
                                setup |= flipped
                            bits = setup & full
                            if bits != full and \
                                    ((phase - tick) % period or period) <= hold_window:
                                bits |= hold_toggles(src, tick, post, edges, lookahead) & full
                            while bits:
                                low = bits & -bits
                                bits ^= low
                                take = draw() < probability if draw is not None \
                                    else decided < given and path[decided]
                                decided += 1
                                if take or trace is not None:
                                    # the resolved bit is the captured one inverted
                                    bit = low.bit_length() - 1
                                    event = new(MsiEvent, (
                                        tick, pid, bit, "setup" if setup & low else "hold",
                                        (post[src] >> bit & 1) ^ 1))
                                    if trace is not None:
                                        trace.append(event)
                                if take:
                                    if flips is None:
                                        flips = {}
                                    key = (index, src)
                                    flips[key] = flips.get(key, 0) | low
                                    events.append(event)

                # the commit: capture, settle the gates and resets, record flips
                if captures:
                    final = post[:]
                    _capture(vals0, post, final, flips, captures)
                else:
                    final = post
                if final != vals0:
                    for kernel in comb:
                        kernel(final)
                if settle:
                    for net, active in reset_nets:
                        if final[net] & 1 == active:
                            settle_resets(final)
                            scan = monitored
                            break
                for n in scan:
                    if final[n] != values[n]:
                        entries = hist[n]
                        for k, (t, _flipped) in enumerate(entries):
                            if t <= recent:
                                entries = entries[:k]
                                break
                        hist[n] = ((tick, final[n] ^ values[n]),) + entries
                if checks:
                    get = final.__getitem__
                    for clk, resets, sampling in checks:
                        in_reset = False
                        for n, active in resets:
                            if final[n] & 1 == active:
                                in_reset = True
                                break
                        for ci, sample in sampling:
                            checkers[ci], message = sample(checkers[ci], clk, get, in_reset)
                            if message is not None and failures[ci] is None:
                                failures[ci] = (tick, message)
                if frames is not None:
                    frames.append(final)
                values = final
        state.values, state.decisions = values, decided
        return state, events

    def _finish(self, state: _State, events: list[MsiEvent],
                frames: list[list[int]] | None, seed: int | None) -> SimResult:
        coverage = CoverageDb(self.fingerprint, self.scope,
                              tuple(p.id for p in self.a.pairs))
        for e in events:
            coverage.record(e.pair, e.bit, e.kind, e.resolved)
        if seed is not None:
            coverage.seeds.append(seed)
        coverage.edges = dict(self.edges_per_clock)
        return SimResult(frames, self.agenda, events, coverage,
                         [c.verdict(f) for c, f in
                          zip(self.checkers, state.failures)],
                         state.decisions)


def simulate(analysis: Analysis, stimulus: Stimulus, msi: MsiConfig,
             checkers: list[Checker], scope: str = "sim",
             waves: bool = True) -> SimResult:
    eng = Engine(analysis, stimulus, msi, checkers, scope)
    return eng.run(waves=waves)
