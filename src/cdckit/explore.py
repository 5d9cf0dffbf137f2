"""Bounded exhaustive exploration of metastability resolutions.

`explore_exhaustive` resolves every injection opportunity that
`Engine.plan_tick` finds, in every way.  Where no decision can reach a
checker or change a later tick's opportunities it counts the tree
(Counted trees, below); elsewhere `walk_tree` walks it, depth first with
the reference resolution (no injection) first, so each checker's first
counterexample is on the lexicographically first failing path, and
replays that path with `Engine.run` to record it.  The walk runs on an
explicit stack of branching ticks, one frame per tick on the current path
that has opportunities, and stops once every checker has a counterexample.

A commit advances the state it is given in place, so the search copies
only the states it keeps: a branching tick's state, for each decision
vector committed from it, and the reference child, before its walk.

Paths that reach the same state are merged.  The state is its own key:
`merge_key` is the agenda index with every field of the state that later
ticks read (net values, flip history, checker states, failures) and its
decision count, as one tuple.

Sibling derivation.  The decision vectors of one branching tick differ only
in the crossing destinations they inject.  The all-False vector, the
reference, is committed first in full, and a copy of its child state
stays in the tick's frame.  A sibling is derived from it: `Engine.commit_tick` copies
the reference's values, redoes only the injected destinations' captures
and takes its history, checker states and failures.  A sibling is derived
only when

* the tick's commit runs no reset settle (`_EdgeSet.settle`: its edging
  flops reach no reset net), so the reference's settle held no flop, and
* each destination it injects is derivable, which `derivable_outputs`
  decides once per search: no gate reads its output, no checker samples it
  (`Checker.nets`), and it is neither a monitored crossing source nor a
  reset net, of a flop or of a checker's domain.

Otherwise the sibling is committed in full.  Either way it goes through
`Engine.commit_tick`, so the commit count and the injections taken are
those of a search that derives nothing, and its child is keyed like any
other state.  `ExploreOutcome` counts the branch commits, the derived ones
and the merged states.

Counted trees.  Before any walk the search computes the decision reach R
(`decision_reach`): the outputs of the injectable destinations, closed
forward through every gate and flop input.  A black box's outputs never
change, so they stay out of R.  The tree is counted, not walked, when

* no checker reads a net in R, neither one of its `nets` nor a reset of
  its clocks' domains, and
* no net that shapes a tick's opportunities is in R: the monitored
  crossing sources, the reset nets and each destination flop's clock.

A net outside R is driven only by nets outside R, and a tick reads only
nets outside R to decide which flops capture, which resets hold and which
bits flip near a capture.  So, by induction over the ticks, every net
outside R has the same value on every path: each checker's samples and
each tick's opportunity list are those of the reference path.  The tree
is then complete over the reference path's D decisions, and it has 2**D
leaves, each with the reference path's verdicts.  The search walks the
reference path once, with the walk's own `plan_tick` and `commit_tick`
and its budget check, and replays it once as the counterexample of every
checker that fails there.  Its `branches` is 1 when every checker fails
(the walk stops at its first leaf) and 2**D otherwise.  It commits no
decision vector at a branching tick, so it derives and merges nothing:
`commits`, `derived` and `merged` are 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .checkers import Checker
from .errors import BranchCapExceeded, DecisionBudgetExceeded
from .netlist import Dff, Gate
from .rules import Analysis
from .sim import Engine, MsiConfig, SimResult, _State
from .stimulus import Stimulus

_BRANCH_CAP = 1 << 24


@dataclass
class ExploreOutcome:
    verdicts: dict[str, str]                    # checker id -> "proven"|"counterexample"
    counterexamples: dict[str, SimResult]
    branches: int
    commits: int        # decision vectors committed at branching ticks
    derived: int        # of those, the siblings derived from their reference
    merged: int         # states reached again and merged


def merge_key(state: _State, agenda_idx: int) -> tuple:
    """The key of `state` at agenda index `agenda_idx` under which
    exploration merges paths: the state's own fields, so equal exactly for
    equal states.  `hist` keeps the insertion order of `Engine.monitored`,
    so its values line up from state to state."""
    return (agenda_idx, state.decisions, tuple(state.values),
            tuple(state.hist.values()), tuple(state.checkers), tuple(state.failures))


def _copy(state: _State) -> _State:
    """A copy that commits to `state` leave as it is (they replace values)."""
    return _State(state.values, dict(state.hist), state.checkers[:],
                  state.failures[:], state.decisions)


def derivable_outputs(eng: Engine, checkers: list[Checker]) -> set[int]:
    """The crossing destinations, by flop index, whose output no part of a
    tick reads but the next tick's flops: no gate reads it, no checker
    samples it, and it is neither a monitored crossing source nor a reset
    net, of a flop or of a checker's domain.  A sibling that injects only
    these is derived."""
    nl = eng.nl
    read = {net for c in checkers for net in c.nets}
    read.update(eng.monitored)
    read.update(net for net, _active in eng.reset_nets)
    read.update(net for resets in eng.clock_resets.values() for net, _ in resets)
    return {d.index for d in eng.dsts.values()
            if d.out not in read and not any(
                kind == "cell" and isinstance(nl.cells[i], Gate)
                for kind, i, _pin in nl.nets[d.out].readers)}


def decision_reach(eng: Engine) -> set[int]:
    """The nets that a decision can change: the injectable destinations'
    outputs, closed forward through every gate and flop input.  A black
    box's outputs never change."""
    nl = eng.nl
    reach: set[int] = set()
    todo = [d.out for d in eng.dsts.values()]
    while todo:
        net = todo.pop()
        if net not in reach:
            reach.add(net)
            todo.extend(nl.cells[i].out for kind, i, _pin in nl.nets[net].readers
                        if kind == "cell" and isinstance(nl.cells[i], (Gate, Dff)))
    return reach


def countable(eng: Engine) -> bool:
    """Whether the decision reach holds no net that a checker reads (its
    `nets` and its clocks' domain resets) and none that shapes a tick's
    opportunities (a monitored crossing source, a reset net or a
    destination flop's clock), so that the tree is counted."""
    read = [net for c in eng.checkers for net in c.nets]
    read += [net for c in eng.checkers for clk in c.clocks
             for net, _active in eng.clock_resets[clk]]
    read += eng.monitored
    read += [net for net, _active in eng.reset_nets]
    read += [eng.nl.cells[i].clock for i in eng.dsts]
    return decision_reach(eng).isdisjoint(read)


def explore_exhaustive(analysis: Analysis, stimulus: Stimulus,
                       checkers: list[Checker], budget: int) -> ExploreOutcome:
    """Resolve every opportunity in every way, until every checker has a
    counterexample: `count_tree` when the tree is `countable`, else
    `walk_tree`.  A path of more than `budget` decisions raises
    DecisionBudgetExceeded, and more than _BRANCH_CAP leaves raise
    BranchCapExceeded."""
    eng = Engine(analysis, stimulus, MsiConfig(), checkers, scope="explore")
    return (count_tree if countable(eng) else walk_tree)(eng, budget)


def count_tree(eng: Engine, budget: int) -> ExploreOutcome:
    """The outcome of `walk_tree` on a `countable` tree, from its reference
    path alone (module docstring, Counted trees)."""
    state = eng.initial_state()
    for tick in eng.agenda:
        plan = eng.plan_tick(state, tick)
        k = len(plan.opps)
        if state.decisions + k > budget:
            raise DecisionBudgetExceeded(state.decisions + k, budget)
        eng.commit_tick(state, plan, (False,) * k)
    ids = [c.id for c in eng.checkers]
    failed = [cid for cid, failure in zip(ids, state.failures) if failure is not None]
    # every path fails the checkers that the reference path fails, and the
    # walk stops at its first leaf once that is every checker
    branches = 1 if ids and len(failed) == len(ids) else 1 << state.decisions
    if branches > _BRANCH_CAP:
        raise BranchCapExceeded(_BRANCH_CAP)
    cex = dict.fromkeys(failed, eng.run(())) if failed else {}
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return ExploreOutcome(verdicts, cex, branches, 0, 0, 0)


def walk_tree(eng: Engine, budget: int) -> ExploreOutcome:
    """Enumerate every resolution of every opportunity, depth first with the
    reference resolution explored first, until every checker has a
    counterexample.  A path of more than `budget` decisions raises
    DecisionBudgetExceeded, and more than _BRANCH_CAP leaves raise
    BranchCapExceeded.

    Paths that reach the same state are merged: the search remembers the
    number of leaves below each state it has explored, and a state seen
    again adds that number to `branches` without walking its subtree.  The
    merge is exact.  A state is keyed on its agenda index and on itself
    (`merge_key`), so its subtree is the same, and that subtree was walked
    on a lexicographically earlier path: each checker's first
    counterexample is still found there, and a path over the budget raised
    there first.

    The search runs on an explicit stack of branching ticks, one frame per
    tick on the current path that has opportunities, so its depth is
    bounded by the budget, not by the interpreter's recursion limit."""
    checkers = eng.checkers
    derivable = derivable_outputs(eng, checkers)
    branches = commits = derived = merged = 0
    cex: dict[str, SimResult] = {}
    ids = [c.id for c in checkers]
    leaves: dict[tuple, int] = {}   # explored state -> leaves below it

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

    def enter(state: _State, agenda_idx: int, path: tuple[bool, ...]):
        """Walk `state` up to its next tick with opportunities, and return
        the frame that branches there: [state key, branches before it,
        state, plan, agenda index, path, decision vectors, then a copy of
        the reference's child].  None when the state needs no walk or the
        walk reached the end of the run."""
        nonlocal merged
        key = merge_key(state, agenda_idx)
        below = leaves.get(key)
        if below is not None:
            merged += 1
            count(below)
            return None
        start = branches
        for i in range(agenda_idx, len(eng.agenda)):
            plan = eng.plan_tick(state, eng.agenda[i])
            k = len(plan.opps)
            if state.decisions + k > budget:
                raise DecisionBudgetExceeded(state.decisions + k, budget)
            if k:
                return [key, start, state, plan, i, path,
                        product((False, True), repeat=k), None]
            eng.commit_tick(state, plan, ())
        leaf(state, path)
        leaves[key] = branches - start
        return None

    frame = enter(eng.initial_state(), 0, ())
    stack = [frame] if frame else []
    while stack and not (ids and len(cex) == len(ids)):
        frame = stack[-1]
        key, start, state, plan, i, path, vectors, ref = frame
        vector = next(vectors, None)
        if vector is None:
            stack.pop()
            leaves[key] = branches - start
            continue
        commits += 1
        branch = _copy(state)
        # `product` yields the reference, all False, before its siblings
        if ref is not None and not plan.edges.settle and all(
                o.dst in derivable for o, take in zip(plan.opps, vector) if take):
            eng.commit_tick(branch, plan, vector, ref)
            derived += 1
        else:
            eng.commit_tick(branch, plan, vector)
            if ref is None:
                frame[7] = _copy(branch)
        frame = enter(branch, i + 1, path + vector)
        if frame:
            stack.append(frame)
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return ExploreOutcome(verdicts, cex, branches, commits, derived, merged)
