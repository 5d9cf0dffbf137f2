"""Bounded exhaustive exploration of metastability resolutions.

`explore_exhaustive` enumerates every resolution of every injection
opportunity that `Engine.plan_tick` finds, depth first with the reference
resolution (no injection) first, so each checker's first counterexample is
on the lexicographically first failing path, and replays that path with
`Engine.run` to record it.  It runs on an explicit stack of branching
ticks, one frame per tick on the current path that has opportunities.

Paths that reach the same state are merged.  `merge_key` keys a state on
its agenda index, its decision count and every part of it that later ticks
read (net values, flip history, checker states, failures), laid out as one
element per net value, per monitored net's history tuple, per checker state
and per failure, and keyed as the positions where it differs from the first
state seen at that agenda index.

Sibling derivation.  The decision vectors of one branching tick differ only
in the crossing destinations they inject.  The all-False vector, the
reference, is committed first in full; its child state and merge key stay
in the tick's frame, and every sibling is derived from them:
`Engine.commit_tick` copies the reference's values, redoes only the
injected destinations' captures and reuses its history, checker states and
failures, and `derived_key` builds the sibling's key from the reference's,
re-comparing only the patched nets with the first state at that agenda
index.  That is exact when nothing of the tick but the capture sees an
injected destination's output, so a sibling is derived only when

* the tick's commit runs no reset settle (`_EdgeSet.settle`: its edging
  flops reach no reset net), so the reference's settle held no flop, and
* each destination it injects is derivable, which `derivable_outputs`
  decides once per search: no gate reads its output, no checker samples it
  (`Checker.nets`), and it is neither a monitored crossing source nor a
  reset net, of a flop or of a checker's domain.

Otherwise the sibling is committed in full.  Either way it goes through
`Engine.commit_tick`, so the commit count and the injections taken are
those of a search that derives nothing.  `ExploreOutcome` counts the
branch commits, the derived ones and the merged states.

The level search of ROADMAP item 1 (one dict of distinct states per agenda
tick) belongs here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from operator import ne

from .checkers import Checker
from .errors import BranchCapExceeded, DecisionBudgetExceeded
from .netlist import Gate
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


def merge_key(state: _State, agenda_idx: int, first: dict[int, list]) -> tuple:
    """The key of `state` at agenda index `agenda_idx` under which
    exploration merges paths: equal exactly for equal states.

    The state is laid out as one element per net value, per monitored net's
    history tuple, per checker state and per failure, and keyed as the
    positions where it differs from the first state seen at that agenda
    index (`first` keeps it), with its elements there: a few elements in
    place of one per net.  Every state of one agenda index has the same
    nets, monitored nets and checkers, so the layouts align position by
    position; a history tuple is one element whatever its length."""
    flat = [*state.values, *state.hist.values(), *state.checkers, *state.failures]
    changed = tuple(compress(range(len(flat)), map(
        ne, flat, first.setdefault(agenda_idx, flat))))
    return (agenda_idx, changed, tuple(map(flat.__getitem__, changed)),
            state.decisions)


def derived_key(reference: tuple, values: list[int], patched: list[int],
                first: dict[int, list]) -> tuple:
    """`merge_key` of a state that equals the state keyed `reference` except
    in the values of the nets `patched`, which are `values`'.  Net n is
    position n of the layout, so only those positions are compared again
    with the first state seen at the reference's agenda index."""
    agenda_idx, changed, elements, decisions = reference
    diff = dict(zip(changed, elements))
    base = first[agenda_idx]
    for n in patched:
        if values[n] != base[n]:
            diff[n] = values[n]
        else:
            diff.pop(n, None)
    changed = tuple(sorted(diff))
    return (agenda_idx, changed, tuple(map(diff.__getitem__, changed)), decisions)


def derivable_outputs(eng: Engine, checkers: list[Checker]) -> dict[int, int]:
    """The output net of each crossing destination, by flop index, that no
    part of a tick reads but the next tick's flops: no gate reads it, no
    checker samples it, and it is neither a monitored crossing source nor a
    reset net, of a flop or of a checker's domain.  A sibling that injects
    only these is derived."""
    nl = eng.nl
    read = {net for c in checkers for net in c.nets}
    read.update(eng.monitored)
    read.update(net for net, _active in eng.reset_nets)
    read.update(net for resets in eng.clock_resets.values() for net, _ in resets)
    return {d.index: d.out for d in eng.dsts.values()
            if d.out not in read and not any(
                kind == "cell" and isinstance(nl.cells[i], Gate)
                for kind, i, _pin in nl.nets[d.out].readers)}


def _patched(outs: list[int | None] | None, vector: tuple[bool, ...]) -> list[int] | None:
    """The outputs that `vector` injects, or None when one of them, or the
    tick (`outs` None), is not derivable."""
    if outs is None:
        return None
    nets = []
    for out, take in zip(outs, vector):
        if take:
            if out is None:
                return None
            nets.append(out)
    return nets


def explore_exhaustive(analysis: Analysis, stimulus: Stimulus,
                       checkers: list[Checker], budget: int) -> ExploreOutcome:
    """Enumerate every resolution of every opportunity, depth first with the
    reference resolution explored first.  A path of more than `budget`
    decisions raises DecisionBudgetExceeded, and more than _BRANCH_CAP
    leaves raise BranchCapExceeded.

    Paths that reach the same state are merged: the search remembers the
    number of leaves below each state it has explored, and a state seen
    again adds that number to `branches` without walking its subtree.  The
    merge is exact.  A state is keyed on its agenda index, its decision
    count and every part of it that later ticks read, so its subtree is the
    same, and that subtree was walked on a lexicographically earlier path:
    each checker's first counterexample is still found there, and a path
    over the budget raised there first.

    The search runs on an explicit stack of branching ticks, one frame per
    tick on the current path that has opportunities, so its depth is
    bounded by the budget, not by the interpreter's recursion limit."""
    eng = Engine(analysis, stimulus, MsiConfig(), checkers, scope="explore")
    out_of = derivable_outputs(eng, checkers)
    branches = commits = derived = merged = 0
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

    def enter(state: _State, key: tuple, agenda_idx: int, path: tuple[bool, ...]):
        """Walk from `state`, keyed `key`, up to its next tick with
        opportunities, and return the frame that branches there: [state
        key, branches before it, state, plan, agenda index, path, decision
        vectors, derivable output per opportunity (None when the tick's
        commit settles resets), then the reference's child and key once
        committed].  None when the state needs no walk or the walk reached
        the end of the run."""
        nonlocal merged
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
                outs = None if plan.edges.settle else \
                    [out_of.get(o.dst) for o in plan.opps]
                return [key, start, state, plan, i, path,
                        product((False, True), repeat=k), outs, None]
            state, _ = eng.commit_tick(state, plan, ())
        leaf(state, path)
        leaves[key] = branches - start
        return None

    state = eng.initial_state()
    frame = enter(state, merge_key(state, 0, first), 0, ())
    stack = [frame] if frame else []
    while stack:
        frame = stack[-1]
        key, start, state, plan, i, path, vectors, outs, ref = frame
        vector = next(vectors, None)
        if vector is None:
            stack.pop()
            leaves[key] = branches - start
            continue
        commits += 1
        # the first vector, all False, is the reference
        patched = None if ref is None else _patched(outs, vector)
        if patched is None:
            branch, _ = eng.commit_tick(state, plan, vector)
        else:
            branch, _ = eng.commit_tick(state, plan, vector, ref[0])
            derived += 1
        if ids and len(cex) == len(ids):
            continue        # every checker already has a counterexample
        if patched is None:
            child = merge_key(branch, i + 1, first)
        else:
            child = derived_key(ref[1], branch.values, patched, first)
        if ref is None:
            frame[8] = (branch, child)
        frame = enter(branch, child, i + 1, path + vector)
        if frame:
            stack.append(frame)
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return ExploreOutcome(verdicts, cex, branches, commits, derived, merged)
