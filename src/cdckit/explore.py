"""Bounded exhaustive exploration of metastability resolutions.

`explore_exhaustive` resolves every injection opportunity that
`Engine.plan_tick` finds, in every way.  Where no decision can reach a
checker or change a later tick's opportunities it counts the tree
(Counted trees, below); elsewhere `walk_tree` walks it, depth first with
the reference resolution (no injection) first, so each checker's first
counterexample is on the lexicographically first failing path, and
replays that path with `Engine.run` to record it.  The walk stops once
every checker has a counterexample.

A commit advances the state it is given in place, so the walk copies only
the states it keeps: a branching tick's state, once for each of its
decision vectors, each committed in full by `Engine.commit_tick`.  Paths
that reach the same state are merged (`merge_key`).  A search evaluates
only the observed cone (sim.py, What a run evaluates), so a merge key holds
the values of the cone's nets alone, and paths whose states differ only
outside it, where the search computes nothing, merge.  `ExploreOutcome`
counts the branch commits and the merged states.

Counted trees.  Before any walk the search computes the decision reach R
(`Engine.decision_reach`): the outputs of the injectable destinations,
closed forward through every gate and flop input.  A black box's outputs
never change, so they stay out of R.  The tree is counted, not walked, when

* no checker reads a net in R, neither one of its `nets` nor a reset of
  its clocks' domains, and
* no net that shapes a tick's opportunities is in R: the monitored
  crossing sources, the reset nets and each destination flop's clock.

`Engine.decisions_unseen` tests both, and `Engine.run_seeds` relies on
the same induction.

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
decision vector at a branching tick, so it merges nothing: `commits` and
`merged` are 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .checkers import Checker
from .errors import BranchCapExceeded, DecisionBudgetExceeded
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
    merged: int         # states reached again and merged


def merge_key(state: _State, agenda_idx: int) -> tuple:
    """The key of `state` at agenda index `agenda_idx` under which
    exploration merges paths: the state's own fields, of its values those
    of the observed cone, the only ones a search evaluates and the only
    ones its verdicts, branches and opportunities read.  `hist` keeps the
    insertion order of `Engine.monitored`, so its values line up from
    state to state."""
    return (agenda_idx, state.decisions, state.view.observed(state.values),
            tuple(state.hist.values()), tuple(state.checkers), tuple(state.failures))


def _copy(state: _State) -> _State:
    """A copy that commits to `state` leave as it is (they replace values)."""
    return _State(state.values, dict(state.hist), state.checkers[:],
                  state.failures[:], state.decisions, state.view)


def explore_exhaustive(analysis: Analysis, stimulus: Stimulus,
                       checkers: list[Checker], budget: int) -> ExploreOutcome:
    """Resolve every opportunity in every way, until every checker has a
    counterexample: `count_tree` when no decision is seen
    (`Engine.decisions_unseen`), else `walk_tree`.  A path of more than
    `budget` decisions raises DecisionBudgetExceeded, and more than
    _BRANCH_CAP leaves raise BranchCapExceeded."""
    eng = Engine(analysis, stimulus, MsiConfig(), checkers, scope="explore")
    return (count_tree if eng.decisions_unseen() else walk_tree)(eng, budget)


def count_tree(eng: Engine, budget: int) -> ExploreOutcome:
    """The outcome of `walk_tree` on a tree whose decisions are unseen
    (`Engine.decisions_unseen`), from its reference path alone (module
    docstring, Counted trees)."""
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
    return ExploreOutcome(verdicts, cex, branches, 0, 0)


def walk_tree(eng: Engine, budget: int) -> ExploreOutcome:
    """Enumerate every resolution of every opportunity, depth first with the
    reference resolution explored first, until every checker has a
    counterexample, under `explore_exhaustive`'s budget and branch cap.

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
    agenda = list(eng.agenda)   # indexed on every tick of every path
    branches = commits = merged = 0
    cex: dict[str, SimResult] = {}
    ids = [c.id for c in eng.checkers]
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
        the frame that branches there: (state key, branches before it,
        state, plan, agenda index, path, decision vectors).  None when the
        state needs no walk or the walk reached the end of the run."""
        nonlocal merged
        key = merge_key(state, agenda_idx)
        below = leaves.get(key)
        if below is not None:
            merged += 1
            count(below)
            return None
        start = branches
        for i in range(agenda_idx, len(agenda)):
            plan = eng.plan_tick(state, agenda[i])
            k = len(plan.opps)
            if state.decisions + k > budget:
                raise DecisionBudgetExceeded(state.decisions + k, budget)
            if k:
                return (key, start, state, plan, i, path,
                        product((False, True), repeat=k))
            eng.commit_tick(state, plan, ())
        leaf(state, path)
        leaves[key] = branches - start
        return None

    frame = enter(eng.initial_state(), 0, ())
    stack = [frame] if frame else []
    while stack and not (ids and len(cex) == len(ids)):
        frame = stack[-1]
        key, start, state, plan, i, path, vectors = frame
        vector = next(vectors, None)
        if vector is None:
            stack.pop()
            leaves[key] = branches - start
            continue
        commits += 1
        branch = _copy(state)
        eng.commit_tick(branch, plan, vector)
        frame = enter(branch, i + 1, path + vector)
        if frame:
            stack.append(frame)
    verdicts = {cid: ("counterexample" if cid in cex else "proven") for cid in ids}
    return ExploreOutcome(verdicts, cex, branches, commits, merged)
