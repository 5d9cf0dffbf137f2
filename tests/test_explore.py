import copy
import json

import pytest

import cdckit.explore as explore_mod
from cdckit.checkers import LatencyChecker, build_checkers, parse_latency
from cdckit.errors import BranchCapExceeded, DecisionBudgetExceeded
from cdckit.explore import (count_tree, countable, derivable_outputs, explore_exhaustive,
                            merge_key, walk_tree)
from cdckit.netlist import Gate
from cdckit.pipeline import analyze_sources
from cdckit.sim import Engine, MsiConfig, _State, simulate
from cdckit.stimulus import parse_stimulus
from conftest import load_gen
from oracles import ReferenceEngine, replay_explore, stepped_run
from test_lockstep import (A2_B7, A_B7, ENABLED_DST, FAST_SOURCE, REQ_ACK, WINDOWS,
                           _corpus_with_stimulus, _with_windows)


def walked(analysis, stim, checkers, budget):
    """The depth-first walk's outcome, also where `explore_exhaustive`
    would count the tree."""
    return walk_tree(Engine(analysis, stim, MsiConfig(), checkers, scope="explore"), budget)


def test_clean_design_proven(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)
    checkers = build_checkers(analysis, latency=[("cdc0", 2, 3)],
                              select=["latency", "stability"])
    out = explore_exhaustive(analysis, stim, checkers, budget=16)
    assert out.verdicts == {"latency:cdc0": "proven", "stability:cdc0": "proven"}
    assert out.branches == 16  # four toggles, one decision each


def test_strict_latency_counterexample_has_one_setup_event(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)
    checkers = build_checkers(analysis, latency=[("cdc0", 2, 2)],
                              select=["latency"])
    out = explore_exhaustive(analysis, stim, checkers, budget=16)
    assert out.verdicts["latency:cdc0"] == "counterexample"
    cex = out.counterexamples["latency:cdc0"]
    assert [e.kind for e in cex.events] == ["setup"]


def test_zero_opportunities_single_branch(case_loader):
    analysis, _ = case_loader("msi_latency")
    # never assert tick: the source never toggles, no opportunities exist
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 20 of clk_b\n")
    checkers = build_checkers(analysis, latency=[("cdc0", 2, 3)],
                              select=["latency"])
    out = explore_exhaustive(analysis, stim, checkers, budget=16)
    assert out.branches == 1
    assert out.verdicts["latency:cdc0"] == "proven"


def test_budget_exceeded(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    stim = parse_stimulus(stim_text)
    with pytest.raises(DecisionBudgetExceeded):
        explore_exhaustive(analysis, stim, [], budget=16)


def test_exhaustive_agrees_with_random_sweep(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)

    def failures(latency):
        failing = set()
        for seed in range(1, 201):
            checkers = build_checkers(analysis, latency=[latency],
                                      select=["latency", "stability"])
            res = simulate(analysis, stim,
                           MsiConfig(probability=0.5, seed=seed), checkers)
            failing |= {v.checker for v in res.verdicts if not v.passed}
        return failing

    for latency in (("cdc0", 2, 2), ("cdc0", 2, 3)):
        checkers = build_checkers(analysis, latency=[latency],
                                  select=["latency", "stability"])
        out = explore_exhaustive(analysis, stim, checkers,
                                 budget=16)
        exhaustive_failing = {cid for cid, v in out.verdicts.items()
                              if v == "counterexample"}
        assert exhaustive_failing == failures(latency)


def test_deterministic_failures_fail_on_reference_branch(case_loader):
    analysis, stim_text = case_loader("wide_pulse")
    stim = parse_stimulus(stim_text)
    checkers = build_checkers(analysis, select=["pulse_width"])
    out = explore_exhaustive(analysis, stim, checkers, budget=16)
    assert out.verdicts["pulse_width:sync0"] == "counterexample"
    # the wide pulse fails regardless of injections: the counterexample is
    # the all-reference branch with an empty injection log
    assert out.counterexamples["pulse_width:sync0"].events == []


REPLAY_CASES = [
    ("msi_latency", "cdc0:2:2", ["latency"]),       # needs one injection
    ("msi_latency_clean", "cdc0:2:3", ["latency", "stability"]),  # proven
    ("wide_pulse", None, None),                     # refuted on reference
    ("wide_pulse", "1:3", None),                    # second cex injects
    ("unstable_crossing", "1:3", None),
    ("async_fifo_bug", "1:3", None),
    ("convergence_clean", "1:3", None),
    ("mux_sync_bug", "1:3", None),                  # 64 branches, one proven
    ("divergence", None, None),                     # 64 branches, proven
    # paths converge, and latency:cdc0 fails below states reached again
    ("mux_sync", "1:3", None),
]


def _explore_equals_replay(analysis, stim, checkers):
    out = explore_exhaustive(analysis, stim, checkers, budget=16)
    verdicts, cex, branches = replay_explore(analysis, stim, checkers)
    assert out.verdicts == verdicts
    assert out.branches == branches
    assert out.counterexamples.keys() == cex.keys()
    for cid, res in cex.items():
        got = out.counterexamples[cid]
        assert got.events == res.events, cid
        assert got.frames == res.frames, cid
    return out


@pytest.mark.parametrize("case, latency, select", REPLAY_CASES)
def test_explore_equals_replay_oracle(case_loader, case, latency, select):
    analysis, stim_text = case_loader(case)
    checkers = build_checkers(analysis, latency=parse_latency(
        [latency] if latency else None), select=select)
    _explore_equals_replay(analysis, parse_stimulus(stim_text), checkers)


@pytest.mark.parametrize("case, latency, select", REPLAY_CASES)
def test_explore_equals_replay_oracle_with_wider_windows(corpus_root, case,
                                                         latency, select):
    analysis = _with_windows(corpus_root, case)
    checkers = build_checkers(analysis, latency=parse_latency(
        [latency] if latency else None), select=select)
    stim = parse_stimulus((corpus_root / case / "stimulus.stim").read_text())
    _explore_equals_replay(analysis, stim, checkers)


def test_explore_equals_replay_oracle_on_histories_of_several_entries():
    analysis = analyze_sources([("t.v", FAST_SOURCE)], A2_B7 + WINDOWS)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 10 of clk_a\n")
    checkers = build_checkers(analysis, latency=[("*", 1, 2)])
    out = _explore_equals_replay(analysis, stim, checkers)
    assert out.branches > 1 and "counterexample" in out.verdicts.values(), out


def test_merge_key_tells_history_lengths_apart(case_loader):
    """Two states that differ only in the length of the last monitored net's
    history have different keys, and equal states equal keys."""
    analysis, stim_text = case_loader("gray_cross")
    eng = Engine(analysis, parse_stimulus(stim_text), MsiConfig(), [])
    state = eng.initial_state()
    last = eng.monitored[-1]
    short, long = (_State(state.values, {**state.hist, last: hist}, state.checkers,
                          state.failures, state.decisions)
                   for hist in (((4, 1),), ((4, 1), (2, 2))))
    keys = [merge_key(s, 3) for s in (short, long, short, long)]
    assert keys[0] != keys[1]
    assert keys[2:] == keys[:2]


def test_converging_paths_are_walked_once(case_loader, monkeypatch):
    analysis, stim_text = case_loader("freq_data_loss_clean")
    stim = parse_stimulus(stim_text)
    checkers = build_checkers(analysis, select=["stability"])
    commits = 0
    commit_tick = Engine.commit_tick

    def counted(*args):
        nonlocal commits
        commits += 1
        return commit_tick(*args)

    monkeypatch.setattr(Engine, "commit_tick", counted)
    out = explore_exhaustive(analysis, stim, checkers, budget=16)
    # 16384 paths through a few dozen states: walking every path commits
    # 65530 ticks
    assert out.branches == 16384
    assert commits <= 1000
    assert out.verdicts == {"stability:cdc0": "proven"}


def test_explore_counts_commits_derivations_and_merges(case_loader, monkeypatch):
    """The counters are those of the search: every decision vector of a
    branching tick is one commit, the reference of each tick among them."""
    analysis, stim_text = case_loader("divergence")
    stim = parse_stimulus(stim_text)
    vectors = 0
    commit_tick = Engine.commit_tick

    def counted(eng, state, plan, decisions, *reference):
        nonlocal vectors
        vectors += bool(decisions)
        return commit_tick(eng, state, plan, decisions, *reference)

    monkeypatch.setattr(Engine, "commit_tick", counted)
    out = walked(analysis, stim, [], budget=16)
    assert out.branches == 64
    assert (out.commits, out.derived, out.merged) == (vectors, 27, 24)
    again = walked(analysis, stim, [], budget=16)
    assert (again.commits, again.derived, again.merged) == (36, 27, 24)


def test_search_stops_once_every_checker_has_a_counterexample(case_loader, monkeypatch):
    """On `mux_sync_bug` the first path fails the one checker; the search
    commits no decision vector after it, and replays it once."""
    analysis, stim_text = case_loader("mux_sync_bug")
    checkers = build_checkers(analysis, select=["mux_enable"])
    replays = 0
    run = Engine.run

    def counted(*args, **kwargs):
        nonlocal replays
        replays += 1
        return run(*args, **kwargs)

    monkeypatch.setattr(Engine, "run", counted)
    out = explore_exhaustive(analysis, parse_stimulus(stim_text), checkers, budget=16)
    assert out.verdicts == {"mux_enable:sync0": "counterexample"}
    assert (out.branches, out.commits, out.derived, out.merged, replays) == (1, 4, 0, 0, 1)


def fields(state):
    """A state's fields by name."""
    return {name: getattr(state, name) for name in _State.__slots__}


class DerivationCheck:
    """Checks every derivation and every merge key of the searches run while
    it is installed.  Each derived branch equals `Engine.commit_tick` of its
    vector in full, from a copy of the state it was derived from (values,
    history, checker states, failures, decisions and events).  At each
    agenda index, two states' `merge_key`s are equal exactly when the
    states' fields are.  It also records each sibling
    vector the search committed in full, a declined derivation, as (whether
    the tick's commit settles resets, the injected destinations' outputs).
    `Engine.run`, which replays counterexamples, makes no commit call."""

    def __init__(self, monkeypatch):
        self.derived = 0
        self.declined: list[tuple[bool, set[int]]] = []
        self.keyed: dict[int, list[tuple[tuple, dict]]] = {}
        commit, key = Engine.commit_tick, explore_mod.merge_key

        def commit_tick(eng, state, plan, decisions, reference=None):
            if reference is not None:
                want = commit(eng, copy.deepcopy(state), plan, decisions)
            got = commit(eng, state, plan, decisions, reference)
            if reference is not None:
                assert fields(got[0]) == fields(want[0]), plan.tick
                assert got[1] == want[1], plan.tick
                self.derived += 1
            elif any(decisions):
                self.declined.append((plan.edges.settle, {
                    eng.dsts[o.dst].out for o, take in zip(plan.opps, decisions)
                    if take}))
            return got

        def merge_key(state, agenda_idx):
            got, now = key(state, agenda_idx), copy.deepcopy(fields(state))
            seen = self.keyed.setdefault(agenda_idx, [])
            for other, other_fields in seen:
                assert (got == other) == (now == other_fields), agenda_idx
            if (got, now) not in seen:
                seen.append((got, now))
            return got

        monkeypatch.setattr(Engine, "commit_tick", commit_tick)
        monkeypatch.setattr(explore_mod, "merge_key", merge_key)

    def explore(self, analysis, stim, checkers):
        """The outcome of one checked search, None past the budget, and the
        derivations it declined."""
        self.derived, self.declined, self.keyed = 0, [], {}
        try:
            out = walked(analysis, stim, checkers, budget=16)
        except DecisionBudgetExceeded:
            return None, self.declined
        assert out.derived == self.derived
        return out, self.declined


class KeptStateCheck:
    """Checks the states that the searches run while it is installed keep.
    A frame's pre-state is kept when the walk plans a tick with
    opportunities from it, and a reference child when `explore._copy`
    copies a state that is not a kept pre-state; each is deep-copied then.
    Each time the search copies a kept pre-state for a decision vector, or
    derives a sibling from a kept reference child, that state must still
    equal its deep copy.  And no state that the search commits into is
    kept, or holds the history dict, checker list or failure list of a
    kept state (the values list, which no commit writes, may be shared).
    `Engine.run`, which replays counterexamples, makes no plan or commit
    call."""

    def __init__(self, monkeypatch):
        self.kept: dict[int, tuple] = {}
        self.uses = {"pre-state": 0, "reference": 0}
        plan, commit, keep = Engine.plan_tick, Engine.commit_tick, explore_mod._copy

        def hold(state):
            self.kept[id(state)] = (state, copy.deepcopy(state))

        def check(state, use):
            assert id(state) in self.kept, use
            held, snapshot = self.kept[id(state)]
            assert held is state and fields(state) == fields(snapshot), use
            self.uses[use] += 1

        def plan_tick(eng, state, tick, rng=None):
            got = plan(eng, state, tick, rng)
            if got.opps:
                hold(state)
            return got

        def copy_state(state):
            if id(state) in self.kept:
                check(state, "pre-state")
                return keep(state)
            child = keep(state)
            hold(child)
            return child

        def commit_tick(eng, state, plan, decisions, reference=None):
            if reference is not None:
                check(reference, "reference")
            got = commit(eng, state, plan, decisions, reference)
            parts = {id(part) for part in (state.hist, state.checkers, state.failures)}
            for other, _snapshot in self.kept.values():
                assert other is not state and parts.isdisjoint(
                    map(id, (other.hist, other.checkers, other.failures))), plan.tick
            return got

        monkeypatch.setattr(Engine, "plan_tick", plan_tick)
        monkeypatch.setattr(Engine, "commit_tick", commit_tick)
        monkeypatch.setattr(explore_mod, "_copy", copy_state)

    def explore(self, analysis, stim, checkers):
        """The outcome of one checked search, None past the budget."""
        self.kept = {}
        try:
            return walked(analysis, stim, checkers, budget=16)
        except DecisionBudgetExceeded:
            return None


def test_kept_states_stay_as_kept_on_the_corpus(corpus_root, case_loader, monkeypatch):
    """Every corpus case with its label's checkers and with `--latency 1:3`:
    a commit advances the state it is given, so the search must hand it a
    copy of each state it keeps."""
    check = KeptStateCheck(monkeypatch)
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        for checkers in (_label_checkers(analysis, corpus_root, case),
                         build_checkers(analysis, latency=[("*", 1, 3)])):
            check.explore(analysis, stim, checkers)
    assert all(n > 100 for n in check.uses.values()), check.uses


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kept_states_stay_as_kept_on_generated_designs(seed, monkeypatch):
    gen = load_gen()
    d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    stim = parse_stimulus(d.files["stimulus.stim"])
    check = KeptStateCheck(monkeypatch)
    for latency in (None, [("*", 1, 3)]):
        checkers = build_checkers(analysis, latency=latency, select=list(
            gen.EXPLORE_CHECKERS) + ["latency"])
        assert check.explore(analysis, stim, checkers).branches > 1
    assert all(check.uses.values()), check.uses


@pytest.mark.parametrize("constraints", [A2_B7, A2_B7 + WINDOWS],
                         ids=["default-windows", "windows-3-2"])
def test_kept_states_stay_as_kept_on_a_fast_source(constraints, monkeypatch):
    """A source that flips between the destination's captures: the walk
    below a derived sibling changes its history, while the reference it
    was derived from serves the tick's other siblings."""
    analysis = analyze_sources([("t.v", FAST_SOURCE)], constraints)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 10 of clk_a\n")
    check = KeptStateCheck(monkeypatch)
    out = check.explore(analysis, stim, [])
    assert out.derived > 1 and check.uses["reference"] > 1, (out, check.uses)
    monkeypatch.undo()
    assert _explore_equals_replay(analysis, stim, []).branches == out.branches


class PlanCheck:
    """Checks what a tick skips while it is installed, on the stepped
    driver's runs and on `explore`.  A plan takes the state's own values list as its pre-edge
    values unless it writes them, so each values list that a plan or a
    commit is given, the reference's too, is snapshotted: no plan or
    commit may change it (a commit replaces the values).  And a plan looks ahead for hold flips only when the source's
    clock edges within the hold window: every pair with bits left after its
    setup bits that the plan does not look ahead for gets 0 from the
    reference engine's hold lookahead, which finds the next edge its own
    way, and every source flop it looks ahead for edges within the
    window."""

    def __init__(self, monkeypatch):
        self.seen = {"snapshots": 0, "skipped": 0, "looked": 0}
        plan, commit, hold = Engine.plan_tick, Engine.commit_tick, Engine._hold_toggles
        watched: dict[int, tuple[list, list]] = {}
        looked: list[int] = []

        def watch(values):
            if id(values) not in watched:
                watched[id(values)] = (values, list(values))
                self.seen["snapshots"] += 1

        def unchanged(values, where):
            held, snapshot = watched[id(values)]
            assert held is values and values == snapshot, where

        def plan_tick(eng, state, tick, rng=None):
            watch(state.values)
            looked.clear()
            got = plan(eng, state, tick, rng)
            unchanged(state.values, ("plan", tick))
            self.phase_test(eng, state, got, set(looked))
            return got

        def hold_toggles(eng, src, tick, *args):
            looked.append(src)
            return hold(eng, src, tick, *args)

        def commit_tick(eng, state, plan, decisions, reference=None):
            before = state.values
            watch(before)
            if reference is not None:
                watch(reference.values)
            got = commit(eng, state, plan, decisions, reference)
            unchanged(before, ("commit", plan.tick))
            if reference is not None:
                unchanged(reference.values, ("reference", plan.tick))
            return got

        self.watched = watched
        monkeypatch.setattr(Engine, "plan_tick", plan_tick)
        monkeypatch.setattr(Engine, "commit_tick", commit_tick)
        monkeypatch.setattr(Engine, "_hold_toggles", hold_toggles)

    def phase_test(self, eng, state, plan, looked: set[int]):
        ref, pairs = self.ref
        base = {i: plan.post[out] for i, out, *_ in plan.edges.flops}
        for dst in plan.dsts:
            for pid, src, full, *_ in dst.pairs:
                setup = plan.post[src] ^ state.values[src]
                for t, flipped in state.hist[src]:
                    if t >= plan.tick - eng.setup_window:
                        setup |= flipped
                if setup & full == full:
                    continue
                if src not in looked:
                    self.seen["skipped"] += 1
                    assert ref._ref_hold_toggles(pairs[pid], plan.tick, base,
                                                 plan.vals0, []) == 0, (pid, plan.tick)
                elif src in eng.src_flop:
                    self.seen["looked"] += 1
                    c = eng.clocks[eng.flop_root[eng.src_flop[src][0].index]]
                    nxt = c.edge_tick((plan.tick - c.phase) // c.period + 1)
                    assert plan.tick < nxt <= plan.tick + eng.hold_window, (pid, plan.tick)

    def check(self, analysis, stim, checkers):
        """One checked search and two seeded runs of the stepped driver,
        which steps through the checked plans and commits."""
        self.watched.clear()
        ref = ReferenceEngine(analysis, stim, MsiConfig(), [])
        self.ref = ref, {p.id: p for p in ref.pairs}
        eng = Engine(analysis, stim, MsiConfig(), checkers)
        for seed in (1, 2):
            stepped_run(eng, waves=False, seed=seed)
        try:
            explore_exhaustive(analysis, stim, checkers, budget=16)
        except DecisionBudgetExceeded:
            pass
        for values, snapshot in self.watched.values():
            assert values == snapshot


def test_ticks_skip_only_work_that_does_nothing_on_the_corpus(corpus_root, case_loader,
                                                              monkeypatch):
    """Every corpus case, with its label's checkers and with the default
    windows and setup and hold windows of 3 and 2."""
    check = PlanCheck(monkeypatch)
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        wide = _with_windows(corpus_root, case)
        for a in (analysis, wide):
            check.check(a, stim, _label_checkers(a, corpus_root, case))
    assert all(n > 100 for n in check.seen.values()), check.seen


@pytest.mark.parametrize("seed", [1, 2, 3, "sim"])
def test_ticks_skip_only_work_that_does_nothing_on_generated_designs(seed, monkeypatch):
    """The explore designs of seeds 1-3 and the simulation design, whose
    random stimulus ports move on every seeded tick."""
    gen = load_gen()
    if seed == "sim":
        d = gen.build("sim", 1, 8, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
        select = list(gen.SIM_CHECKERS)
    else:
        d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
        select = list(gen.EXPLORE_CHECKERS)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    check = PlanCheck(monkeypatch)
    check.check(analysis, parse_stimulus(d.files["stimulus.stim"]),
                build_checkers(analysis, select=select))
    # no capture of the explore designs comes within the hold window of a
    # source edge: every lookahead is skipped
    assert check.seen["snapshots"] and check.seen["skipped"], check.seen
    assert bool(check.seen["looked"]) == (seed == "sim"), check.seen


def _label_checkers(analysis, corpus_root, case):
    labels = corpus_root / case / "labels.json"
    lab = json.loads(labels.read_text()).get("explore", {}) if labels.exists() else {}
    return build_checkers(analysis, latency=parse_latency(lab.get("latency")),
                          select=lab.get("checkers"))


def test_derived_branches_equal_full_commits_on_the_corpus(corpus_root, case_loader,
                                                           monkeypatch):
    """Every corpus case with its label's checkers, with setup and hold
    windows of 3 and 2, and with `--latency 1:3`.  Derivation is declined
    only in the latency runs, and only for a destination that a latency
    checker observes."""
    check = DerivationCheck(monkeypatch)
    derived = {"label": 0, "windows": 0, "latency": 0}
    latency_declined = 0
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        runs = {"label": (analysis, _label_checkers(analysis, corpus_root, case))}
        wide = _with_windows(corpus_root, case)
        runs["windows"] = (wide, _label_checkers(wide, corpus_root, case))
        runs["latency"] = (analysis, build_checkers(analysis, latency=[("*", 1, 3)]))
        for run, (a, checkers) in runs.items():
            out, declined = check.explore(a, stim, checkers)
            derived[run] += check.derived
            if run != "latency":
                assert not declined, (case, run)
                continue
            observed = {c.observe_net for c in checkers if isinstance(c, LatencyChecker)}
            for settle, outs in declined:
                assert not settle and outs & observed, (case, outs)
            latency_declined += len(declined)
    assert all(derived.values()) and latency_declined, (derived, latency_declined)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_derived_branches_equal_full_commits_on_generated_designs(seed, monkeypatch):
    gen = load_gen()
    d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    stim = parse_stimulus(d.files["stimulus.stim"])
    check = DerivationCheck(monkeypatch)
    for latency in (None, [("*", 1, 3)]):
        checkers = build_checkers(analysis, latency=latency, select=list(
            gen.EXPLORE_CHECKERS) + ["latency"])
        out, declined = check.explore(analysis, stim, checkers)
        assert not declined and out.derived > out.commits // 2, out


_HEAD = "module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);\n"
_TOGGLE = ("  always @(posedge clk_a or negedge rst_a_n)\n"
           "    if (!rst_a_n) s <= 1'b0; else s <= ~s;\n")
# q1, the destination, is read by the gate that drives q
DST_READ_BY_GATE = _HEAD + """  reg s, q1, q2;
""" + _TOGGLE + """  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= s; q2 <= q1; end
  assign q = q1 & q2;
endmodule
"""
# q1, the destination, is declared the reset of its domain, which the
# checkers sampling on clk_b read
SYNC = _HEAD + """  reg s, q1, q2;
""" + _TOGGLE + """  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= s; q2 <= q1; end
  assign q = q2;
endmodule
"""
# m, the destination of s, is the crossing source of r
TWO_HOP = _HEAD + """  reg s, m, r;
""" + _TOGGLE + """  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) m <= 1'b0; else m <= s;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) r <= 1'b0; else r <= m;
  assign q = r;
endmodule
"""
# r1, the destination, is the reset of x
DST_IS_RESET = _HEAD + """  reg s, r1, x;
""" + _TOGGLE + """  always @(posedge clk_b or negedge rst_b_n)
    if (!rst_b_n) r1 <= 1'b0; else r1 <= s;
  always @(posedge clk_b or negedge r1)
    if (!r1) x <= 1'b0; else x <= ~x;
  assign q = x;
endmodule
"""
# kill, of domain A, resets d1, of domain B, through logic: at every other
# clk_a edge, which is a clk_b edge too and on which d1 captures the flip of
# s, the commit's reset settle forces the d1 that an injection left at 1
SETTLE_RESETS_DST = _HEAD + """  reg kill, s, d1, d2;
  wire rs;
  assign rs = rst_b_n & ~kill;
  always @(posedge clk_a or negedge rst_a_n)
    if (!rst_a_n) begin kill <= 1'b0; s <= 1'b1; end
    else begin kill <= ~kill; s <= ~s; end
  always @(posedge clk_b or negedge rs)
    if (!rs) begin d1 <= 1'b0; d2 <= 1'b0; end
    else begin d1 <= s; d2 <= d1; end
  assign q = d2;
endmodule
"""
A_B5 = A_B7.replace("-period 7", "-period 5")


def _gate_reads(eng, net):
    return any(kind == "cell" and isinstance(eng.nl.cells[i], Gate)
               for kind, i, _pin in eng.nl.nets[net].readers)


# name: (source, constraints, destination flop, the reason it is declined)
DECLINED = {
    "read-by-gate": (DST_READ_BY_GATE, A_B7, "q1",
                     lambda eng, out: _gate_reads(eng, out)),
    "monitored": (TWO_HOP, A_B7, "m", lambda eng, out: out in eng.monitored),
    "reset-net": (DST_IS_RESET, A_B7, "r1",
                  lambda eng, out: out in {n for n, _active in eng.reset_nets}),
    "domain-reset": (SYNC, A_B7 + "reset q1 -domain B\n", "q1",
                     lambda eng, out: (out, 1) in eng.clock_resets["clk_b"]),
    "commit-settles": (SETTLE_RESETS_DST, A_B5, "d1", None),
}


@pytest.mark.parametrize("name", DECLINED)
def test_derivation_is_declined(name, monkeypatch):
    source, constraints, flop, reason = DECLINED[name]
    analysis = analyze_sources([("t.v", source)], constraints)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 12 of clk_a\n")
    checkers = build_checkers(analysis)
    eng = Engine(analysis, stim, MsiConfig(), checkers)
    dst = next(d for d in eng.dsts.values() if analysis.netlist.cells[d.index].name == flop)
    derivable = derivable_outputs(eng, checkers)
    if reason is None:
        # derivable on its own, declined on the ticks whose commit settles
        assert derivable == {dst.index}
    else:
        assert dst.index not in derivable and reason(eng, dst.out)
    check = DerivationCheck(monkeypatch)
    out, declined = check.explore(analysis, stim, checkers)
    assert out.branches > 1 and declined
    assert all(dst.out in outs and (settle or reason is not None)
               for settle, outs in declined), declined
    monkeypatch.undo()
    _explore_equals_replay(analysis, stim, checkers)


@pytest.mark.parametrize("constraints, edges", [(A_B7, 16), (A_B7 + WINDOWS, 8)],
                         ids=["default-windows", "windows-3-2"])
def test_derivation_where_sources_depend_on_decisions(constraints, edges, monkeypatch):
    """In a request/acknowledge loop, when req flips depends on earlier
    injections at ack1, so one tick's reference captures differ from path
    to path, and an injected sibling can capture what another path's
    reference captured at that tick."""
    analysis = analyze_sources([("t.v", REQ_ACK)], constraints)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          f"run {edges} of clk_a\n")
    check = DerivationCheck(monkeypatch)
    out, declined = check.explore(analysis, stim, [])
    assert out.derived and declined, out      # req, a crossing source, is declined
    monkeypatch.undo()
    assert _explore_equals_replay(analysis, stim, []).branches == out.branches


def test_states_that_differ_only_in_checker_states_are_kept_apart(monkeypatch):
    """In the request/acknowledge loop with latency checkers, paths reach a
    tick with equal values, history and failures but checker states that
    remember older samples (a stability checker's sample window, a latency
    checker's pending changes): those states are not merged."""
    analysis = analyze_sources([("t.v", REQ_ACK)], A_B7 + WINDOWS)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 8 of clk_a\n")
    checkers = build_checkers(analysis, latency=[("*", 1, 3)])
    check = DerivationCheck(monkeypatch)
    out, _declined = check.explore(analysis, stim, checkers)
    assert any(a["checkers"] != b["checkers"] and
               {**a, "checkers": None} == {**b, "checkers": None}
               for seen in check.keyed.values()
               for i, (_key, a) in enumerate(seen) for _other, b in seen[:i]), out
    monkeypatch.undo()
    assert _explore_equals_replay(analysis, stim, checkers).branches == out.branches


def _search(search, analysis, stim, checkers):
    """A search's outcome, or the type and message of what it raised."""
    try:
        return search(analysis, stim, checkers, budget=16)
    except (DecisionBudgetExceeded, BranchCapExceeded) as e:
        return type(e), str(e)


def _counted_equals_walk(analysis, stim, checkers) -> tuple:
    """`explore_exhaustive` equals the walk: in verdicts, branches, what it
    raises, and counterexample events, frames and decisions, and, where the
    walk takes at most 64 branches, the replay oracle too.  Returns whether
    the tree was counted, and the outcome."""
    counted = countable(Engine(analysis, stim, MsiConfig(), checkers, scope="explore"))
    got = _search(explore_exhaustive, analysis, stim, checkers)
    want = _search(walked, analysis, stim, checkers)
    if isinstance(want, tuple):
        assert got == want
        return counted, got
    assert (got.verdicts, got.branches) == (want.verdicts, want.branches)
    assert got.counterexamples.keys() == want.counterexamples.keys()
    for cid, res in want.counterexamples.items():
        cex = got.counterexamples[cid]
        assert (cex.events, cex.frames, cex.decisions) == \
            (res.events, res.frames, res.decisions), cid
    if counted:
        assert (got.commits, got.derived, got.merged) == (0, 0, 0)
    if want.branches <= 64:
        _explore_equals_replay(analysis, stim, checkers)
    return counted, got


@pytest.mark.parametrize("latency", [None, "1:3", "2:2"])
def test_counted_trees_equal_the_walk_on_the_corpus(corpus_root, case_loader, latency):
    """Every corpus case with the default suite, with no checkers and with
    its label's checkers, each with the latency spec.  Many trees are
    counted, among them some whose every checker fails on the reference
    path, and many are walked."""
    paths = {True: 0, False: 0}
    refuted = 0
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        labels = corpus_root / case / "labels.json"
        lab = json.loads(labels.read_text()).get("explore", {}) if labels.exists() else {}
        suites = {}
        for select in (None, [], lab.get("checkers")):
            checkers = build_checkers(analysis, latency=parse_latency(
                [latency] if latency else None), select=select)
            suites[tuple(c.id for c in checkers)] = checkers
        for checkers in suites.values():
            counted, out = _counted_equals_walk(analysis, stim, checkers)
            paths[counted] += 1
            refuted += counted and not isinstance(out, tuple) and out.branches == 1 \
                and bool(out.counterexamples)
    assert paths[True] > 30 and paths[False] > 5 and refuted, (paths, refuted)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_counted_trees_equal_the_walk_on_generated_designs(seed):
    """The benchmark's exploration designs are counted, with and without
    their checkers."""
    gen = load_gen()
    d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    stim = parse_stimulus(d.files["stimulus.stim"])
    for select in (list(gen.EXPLORE_CHECKERS), []):
        checkers = build_checkers(analysis, select=select)
        assert _counted_equals_walk(analysis, stim, checkers)[0]


@pytest.mark.parametrize("source", ["REQ_ACK", "ENABLED_DST"])
@pytest.mark.parametrize("edges", [8, 16])
def test_counted_trees_equal_the_walk_on_feedback_and_enables(source, edges):
    analysis = analyze_sources([("t.v", {"REQ_ACK": REQ_ACK,
                                          "ENABLED_DST": ENABLED_DST}[source])], A_B7)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          f"run {edges} of clk_a\n")
    for latency in (None, [("*", 1, 3)]):
        for select in (None, []):
            _counted_equals_walk(analysis, stim, build_checkers(
                analysis, latency=latency, select=select))


def test_which_trees_are_counted(corpus_root, case_loader):
    """`freq_data_loss_clean`'s stability checker samples only its source.
    In the request/acknowledge loop, req is a crossing source that reads
    ack2, which a decision at ack1 reaches: with no checker to see it,
    decisions still change later ticks' opportunities, so the walk takes 28
    paths at 8 edges where the reference path's 4 decisions make 16.  And
    `msi_latency`'s latency checker observes a destination."""
    def engine(analysis, stim, checkers):
        return Engine(analysis, stim, MsiConfig(), checkers, scope="explore")

    analysis, stim_text = case_loader("freq_data_loss_clean")
    stim = parse_stimulus(stim_text)
    assert countable(engine(analysis, stim, build_checkers(analysis, select=["stability"])))
    analysis = analyze_sources([("t.v", REQ_ACK)], A_B7)
    stim = parse_stimulus("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                          "run 8 of clk_a\n")
    assert not countable(engine(analysis, stim, []))
    assert walked(analysis, stim, [], budget=16).branches == 28
    assert count_tree(engine(analysis, stim, []), 16).branches == 16
    analysis, stim_text = case_loader("msi_latency")
    checkers = _label_checkers(analysis, corpus_root, "msi_latency")
    assert [c.kind for c in checkers] == ["latency"]
    assert not countable(engine(analysis, parse_stimulus(stim_text), checkers))


def test_a_counted_tree_past_the_branch_cap_raises_as_the_walk_does(case_loader,
                                                                    monkeypatch):
    monkeypatch.setattr(explore_mod, "_BRANCH_CAP", 4)
    analysis, stim_text = case_loader("freq_data_loss_clean")
    stim = parse_stimulus(stim_text)
    checkers = build_checkers(analysis, select=["stability"])
    assert _counted_equals_walk(analysis, stim, checkers)[0]
    assert _search(explore_exhaustive, analysis, stim, checkers) == (
        BranchCapExceeded, str(BranchCapExceeded(4)))
