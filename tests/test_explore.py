import pytest

from cdckit.checkers import build_checkers, parse_latency
from cdckit.errors import DecisionBudgetExceeded
from cdckit.pipeline import analyze_sources
from cdckit.sim import Engine, MsiConfig, explore_exhaustive, merge_key, simulate
from cdckit.stimulus import parse_stimulus
from oracles import replay_explore
from test_lockstep import A2_B7, FAST_SOURCE, WINDOWS, _with_windows


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
        assert got.waves == res.waves, cid
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
    history: laid out flat, the longer one would match the first state seen
    at every position the shorter one has, and share its key."""
    analysis, stim_text = case_loader("gray_cross")
    eng = Engine(analysis, parse_stimulus(stim_text), MsiConfig(), [])
    state = eng.initial_state()
    last = eng.monitored[-1]
    short = state._replace(hist={**state.hist, last: ((4, 1),)})
    long = state._replace(hist={**state.hist, last: ((4, 1), (2, 2))})
    first: dict[int, list] = {}
    keys = [merge_key(s, 3, first) for s in (short, long, short, long)]
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
