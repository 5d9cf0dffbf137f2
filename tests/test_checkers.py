import inspect

import pytest

import cdckit.checkers as checkers_mod
from cdckit.checkers import Checker, build_checkers
from cdckit.errors import ParseError
from cdckit.explore import explore_exhaustive
from cdckit.sim import Engine, MsiConfig, simulate
from cdckit.stimulus import parse_stimulus
from oracles import reference_simulate


def _verdicts(analysis, stim_text, select=None, latency=None, msi=False,
              seed=1, prob=0.5):
    checkers = build_checkers(analysis, latency=latency, select=select)
    stim = parse_stimulus(stim_text)
    res = simulate(analysis, stim,
                   MsiConfig(enabled=msi, probability=prob, seed=seed), checkers)
    return {v.checker: v for v in res.verdicts}


def test_wide_pulse_fails_at_second_high_edge(case_loader):
    analysis, stim_text = case_loader("wide_pulse")
    v = _verdicts(analysis, stim_text, select=["pulse_width"])["pulse_width:sync0"]
    assert not v.passed
    # pulse raised at source edge 3 (tick 30), still high at edge 4 (tick 40)
    assert v.tick == 40


def test_single_cycle_pulse_passes(case_loader):
    analysis, stim_text = case_loader("wide_pulse_clean")
    v = _verdicts(analysis, stim_text, select=["pulse_width"])["pulse_width:sync0"]
    assert v.passed


def test_gray_checker_flags_hamming_two(case_loader):
    analysis, stim_text = case_loader("binary_cross")
    v = _verdicts(analysis, stim_text, select=["gray_code"])["gray_code:cdc0"]
    assert not v.passed
    # binary 001 -> 010 is the first two-bit move of the counter
    assert "01" in v.message or "0x" in v.message


def test_gray_checker_accepts_gray_sequence(case_loader):
    analysis, stim_text = case_loader("gray_cross")
    v = _verdicts(analysis, stim_text, select=["gray_code"], msi=True,
                  seed=5)["gray_code:cdc0"]
    assert v.passed


def test_stability_semantics(case_loader):
    analysis, stim_text = case_loader("freq_data_loss")
    v = _verdicts(analysis, stim_text, select=["stability"])["stability:cdc0"]
    assert not v.passed
    clean, clean_stim = case_loader("freq_data_loss_clean")
    v = _verdicts(clean, clean_stim, select=["stability"])["stability:cdc0"]
    assert v.passed


def test_static_checker(case_loader):
    analysis, stim_text = case_loader("static_config")
    v = _verdicts(analysis, stim_text, select=["static"])["static:cfg_r"]
    assert not v.passed
    clean, clean_stim = case_loader("static_config_clean")
    assert _verdicts(clean, clean_stim, select=["static"])["static:cfg_r"].passed


def test_mux_enable_checker(case_loader):
    analysis, stim_text = case_loader("mux_sync_bug")
    v = _verdicts(analysis, stim_text, select=["mux_enable"])["mux_enable:sync0"]
    assert not v.passed
    clean, clean_stim = case_loader("mux_sync")
    assert _verdicts(clean, clean_stim, select=["mux_enable"],
                     msi=True)["mux_enable:sync0"].passed


def test_fifo_checker(case_loader):
    analysis, stim_text = case_loader("async_fifo_bug")
    v = _verdicts(analysis, stim_text, select=["fifo"])["fifo:sync0"]
    assert not v.passed
    assert "full" in v.message
    clean, clean_stim = case_loader("async_fifo")
    assert _verdicts(clean, clean_stim, select=["fifo"], msi=True,
                     seed=13)["fifo:sync0"].passed


def test_clock_gate_checker(case_loader):
    analysis, stim_text = case_loader("gated_clock_glitch_clean")
    v = _verdicts(analysis, stim_text, select=["clock_gate"])["clock_gate:dst"]
    assert v.passed
    # toggling the enable on consecutive edges must trip it
    bad_stim = ("at clk_a 0 set rst_a_n 1\nat clk_a 2 set en 1\n"
                "at clk_a 3 set en 0\nat clk_a 4 set en 1\nrun 10 of clk_a\n")
    v = _verdicts(analysis, bad_stim, select=["clock_gate"])["clock_gate:dst"]
    assert not v.passed


def test_latency_sweep(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)
    # strict bound fails under injection on some seeds, relaxed never does
    strict_fail = False
    for seed in range(1, 101):
        checkers = build_checkers(analysis, latency=[("cdc0", 2, 3)],
                                  select=["latency"])
        res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=seed),
                       checkers)
        assert res.verdicts[0].passed, ("latency 2..3", seed)
        checkers = build_checkers(analysis, latency=[("cdc0", 2, 2)],
                                  select=["latency"])
        res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=seed),
                       checkers)
        if not res.verdicts[0].passed:
            strict_fail = True
    assert strict_fail


def test_latency_exact_in_reference(case_loader):
    analysis, stim_text = case_loader("msi_latency")
    stim = parse_stimulus(stim_text)
    checkers = build_checkers(analysis, latency=[("cdc0", 2, 2)],
                              select=["latency"])
    res = reference_simulate(analysis, stim, checkers)
    assert res.verdicts[0].passed


def test_latency_on_a_suppressed_pair_is_rejected(case_loader):
    """`cdc0` of `static_config` crosses from a declared static signal: a
    latency spec that names it builds no checker and says why, and `*`
    skips it."""
    analysis, _ = case_loader("static_config")
    (pair,) = [p for p in analysis.pairs if p.id == "cdc0"]
    assert pair.suppressed == "static"
    with pytest.raises(ParseError, match=r"'cdc0', which is suppressed \(static\)"):
        build_checkers(analysis, latency=[("cdc0", 1, 3)])
    assert not [c for c in build_checkers(analysis, latency=[("*", 1, 3)])
                if c.id == "latency:cdc0"]


def test_default_suite_composition(case_loader):
    analysis, _ = case_loader("codegen_full")
    ids = sorted(c.id for c in build_checkers(analysis))
    kinds = {i.split(":")[0] for i in ids}
    assert {"stability", "pulse_width", "mux_enable", "fifo", "static",
            "clock_gate", "gray_code"} <= kinds


def test_checker_state_values_are_hashable(corpus_root, case_loader, monkeypatch):
    finished = []
    finish = Engine._finish
    monkeypatch.setattr(Engine, "_finish",
                        lambda self, st, *rec: finished.append(st)
                        or finish(self, st, *rec))
    runs = 0
    for case in sorted(p.name for p in corpus_root.iterdir() if p.is_dir()):
        analysis, stim_text = case_loader(case)
        checkers = build_checkers(analysis, latency=[("*", 1, 3)])
        if not stim_text or not checkers:
            continue
        finished.clear()
        simulate(analysis, parse_stimulus(stim_text),
                 MsiConfig(probability=0.5, seed=1), checkers)
        (state,) = finished
        assert len(state.checkers) == len(checkers), case
        for value in state.checkers:
            assert value is None or isinstance(value, (int, tuple)), case
            hash(value)
        runs += 1
    assert runs > 10


def _explore_verdicts(analysis, stim, checkers):
    return explore_exhaustive(analysis, stim, checkers,
                              budget=16).verdicts


def test_one_checker_list_serves_every_run(case_loader):
    for name, latency, select in (("msi_latency", ("cdc0", 2, 2), ["latency"]),
                                  ("msi_latency_clean", ("cdc0", 2, 3),
                                   ["latency", "stability"])):
        analysis, stim_text = case_loader(name)
        stim = parse_stimulus(stim_text)

        def fresh():
            return build_checkers(analysis, latency=[latency], select=select)

        def sim(checkers):
            res = simulate(analysis, stim, MsiConfig(probability=0.5, seed=3),
                           checkers)
            return [v.to_dict() for v in res.verdicts]

        shared = fresh()
        first = sim(shared)
        explored = _explore_verdicts(analysis, stim, shared)
        again = sim(shared)
        assert first == again == sim(fresh()), name
        assert explored == _explore_verdicts(analysis, stim, fresh()), name


def test_each_sample_reads_only_its_checkers_nets(corpus_root, case_loader):
    """`Checker.nets` holds every net `sample` reads: a recording getter
    sees no other net on any sample of a `simulate` run of any corpus case,
    with every kind of checker built."""
    kinds: dict[str, int] = {}

    def recording(checker):
        sample = checker.sample

        def recorded(state, clock, get, in_reset):
            read = set()

            def record(net):
                read.add(net)
                return get(net)

            result = sample(state, clock, record, in_reset)
            assert read <= set(checker.nets), (checker.id, read)
            kinds[checker.kind] = kinds.get(checker.kind, 0) + bool(read)
            return result
        return recorded

    for case in sorted(p.name for p in corpus_root.iterdir() if p.is_dir()):
        analysis, stim_text = case_loader(case)
        if not stim_text:
            continue
        checkers = build_checkers(analysis, latency=[("*", 1, 3)])
        for c in checkers:
            c.sample = recording(c)     # bound by the engine made below
        simulate(analysis, parse_stimulus(stim_text),
                 MsiConfig(probability=0.5, seed=1), checkers)
    assert kinds.keys() == {"stability", "pulse_width", "gray_code", "static",
                            "mux_enable", "fifo", "clock_gate", "latency"}, kinds
    assert all(kinds.values()), kinds


def test_every_sample_takes_no_tick():
    """No checker is told the tick it samples at, so none can come to
    depend on it: states reached at different ticks behave alike."""
    classes = [c for c in vars(checkers_mod).values()
               if isinstance(c, type) and issubclass(c, Checker)]
    assert len(classes) == 9
    for cls in classes:
        assert list(inspect.signature(cls.sample).parameters) == [
            "self", "state", "clock", "get", "in_reset"], cls.__name__
