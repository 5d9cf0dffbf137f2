"""A recorded run keeps frames, each tick's values list, and `write_vcd`
finds the changes between them.  Both are held to `WaveRecorder`, the
per-net change recorder the frames replaced, and to `reference_write_vcd`:
the waves derived from a run's frames equal the recorder's, and the VCD
text equals the reference writer's over the recorder's waves."""

from cdckit.checkers import build_checkers
from cdckit.cli import main
from cdckit.pipeline import analyze_sources
from cdckit.sim import Engine, MsiConfig
from cdckit.stimulus import parse_stimulus
from cdckit.vcd import write_vcd
from conftest import load_gen
from oracles import WaveRecorder, reference_write_vcd, run_waves
from test_explore import _label_checkers
from test_lockstep import _corpus_with_stimulus
from test_run_loop import counterexample_paths


def assert_frames_equal_the_recorder(analysis, stim, msi, checkers, what, **run):
    """One run of `Engine` against the same run of `WaveRecorder`; returns
    the engine's result."""
    got = Engine(analysis, stim, msi, checkers).run(**run)
    recorder = WaveRecorder(analysis, stim, msi, checkers)
    want = recorder.run(**run)
    assert got.events == want.events and got.verdicts == want.verdicts, what
    assert got.frames == want.frames and list(got.ticks) == list(want.ticks), what
    assert run_waves(got) == recorder.waves, what
    nl = analysis.netlist
    assert write_vcd(nl, got.ticks, got.frames) == \
        reference_write_vcd(nl, recorder.waves), what
    return got


def test_frames_equal_the_recorder_on_every_corpus_case(corpus_root, case_loader):
    """Seeds 1 to 3 with injection on, and a run with it off (`--no-msi`)."""
    cases = _corpus_with_stimulus(corpus_root)
    assert len(cases) > 20
    changes = 0
    for case in cases:
        analysis, stim_text = case_loader(case)
        stim = parse_stimulus(stim_text)
        checkers = build_checkers(analysis)
        for seed in (1, 2, 3):
            got = assert_frames_equal_the_recorder(analysis, stim, MsiConfig(), checkers,
                                                   (case, seed), seed=seed)
            changes += sum(len(w) - 1 for w in run_waves(got).values())
        assert_frames_equal_the_recorder(analysis, stim, MsiConfig(enabled=False),
                                         checkers, (case, "no-msi"))
    assert changes


def test_frames_equal_the_recorder_on_counterexample_replays(corpus_root, case_loader):
    """Each counterexample `explore --budget 16` replays, on the corpus with
    the default checkers and its labels' and on the generated exploration
    designs of seeds 1 to 3."""
    gen = load_gen()
    designs = []
    for case in _corpus_with_stimulus(corpus_root):
        analysis, stim_text = case_loader(case)
        for checkers in (build_checkers(analysis),
                         _label_checkers(analysis, corpus_root, case)):
            designs.append((case, analysis, parse_stimulus(stim_text), checkers))
    for seed in (1, 2, 3):
        d = gen.build("explore", seed, 8, purpose="explore", run_edges=4, gray_sources=2)
        analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
        designs.append((d.name, analysis, parse_stimulus(d.files["stimulus.stim"]),
                        build_checkers(analysis, select=list(gen.EXPLORE_CHECKERS))))
    replays = 0
    for name, analysis, stim, checkers in designs:
        for path in counterexample_paths(analysis, stim, checkers):
            assert_frames_equal_the_recorder(analysis, stim, MsiConfig(), checkers,
                                             (name, path), path=path)
            replays += 1
    assert replays > 10, replays


def test_vcd_of_the_2k_net_design_equals_the_recorder(tmp_path, monkeypatch):
    """The benchmark's 2k-net simulation design under `simulate --seeds 1..2
    --vcd`: ids of two characters, ids with braces, nets of 8 to 16 bits.
    The file the command writes is the reference writer's text over the
    recorder's waves of seed 1."""
    gen = load_gen()
    d = gen.build("sim", 1, 8, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
    for name, text in d.files.items():
        (tmp_path / name).write_text(text)
    analysis = analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"])
    stim = parse_stimulus(d.files["stimulus.stim"])
    checkers = build_checkers(analysis, select=list(gen.SIM_CHECKERS))
    assert_frames_equal_the_recorder(analysis, stim, MsiConfig(), checkers, "seed 1",
                                     seed=1)
    recorder = WaveRecorder(analysis, stim, MsiConfig(), checkers)
    recorder.run(seed=1)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "rtl.v", "-c", "constraints.cdc", "-s", "stimulus.stim",
                 "--seeds", "1..2", "--checkers", ",".join(gen.SIM_CHECKERS),
                 "--out", "out", "--vcd", "out/trace.vcd"]) == 0
    text = (tmp_path / "out" / "trace.vcd").read_text()
    assert text == reference_write_vcd(analysis.netlist, recorder.waves)
    ids = {line.split()[3]: int(line.split()[2]) for line in text.splitlines()
           if line.startswith("$var")}
    assert max(map(len, ids)) == 2
    assert any("{" in vid for vid in ids) and any("}" in vid for vid in ids)
    assert {8, 16} <= set(ids.values())
