import json
from pathlib import Path

import jsonschema
import pytest

from cdckit.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / name).read_text())


def _case_args(corpus_root, name):
    d = corpus_root / name
    return [str(d / "rtl.v"), "-c", str(d / "constraints.cdc")], str(d / "stimulus.stim")


def test_analyze_clean_design_exits_zero(corpus_root, tmp_path):
    files, _ = _case_args(corpus_root, "missing_sync_clean")
    assert main(["analyze", *files, "--strict", "--out", str(tmp_path)]) == 0
    for name, schema in (("pairs.json", "pairs.schema.json"),
                         ("findings.json", "findings.schema.json"),
                         ("syncs.json", "syncs.schema.json"),
                         ("manifest.json", "manifest.schema.json")):
        payload = json.loads((tmp_path / name).read_text())
        jsonschema.validate(payload, _schema(schema))


def test_analyze_strict_flags_errors(corpus_root, tmp_path):
    files, _ = _case_args(corpus_root, "missing_sync")
    assert main(["analyze", *files, "--strict", "--out", str(tmp_path)]) == 2
    findings = json.loads((tmp_path / "findings.json").read_text())["findings"]
    assert [f["rule"] for f in findings] == ["MISSING_SYNC"]
    # without --strict the same findings exit 0
    assert main(["analyze", *files, "--out", str(tmp_path)]) == 0


def test_analyze_bad_syntax_exits_one(tmp_path):
    bad = tmp_path / "bad.v"
    bad.write_text("module m(input a)\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock a -period 4 -domain A\n")
    assert main(["analyze", str(bad), "-c", str(cons), "--out", str(tmp_path)]) == 1


def test_dump_ir(corpus_root, tmp_path):
    files, _ = _case_args(corpus_root, "missing_sync")
    out = tmp_path / "ir.json"
    assert main(["analyze", *files, "--out", str(tmp_path),
                 "--dump-ir", str(out)]) == 0
    ir = json.loads(out.read_text())
    assert {c["kind"] for c in ir["cells"]} == {"dff"}


def test_simulate_checker_failure_exits_three(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "wide_pulse")
    rc = main(["simulate", *files, "-s", stim, "--no-msi",
               "--checkers", "pulse_width", "--out", str(tmp_path)])
    assert rc == 3
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    jsonschema.validate(verdicts, _schema("verdicts.schema.json"))
    assert any(v["verdict"] == "FAIL" for v in verdicts["verdicts"])


def test_simulate_msi_off_clean_exits_zero(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "missing_sync_clean")
    rc = main(["simulate", *files, "-s", stim, "--no-msi", "--out", str(tmp_path)])
    assert rc == 0
    cov = json.loads((tmp_path / "coverage.json").read_text())
    jsonschema.validate(cov, _schema("coverage.schema.json"))
    assert cov["bins"] == {}


def test_simulate_seed_repeat_identical(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "cov_toggle")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["simulate", *files, "-s", stim, "--seed", "42",
                     "--checkers", "none", "--out", str(out)]) == 0
    for name in ("coverage.json", "verdicts.json", "msi_events.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_fanout_merges(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "cov_toggle")
    assert main(["simulate", *files, "-s", stim, "--seeds", "1..4",
                 "--checkers", "none", "--out", str(tmp_path)]) == 0
    cov = json.loads((tmp_path / "coverage.json").read_text())
    assert cov["seeds"] == [1, 2, 3, 4]


def test_vcd_export(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "missing_sync_clean")
    vcd = tmp_path / "trace.vcd"
    assert main(["simulate", *files, "-s", stim, "--no-msi",
                 "--out", str(tmp_path), "--vcd", str(vcd)]) == 0
    text = vcd.read_text()
    assert text.startswith("$version")
    assert "$enddefinitions $end" in text
    assert "$dumpvars" in text
    assert "#0" in text


def test_explore_counterexample_exits_three_and_writes_vcd(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "msi_latency")
    rc = main(["explore", *files, "-s", stim, "--latency", "cdc0:2:2",
               "--checkers", "latency", "--out", str(tmp_path)])
    assert rc == 3
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert verdicts["verdicts"]["latency:cdc0"] == "counterexample"
    cex = verdicts["counterexamples"]["latency:cdc0"]
    assert (tmp_path / cex).exists()


def test_explore_proven_exits_zero(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "msi_latency")
    rc = main(["explore", *files, "-s", stim, "--latency", "cdc0:2:3",
               "--checkers", "latency", "--out", str(tmp_path)])
    assert rc == 0


def test_explore_budget_exceeded_exits_four(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "cov_toggle")
    rc = main(["explore", *files, "-s", stim, "--budget", "8",
               "--out", str(tmp_path)])
    assert rc == 4


def test_generate_then_report_round(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "cov_toggle")
    gen_out = tmp_path / "gen"
    assert main(["generate", *files, "--out", str(gen_out)]) == 0
    assert (gen_out / "gen" / "coverage" / "cdc_cov.sv").exists()

    sim_out = tmp_path / "sim"
    assert main(["analyze", *files, "--out", str(sim_out)]) == 0
    assert main(["simulate", *files, "-s", stim, "--seed", "42",
                 "--checkers", "none", "--out", str(sim_out)]) == 0
    rc = main(["report", "--db", str(sim_out / "coverage.json"),
               "--pairs", str(sim_out / "pairs.json"), "--format", "json",
               "--out", str(tmp_path / "rep.json")])
    assert rc == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["totals"]["percent"] == 100.0


def test_merge_coverage_and_fingerprint_mismatch(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "cov_toggle")
    a, b = tmp_path / "a", tmp_path / "b"
    for seed, out in ((1, a), (2, b)):
        assert main(["simulate", *files, "-s", stim, "--seed", str(seed),
                     "--checkers", "none", "--out", str(out)]) == 0
    merged = tmp_path / "merged.json"
    assert main(["merge-coverage", str(a / "coverage.json"),
                 str(b / "coverage.json"), "--out", str(merged)]) == 0
    m = json.loads(merged.read_text())
    da = json.loads((a / "coverage.json").read_text())
    db = json.loads((b / "coverage.json").read_text())
    total = lambda d: sum(v for p in d["bins"].values()
                          for bit in p.values() for v in bit.values())
    assert total(m) == total(da) + total(db)

    other_files, other_stim = _case_args(corpus_root, "codegen_full")
    c = tmp_path / "c"
    assert main(["simulate", *other_files, "-s", other_stim, "--seed", "1",
                 "--checkers", "none", "--out", str(c)]) == 0
    rc = main(["merge-coverage", str(a / "coverage.json"),
               str(c / "coverage.json"), "--out", str(merged)])
    assert rc == 5


def test_report_fingerprint_mismatch_exits_five(corpus_root, tmp_path):
    files, stim = _case_args(corpus_root, "cov_toggle")
    out = tmp_path / "o"
    assert main(["simulate", *files, "-s", stim, "--checkers", "none",
                 "--out", str(out)]) == 0
    other_files, _ = _case_args(corpus_root, "codegen_full")
    assert main(["analyze", *other_files, "--out", str(tmp_path / "x")]) == 0
    rc = main(["report", "--db", str(out / "coverage.json"),
               "--pairs", str(tmp_path / "x" / "pairs.json")])
    assert rc == 5


def test_manifest_reproducibility(corpus_root, tmp_path):
    files, _ = _case_args(corpus_root, "missing_sync")
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["analyze", *files, "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    # re-running the manifest's command reproduces every output byte
    assert main(["analyze", *manifest["files"], "-c", manifest["constraints"],
                 "--out", str(out2)]) == 0
    for name in manifest["outputs"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_options_env_file(corpus_root, tmp_path, monkeypatch):
    files, _ = _case_args(corpus_root, "missing_sync")
    opt = tmp_path / "defaults.cdc"
    opt.write_text("option severity.MISSING_SYNC info\n")
    monkeypatch.setenv("CDCKIT_OPTIONS", str(opt))
    assert main(["analyze", *files, "--strict", "--out", str(tmp_path / "o")]) == 0
    findings = json.loads((tmp_path / "o" / "findings.json").read_text())
    assert findings["findings"][0]["severity"] == "info"


TWO_ROOTS = """module a(input clk, input d, output q);
  assign q = d;
endmodule
module b(input clk, input d, output q);
  assign q = d;
endmodule
"""


@pytest.mark.parametrize("extra", [
    ["--seeds", "3..1"],
    ["--seeds", "1-3"],
    ["--latency", "a:b"],
    ["--latency", "1:x"],
    "two-roots",
], ids=["seeds-reversed", "seeds-dash", "latency-letters", "latency-max-letter",
        "two-roots"])
def test_bad_user_input_exits_one(corpus_root, tmp_path, capsys, extra):
    files, stim = _case_args(corpus_root, "cov_toggle")
    if extra == "two-roots":
        rtl = tmp_path / "two.v"
        rtl.write_text(TWO_ROOTS)
        cons = tmp_path / "c.cdc"
        cons.write_text("clock clk -period 10 -domain A\n")
        files, extra = [str(rtl), "-c", str(cons)], []
    rc = main(["simulate", *files, "-s", stim, *extra, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert ":0:0:" not in err       # option values have no file position
