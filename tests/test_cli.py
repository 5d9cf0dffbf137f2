import argparse
import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import cdckit.cli
from cdckit.cli import main
from cdckit.sim import Engine
from conftest import SV_ONLY_KEYWORDS, keyword_gray_cross, load_gen

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


def test_end_of_options_before_the_command(corpus_root, tmp_path, capsys):
    """A `--` before the command is dropped; one after it still ends the
    command's options."""
    files, _ = _case_args(corpus_root, "missing_sync")
    assert main(["analyze", *files, "--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr()
    assert main(["--", "analyze", *files, "--out", str(tmp_path / "dashed")]) == 0
    assert capsys.readouterr() == plain
    for name in ("pairs.json", "findings.json", "syncs.json"):
        assert ((tmp_path / "dashed" / name).read_text()
                == (tmp_path / "plain" / name).read_text())
    # after the command, `--` makes a file of `-missing.v`
    assert main(["--", "analyze", *files[1:], "--", "-missing.v"]) == 1
    assert capsys.readouterr().err.startswith("error: -missing.v: ")


def test_analyze_bad_syntax_exits_one(tmp_path):
    bad = tmp_path / "bad.v"
    bad.write_text("module m(input a)\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock a -period 4 -domain A\n")
    assert main(["analyze", str(bad), "-c", str(cons), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--vcd", "t.vcd"]],
                         ids=["analyze", "simulate-vcd"])
def test_a_range_past_the_widest_net_exits_one(tmp_path, capsys, monkeypatch, argv):
    """Such a range once passed `analyze`, and `simulate --vcd` raised
    while it formatted the net's values."""
    monkeypatch.chdir(tmp_path)
    Path("wide.v").write_text("module m(input clk, input [99999999999999999999:0] a,\n"
                              "         output [1:0] y);\n  assign y = a[1:0];\nendmodule\n")
    Path("c.cdc").write_text("clock clk -period 10 -domain A\n")
    Path("s.stim").write_text("run 4 of clk\n")
    stim = ["-s", "s.stim"] if argv[0] == "simulate" else []
    assert main([argv[0], "wide.v", "-c", "c.cdc", *stim, *argv[1:], "--out", "o"]) == 1
    assert capsys.readouterr().err == (
        "error: wide.v:1:28: bit index past the widest net of 65536 bits\n")


def test_the_widest_nets_simulate_and_explore(tmp_path, monkeypatch):
    """Nets and literals of 65536 bits, whose masks have more decimal digits
    than `str` writes."""
    monkeypatch.chdir(tmp_path)
    Path("w.v").write_text(
        "module m(input clk, input rst_n, input [65535:0] a, output [65535:0] y,\n"
        "         output [3:0] s);\n  reg [65535:0] q;\n"
        "  always @(posedge clk or negedge rst_n)\n"
        "    if (!rst_n) q <= 65536'hF; else q <= a ^ 65536'd99999999999999999999;\n"
        "  assign y = ~q & {q[32767:0], q[65535:32768]};\n"
        "  assign s = {q[65535], q[65535], q[3:2]};\nendmodule\n")
    Path("c.cdc").write_text("clock clk -period 10 -domain A\n"
                             "reset rst_n -active_low -domain A\n")
    Path("s.stim").write_text("at clk 0 set rst_n 1\nrun 3 of clk\n")
    args = ["w.v", "-c", "c.cdc", "-s", "s.stim"]
    assert main(["simulate", *args, "--vcd", "t.vcd", "--out", "o"]) == 0
    vcd = Path("t.vcd").read_text()
    [s_id] = re.findall(r"\$var wire 4 (\S+) s\[3:0\]", vcd)
    assert f"b0011 {s_id}\n" in vcd        # q holds 0xF
    assert main(["explore", *args, "--out", "e"]) == 0


def test_analyze_floating_nets_exit_one(tmp_path, capsys):
    rtl = tmp_path / "float.v"
    rtl.write_text("module top(input clk, output q, output y);\n"
                   "  wire f1, f2;\n  reg r;\n"
                   "  always @(posedge clk) r <= f2;\n"
                   "  assign q = r;\n  assign y = f1;\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\n")
    files = [str(rtl), "-c", str(cons)]
    assert main(["analyze", *files, "--out", str(tmp_path / "a")]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: NoDriver: y: net has no driver\n"
                       "error: NoDriver: f2: net has no driver\n")
    # the other commands read a floating net as 0
    assert main(["generate", *files, "--out", str(tmp_path / "g")]) == 0


def test_dump_ir(corpus_root, tmp_path):
    files, _ = _case_args(corpus_root, "missing_sync")
    out = tmp_path / "ir.json"
    assert main(["analyze", *files, "--out", str(tmp_path),
                 "--dump-ir", str(out)]) == 0
    ir = json.loads(out.read_text())
    assert {c["kind"] for c in ir["cells"]} == {"dff"}


def test_dump_ir_writes_a_constant_of_the_widest_net(tmp_path):
    """A 65536-bit constant has 19729 decimal digits, past the limit `str`
    keeps by default; the IR holds it exactly and the limit is restored."""
    rtl = tmp_path / "rtl.v"
    rtl.write_text("module top(input clk, output [65535:0] y);\n"
                   f"  assign y = 65536'h{'F' * 16384};\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\n")
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "ir.json"
    assert main(["analyze", str(rtl), "-c", str(cons), "--out", str(tmp_path / "o"),
                 "--dump-ir", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        ir = json.loads(out.read_text())
    finally:
        sys.set_int_max_str_digits(limit)
    [const] = [c for c in ir["cells"] if c["kind"] == "const"]
    assert const["width"] == 65536 and const["value"] == (1 << 65536) - 1


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


def test_explore_budget_past_the_recursion_limit_exits_four(corpus_root, tmp_path,
                                                            capsys):
    # the first path of gray_cross takes 501 decisions, one branching tick
    # each, before the budget stops it: deeper than a recursive search goes
    files, stim = _case_args(corpus_root, "gray_cross")
    rc = main(["explore", *files, "-s", stim, "--budget", "500",
               "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: exploration needs 501 decisions, budget is 500\n")


def test_explore_branch_cap_exits_four_and_names_the_cap(corpus_root, tmp_path,
                                                        capsys, monkeypatch):
    monkeypatch.setattr("cdckit.explore._BRANCH_CAP", 4)
    files, stim = _case_args(corpus_root, "divergence")
    rc = main(["explore", *files, "-s", stim, "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: exploration needs more than the branch cap of 4 branches\n")


def test_explore_branch_cap_counts_merged_paths(corpus_root, tmp_path, capsys,
                                               monkeypatch):
    # 16384 paths through a few dozen states: the cap counts paths, so it
    # is passed although fewer ticks than the cap are committed
    monkeypatch.setattr("cdckit.explore._BRANCH_CAP", 100)
    commits = 0
    commit_tick = Engine.commit_tick

    def counted(*args):
        nonlocal commits
        commits += 1
        return commit_tick(*args)

    monkeypatch.setattr(Engine, "commit_tick", counted)
    files, stim = _case_args(corpus_root, "freq_data_loss_clean")
    rc = main(["explore", *files, "-s", stim, "--checkers", "stability",
               "--out", str(tmp_path)])
    assert rc == 4
    assert capsys.readouterr().err == (
        "error: exploration needs more than the branch cap of 100 branches\n")
    assert commits < 100


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


def test_report_pair_absent_from_pairs_report_exits_five(tmp_path, capsys):
    db, pairs = tmp_path / "db.json", tmp_path / "pairs.json"
    db.write_text('{"fingerprint": "f", "pairs": ["x"]}')
    pairs.write_text('{"fingerprint": "f", "pairs": []}')
    assert main(["report", "--db", str(db), "--pairs", str(pairs)]) == 5
    assert capsys.readouterr().err == \
        "error: database mentions pairs absent from the pair report\n"


def test_unwritable_output_path_exits_one(corpus_root, tmp_path, capsys):
    files, stim = _case_args(corpus_root, "cov_toggle")
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["analyze", *files, "--out", str(afile)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {afile / 'pairs.json'}: ")
    adir = tmp_path / "adir"
    adir.mkdir()
    for vcd in (afile / "trace.vcd", adir):
        assert main(["simulate", *files, "-s", stim, "--checkers", "none",
                     "--out", str(tmp_path / "o"), "--vcd", str(vcd)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {vcd}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile", "o"]


def test_an_output_path_with_an_empty_name_exits_one(corpus_root, tmp_path, capsys,
                                                    monkeypatch):
    """`--vcd .` names the working directory: no file can go there, and the
    temporary file beside it is removed."""
    files, stim = _case_args(corpus_root, "msi_latency")
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", *files, "-s", stim, "--checkers", "none",
                 "--out", "o", "--vcd", "."]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: .: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o"]


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
    ["--latency", "5:2"],
    ["--latency", "cdc0:-1:2"],
    ["--latency", "cdc99:1:2"],
    "two-roots",
    "constraints-dir",
    "non-utf8",
    ["--seed", "x"],
    ["--bogus"],
    ["--probability", "1.5"],
    ["--probability", "-0.1"],
    ["--probability", "nan"],
    "budget-negative",
    "latency-suppressed",
], ids=["seeds-reversed", "seeds-dash", "latency-letters", "latency-max-letter",
        "latency-order", "latency-negative", "latency-pair", "two-roots",
        "constraints-dir", "non-utf8", "seed-letter", "unknown-option",
        "probability-high", "probability-negative", "probability-nan",
        "budget-negative", "latency-suppressed"])
def test_bad_user_input_exits_one(corpus_root, tmp_path, capsys, extra):
    files, stim = _case_args(corpus_root, "cov_toggle")
    command = "simulate"
    if extra == "two-roots":
        rtl = tmp_path / "two.v"
        rtl.write_text(TWO_ROOTS)
        cons = tmp_path / "c.cdc"
        cons.write_text("clock clk -period 10 -domain A\n")
        files, extra = [str(rtl), "-c", str(cons)], []
    elif extra == "constraints-dir":
        files, extra = [files[0], "-c", str(tmp_path)], []
    elif extra == "non-utf8":
        rtl = tmp_path / "latin1.v"
        rtl.write_bytes(b"// caf\xe9\n" + Path(files[0]).read_bytes())
        files, extra = [str(rtl), *files[1:]], []
    elif extra == "budget-negative":
        command, extra = "explore", ["--budget", "-1"]
    elif extra == "latency-suppressed":
        # cdc0 of static_config is declared static
        files, stim = _case_args(corpus_root, "static_config")
        command, extra = "explore", ["--latency", "cdc0:1:3", "--checkers", "latency"]
    rc = main([command, *files, "-s", stim, *extra, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert ":0:0:" not in err       # option values have no file position


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["simulate", "--help"]],
                         ids=["version", "help", "command-help"])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert capsys.readouterr().out


# Command lines that end in help, the version or a usage error before any
# command runs, as scripts/output_digests.py digests them
_spec = importlib.util.spec_from_file_location(
    "output_digests",
    Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py")
_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_digests)
PARSER_ARGVS = _digests.CLI_ARGVS
COMMANDS = list(_digests.VALID_ARGS)


def _outcome(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = f"exit {e.code}"
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "-")
def test_a_command_line_parses_as_with_every_commands_arguments(argv, capsys,
                                                                monkeypatch):
    """`main` builds the arguments of the command it is given only: the exit
    code and every byte of output equal those of the parser of every
    command."""
    got = _outcome(argv, capsys)
    full = cdckit.cli.make_parser
    monkeypatch.setattr(cdckit.cli, "make_parser", lambda *args: full())
    assert _outcome(argv, capsys) == got


def test_a_command_line_builds_only_its_commands_arguments():
    def arguments(ap):
        sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
        return {name: len(p._actions) - 1 for name, p in sub.choices.items()}

    full = arguments(cdckit.cli.make_parser())
    assert all(full.values()) and list(full) == COMMANDS
    for command in COMMANDS:
        assert arguments(cdckit.cli.make_parser(["--version", command, "x"])) == {
            name: n if name == command else 0 for name, n in full.items()}
    assert arguments(cdckit.cli.make_parser(["-", "frobnicate", "analyze"])) == full
    # a command line that starts with its command gets that command only
    for command in COMMANDS:
        assert arguments(cdckit.cli.make_parser([command, "x"])) == {command: full[command]}


@pytest.mark.parametrize("role, text", [
    ("db", "not json"),
    ("db", "{}"),
    ("db", "[]"),
    ("db", '{"fingerprint": "f", "bins": 3}'),
    ("pairs", "not json"),
    ("pairs", "{}"),
    ("pairs", "[]"),
    ("pairs", '{"fingerprint": "f", "pairs": 3}'),
    ("pairs", '{"fingerprint": "f", "pairs": [{"id": "cdc0"}]}'),
    ("pairs", '{"fingerprint": "f", "pairs": [{"id": "cdc0", "width": 0}]}'),
    ("pairs", '{"fingerprint": "f", "pairs": [{"id": "cdc0", "width": -2}]}'),
    ("pairs", '{"fingerprint": "f", "pairs": [{"id": "cdc0", "width": true}]}'),
    ("merge", "not json"),
    ("merge", "{}"),
], ids=["db-text", "db-empty", "db-list", "db-bins", "pairs-text", "pairs-empty",
        "pairs-list", "pairs-not-list", "pairs-no-width", "pairs-width-zero",
        "pairs-width-negative", "pairs-width-bool", "merge-text", "merge-empty"])
def test_malformed_json_input_exits_one(tmp_path, capsys, role, text):
    db, pairs, bad = tmp_path / "db.json", tmp_path / "pairs.json", tmp_path / "bad.json"
    db.write_text('{"fingerprint": "f"}')
    pairs.write_text('{"fingerprint": "f", "pairs": []}')
    bad.write_text(text)
    if role == "merge":
        argv = ["merge-coverage", str(db), str(bad), "--out", str(tmp_path / "m.json")]
    else:
        argv = ["report", "--db", str(bad if role == "db" else db),
                "--pairs", str(bad if role == "pairs" else pairs)]
    assert main(["report", "--db", str(db), "--pairs", str(pairs)]) == 0
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and "Traceback" not in err


@pytest.mark.parametrize("target, line", [
    ("constraints", "clock clk_x -period x10 -domain X"),
    ("constraints", "clock clk_x -period 10 -phase x -domain X"),
    ("stimulus", "run x of clk_a"),
    ("stimulus", "random -ports d -p x -seed 1"),
    ("stimulus", "random -ports d -p 0.5 -seed x"),
    ("stimulus", "random -ports d -p 0.5 -seed"),
], ids=["period", "phase", "run", "random-p", "random-seed", "random-no-value"])
def test_malformed_directive_is_a_positioned_error(corpus_root, tmp_path, capsys,
                                                   target, line):
    d = corpus_root / "cov_toggle"
    paths = {"constraints": tmp_path / "c.cdc", "stimulus": tmp_path / "s.stim"}
    paths["constraints"].write_text((d / "constraints.cdc").read_text())
    paths["stimulus"].write_text((d / "stimulus.stim").read_text())
    bad = paths[target]
    bad.write_text(line + "\n" + bad.read_text())
    rc = main(["simulate", str(d / "rtl.v"), "-c", str(paths["constraints"]),
               "-s", str(paths["stimulus"]), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {bad}:1:0: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "simulate", "explore", "generate"])
@pytest.mark.parametrize("option", ["stability_cycles", "ndff_min_depth"])
def test_option_below_one_is_a_positioned_error(corpus_root, tmp_path, capsys,
                                                option, command):
    argv, stim = _case_args(corpus_root, "freq_data_loss_clean")
    cons = tmp_path / "c.cdc"
    text = Path(argv[2]).read_text()
    cons.write_text(text + f"option {option} 0\n")
    argv[2] = str(cons)
    if command in ("simulate", "explore"):
        argv += ["-s", stim]
    rc = main([command, *argv, "--out", str(tmp_path / "out")])
    line = text.count("\n") + 1
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cons}:{line}:0: bad value for option {option}\n"
    cons.write_text(text + f"option {option} 1\n")
    assert main([command, *argv, "--out", str(tmp_path / "out")]) in (0, 3)


def test_constraint_errors_are_positioned_in_their_own_file(corpus_root, tmp_path,
                                                            capsys, monkeypatch):
    d = corpus_root / "cov_toggle"
    opt = tmp_path / "defaults.cdc"
    opt.write_text("option setup_window 1\noption hold_window 1\n")
    monkeypatch.setenv("CDCKIT_OPTIONS", str(opt))
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk_x -period x10 -domain X\n"
                    + (d / "constraints.cdc").read_text())
    rc = main(["analyze", str(d / "rtl.v"), "-c", str(cons),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cons}:1:0: -period needs an integer, got 'x10'\n")


def test_declaration_errors_are_positioned_in_their_source_file(tmp_path, capsys):
    rtl = tmp_path / "rtl.v"
    rtl.write_text("module m(input clk, input a, output reg q);\n  reg r;\n"
                   "  always @(posedge clk) begin\n    r <= a;\n    q <= z;\n"
                   "  end\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\n")
    rc = main(["analyze", str(rtl), "-c", str(cons), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {rtl}:5:10: undeclared identifier 'z'\n"


_SUB = "module sub(input [1:0] a, output y);\n  assign y = a[0];\nendmodule\n"


@pytest.mark.parametrize("module,conn", [
    ("sub", ".a(nope)"),
    ("sub", ".a({nope, d})"),
    ("bb", ".a(nope & d)"),
], ids=["defined", "concat", "blackbox"])
def test_undeclared_name_in_an_instance_connection_is_positioned(tmp_path, capsys,
                                                                 module, conn):
    rtl = tmp_path / "rtl.v"
    line = f"  {module} u({conn}, .y(q));"
    rtl.write_text(_SUB + "module top(input clk, input [1:0] d, output q);\n"
                   + line + "\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\n")
    rc = main(["analyze", str(rtl), "-c", str(cons), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {rtl}:5:{line.index('nope') + 1}: undeclared identifier 'nope'\n")


def test_first_undeclared_name_does_not_depend_on_the_hash_seed(tmp_path):
    rtl = tmp_path / "rtl.v"
    rtl.write_text("module m(input a, output w);\n  assign w = xa & yb & zc;\n"
                   "endmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock a -period 10 -domain A\n")
    src = Path(cdckit.cli.__file__).resolve().parent.parent
    errs = set()
    for seed in range(1, 5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-m", "cdckit", "analyze", str(rtl),
                              "-c", str(cons), "--out", str(tmp_path / "out")],
                             env=env, capture_output=True, check=False)
        assert run.returncode == 1
        errs.add(run.stderr)
    assert errs == {f"error: {rtl}:2:14: undeclared identifier 'xa'\n".encode()}


def test_a_name_may_be_used_before_its_declaration(tmp_path):
    rtl = tmp_path / "rtl.v"
    rtl.write_text("module top(input clk, input clk_b, input d, output q);\n"
                   "  assign q = q2;\n  always @(posedge clk) s <= d;\n"
                   "  always @(posedge clk_b) begin q1 <= s; q2 <= q1; end\n"
                   "  reg s, q1, q2;\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\nclock clk_b -period 7 -domain B\n")
    out = tmp_path / "out"
    assert main(["analyze", str(rtl), "-c", str(cons), "--strict", "--out", str(out)]) == 0
    pairs = json.loads((out / "pairs.json").read_text())["pairs"]
    assert [(p["src"], p["dst"]) for p in pairs] == [("s", "q1")]


def _analyze_error(tmp_path, capsys, *texts, argv=()):
    """`analyze` on source files d1.v, d2.v, ... holding `texts`; returns the
    paths, the exit code and stderr."""
    paths = []
    for i, text in enumerate(texts, start=1):
        paths.append(tmp_path / f"d{i}.v")
        paths[-1].write_text(text)
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\n")
    rc = main(["analyze", *map(str, paths), "-c", str(cons), *argv,
               "--out", str(tmp_path / "out")])
    return paths, rc, capsys.readouterr().err


_RST = "module m(input clk, input rst, input rst_n, input [3:0] a, output reg [1:0] q);\n"
_SUB_Y = "module sub(input a, output y);\n  assign y = a;\nendmodule\n"
_TOP_W = "module m(input clk, input a, output w);\n"


# (the module's text, its offending line, the token the error points at, message)
@pytest.mark.parametrize("text, line, token, message", [
    (_RST, "  always @(posedge clk or posedge rst) q <= a[1:0];", "q <=",
     "always block with async reset must be 'if (reset) ... else ...'"),
    (_RST, "  always @(posedge clk or posedge rst) if (rst) q <= 0;", "if",
     "always block with async reset must be 'if (reset) ... else ...'"),
    (_RST, "  always @(posedge clk or negedge rst_n) if (rst_n) q <= 0; else q <= a[1:0];",
     "rst_n) q", "reset condition must test 'rst_n' with the polarity of its edge event"),
    (_RST, "  always @(posedge clk or posedge rst) begin if (!rst) q <= 0; else q <= 1; end",
     "!rst", "reset condition must test 'rst' with the polarity of its edge event"),
    (_RST, "  always @(posedge clk or posedge rst) if (rst) q <= a[1:0]; else q <= 0;",
     "q <= a", "reset value of 'q' must be a constant literal"),
    (_RST, "  always @(posedge clk or posedge rst) if (rst) begin q <= 1; if (a[0]) q <= 0;"
     " end else q <= 0;", "q <= 1", "reset value of 'q' must be a constant literal"),
    (_RST.replace("input rst,", "input [1:0] rst,"),
     "  always @(posedge clk or posedge rst) if (rst) q <= 0; else q <= 1;", "rst)",
     "reset 'rst' must be 1 bit wide"),
    (_RST, "  always @(posedge clk or posedge rst) if (rst) q <= 3'd4; else q <= 1;", "q <=",
     "reset value of 'q' does not fit"),
    (_RST, "  always @(posedge clk) q <= {a[4], a[0]};", "a[4]",
     "slice [4:4] out of range for a (4 bits)"),
    (_SUB_Y + _TOP_W, "  sub u(.a(a), .y(w), .a(clk));", "a(clk", "u: port 'a' connected twice"),
    (_TOP_W, "  bb u(.a(a), .a(clk), .y(w));", "a(clk", "u: port 'a' connected twice"),
    (_SUB_Y + _TOP_W, "  sub u(.a(a), .zz(clk), .y(w));", "u(", "u: module 'sub' has no port 'zz'"),
    (_SUB_Y + _TOP_W, "  sub u(.a(a), .y(w & a));", "u(",
     "u: output port 'y' must connect to a plain net"),
], ids=["reset-not-if", "reset-no-else", "reset-polarity", "reset-polarity-begin",
        "reset-literal", "reset-nested-if", "reset-width", "reset-fits", "slice-range",
        "conn-twice", "conn-twice-blackbox", "no-port", "output-expression"])
def test_shape_errors_are_positioned_at_their_token(tmp_path, capsys, text, line, token,
                                                    message):
    source = text + line + "\nendmodule\n"
    [rtl], rc, err = _analyze_error(tmp_path, capsys, source)
    assert rc == 1
    row = source.split("\n").index(line) + 1
    assert err == f"error: {rtl}:{row}:{line.index(token) + 1}: {message}\n"


@pytest.mark.parametrize("ports", ["input a, input a", "input a, output a",
                                   "output reg [1:0] a, input a"])
def test_port_declared_twice_in_a_header_is_positioned(tmp_path, capsys, ports):
    head = "module m(input clk, "
    [rtl], rc, err = _analyze_error(tmp_path, capsys, f"{head}{ports}, output w);\n"
                                    "  assign w = a;\nendmodule\n")
    assert rc == 1
    second = len(head) + ports.index(", ") + 3      # the second declaration
    assert err == f"error: {rtl}:1:{second}: 'a' already declared\n"


def test_duplicate_module_in_one_file_points_at_the_second_definition(tmp_path, capsys):
    [rtl], rc, err = _analyze_error(tmp_path, capsys, "module m(input clk);\nendmodule\n"
                                    "  module m(input clk);\nendmodule\n")
    assert rc == 1
    assert err == f"error: {rtl}:3:3: module 'm' already defined at line 1\n"


@pytest.mark.parametrize("argv", [(), ("--top", "m")], ids=["inferred-top", "top"])
def test_duplicate_module_across_files_names_the_first_file(tmp_path, capsys, argv):
    mod = "module m(input clk);\nendmodule\n"
    (d1, d2), rc, err = _analyze_error(tmp_path, capsys, mod, "\n" + mod, argv=argv)
    assert rc == 1
    assert err == f"error: {d2}:2:1: module 'm' already defined at {d1}:1\n"


def test_elaborator_temporaries_skip_declared_names(tmp_path, capsys):
    rtl = tmp_path / "rtl.v"
    rtl.write_text("module top(input clk, input a, input b, output reg q);\n"
                   "  wire __t1;\n  assign __t1 = a;\n"
                   "  always @(posedge clk) q <= (a & b) | __t1;\nendmodule\n")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk -period 10 -domain A\n")
    out = tmp_path / "out"
    assert main(["analyze", str(rtl), "-c", str(cons), "--out", str(out),
                 "--dump-ir", str(tmp_path / "ir.json")]) == 0
    nets = [n["name"] for n in json.loads((tmp_path / "ir.json").read_text())["nets"]]
    # `__t1` is merged into `a`; the first temporary skips its name
    assert len(nets) == len(set(nets)) and "__t1" not in nets and "__t2" in nets


def test_stimulus_without_run_names_its_file(corpus_root, tmp_path, capsys):
    files, _ = _case_args(corpus_root, "cov_toggle")
    stim = tmp_path / "s.stim"
    stim.write_text("# no run directive\n")
    rc = main(["simulate", *files, "-s", str(stim), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {stim}: stimulus needs a run directive\n"


# (case, stimulus, the line of it that the engine rejects, message)
STIMULUS_OUT_OF_RANGE = [
    pytest.param("gray_cross",
                 "at clk_a 0 set rst_a_n 1\nat clk_z 0 set rst_b_n 1\nrun 10 of clk_b\n",
                 2, "stimulus clock 'clk_z' is not declared", id="set-clock"),
    pytest.param("gray_cross",
                 "# outputs are driven by the design\nat clk_a 1 set o 1\nrun 10 of clk_b\n",
                 2, "stimulus port 'o' is not an input", id="set-port"),
    pytest.param("gray_cross", "at clk_a 0 set rst_a_n 1\n\nat clk_a 100000 set rst_b_n 1\n"
                 "run 10 of clk_b\n",
                 3, "stimulus at clk_a edge 100000 lands after the run ends", id="set-edge"),
    pytest.param("gray_cross", "at clk_a 0 set rst_a_n 2\nrun 10 of clk_b\n",
                 1, "value for 'rst_a_n' exceeds 1 bits", id="set-value"),
    pytest.param("gray_cross", "at clk_a 0 set rst_a_n 1\n"
                 "random -ports rst_b_n,o -p 0.5 -seed 1\nrun 10 of clk_b\n",
                 2, "random port 'o' is not an input", id="random-port"),
    pytest.param("mux_sync", "random -ports load,din -p 0.5 -seed 1\nrun 10 of clk_b\n",
                 1, "random port 'din' must be 1 bit wide", id="random-width"),
    pytest.param("gray_cross", "at clk_a 0 set rst_a_n 1\n\n\nrun 10 of clk_q\n",
                 4, "run clock 'clk_q' is not declared", id="run-clock"),
]


@pytest.mark.parametrize("command", ["simulate", "explore"])
@pytest.mark.parametrize("case, text, line, message", STIMULUS_OUT_OF_RANGE)
def test_stimulus_the_engine_rejects_names_its_file_and_line(
        corpus_root, tmp_path, capsys, command, case, text, line, message):
    """Stimulus that parses but that the design or the constraints reject
    is reported at the line of its directive, as the parser reports its
    own errors, and exits 1."""
    files, _ = _case_args(corpus_root, case)
    stim = tmp_path / "s.stim"
    stim.write_text(text)
    rc = main([command, *files, "-s", str(stim), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {stim}:{line}:0: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "explore"])
def test_a_checkers_entry_naming_no_kind_exits_one(corpus_root, tmp_path, capsys,
                                                   command):
    """An entry must be a non-empty prefix of a checker kind or begin with
    `<kind>:`; a kind that this design has no checker of stays legal, as
    does `none`."""
    files, stim = _case_args(corpus_root, "msi_latency")
    for entry in ("bogus", "stabilty", "latency,fifoo", "gray_code_", "latencyx:cdc0",
                  "", ",", "stability,", "stability,,latency"):
        rc = main([command, *files, "-s", stim, "--checkers", entry,
                   "--out", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert rc == 1, entry
        if "" in entry.split(","):
            assert err == "error: checker selection has an empty entry\n", err
        else:
            assert err.startswith(f"error: checker selection {entry.split(',')[-1]!r} "
                                  "names no checker kind"), err
    assert not (tmp_path / "bad").exists()
    legal = {"none": [], "fifo": [], "stability:nosuch": [],
             "lat": ["latency:cdc0"], "latency:": ["latency:cdc0"],
             "latency:cdc0,fifo": ["latency:cdc0"],
             "latency,stability": ["latency:cdc0", "stability:cdc0"]}
    for i, (entry, checkers) in enumerate(legal.items()):
        out = tmp_path / f"ok{i}"
        assert main([command, *files, "-s", stim, "--checkers", entry,
                     "--latency", "cdc0:1:3", "--out", str(out)]) == 0, entry
        verdicts = json.loads((out / "verdicts.json").read_text())["verdicts"]
        names = sorted(v["checker"] for v in verdicts) if command == "simulate" \
            else sorted(verdicts)
        assert names == checkers, entry
    capsys.readouterr()


def test_a_seed_range_past_its_bound_exits_one(corpus_root, tmp_path, capsys,
                                               monkeypatch):
    """A range of more than 1,000,000 seeds is rejected before its list is
    built, a range of 10^20 too.  Against a bound lowered to 3 seeds,
    `1..3` runs and `1..4` fails."""
    files, stim = _case_args(corpus_root, "gray_cross")

    def argv(seeds):
        return ["simulate", *files, "-s", stim, "--seeds", seeds, "--checkers", "none",
                "--out", str(tmp_path / "o")]

    for seeds in ("1..100000000000000000000", "0..1000000"):
        assert main(argv(seeds)) == 1
        assert capsys.readouterr().err == (
            f"error: seed range {seeds!r} names more than 1,000,000 seeds\n")
    monkeypatch.setattr("cdckit.sim.MAX_SEEDS", 3)
    assert main(argv("1..3")) == 0
    assert main(argv("1..4")) == 1
    assert capsys.readouterr().err == (
        "error: seed range '1..4' names more than 3 seeds\n")


@pytest.mark.parametrize("command", ["simulate", "explore"])
def test_a_run_past_the_edge_bound_is_a_positioned_error(corpus_root, tmp_path, capsys,
                                                         monkeypatch, command):
    """The bound is checked before the engine builds its agenda: a run of
    10^20 edges fails at once.  Against a bound lowered to 26 edges, a run
    implying exactly 26 edges over both clocks runs and a longer one fails."""
    files, _ = _case_args(corpus_root, "gray_cross")
    stim = tmp_path / "s.stim"
    stim.write_text("at clk_a 0 set rst_a_n 1\nrun 99999999999999999999 of clk_b\n")
    argv = [command, *files, "-s", str(stim), "--checkers", "none",
            "--out", str(tmp_path / "o")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {stim}:2:0: run of 99999999999999999999 clk_b edges implies "
        "274999999999999999996 clock edges; a run may imply at most 1000000\n")
    # clk_a has period 4 and clk_b 7 (gray_cross): 10 edges of clk_b end at
    # tick 63, by which clk_a has edged 16 times; 11 end at 70, after 18
    monkeypatch.setattr("cdckit.stimulus.MAX_RUN_EDGES", 26)
    stim.write_text("run 10 of clk_b\n")
    assert main(argv) == 0
    stim.write_text("run 11 of clk_b\n")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {stim}:1:0: run of 11 clk_b edges "
                                              "implies 29 clock edges")


def test_static_repeated_across_options_and_constraints_exits_one(
        corpus_root, tmp_path, capsys, monkeypatch):
    d = corpus_root / "static_config"
    opt = tmp_path / "defaults.cdc"
    opt.write_text("# shared\nstatic cfg_r\n")
    monkeypatch.setenv("CDCKIT_OPTIONS", str(opt))
    cons = tmp_path / "c.cdc"
    cons.write_text((d / "constraints.cdc").read_text())
    rc = main(["analyze", str(d / "rtl.v"), "-c", str(cons),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cons}:5:0: static 'cfg_r' already declared on {opt}:2\n")


def test_repeated_static_declaration_exits_one(corpus_root, tmp_path, capsys):
    d = corpus_root / "static_config"
    cons = tmp_path / "c.cdc"
    cons.write_text((d / "constraints.cdc").read_text() + "static cfg_r\n")
    rc = main(["generate", str(d / "rtl.v"), "-c", str(cons),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {cons}:6:0: static 'cfg_r' already declared on line 5\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "simulate", "generate"])
def test_static_declaration_of_unknown_net_exits_one(corpus_root, tmp_path, capsys,
                                                     command):
    d = corpus_root / "static_config"
    cons = tmp_path / "c.cdc"
    cons.write_text((d / "constraints.cdc").read_text() + "static no_such_net\n")
    stim = ["-s", str(d / "stimulus.stim")] if command == "simulate" else []
    rc = main([command, str(d / "rtl.v"), "-c", str(cons), *stim,
               "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: declared static signal 'no_such_net' not found\n")


def _nested_rtl(rhs: str) -> str:
    return f"""module top(input clk_a, input rst_a_n, input d, output q);
  reg r;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) r <= 1'b0;
    else r <= {rhs};
  end
  assign q = r;
endmodule
"""


@pytest.mark.parametrize("rhs, col", [
    ("(~(" * 200 + "d" + "))" * 200, 115),     # at the token 101 levels in
    (" & ".join(["d"] * 150), 15),              # at the start of the chain
], ids=["nested-not", "long-chain"])
def test_deep_expression_is_a_positioned_error(tmp_path, capsys, rhs, col):
    rtl = tmp_path / "deep.v"
    rtl.write_text(_nested_rtl(rhs))
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk_a -period 10 -domain A\n")
    rc = main(["analyze", str(rtl), "-c", str(cons), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == (f"error: {rtl}:5:{col}: expression nested deeper than 100 "
                   "levels\n")
    # the deepest accepted nesting still analyzes
    rtl.write_text(_nested_rtl("~(" * 49 + "d" + ")" * 49))
    assert main(["analyze", str(rtl), "-c", str(cons), "--out", str(tmp_path)]) == 0


def _nested_if_rtl(levels: int, rhs: str) -> str:
    """`levels` if statements nested in the else arm of the reset `if`;
    the k-th of them is on line 5 + k."""
    opens = "".join("    if (d) begin\n" for _ in range(levels))
    closes = "".join("    end\n" for _ in range(levels))
    return f"""module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg r;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) r <= 1'b0;
    else begin
{opens}    r <= {rhs};
{closes}    end
  end
  reg dst;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) dst <= 1'b0;
    else dst <= r;
  end
  assign q = dst;
endmodule
"""


def test_deep_statement_nesting_is_a_positioned_error(tmp_path, capsys):
    rtl = tmp_path / "deep.v"
    rtl.write_text(_nested_if_rtl(1000, "~d"))
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk_a -period 10 -domain A\nclock clk_b -period 7 -domain B\n"
                    "reset rst_a_n -active_low -domain A\n"
                    "reset rst_b_n -active_low -domain B\n")
    files = [str(rtl), "-c", str(cons)]
    assert main(["analyze", *files, "--out", str(tmp_path / "a")]) == 1
    # the reset `if` is level 1, so the 100th nested `if` is level 101
    assert capsys.readouterr().err == (
        f"error: {rtl}:105:5: statement nested deeper than 100 levels\n")
    # the deepest accepted statement, with the deepest accepted expression
    # innermost, still analyzes and simulates
    rtl.write_text(_nested_if_rtl(99, "~(" * 49 + "~d" + ")" * 49))
    stim = tmp_path / "s.stim"
    stim.write_text("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                    "at clk_a 2 set d 1\nrun 20 of clk_b\n")
    assert main(["analyze", *files, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", *files, "-s", str(stim), "--seed", "3",
                 "--out", str(tmp_path / "s")]) == 0
    events = json.loads((tmp_path / "s" / "msi_events.json").read_text())["events"]
    assert events


def test_long_gate_chain_analyzes_and_simulates(tmp_path):
    """A 1500-gate chain between two domains: the fan-in walks and the
    crossing destination's cone kernel are 1500 gates deep."""
    n = 1500
    chain = "".join(f"  wire w{i};\n  assign w{i} = ~w{i - 1};\n" for i in range(1, n))
    rtl = tmp_path / "chain.v"
    rtl.write_text(f"""module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0;
    else src <= ~src;
  end
  wire w0;
  assign w0 = src;
{chain}  reg dst;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) dst <= 1'b0;
    else dst <= w{n - 1};
  end
  assign q = dst;
endmodule
""")
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk_a -period 10 -domain A\nclock clk_b -period 7 -domain B\n"
                    "reset rst_a_n -active_low -domain A\n"
                    "reset rst_b_n -active_low -domain B\n")
    stim = tmp_path / "s.stim"
    stim.write_text("at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n"
                    "run 20 of clk_b\n")
    files = [str(rtl), "-c", str(cons)]
    assert main(["analyze", *files, "--out", str(tmp_path / "a")]) == 0
    pairs = json.loads((tmp_path / "a" / "pairs.json").read_text())["pairs"]
    assert [(p["src"], p["dst"]) for p in pairs] == [("src", "dst")]
    assert main(["simulate", *files, "-s", str(stim), "--seed", "3",
                 "--out", str(tmp_path / "s")]) == 0
    events = json.loads((tmp_path / "s" / "msi_events.json").read_text())["events"]
    assert events and {e["pair"] for e in events} == {pairs[0]["id"]}


def test_simulate_seeds_compile_the_comb_kernel_once(corpus_root, tmp_path, monkeypatch):
    import cdckit.sim as sim

    compiled = []
    real = sim._compile_comb
    monkeypatch.setattr(sim, "_compile_comb",
                        lambda nl, gates: compiled.append((nl, gates)) or real(nl, gates))
    files, stim = _case_args(corpus_root, "binary_cross")
    argv = ["simulate", *files, "-s", stim, "--seeds", "1..3", "--checkers", "none",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    assert len(compiled) == 1       # the observed cone's gates
    # the first seed's waves evaluate every net: the other gates compile
    # once more, and each gate compiles once
    compiled.clear()
    assert main(argv + ["--vcd", str(tmp_path / "t.vcd")]) == 0
    [(nl, cone), (other, rest)] = compiled
    assert other is nl and cone and rest
    assert sorted(cone + rest) == sorted(nl.comb_topo())


def test_simulate_seeds_run_on_one_engine(corpus_root, tmp_path, monkeypatch):
    import cdckit.sim as sim

    made = []
    init = sim.Engine.__init__
    monkeypatch.setattr(sim.Engine, "__init__",
                        lambda self, *args, **kw: made.append(1) or init(self, *args, **kw))
    files, stim = _case_args(corpus_root, "cov_toggle")
    assert main(["simulate", *files, "-s", stim, "--seeds", "1..3",
                 "--checkers", "none", "--out", str(tmp_path)]) == 0
    assert len(made) == 1
    seeds = json.loads((tmp_path / "coverage.json").read_text())["seeds"]
    assert seeds == [1, 2, 3]


def _module_chain_rtl(levels: int) -> str:
    """`levels` modules, each instantiating the next; the innermost holds a
    source flop and a two-flop synchronizer into the other domain."""
    ports = "input clk_a, input clk_b, input d, output q"
    conns = ".clk_a(clk_a), .clk_b(clk_b), .d(d), .q(q)"
    mods = [f"module m{i}({ports});\n  m{i + 1} u({conns});\nendmodule\n"
            for i in range(levels - 1)]
    mods.append(f"module m{levels - 1}({ports});\n  reg s, q1, q2;\n"
                "  always @(posedge clk_a) s <= d;\n"
                "  always @(posedge clk_b) begin q1 <= s; q2 <= q1; end\n"
                "  assign q = q2;\nendmodule\n")
    return "".join(mods)


def test_deep_hierarchy_runs_every_command(tmp_path, capsys):
    rtl = tmp_path / "chain.v"
    rtl.write_text(_module_chain_rtl(1000))
    cons = tmp_path / "c.cdc"
    cons.write_text("clock clk_a -period 10 -domain A\nclock clk_b -period 7 -domain B\n")
    stim = tmp_path / "s.stim"
    stim.write_text("at clk_a 1 set d 1\nrun 8 of clk_b\n")
    files = [str(rtl), "-c", str(cons)]
    assert main(["analyze", *files, "--out", str(tmp_path / "a")]) == 0
    syncs = json.loads((tmp_path / "a" / "syncs.json").read_text())["syncs"]
    assert [s["kind"] for s in syncs] == ["ndff"]
    assert main(["simulate", *files, "-s", str(stim), "--out", str(tmp_path / "s")]) == 0
    assert main(["generate", *files, "--out", str(tmp_path / "g")]) == 0
    assert "Traceback" not in capsys.readouterr().err


# --- the cyclic collector is paused for one command ---------------------------

def _exit_code_argv(corpus_root, tmp_path, code: int) -> list[str]:
    """A command line that exits with `code`."""
    out = ["--out", str(tmp_path / "out")]
    if code == 5:
        db, pairs = tmp_path / "db.json", tmp_path / "pairs.json"
        db.write_text('{"fingerprint": "f", "pairs": ["x"]}')
        pairs.write_text('{"fingerprint": "f", "pairs": []}')
        return ["report", "--db", str(db), "--pairs", str(pairs)]
    if code == 1:
        return ["analyze", "--no-such-option"]      # a usage error
    case, argv = {
        0: ("missing_sync_clean", ["analyze", "--strict"]),
        2: ("missing_sync", ["analyze", "--strict"]),
        3: ("wide_pulse", ["simulate", "--no-msi", "--checkers", "pulse_width"]),
        4: ("cov_toggle", ["explore", "--budget", "8"]),
    }[code]
    files, stim = _case_args(corpus_root, case)
    stim_args = ["-s", stim] if argv[0] != "analyze" else []
    return [argv[0], *files, *stim_args, *argv[1:], *out]


def _watch_gc(monkeypatch) -> list[bool]:
    """`gc.isenabled()` as each later command saw it while running."""
    seen = []
    make_parser = cdckit.cli.make_parser

    def watched(*args):
        seen.append(gc.isenabled())
        return make_parser(*args)

    monkeypatch.setattr(cdckit.cli, "make_parser", watched)
    return seen


@pytest.fixture
def gc_enabled():
    """Runs the test with the cyclic collector on, and leaves it as found."""
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.mark.parametrize("code", range(6))
def test_gc_is_paused_for_the_command_and_restored_on_exit(
        corpus_root, tmp_path, monkeypatch, capsys, gc_enabled, code):
    seen = _watch_gc(monkeypatch)
    assert main(_exit_code_argv(corpus_root, tmp_path, code)) == code
    # a usage error is parsed again by the parser of every command
    assert seen == [False] * (2 if code == 1 else 1)
    assert gc.isenabled()


@pytest.mark.parametrize("argv", [["--version"], ["--help"]], ids=["version", "help"])
def test_gc_is_restored_after_system_exit(monkeypatch, capsys, gc_enabled, argv):
    seen = _watch_gc(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert seen == [False]
    assert gc.isenabled()


def test_gc_is_restored_after_an_unexpected_exception(corpus_root, tmp_path, monkeypatch,
                                                      gc_enabled):
    def broken(analysis):
        raise RuntimeError("broken")

    monkeypatch.setattr(cdckit.cli, "pairs_report", broken)
    with pytest.raises(RuntimeError):
        main(_exit_code_argv(corpus_root, tmp_path, 0))
    assert gc.isenabled()


def test_gc_stays_off_for_a_caller_that_turned_it_off(corpus_root, tmp_path, capsys):
    was = gc.isenabled()
    gc.disable()
    try:
        assert main(_exit_code_argv(corpus_root, tmp_path, 0)) == 0
        assert not gc.isenabled()
    finally:
        if was:
            gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_design(corpus_root, tmp_path, capsys):
    # what `gc.collect()` finds after a command, with the collector paused
    # as `main` pauses it, is the same for a 1-block and a 12-block design
    # (for `explore`, generated exploration designs, and for `simulate
    # --vcd`, whose waves evaluate every net, generated simulation designs),
    # and for a `simulate` of 2 and of 20 seeds that share a path
    gen = load_gen()
    found = {}
    was = gc.isenabled()
    gc.disable()
    try:
        for blocks in (1, 1, 12):   # the first run takes any one-time garbage
            flat = gen.build(f"flat{blocks}", 1, blocks, shape="flat")
            designs = (
                ("analyze", flat, []),
                ("generate", flat, []),
                ("explore", gen.build("explore", 1, blocks, purpose="explore", run_edges=4,
                                      gray_sources=2),
                 ["--budget", "16", "--checkers", ",".join(gen.EXPLORE_CHECKERS)]),
                ("simulate", gen.build("sim", 1, blocks, block=gen.SIM_BLOCK, purpose="sim",
                                       run_edges=30),
                 ["--seeds", "1..2", "--checkers", ",".join(gen.SIM_CHECKERS),
                  "--vcd", str(tmp_path / "trace.vcd")]))
            for command, d, options in designs:
                work = tmp_path / f"{command}{blocks}"
                work.mkdir(exist_ok=True)
                for name, text in d.files.items():
                    (work / name).write_text(text)
                stim = ["-s", str(work / "stimulus.stim")] if options else []
                gc.collect()
                assert main([command, str(work / "rtl.v"), "-c", str(work / "constraints.cdc"),
                             *stim, *options, "--out", str(work / "out")]) == 0
                found[command, blocks] = gc.collect()
        case = corpus_root / "binary_cross"
        for seeds in ("1..2", "1..2", "1..20"):
            gc.collect()
            assert main(["simulate", str(case / "rtl.v"), "-c", str(case / "constraints.cdc"),
                         "-s", str(case / "stimulus.stim"), "--seeds", seeds,
                         "--out", str(tmp_path / "sim")]) == 3   # gray_code fails
            found["simulate", seeds] = gc.collect()
    finally:
        if was:
            gc.enable()
    for command in ("analyze", "generate", "explore", "simulate"):
        assert found[command, 12] == found[command, 1], command
    assert found["simulate", "1..20"] == found["simulate", "1..2"]


# --- SystemVerilog keywords as net names ----------------------------------------

@pytest.mark.parametrize("name", SV_ONLY_KEYWORDS)
def test_generate_escapes_keyword_named_nets(corpus_root, tmp_path, capsys, name):
    rtl = tmp_path / "rtl.v"
    rtl.write_text(keyword_gray_cross(name))
    cons = str(corpus_root / "gray_cross" / "constraints.cdc")
    assert main(["analyze", str(rtl), "-c", cons, "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", str(rtl), "-c", cons, "--out", str(tmp_path / "g")]) == 0
    assert capsys.readouterr().err == ""
    bind = (tmp_path / "g" / "gen" / "bind_all.sv").read_text()
    assert f".src_cdc0(\\{name} ));\n" in bind
