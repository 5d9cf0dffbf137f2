import json
import random
import re
from pathlib import Path

import pytest

from cdckit.checkers import build_checkers
from cdckit.codegen import (GeneratedFile, generate_all, generate_checks,
                            lint_generated)
from cdckit.corpus import load_corpus
from cdckit.coverage import report
from cdckit.pipeline import analyze_sources, pairs_report
from cdckit.sim import MsiConfig, simulate
from cdckit.stimulus import parse_stimulus
from conftest import (CORPUS, SV_ONLY_KEYWORDS, generated_designs,
                      keyword_gray_cross)
from oracles import mirror_verdicts, reference_lint_generated

GOLDEN = Path(__file__).parent / "golden"


def test_single_ndff_produces_stability_check(case_loader):
    analysis, _ = case_loader("missing_sync_clean")
    files = generate_checks(analysis)
    ndff = [f for f in files if f.generator == "ndff_sync_check"]
    assert len(ndff) == 1
    assert "$past(src_cdc0, 1) == $past(src_cdc0, 2)" in ndff[0].text
    assert "disable iff (!rst_dst_n)" in ndff[0].text


def test_static_declaration_emits_signal_config_check(case_loader):
    analysis, _ = case_loader("static_config")
    files = generate_checks(analysis)
    cfg = next(f for f in files if f.generator == "signal_config_check")
    assert "$stable(sig_cfg_r)" in cfg.text


def test_empty_design_generates_nothing():
    analysis = analyze_sources(
        [("t.v", "module top(input clk_a, input d, output w);\n"
                 "  assign w = d;\nendmodule\n")],
        "clock clk_a -period 10 -domain A\n")
    files = generate_checks(analysis)
    assert [f.generator for f in files] == ["bind"]


def test_coverage_model_bins(case_loader):
    analysis, _ = case_loader("cov_toggle")
    files = generate_all(analysis)
    cov = next(f for f in files if f.generator == "coverage")
    assert cov.text.count("covergroup ") == 1
    for name in ("setup_to_0", "setup_to_1", "hold_to_0", "hold_to_1"):
        assert cov.text.count(f"bins {name}") == 1


def test_suppressed_pairs_left_out_of_coverage(case_loader):
    analysis, _ = case_loader("codegen_full")
    cov = next(f for f in generate_all(analysis) if f.generator == "coverage")
    assert "cdc1" not in cov.text  # the false-path pair
    assert cov.text.count("covergroup ") == 7


def test_generation_is_deterministic(case_loader):
    analysis, _ = case_loader("codegen_full")
    a = [(f.path, f.text) for f in generate_all(analysis)]
    b = [(f.path, f.text) for f in generate_all(analysis)]
    assert a == b


def test_golden_tree(case_loader):
    analysis, _ = case_loader("codegen_full")
    files = {f.path: f.text for f in generate_all(analysis)}
    root = GOLDEN / "codegen_full"
    golden = {str(p.relative_to(root)): p.read_text()
              for p in root.rglob("*.sv")}
    assert files == golden


def test_lint_clean_on_all_generating_cases(case_loader):
    for name in ("codegen_full", "missing_sync_clean", "wide_pulse",
                 "mux_sync", "async_fifo", "gray_cross", "static_config"):
        analysis, _ = case_loader(name)
        files = generate_all(analysis)
        assert lint_generated(files, analysis.netlist) == [], name


def test_lint_catches_unknown_signal(case_loader):
    from cdckit.codegen import GeneratedFile
    analysis, _ = case_loader("missing_sync_clean")
    files = generate_all(analysis)
    bad = GeneratedFile("gen/bind_all.sv",
                        files[0].text.replace("(src)", "(no_such_net)"),
                        "bind", ())
    problems = lint_generated([bad] + files[1:], analysis.netlist)
    assert any("no_such_net" in p for p in problems)


def test_lint_catches_duplicate_port(case_loader):
    from cdckit.codegen import GeneratedFile
    analysis, _ = case_loader("static_config")
    files = generate_all(analysis)
    i = next(k for k, f in enumerate(files) if f.generator == "signal_config_check")
    port = "  input wire sig_cfg_r\n"
    assert files[i].text.count(port) == 1
    files[i] = GeneratedFile(files[i].path,
                             files[i].text.replace(port, "  input wire sig_cfg_r,\n" + port),
                             files[i].generator, files[i].sources)
    assert lint_generated(files, analysis.netlist) == [
        f"{files[i].path}: port 'sig_cfg_r' declared twice"]


def _mirror(analysis, stim_text, seed=1, msi=True):
    """(checker id, generated verdict, runtime verdict) for every generated
    checker whose verdict differs from its runtime checker's."""
    runtime, generated = mirror_verdicts(
        analysis, parse_stimulus(stim_text),
        MsiConfig(enabled=msi, probability=0.5, seed=seed))
    assert generated.keys() <= runtime.keys()
    return [(cid, ok, runtime[cid]) for cid, ok in generated.items()
            if runtime[cid] != ok]


MIRROR_CASES = ["codegen_full", "missing_sync_clean", "wide_pulse",
                "wide_pulse_clean", "freq_data_loss", "freq_data_loss_clean",
                "mux_sync", "mux_sync_bug", "async_fifo", "async_fifo_bug",
                "gray_cross", "binary_cross", "static_config",
                "static_config_clean", "gated_clock_glitch_clean",
                "unstable_crossing", "msi_latency_clean"]


@pytest.mark.parametrize("name", MIRROR_CASES)
def test_interpreter_mirrors_runtime_checkers(case_loader, name):
    analysis, stim_text = case_loader(name)
    for seed in (1, 7):
        assert _mirror(analysis, stim_text, seed) == []
    # also without injection
    assert _mirror(analysis, stim_text, 1, msi=False) == []


def _corpus_text(name: str, part: str) -> str:
    return (CORPUS / name / part).read_text()


def _verdict_pair(analysis, stim_text, cid):
    runtime, generated = mirror_verdicts(analysis, parse_stimulus(stim_text),
                                         MsiConfig(enabled=False))
    return generated[cid], runtime[cid]


def test_mirror_gray_check_is_disabled_by_its_source_domain_reset(case_loader):
    # the gray-code property samples on the source clock, so a source-domain
    # reset pulse must disable it, as it suspends the runtime checker
    analysis, stim_text = case_loader("gray_cross")
    stim = stim_text.replace(
        "run 1000 of clk_b",
        "at clk_a 101 set rst_a_n 0\nat clk_a 104 set rst_a_n 1\nrun 200 of clk_b")
    assert _verdict_pair(analysis, stim, "gray_code:cdc0") == (True, True)


def test_mirror_clock_gate_check_is_disabled_by_the_root_domain_reset(case_loader):
    # a one-edge reset of the registered enable toggles it on consecutive
    # edges, which the runtime checker ignores because its domain is in reset
    analysis, _ = case_loader("gated_clock_glitch_clean")
    stim = ("at clk_a 0 set rst_a_n 1\nat clk_a 2 set en 1\n"
            "at clk_a 5 set rst_a_n 0\nat clk_a 6 set rst_a_n 1\nrun 20 of clk_a\n")
    assert _verdict_pair(analysis, stim, "clock_gate:dst") == (True, True)


def test_mirror_disables_on_every_reset_of_the_domain():
    rtl = _corpus_text("missing_sync_clean", "rtl.v").replace(
        "input rst_b_n,", "input rst_b_n, input rst_x_n,")
    cons = (_corpus_text("missing_sync_clean", "constraints.cdc")
            + "reset rst_x_n -active_low -domain B\n")
    analysis = analyze_sources([("rtl.v", rtl)], cons)
    # rst_x_n stays low, so domain B is held in reset while d toggles
    stim = "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\n" + "".join(
        f"at clk_a {e} set d {e % 2}\n" for e in range(2, 12)) + "run 30 of clk_b\n"
    assert _verdict_pair(analysis, stim, "stability:cdc0") == (True, True)
    text = next(f.text for f in generate_checks(analysis)
                if f.generator == "ndff_sync_check")
    assert "disable iff (!rst_dst_n || !rst_dst_1_n)" in text


def _checker_ids(files) -> set[str]:
    return {m for f in files for m in re.findall(r"// checker: (\S+)", f.text)}


USER_SYNC = """
module magic_sync(input clk, input rst_n, input d, output q);
  reg m1, m2;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin m1 <= 1'b0; m2 <= 1'b0; end
    else begin m1 <= d; m2 <= m1; end
  end
  assign q = m2;
endmodule
module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= 1'b0; else src <= d;
  end
  magic_sync u0(.clk(clk_b), .rst_n(rst_b_n), .d(src), .q(q));
endmodule
"""


def test_generated_checks_are_the_default_suite():
    """One generated property set per default-suite checker, except the
    stability checkers of user synchronizers (`sync_cells`)."""
    analyses = [(case.name, case.analysis()) for case in load_corpus(CORPUS)]
    analyses.append(("sync_cells", analyze_sources(
        [("t.v", USER_SYNC)],
        _corpus_text("missing_sync_clean", "constraints.cdc")
        + "sync_cells magic_sync\n")))
    for name, analysis in analyses:
        user = {f"stability:{pid}" for s in analysis.syncs if s.kind == "user"
                for pid in s.protected}
        suite = {c.id for c in build_checkers(analysis)}
        assert _checker_ids(generate_checks(analysis)) == suite - user, name
    assert user and user <= suite


def test_coverage_report_golden(case_loader):
    analysis, stim_text = case_loader("cov_toggle")
    res = simulate(analysis, parse_stimulus(stim_text),
                   MsiConfig(probability=0.5, seed=42), [])
    rep = report(res.coverage, pairs_report(analysis)["pairs"])
    golden = json.loads((GOLDEN / "cov_toggle_report.json").read_text())
    assert rep == golden


# --- SystemVerilog keywords as names, and the lint against its oracle -------

# A crossing source inside an instance named `property`, under a top module
# named `logic`: both are SystemVerilog keywords and legal subset Verilog.
KEYWORD_HIERARCHY = """
module src_reg(input clk, input rst_n, input d, output q);
  reg r;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) r <= 1'b0; else r <= d;
  end
  assign q = r;
endmodule
module logic(input clk_a, input clk_b, input rst_a_n, input rst_b_n, input d, output q);
  wire s;
  src_reg property(.clk(clk_a), .rst_n(rst_a_n), .d(d), .q(s));
  reg q1, q2;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end
    else begin q1 <= s; q2 <= q1; end
  end
  assign q = q2;
endmodule
"""


def _keyword_analysis(name: str):
    return analyze_sources([("rtl.v", keyword_gray_cross(name))],
                           _corpus_text("gray_cross", "constraints.cdc"))


@pytest.mark.parametrize("name", SV_ONLY_KEYWORDS)
def test_keyword_named_source_is_an_escaped_identifier(case_loader, name):
    _, stim_text = case_loader("gray_cross")
    analysis = _keyword_analysis(name)
    files = generate_all(analysis)
    bind = next(f.text for f in files if f.generator == "bind")
    assert f".src_cdc0(\\{name} ));" in bind
    assert lint_generated(files, analysis.netlist) == []
    # the escaped name binds the renamed flop: the mirror still agrees
    assert _mirror(analysis, stim_text) == []


def test_keyword_named_hierarchy_components_are_escaped():
    analysis = analyze_sources([("rtl.v", KEYWORD_HIERARCHY)],
                               _corpus_text("gray_cross", "constraints.cdc"))
    files = generate_all(analysis)
    bind = files[0]
    assert bind.text.splitlines()[-1] == (
        "bind \\logic  sync0_ndff_check u_sync0_ndff_check (.clk_dst(clk_b), "
        ".rst_dst_n(rst_b_n), .src_cdc0(\\property .r));")
    assert lint_generated(files, analysis.netlist) == []
    files[0] = GeneratedFile(bind.path, bind.text.replace("\\property .r", "\\property .x"),
                             bind.generator, bind.sources)
    assert lint_generated(files, analysis.netlist) == [
        "gen/bind_all.sv: unknown signal 'property.x'"]


def _lint_designs():
    """(name, analysis): every corpus case, hier and flat generated designs
    of 1 to 24 blocks, and the keyword-named designs."""
    for case in load_corpus(CORPUS):
        yield case.name, case.analysis()
    for name, rtl, cons in generated_designs(blocks=(1, 2, 3, 6, 12, 24)):
        yield name, analyze_sources([("rtl.v", rtl)], cons)
    for name in SV_ONLY_KEYWORDS:
        yield f"gray_cross-{name}", _keyword_analysis(name)
    yield "keyword-hierarchy", analyze_sources(
        [("rtl.v", KEYWORD_HIERARCHY)], _corpus_text("gray_cross", "constraints.cdc"))


def test_lint_equals_reference_lint_on_generated_output():
    for name, analysis in _lint_designs():
        files = generate_all(analysis)
        assert lint_generated(files, analysis.netlist) == \
            reference_lint_generated(files, analysis.netlist) == [], name


# Text a single edit inserts: keywords, declarations, comments, escapes and
# the punctuation the lint's patterns turn on.
LINT_INSERTS = (
    "module", "endmodule", "property", "endproperty", "assert property",
    "assert  property", "covergroup", "endgroup", "begin", "end", "bins",
    "input wire", "input wire [2:0]", "bind top ", "// property p", "//",
    "// module m\n", "\\", "\\bins ", "\\property ", "\\p_stable_cdc0 ", "\\a) ",
    "\\module", ".a(b)", "\nbind top m u_m (.a(b));\n", "(", ")", ".", "$", "'",
    "[", "]", "/", "\n", " ", "x", "_", "2'h0",
)


def _edit(rng: random.Random, text: str) -> str:
    """`text` with one deletion, duplication or insertion at a random place."""
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + text[at + rng.randint(1, 12):]
    if kind == 1:
        start = rng.randrange(len(text))
        return text[:at] + text[start:start + rng.randint(1, 40)] + text[at:]
    return text[:at] + rng.choice(LINT_INSERTS) + text[at:]


def test_lint_equals_reference_lint_on_edited_text(case_loader):
    analyses = [case_loader(name)[0]
                for name in ("codegen_full", "async_fifo", "static_config")]
    analyses += [analyze_sources([("rtl.v", rtl)], cons)
                 for _name, rtl, cons in generated_designs(blocks=(1,))]
    analyses += [_keyword_analysis("property"), analyze_sources(
        [("rtl.v", KEYWORD_HIERARCHY)], _corpus_text("gray_cross", "constraints.cdc"))]
    designs = [(a.netlist.name, a, generate_all(a)) for a in analyses]
    rng = random.Random(2024)
    flagged = 0
    for _ in range(720):
        name, analysis, files = rng.choice(designs)
        files = list(files)
        i = rng.randrange(len(files))
        f = files[i]
        files[i] = GeneratedFile(f.path, _edit(rng, f.text), f.generator, f.sources)
        expected = reference_lint_generated(files, analysis.netlist)
        assert lint_generated(files, analysis.netlist) == expected, (name, files[i].text)
        flagged += bool(expected)
    # most edits break something the lint sees, so both paths are exercised
    assert 240 < flagged < 720
    # an escaped identifier that runs over the `)` or `]` a pattern stops at
    for old, new in (("\\property .r)", "\\property.x)"),
                     ("input wire [2:0] src_cdc0", "input wire [\\2:0] src_cdc0")):
        edited = 0
        for name, analysis, files in designs:
            for i, f in enumerate(files):
                if old in f.text:
                    files = files[:i] + [GeneratedFile(f.path, f.text.replace(old, new),
                                                       f.generator, f.sources)] + files[i + 1:]
                    expected = reference_lint_generated(files, analysis.netlist)
                    assert lint_generated(files, analysis.netlist) == expected
                    edited += 1
        assert edited, old
