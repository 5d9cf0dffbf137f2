from cdckit.pipeline import analyze_sources, findings_report
from cdckit.rules import run_structural

AB = """clock clk_a -period 10 -domain A
clock clk_b -period 10 -domain B
reset rst_a_n -active_low -domain A
reset rst_b_n -active_low -domain B
"""


def rules_of(analysis):
    return [f.rule for f in run_structural(analysis)]


def test_raw_crossing_missing_sync(case_loader):
    analysis, _ = case_loader("missing_sync")
    findings = run_structural(analysis)
    assert [f.rule for f in findings] == ["MISSING_SYNC"]
    assert findings[0].severity == "error"
    assert findings[0].pair_ids == ("cdc0",)


def test_comb_on_cdc_witness_names_the_gate(case_loader):
    analysis, _ = case_loader("comb_on_cdc")
    findings = run_structural(analysis)
    assert {f.rule for f in findings} == {"COMB_ON_CDC"}
    assert all(any("xor" in w for w in f.witness) for f in findings)


def test_clean_design_has_no_findings(case_loader):
    analysis, _ = case_loader("missing_sync_clean")
    assert rules_of(analysis) == []


def test_convergence_names_both_instances(case_loader):
    analysis, _ = case_loader("convergence")
    findings = run_structural(analysis)
    assert [f.rule for f in findings] == ["CONVERGENCE"]
    assert len(findings[0].sync_ids) == 2


def test_divergence(case_loader):
    analysis, _ = case_loader("divergence")
    findings = run_structural(analysis)
    assert [f.rule for f in findings] == ["DIVERGENCE"]
    assert len(findings[0].sync_ids) == 2


def test_suppression_monotonicity(case_loader, corpus_root):
    base, _ = case_loader("missing_sync")
    assert rules_of(base) == ["MISSING_SYNC"]
    rtl = (corpus_root / "missing_sync" / "rtl.v").read_text()
    cons = (corpus_root / "missing_sync" / "constraints.cdc").read_text()
    suppressed = analyze_sources([("rtl.v", rtl)],
                                 cons + "false_path -from src -to dst\n")
    assert rules_of(suppressed) == []
    assert suppressed.pairs[0].suppressed == "false_path"


def test_severity_override(case_loader, corpus_root):
    rtl = (corpus_root / "missing_sync" / "rtl.v").read_text()
    cons = (corpus_root / "missing_sync" / "constraints.cdc").read_text()
    a = analyze_sources([("rtl.v", rtl)],
                        cons + "option severity.MISSING_SYNC info\n")
    findings = run_structural(a)
    assert findings[0].severity == "info"


def test_witnesses_are_replayable(case_loader):
    for name in ("missing_sync", "comb_on_cdc", "reset_convergence",
                 "convergence", "divergence", "gated_clock_glitch",
                 "static_not_constrained", "blackbox", "comb_on_rdc",
                 "missing_rdc_sync"):
        analysis, _ = case_loader(name)
        nl = analysis.netlist
        cell_names = {c.name for c in nl.cells}
        for f in run_structural(analysis):
            assert f.witness, f.rule
            for w in f.witness:
                assert w in cell_names or w in nl.net_index, (f.rule, w)


def test_rdc_rule_family(case_loader):
    analysis, _ = case_loader("missing_rdc_sync")
    assert rules_of(analysis) == ["MISSING_RDC_SYNC"]
    analysis, _ = case_loader("comb_on_rdc")
    assert rules_of(analysis) == ["COMB_ON_RDC"]
    analysis, _ = case_loader("reset_convergence")
    assert rules_of(analysis) == ["RESET_CONVERGENCE"]
    for name in ("missing_rdc_sync_clean", "comb_on_rdc_clean",
                 "reset_convergence_clean"):
        analysis, _ = case_loader(name)
        assert rules_of(analysis) == [], name


def test_info_findings(case_loader):
    analysis, _ = case_loader("static_not_constrained")
    findings = run_structural(analysis)
    by_rule = {f.rule: f for f in findings}
    assert set(by_rule) == {"MISSING_SYNC", "STATIC_NOT_CONSTRAINED"}
    assert by_rule["STATIC_NOT_CONSTRAINED"].severity == "info"


def _self_loop_source(rhs: str, reset_value: str = "1'b0") -> str:
    return f"""module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);
  reg src;
  always @(posedge clk_a or negedge rst_a_n) begin
    if (!rst_a_n) src <= {reset_value};
    else src <= {rhs};
  end
  reg dst;
  always @(posedge clk_b or negedge rst_b_n) begin
    if (!rst_b_n) dst <= 1'b0;
    else dst <= src;
  end
  assign q = dst;
endmodule
"""


def test_static_not_constrained_needs_a_source_that_holds_its_reset_value():
    def rules(rhs, reset_value="1'b0"):
        return set(rules_of(analyze_sources(
            [("t.v", _self_loop_source(rhs, reset_value))], AB)))

    # a toggle flop reads only itself, but changes on every edge
    assert rules("~src") == {"MISSING_SYNC"}
    assert rules("src ^ 1'b1") == {"MISSING_SYNC"}
    # a constant other than the reset value is loaded on the first edge
    assert rules("1'b1") == {"MISSING_SYNC"}
    for rhs in ("src", "src & 1'b1", "src | 1'b0"):
        assert rules(rhs) == {"MISSING_SYNC", "STATIC_NOT_CONSTRAINED"}, rhs
    assert rules("1'b1", "1'b1") == {"MISSING_SYNC", "STATIC_NOT_CONSTRAINED"}
    assert rules("src | 1'b1", "1'b1") == {"MISSING_SYNC", "STATIC_NOT_CONSTRAINED"}


def test_blackbox_boundary(case_loader):
    analysis, _ = case_loader("blackbox")
    findings = run_structural(analysis)
    assert [f.rule for f in findings] == ["BLACKBOX_BOUNDARY"]
    assert findings[0].severity == "warning"


def test_findings_report_shape(case_loader):
    analysis, _ = case_loader("missing_sync")
    rep = findings_report(analysis)
    f = rep["findings"][0]
    assert set(f) == {"rule", "severity", "subjects", "message", "witness",
                      "pairs", "syncs"}


def test_deterministic_ordering(case_loader):
    analysis, _ = case_loader("static_not_constrained")
    a = [f.to_dict() for f in run_structural(analysis)]
    b = [f.to_dict() for f in run_structural(analysis)]
    assert a == b
    rules = [f["rule"] for f in a]
    assert rules == sorted(rules)
