import pytest

from cdckit.constraints import parse_constraints
from cdckit.errors import BadPeriod, DuplicateClock, ParseError, UnknownOption


def test_clock_directive():
    cs = parse_constraints("clock clk_a -period 10 -domain A\n")
    c = cs.clocks[0]
    assert (c.name, c.period, c.phase, c.domain) == ("clk_a", 10, 0, "A")


def test_phase_and_edge_ticks():
    cs = parse_constraints("clock c -period 6 -phase 2 -domain X\n")
    assert cs.clocks[0].edge_tick(4) == 26


def test_static_and_false_path():
    cs = parse_constraints(
        "static cfg_mode\nfalse_path -from dbg_sig -to snoop_reg\n")
    assert cs.static_signals == ["cfg_mode"]
    fp = cs.false_paths[0]
    assert (fp.src, fp.dst) == ("dbg_sig", "snoop_reg")


def test_bad_period():
    with pytest.raises(BadPeriod):
        parse_constraints("clock c -period 1 -domain A\n")


def test_duplicate_clock():
    with pytest.raises(DuplicateClock):
        parse_constraints("clock c -period 4 -domain A\nclock c -period 6 -domain B\n")


def test_unknown_option():
    with pytest.raises(UnknownOption):
        parse_constraints("option frobnicate 3\n")


def test_unknown_directive_and_comments():
    cs = parse_constraints("# just a comment\n\nclock c -period 4 -domain A # trail\n")
    assert len(cs.clocks) == 1
    with pytest.raises(ParseError):
        parse_constraints("clocks c -period 4 -domain A\n")


def test_option_defaults_and_overrides():
    cs = parse_constraints("option stability_cycles 3\noption setup_window 2\n")
    assert cs.options["stability_cycles"] == 3
    assert cs.options["setup_window"] == 2
    assert cs.options["ndff_min_depth"] == 2
    assert cs.options["hold_window"] == 1


def test_severity_override():
    cs = parse_constraints("option severity.MISSING_SYNC warning\n")
    assert cs.rule_severity("MISSING_SYNC") == "warning"
    assert cs.rule_severity("COMB_ON_CDC") == "error"
    with pytest.raises(UnknownOption):
        parse_constraints("option severity.NOT_A_RULE error\n")


def test_reset_directive():
    cs = parse_constraints("reset rst_n -active_low -domain A\nreset po_rst -domain B\n")
    assert cs.resets[0].active_low and cs.resets[0].domain == "A"
    assert not cs.resets[1].active_low
