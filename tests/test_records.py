"""The front end's records are plain slotted dataclasses, which Python lets
any stage write to.  These tests stand where `frozen=True` stood: no later
stage changes a record that an earlier stage made, and equality and hashing
ignore where a node was written."""

from copy import deepcopy

import pytest

from cdckit.checkers import build_checkers
from cdckit.codegen import generate_all, lint_generated
from cdckit.constraints import parse_constraint_texts
from cdckit.elaborate import elaborate
from cdckit.errors import BranchCapExceeded, DecisionBudgetExceeded
from cdckit.explore import explore_exhaustive
from cdckit.pipeline import analyze_netlist
from cdckit.rules import run_structural
from cdckit.sim import Engine, MsiConfig
from cdckit.stimulus import parse_stimulus
from cdckit.verilog import (Binary, Concat, Ident, Literal, Slice, Ternary, Unary,
                            parse_verilog)
from conftest import CORPUS, load_gen

CASES = ("gray_cross", "async_fifo", "mux_sync", "codegen_full", "blackbox",
         "static_config", "reset_convergence", "divergence")


def _designs():
    """(name, rtl.v, constraints.cdc, stimulus.stim) of the corpus cases
    above and of a generated hier and flat design."""
    for case in CASES:
        d = CORPUS / case
        yield case, *((d / f).read_text() for f in ("rtl.v", "constraints.cdc",
                                                       "stimulus.stim"))
    gen = load_gen()
    for shape in ("hier", "flat"):
        d = gen.build(f"{shape}2", 1, 2, shape=shape, purpose="explore", run_edges=4,
                      gray_sources=1)
        yield shape, d.files["rtl.v"], d.files["constraints.cdc"], d.files["stimulus.stim"]


@pytest.mark.parametrize("name, rtl, cdc, stim", [pytest.param(*d, id=d[0])
                                                   for d in _designs()])
def test_later_stages_change_no_record(name, rtl, cdc, stim):
    """`repr` shows every field, offsets and positions included, so a
    record written in place after its snapshot shows up as a difference."""
    modules = parse_verilog(rtl, "rtl.v")
    parsed = repr(modules)
    constraints = parse_constraint_texts([("constraints.cdc", cdc)])
    stimulus = parse_stimulus(stim)
    inputs = repr((constraints, stimulus))
    instantiated = {i.module for m in modules for i in m.instances}
    [top] = [m.name for m in modules if m.name not in instantiated]

    netlist = elaborate(modules, top)
    analysis = analyze_netlist(netlist, constraints)
    findings = run_structural(analysis)
    cones = dict(netlist._cone_cache)
    records = (analysis.pairs, analysis.rdc_pairs, analysis.syncs, analysis.status,
               cones, findings)
    snapshot = deepcopy(records)

    Engine(analysis, stimulus, MsiConfig(seed=1), build_checkers(analysis)).run()
    try:
        explore_exhaustive(analysis, stimulus, build_checkers(analysis), budget=16)
    except (DecisionBudgetExceeded, BranchCapExceeded):
        pass
    files = generate_all(analysis)
    generated = deepcopy(files)
    assert lint_generated(files, netlist) == [], name

    assert repr(modules) == parsed, name
    assert repr((constraints, stimulus)) == inputs, name
    assert repr(records) == repr(snapshot), name
    assert {n: netlist._cone_cache[n] for n in cones} == cones, name
    assert repr(files) == repr(generated), name


@pytest.mark.parametrize("a, b", [
    (Ident("q", 3), Ident("q", 40)),
    (Literal(5, 4, 3), Literal(5, 4, 40)),
    (Slice("q", 3, 1, 3), Slice("q", 3, 1, 40)),
    (Concat((Ident("a", 1), Literal(1, 1, 4)), 0), Concat((Ident("a", 9), Literal(1, 1, 12)), 8)),
    (Binary("&", Ident("a", 1), Unary("~", Ident("b", 5))),
     Binary("&", Ident("a", 20), Unary("~", Ident("b", 24)))),
    (Ternary(Ident("s", 0), Ident("a", 4), Literal(0, None, 8)),
     Ternary(Ident("s", 30), Ident("a", 34), Literal(0, None, 38))),
], ids=["ident", "literal", "slice", "concat", "binary", "ternary"])
def test_equal_nodes_at_other_offsets_are_equal_and_hash_equal(a, b):
    assert repr(a) != repr(b)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_modules_written_at_other_places_are_equal():
    text = "module m(input a, input b, output y);\n  assign y = a & ~b;\nendmodule\n"
    [m1] = parse_verilog(text, "one.v")
    [m2] = parse_verilog("\n\n" + text.replace("  assign", "assign"), "two.v")
    assert ((m1.positions.where(m1.token), m1.origin)
            != (m2.positions.where(m2.token), m2.origin))
    assert m1 == m2 and hash(m1) == hash(m2)
