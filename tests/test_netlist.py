import random

import pytest

from cdckit.elaborate import _Elaborator, elaborate
from cdckit.errors import CombinationalLoop, MultipleDrivers
from cdckit.netlist import Dff, Netlist, NetlistBuilder
from cdckit.pipeline import analyze_sources
from cdckit.verilog import parse_verilog
from conftest import corpus_designs, generated_designs
from oracles import (naive_cone, netlist_issues, random_builder, random_netlist,
                     reference_fanin_cone, reference_finish, sorted_comb_topo)


def build_xor_of_two_flops():
    b = NetlistBuilder("t")
    clk = b.add_net("clk", 1)
    b.add_port("clk", "in", 1, clk)
    d1 = b.add_net("d1", 1)
    b.add_port("d1", "in", 1, d1)
    d2 = b.add_net("d2", 1)
    b.add_port("d2", "in", 1, d2)
    q1 = b.add_net("q1", 1)
    q2 = b.add_net("q2", 1)
    x = b.add_net("x", 1)
    b.add_dff("ff1", 1, clk, d1, q1)
    b.add_dff("ff2", 1, clk, d2, q2)
    b.add_gate("xor0", "XOR", [q1, q2], x, 1)
    b.add_port("out", "out", 1, x)
    return b.finish()


def test_cone_of_flop_output_is_the_flop():
    nl = build_xor_of_two_flops()
    cone = nl.fanin_cone(nl.net("q1").index)
    assert cone.seq == (("cell", 0, "out"),)
    assert cone.gates == ()


def test_cone_through_xor():
    nl = build_xor_of_two_flops()
    cone = nl.fanin_cone(nl.net("x").index)
    assert set(cone.seq) == {("cell", 0, "out"), ("cell", 1, "out")}
    assert len(cone.gates) == 1


def test_random_dag_cone_matches_path_enumeration_oracle():
    rng = random.Random(7)
    nl, _doms = random_netlist(rng, n_flops=8, n_gates=30, n_domains=2)
    for net in nl.nets:
        cone = nl.fanin_cone(net.index)
        seq, gates, consts = naive_cone(nl, net.index)
        assert set(cone.seq) == seq, net.name
        assert set(cone.gates) == gates, net.name
        assert set(cone.consts) == consts, net.name


def test_cones_list_in_the_order_of_the_iterator_walk():
    """Every cone of the corpus, the generated designs and random DAGs holds
    its boundary, gates and constants in the order the walk that entered
    each net through an iterator of its own listed them."""
    netlists = [random_netlist(random.Random(seed), n_flops=8, n_gates=30,
                               n_domains=1 + seed % 3)[0] for seed in range(20)]
    netlists += [analyze_sources([("rtl.v", rtl)], cons).netlist
                 for _name, rtl, cons in (*corpus_designs(), *generated_designs())]
    cones = 0
    for nl in netlists:
        for net in nl.nets:
            assert nl.fanin_cone(net.index) == reference_fanin_cone(nl, net.index), net.name
            cones += len(nl.fanin_cone(net.index).gates) > 1
    assert cones > 1000, cones


def test_memoized_equals_fresh_on_many_random_netlists():
    for seed in range(20):
        rng = random.Random(seed)
        nl, _ = random_netlist(rng, n_flops=6, n_gates=20,
                               n_domains=1 + seed % 3)
        fresh = Netlist(nl.name, nl.cells, nl.nets, nl.ports, nl.instances)
        for net in nl.nets:
            warm = nl.fanin_cone(net.index)          # memoized instance
            cold = fresh.fanin_cone(net.index)
            assert warm == cold
        # second query hits the cache and must be identical
        for net in nl.nets:
            assert nl.fanin_cone(net.index) == fresh.fanin_cone(net.index)


def test_validate_clean_design():
    nl = build_xor_of_two_flops()
    assert netlist_issues(nl) == []


def test_validate_multiple_drivers():
    nl = build_xor_of_two_flops()
    # force a second driver reference onto q1 behind the builder's back
    bad = Netlist(nl.name, nl.cells, nl.nets, nl.ports, nl.instances)
    ff2 = bad.cells[1]
    ff2.out = bad.net("q1").index
    issues = netlist_issues(bad)
    assert any(i.kind == "MultipleDrivers" and i.subject == "q1" for i in issues)


def test_validate_no_driver():
    b = NetlistBuilder("t")
    clk = b.add_net("clk", 1)
    b.add_port("clk", "in", 1, clk)
    d = b.add_net("floating", 1)
    q = b.add_net("q", 1)
    b.add_dff("ff", 1, clk, d, q)
    nl = b.finish()
    issues = netlist_issues(nl)
    assert any(i.kind == "NoDriver" and i.subject == "floating" for i in issues)


def test_built_netlists_satisfy_the_invariant_oracle():
    """`finish` is the only structural check in the library; the oracle
    recomputes every driver, reader and arity and must agree with it."""
    designs = [*corpus_designs(), *generated_designs(blocks=(1, 3, 6), seeds=(1, 2, 3))]
    for name, rtl, cons in designs:
        assert netlist_issues(analyze_sources([("rtl.v", rtl)], cons).netlist) == [], name
    for seed in range(20):
        nl, _ = random_netlist(random.Random(seed))
        assert netlist_issues(nl) == [], seed


def _elaborated_builder(rtl: str) -> NetlistBuilder:
    """The builder of a design's top, filled but not finished."""
    mods = parse_verilog(rtl)
    instantiated = {i.module for m in mods for i in m.instances}
    [top] = [m.name for m in mods if m.name not in instantiated]
    elab = _Elaborator(mods, top)
    elab.expand_all()
    return elab.builder


def _same_finish(b: NetlistBuilder, label: str):
    got, want = b.finish(), reference_finish(b)
    assert got.to_json_dict() == want.to_json_dict(), label
    assert [n.readers for n in got.nets] == [n.readers for n in want.nets], label


def test_finish_equals_reference_finish():
    designs = [*corpus_designs(), *generated_designs(blocks=(1, 3, 6), seeds=(1, 2, 3))]
    for name, rtl, _cons in designs:
        _same_finish(_elaborated_builder(rtl), name)
    for seed in range(20):
        _same_finish(random_builder(random.Random(seed))[0], f"seed {seed}")


@pytest.mark.parametrize("drive_x, message", [
    ("port", "net 'x' driven by both x and f"),
    ("gate", "net 'x' driven by both f and g2"),
])
def test_finish_names_the_same_two_drivers_as_the_reference(drive_x, message):
    b = NetlistBuilder("t")
    clk, x, y = b.add_net("clk", 1), b.add_net("x", 1), b.add_net("y", 1)
    b.add_port("clk", "in", 1, clk)
    if drive_x == "port":
        b.add_port("x", "in", 1, x)
    b.add_dff("f", 1, clk, y, x)
    b.add_gate("g", "NOT", [x], y, 1)
    if drive_x == "gate":
        b.add_gate("g2", "BUF", [y], x, 1)
    with pytest.raises(MultipleDrivers) as got:
        b.finish()
    with pytest.raises(MultipleDrivers) as want:
        reference_finish(b)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("op, n", [("CONCAT", 1), ("AND", 1), ("NOT", 2), ("MUX", 2)])
def test_gate_arity_is_checked_when_added(op, n):
    b = NetlistBuilder("t")
    ins = [b.add_net(f"i{i}", 1) for i in range(n)]
    with pytest.raises(AssertionError):
        b.add_gate("g", op, ins, b.add_net("o", 1), 1)


def test_combinational_loop_is_a_build_error():
    mods = parse_verilog(
        "module top(input a, output w);\n"
        "  wire x, y;\n"
        "  assign x = y & a;\n  assign y = x | a;\n  assign w = y;\nendmodule\n")
    with pytest.raises(CombinationalLoop):
        elaborate(mods, "top")


def test_clock_cones_never_fail_on_corpus(case_loader):
    analysis, _ = case_loader("codegen_full")
    nl = analysis.netlist
    for cell in nl.cells:
        if isinstance(cell, Dff):
            nl.fanin_cone(cell.clock)  # must not raise


def test_json_dump_is_stable(case_loader):
    analysis, _ = case_loader("missing_sync")
    d1 = analysis.netlist.to_json_dict()
    d2 = analysis.netlist.to_json_dict()
    assert d1 == d2
    assert d1["name"] == "top"
    assert all(n["width"] >= 1 for n in d1["nets"])


def _shuffled_dag(rng: random.Random, n: int) -> Netlist:
    """A gate DAG whose gates are created in random order, so their
    indices are not already a topological order."""
    b = NetlistBuilder("dag")
    a = b.add_net("a", 1)
    b.add_port("a", "in", 1, a)
    nets = [b.add_net(f"n{i}", 1) for i in range(n)]
    ins = [[rng.choice([a] + nets[:i]) for _ in range(rng.randint(1, 3))]
           for i in range(n)]
    for i in rng.sample(range(n), n):
        b.add_gate(f"g{i}", "XOR" if len(ins[i]) > 1 else "NOT", ins[i],
                   nets[i], 1)
    b.add_port("y", "out", 1, nets[-1])
    return b.finish()


def test_comb_topo_equals_sorting_oracle(corpus_root, case_loader):
    for case in sorted(p.name for p in corpus_root.iterdir() if p.is_dir()):
        nl = case_loader(case)[0].netlist
        assert nl.comb_topo() == sorted_comb_topo(nl), case
    for seed in range(40):
        rng = random.Random(seed)
        nl, _ = random_netlist(rng, n_gates=rng.randint(5, 60))
        assert nl.comb_topo() == sorted_comb_topo(nl), seed
        nl = _shuffled_dag(rng, rng.randint(5, 60))
        assert nl.comb_topo() == sorted_comb_topo(nl), seed
