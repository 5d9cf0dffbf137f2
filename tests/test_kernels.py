"""The simulator's compiled kernels equal the reference interpreter in
oracles.py: the comb kernel on whole value vectors, the partial passes of
its gate groups on values where only some clocks' flops or the input ports
changed, cone kernels on the enable and data of flops and on gated clocks
with nets substituted."""

import functools
import random

import hypothesis
from hypothesis import strategies as st

import cdckit.sim as sim
from cdckit.elaborate import elaborate
from cdckit.errors import ElabError
from cdckit.netlist import Dff, Gate, NetlistBuilder
from cdckit.pipeline import analyze_sources
from cdckit.sim import (_CHUNK, _TERMS, PORT_BIT, _gate_code, comb_groups,
                       cone_kernel)
from cdckit.verilog import parse_verilog
from conftest import corpus_designs, generated_designs, hier_sources, load_gen
from oracles import eval_comb, eval_with_subs, random_netlist

# corpus cases, and generated designs whose modules repeat (gen-*)
CASES = ("async_fifo", "binary_cross", "codegen_full", "cov_toggle",
         "gray_cross", "mux_sync", "divergence", "gen-hier", "gen-sim", "gen-explore")


@functools.cache
def _generated(kind: str, blocks: int, seed: int = 1):
    """The netlist of a design from perfbench/gen.py: `hier`, or the
    benchmark's `sim` or `explore` design, of `blocks` blocks."""
    gen = load_gen()
    if kind == "hier":
        d = gen.build(f"hier{blocks}", seed, blocks, shape="hier")
    elif kind == "sim":
        d = gen.build("sim", seed, blocks, block=gen.SIM_BLOCK, purpose="sim", run_edges=30)
    else:
        d = gen.build("explore", seed, blocks, purpose="explore", run_edges=4,
                      gray_sources=2)
    return analyze_sources([("rtl.v", d.files["rtl.v"])], d.files["constraints.cdc"]).netlist


def _netlist(case_loader, case: str):
    if case.startswith("gen-"):
        return _generated(case[4:], 2)
    return case_loader(case)[0].netlist


def _values(rng: random.Random, nl) -> list[int]:
    # up to two bits wider than each net, so every mask matters
    return [rng.randrange(1 << (n.width + 2)) for n in nl.nets]


def _check_comb(nl, values: list[int]):
    want = list(values)
    eval_comb(nl, want)
    got = list(values)
    comb_groups(nl).full(got)
    assert got == want


def _check_groups(nl):
    """The groups partition the gates, in (popcount, signature) order, and
    each gate's inputs come from its own group, earlier in it, or from an
    earlier group, with signatures within its own.  A group's kernels cover
    its gates exactly once, in order, at most _CHUNK gates each."""
    comb = comb_groups(nl)
    order = [i for _sig, gates, _kernels, _sizes in comb.groups for i in gates]
    assert sorted(order) == sorted(c.index for c in nl.cells if isinstance(c, Gate))
    sigs = [sig for sig, _gates, _kernels, _sizes in comb.groups]
    assert sigs == sorted(set(sigs), key=lambda sig: (sig.bit_count(), sig))
    place = {nl.cells[i].out: (k, j) for k, (_sig, gates, _kernels, _sizes)
             in enumerate(comb.groups) for j, i in enumerate(gates)}
    # each net holds a power of two above its width and no other net's, so
    # no gate computes the value its output holds: a kernel changes exactly
    # the outputs of the gates it runs
    marks = [1 << (n.width + n.index) for n in nl.nets]
    for k, (sig, gates, kernels, sizes) in enumerate(comb.groups):
        assert len(sizes) == len(kernels) and sum(sizes) == len(gates)
        start = 0
        for kernel, size in zip(kernels, sizes):
            assert 0 < size <= _CHUNK
            got = list(marks)
            kernel(got)
            assert ({net for net, (a, b) in enumerate(zip(got, marks)) if a != b}
                    == {nl.cells[i].out for i in gates[start:start + size]})
            start += size
        for j, i in enumerate(gates):
            g = nl.cells[i]
            assert comb.activity[g.out] == sig
            for net in g.inputs:
                assert comb.activity[net] & ~sig == 0
                assert place.get(net, (-1, 0)) < (k, j)


def _check_passes(nl, rng: random.Random, values: list[int]):
    """For every mask of activity bits: from consistent values, the flops
    whose bit is in the mask (and the input ports, under PORT_BIT) take new
    values, and the mask's pass gives what evaluating every gate gives."""
    comb = comb_groups(nl)
    values = list(values)
    eval_comb(nl, values)
    bits = sorted({comb.activity[f.out] for f in nl.cells if isinstance(f, Dff)}
                  | {PORT_BIT})
    moved = [(comb.activity[f.out], f.out) for f in nl.cells if isinstance(f, Dff)]
    moved += [(PORT_BIT, p.net) for p in nl.ports if p.direction == "in"]
    for n in range(1 << len(bits)):
        mask = sum(bit for k, bit in enumerate(bits) if n >> k & 1)
        got = list(values)
        for bit, net in moved:
            if bit & mask and rng.random() < 0.7:
                got[net] = rng.randrange(1 << nl.nets[net].width + 2)
        want = list(got)
        eval_comb(nl, want)
        for kernel in comb.select(mask):
            kernel(got)
        assert got == want, bin(mask)


def _check_cones(nl, rng: random.Random, values: list[int]):
    """Each flop's (enable, data) cone and its clock cone, with a random
    subset of the nets in its fan-in substituted."""
    for f in nl.cells:
        if not isinstance(f, Dff):
            continue
        for targets in ((f.data,) if f.enable is None else (f.enable, f.data),
                        (f.clock,)):
            cone = set()
            for t in targets:
                c = nl.fanin_cone(t)
                cone |= {nl.cells[g].out for g in c.gates}
                cone |= {nl.ports[i].net if kind == "port" else nl.cells[i].out
                         for kind, i, _pin in c.seq
                         if kind == "port" or isinstance(nl.cells[i], Dff)}
            subs = tuple(sorted(n for n in cone if rng.random() < 0.3))
            sub_vals = [rng.randrange(1 << (nl.nets[n].width + 1)) for n in subs]
            want = tuple(eval_with_subs(nl, t, values, dict(zip(subs, sub_vals)), {})
                         for t in targets)
            got = cone_kernel(nl, targets, subs)(values, *sub_vals)
            assert (got if len(targets) > 1 else (got,)) == want, (f.name, targets)


@hypothesis.given(st.integers(0, 2 ** 32 - 1))
@hypothesis.settings(max_examples=25, deadline=None)
def test_kernels_equal_interpreter_on_corpus(case_loader, seed):
    rng = random.Random(seed)       # draws the value vectors and substitutions
    for case in CASES:
        nl = _netlist(case_loader, case)
        values = _values(rng, nl)
        _check_comb(nl, values)
        _check_passes(nl, rng, values)
        _check_cones(nl, rng, values)


def test_kernels_equal_interpreter_on_every_corpus_netlist(corpus_root, case_loader):
    rng = random.Random(11)
    for case in sorted(p.name for p in corpus_root.iterdir() if p.is_dir()):
        nl = case_loader(case)[0].netlist
        _check_groups(nl)
        for _ in range(3):
            values = _values(rng, nl)
            _check_comb(nl, values)
            _check_passes(nl, rng, values)
            _check_cones(nl, rng, values)


@hypothesis.given(st.integers(0, 2 ** 32 - 1))
@hypothesis.settings(max_examples=150, deadline=None)
def test_kernels_equal_interpreter_on_random_netlists(seed):
    rng = random.Random(seed)
    nl, _doms = random_netlist(rng, n_flops=rng.randint(2, 10),
                               n_gates=rng.randint(5, 40),
                               n_domains=rng.randint(1, 3), max_width=5)
    _check_groups(nl)
    values = _values(rng, nl)
    _check_comb(nl, values)
    _check_passes(nl, rng, values)
    _check_cones(nl, rng, values)


def test_random_netlists_cover_every_op_and_width():
    ops, widths = set(), set()
    for seed in range(20):
        nl, _ = random_netlist(random.Random(seed))
        ops |= {c.op for c in nl.cells if isinstance(c, Gate)}
        widths |= {n.width for n in nl.nets}
    assert ops == {"AND", "OR", "XOR", "NOT", "BUF", "MUX", "CONCAT", "SLICE"}
    assert {1, 2, 3, 4} <= widths


def test_chunked_comb_and_split_operand_chains():
    """More gates than one chunk holds, and gates with more operands than
    one statement takes."""
    b = NetlistBuilder("wide")
    ins = []
    for i in range(3 * _TERMS):
        h = b.add_net(f"i{i}", 1)
        b.add_port(f"i{i}", "in", 1, h)
        ins.append(h)
    prev = ins[0]
    for i in range(2 * _CHUNK + 10):        # a long NOT/XOR chain
        out = b.add_net(f"c{i}", 1)
        if i % 2:
            b.add_gate(f"c{i}_g", "XOR", [prev, ins[i % len(ins)]], out, 1)
        else:
            b.add_gate(f"c{i}_g", "NOT", [prev], out, 1)
        prev = out
    for op, width in (("AND", 1), ("OR", 1), ("XOR", 1), ("CONCAT", len(ins) - 3)):
        out = b.add_net(f"w_{op}", width)
        b.add_gate(f"w_{op}_g", op, ins + [prev], out, width)
        b.add_port(f"o_{op}", "out", width, out)
    nl = b.finish()
    leaves = (nl.net("i1").index, nl.net("i7").index)
    rng = random.Random(5)
    for _ in range(20):
        values = _values(rng, nl)
        _check_comb(nl, values)
        # substituting two inputs equals setting them and evaluating it all
        want = list(values)
        want[leaves[0]], want[leaves[1]] = 1, 0
        eval_comb(nl, want)
        for name in ("w_AND", "w_OR", "w_XOR", "w_CONCAT", f"c{2 * _CHUNK + 9}"):
            target = nl.net(name).index
            assert cone_kernel(nl, (target,), leaves)(values, 1, 0) == want[target]


def _concat_netlist(widths: list[int], layouts: list[tuple[list[int], int]]):
    """Input ports of `widths`, and per layout a CONCAT gate of the inputs at
    the listed positions, of the given output width."""
    b = NetlistBuilder("runs")
    ins = []
    for k, width in enumerate(widths):
        h = b.add_net(f"i{k}", width)
        b.add_port(f"i{k}", "in", width, h)
        ins.append(h)
    for k, (layout, width) in enumerate(layouts):
        out = b.add_net(f"c{k}", width)
        b.add_gate(f"c{k}_g", "CONCAT", [ins[i] for i in layout], out, width)
        b.add_port(f"o{k}", "out", width, out)
    return b.finish()


def _check_concats(nl, rng: random.Random, rounds: int):
    for _ in range(rounds):
        values = _values(rng, nl)
        _check_comb(nl, values)
        for c in nl.cells:
            if isinstance(c, Gate):
                want = list(values)
                eval_comb(nl, want)
                assert cone_kernel(nl, (c.out,), ())(values) == want[c.out], c.name


def test_concatenation_runs_equal_interpreter():
    """Runs of adjacent copies of one operand, of one bit (i0, i1) and wider
    (i2, i3), at the top, the middle and the bottom of a concatenation, two
    runs back to back, a whole concatenation of one run, and a gate narrower
    than its operands."""
    widths = [1, 1, 2, 3]
    layouts = [[0, 0, 0, 1], [1, 0, 0, 2], [2, 1, 0, 0, 0],
               [2, 2, 2, 1], [1, 3, 3, 0], [0, 1, 3, 3],
               [0, 0, 2, 2], [3, 3, 3, 3], [1, 1, 1, 1, 1, 1, 1, 1],
               [0, 1, 0, 1], [2, 0, 0]]
    nl = _concat_netlist(widths, [(lay, sum(widths[i] for i in lay)) for lay in layouts]
                         + [([3, 3, 3, 0, 0], 5), ([0, 0, 0, 2], 3)])
    runs = sum(" * " in line for c in nl.cells if isinstance(c, Gate)
               for line in _gate_code(nl, c, lambda net: f"v[{net}]"))
    assert runs == 12
    _check_concats(nl, random.Random(7), 40)


@hypothesis.given(st.integers(0, 2 ** 32 - 1))
@hypothesis.settings(max_examples=100, deadline=None)
def test_random_concatenation_runs_equal_interpreter(seed):
    rng = random.Random(seed)
    widths = [rng.randint(1, 4) for _ in range(3)]
    layouts = []
    for _ in range(4):
        layout = [rng.randrange(3) for _ in range(rng.randint(2, 8))]
        total = sum(widths[i] for i in layout)
        layouts.append((layout, rng.randint(1, total)))
    _check_concats(_concat_netlist(widths, layouts), rng, 3)


def _check_kernels(nl, rng: random.Random):
    _check_groups(nl)
    values = _values(rng, nl)
    _check_comb(nl, values)
    _check_passes(nl, rng, values)


def test_kernels_equal_interpreter_on_stamped_designs():
    """The designs whose elaboration stamps module bodies: every corpus
    case, generated hier and flat designs, and the benchmark's simulation
    and exploration designs of seeds 1 to 3."""
    rng = random.Random(3)
    for name, rtl, cons in [*corpus_designs(), *generated_designs(blocks=(1, 2, 3, 5, 8, 24))]:
        _check_kernels(analyze_sources([("rtl.v", rtl)], cons).netlist, rng)
    for seed in (1, 2, 3):
        _check_kernels(_generated("sim", 8, seed), rng)
        _check_kernels(_generated("explore", 8, seed), rng)


@hypothesis.given(hier_sources(), st.integers(0, 2 ** 32 - 1))
@hypothesis.settings(max_examples=60, deadline=None)
def test_kernels_equal_interpreter_on_drawn_hierarchies(rtl, seed):
    try:
        nl = elaborate(parse_verilog(rtl), "top")
    except ElabError:
        return
    _check_kernels(nl, random.Random(seed))


def _compiled(monkeypatch, nl) -> tuple[int, int]:
    """How many functions compiling the comb kernels of `nl` compiles, and
    how many kernels it gives."""
    sources = []
    real = sim._compile
    monkeypatch.setattr(sim, "_compile",
                        lambda batch, label: sources.extend(batch) or real(batch, label))
    groups = sim._compile_comb(nl, nl.comb_topo()).groups
    return len(sources), sum(len(kernels) for _sig, _gates, kernels, _sizes in groups)


def test_runs_of_a_repeated_shape_compile_once(monkeypatch):
    """On the 1k-net exploration design the instances of a module share one
    compiled function per shape; gates outside any instance compile on
    their own."""
    compiled, kernels = _compiled(monkeypatch, _generated("explore", 8))
    assert compiled * 4 < kernels
    for seed in range(5):
        nl, _doms = random_netlist(random.Random(seed), n_gates=600)
        compiled, kernels = _compiled(monkeypatch, nl)
        assert compiled == kernels


def test_tied_operands_make_another_shape():
    """Runs of one module's gates share a shape unless the instance ties
    two of its operands to one net; either way they compute what the
    interpreter does."""
    rtl = """
module g(input a, input b, input c, output y);
  assign y = ((a & b) ^ (b | c)) & ~(a ^ c);
endmodule
module top(input p, input q, input r, output y0, output y1, output y2);
  g u0(.a(p), .b(q), .c(r), .y(y0));
  g u1(.a(q), .b(r), .c(p), .y(y1));
  g u2(.a(p), .b(p), .c(r), .y(y2));
endmodule
"""
    nl = elaborate(parse_verilog(rtl), "top")
    [(_sig, gates, kernels, sizes)] = comb_groups(nl).groups
    runs = sim._runs(nl, list(gates))
    assert [len(run) for run in runs] == list(sizes) == [6, 6, 6]
    shapes = [sim._shape(nl, run)[0] for run in runs]
    assert shapes[0] == shapes[1] != shapes[2]
    _check_kernels(nl, random.Random(2))
