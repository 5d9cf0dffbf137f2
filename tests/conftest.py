from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def corpus_designs():
    """(case name, rtl.v text, constraints.cdc text) for every corpus case."""
    for d in sorted(p for p in CORPUS.iterdir() if p.is_dir()):
        yield d.name, (d / "rtl.v").read_text(), (d / "constraints.cdc").read_text()


def load_gen():
    """perfbench/gen.py, imported by path (its dataclasses need it
    registered)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  REPO / "perfbench" / "gen.py")
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    return gen


def generated_designs(blocks=(1, 6), seeds=(1,)):
    """(name, rtl.v text, constraints.cdc text) of hier and flat designs from
    perfbench/gen.py."""
    gen = load_gen()
    for shape in ("hier", "flat"):
        for n in blocks:
            for seed in seeds:
                d = gen.build(f"{shape}{n}", seed, n, shape=shape)
                yield f"{shape}{n}-s{seed}", d.files["rtl.v"], d.files["constraints.cdc"]


# SystemVerilog keywords that the subset Verilog allows as names
SV_ONLY_KEYWORDS = ("assert", "bins", "covergroup", "iff", "property")


def keyword_gray_cross(name: str) -> str:
    """gray_cross's rtl.v with its crossing source flop `g` renamed `name`."""
    return re.sub(r"\bg\b", name, (CORPUS / "gray_cross" / "rtl.v").read_text())


@pytest.fixture(scope="session")
def corpus_root() -> Path:
    return CORPUS


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO


def load_case(name: str):
    """Parsed analysis + stimulus text for one corpus case."""
    from cdckit.pipeline import analyze_sources

    d = CORPUS / name
    analysis = analyze_sources(
        [(str(d / "rtl.v"), (d / "rtl.v").read_text())],
        (d / "constraints.cdc").read_text())
    stim_file = d / "stimulus.stim"
    return analysis, stim_file.read_text() if stim_file.exists() else ""


@pytest.fixture(scope="session")
def case_loader():
    cache: dict[str, tuple] = {}

    def get(name: str):
        if name not in cache:
            cache[name] = load_case(name)
        return cache[name]

    return get


@st.composite
def hier_sources(draw) -> str:
    """Source of a hierarchy whose modules repeat: `top` instances `mid2`,
    `mid1` and `leaf`, `mid2` instances `mid1` and `leaf`, and `mid1`
    instances `leaf`, so `leaf` is used at three depths and the deepest
    path is three instances long.  Each input port connects to a net, to
    the net of the port before it (two ports tied), to nothing, to a sized
    or unsized constant, or to an expression; each output to a net or to
    nothing.  Some draws are rejected (a width, an unsized constant, two
    drivers, a loop), and they must be rejected the same way."""
    w = draw(st.integers(1, 2))
    rng = f"[{w - 1}:0] " if w > 1 else ""
    nets = ("t0", "t1", "t2", "x", "y")

    def operand() -> str:
        return draw(st.sampled_from(nets))

    def input_conn(prev: str | None) -> str:
        kind = draw(st.sampled_from(("net", "net", "tied", "tied", "open", "const",
                                     "expr", "expr")))
        if kind == "tied" and prev is not None:
            return prev
        if kind == "open":
            return ""
        if kind == "const":
            return draw(st.sampled_from((f"{w}'d1", f"{w}'d0", f"{w}'d1", f"{w}'d0",
                                         f"{w}'d1", f"{w}'d0", "1", f"{w + 1}'d2")))
        if kind == "expr":
            return draw(st.sampled_from((
                f"{operand()} & {operand()}", f"~{operand()}", f"{{{operand()}}}",
                f"{operand()} ^ {w}'d1", f"{operand()}[0] ? {operand()} : {operand()}")))
        return operand()

    def instances(modules: tuple[str, ...], lo: int, hi: int) -> str:
        text = ""
        for k in range(draw(st.integers(lo, hi))):
            module = draw(st.sampled_from(modules))
            a = input_conn(None)
            b = input_conn(a)
            conns = [".clk(clk)", f".a({a})", f".b({b})"]
            q = draw(st.sampled_from((f"t{k}", f"t{k}", f"t{k}", "t0", "")))
            conns.append(f".q({q})")
            if module == "leaf" and draw(st.booleans()):
                conns.append(f".n({draw(st.sampled_from(('s', '')))})")
            text += f"  {module} i{k}({', '.join(conns)});\n"
        return text

    def module(name: str, children: str) -> str:
        return (f"module {name}(input clk, input {rng}a, input {rng}b, output {rng}q);\n"
                f"  wire {rng}x, y;\n  wire {rng}t0, t1, t2;\n  wire s;\n"
                f"  assign x = a;\n  assign y = b ^ t2;\n  assign q = t0 | t1;\n"
                f"{children}endmodule\n")

    leaf = (f"module leaf(input clk, input {rng}a, input {rng}b, output {rng}q, output n);\n"
            f"  reg {rng}r;\n  always @(posedge clk) r <= "
            f"{draw(st.sampled_from(('a ^ b', 'a[0] ? b : a', '~a & b', 'r | a')))};\n"
            f"  assign q = r;\n  assign n = ~r[0] ^ a[0];\nendmodule\n")
    return (leaf + module("mid1", instances(("leaf",), 1, 3))
            + module("mid2", instances(("mid1", "leaf"), 1, 3))
            + module("top", instances(("mid2", "mid1", "leaf"), 1, 3)))
