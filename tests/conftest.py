from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

import pytest

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
