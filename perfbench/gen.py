"""Seeded source-level design generator with ground truth known by construction.

A design is a top module wired from tiles.  Each tile is one idiom of the
subset Verilog that cdckit reads, and each tile kind carries its own expected
analysis result, fixed when the tile was written:

    kind     crossing pairs  synchronizer  findings        runtime checker
    ndff     1 (1 bit)       ndff          -               stability
    gray     1 (W bits)      ndff          -               gray_code
    pulse    1               pulse         -               pulse_width
    mux      2               mux           -               mux_enable
    fifo     2               fifo          -               fifo
    unsync   1               -             MISSING_SYNC    -
    local    0               -             -               -

Design-level truth is the sum over tiles.  The program under test is never
consulted for it.  Stimulus is built so that the selected checkers hold on
every trajectory:

* a stability-checked crossing always runs from a clock at least three times
  slower than its destination clock, so each source value is sampled at least
  twice whatever the injection does (injection only touches destination
  captures, never the source flop the checker samples); in explore designs
  its source never changes at all;
* gray sources are free-running gray counters and pulse inputs come from a
  one-shot, so the gray_code and pulse_width checkers see legal sources;
* FIFO pointers advance only when the synchronized view says not full (not
  empty), which is exactly the condition the fifo checker asserts.

mux_enable depends on the load/enable protocol of the stimulus, so it is not
selected on generated designs.

Tile kinds and widths come in fixed proportions; the seed only permutes which
tiles land on which domain pairs and in what order, so every seed gives the
same number of flattened nets and comparable cost.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

# Domain clocks as (period, phase).  Stability-checked crossings go from the
# slow clock (index 2) to a fast one; see `_pick_domains`.
_CLOCKS = ((10, 0), (12, 3), (40, 5))
# In the explore layout all clocks share every edge, so each free-running
# gray source gives exactly one injection decision per destination edge.
_EXPLORE_CLOCKS = ((10, 0), (10, 0), (10, 0))

SIM_CHECKERS = ("stability", "gray_code", "pulse_width", "fifo")
EXPLORE_CHECKERS = ("stability", "gray_code")


@dataclass
class Tile:
    kind: str
    variant: str            # module body key, e.g. "ndff3", "gray4"
    src: int                # source domain index (local tiles: own domain)
    dst: int
    inputs: list[tuple[str, int]]
    outputs: list[tuple[str, int]]


@dataclass
class Design:
    name: str
    files: dict[str, str]               # file name -> text
    truth: dict = field(default_factory=dict)


def _inc_expr(sig: str, w: int) -> str:
    """Binary increment of `sig` as a concatenation, msb first."""
    bits = []
    for i in range(w - 1, -1, -1):
        if i == 0:
            bits.append(f"~{sig}[0:0]")
        else:
            carry = " & ".join(f"{sig}[{j}:{j}]" for j in range(i - 1, -1, -1))
            bits.append(f"{sig}[{i}:{i}] ^ ({carry})" if i > 1
                        else f"{sig}[1:1] ^ {sig}[0:0]")
    return "{" + ", ".join(bits) + "}"


def _gray_of(sig: str, w: int) -> str:
    bits = [f"{sig}[{w - 1}:{w - 1}]"]
    for i in range(w - 2, -1, -1):
        bits.append(f"{sig}[{i + 1}:{i + 1}] ^ {sig}[{i}:{i}]")
    return "{" + ", ".join(bits) + "}"


def _bin_of_gray(sig: str, w: int) -> str:
    bits = []
    for i in range(w - 1, -1, -1):
        bits.append(" ^ ".join(f"{sig}[{j}:{j}]" for j in range(w - 1, i - 1, -1)))
    return "{" + ", ".join(f"({b})" if "^" in b else b for b in bits) + "}"


def _zero(w: int) -> str:
    return f"{w}'h0"


def _rng(w: int) -> str:
    return f"[{w - 1}:0] " if w > 1 else ""


_XPORTS = "input clk_s, input rst_s_n, input clk_d, input rst_d_n"
_SRC_FF = "always @(posedge clk_s or negedge rst_s_n) begin"
_DST_FF = "always @(posedge clk_d or negedge rst_d_n) begin"


def _body_ndff(name: str, depth: int) -> str:
    regs = [f"s{i}" for i in range(1, depth + 1)]
    lines = [f"module {name}({_XPORTS}, input d, output q);",
             "  reg src;",
             f"  {_SRC_FF}",
             "    if (!rst_s_n) src <= 1'b0;",
             "    else src <= d;",
             "  end"]
    lines += [f"  reg {r};" for r in regs]
    lines += [f"  {_DST_FF}",
              "    if (!rst_d_n) begin"]
    lines += [f"      {r} <= 1'b0;" for r in regs]
    lines += ["    end else begin", "      s1 <= src;"]
    lines += [f"      {regs[i]} <= {regs[i - 1]};" for i in range(1, depth)]
    lines += ["    end", "  end", f"  assign q = {regs[-1]};", "endmodule"]
    return "\n".join(lines)


def _body_gray(name: str, w: int) -> str:
    r = _rng(w)
    return "\n".join([
        f"module {name}({_XPORTS}, output {r}q);",
        f"  reg {r}cnt;",
        f"  wire {r}cnt_n;",
        f"  assign cnt_n = {_inc_expr('cnt', w)};",
        f"  reg {r}gcode;",
        f"  wire {r}gcode_n;",
        f"  assign gcode_n = {_gray_of('cnt_n', w)};",
        f"  {_SRC_FF}",
        "    if (!rst_s_n) begin",
        f"      cnt <= {_zero(w)};",
        f"      gcode <= {_zero(w)};",
        "    end else begin",
        "      cnt <= cnt_n;",
        "      gcode <= gcode_n;",
        "    end",
        "  end",
        f"  reg {r}g1;",
        f"  reg {r}g2;",
        f"  {_DST_FF}",
        "    if (!rst_d_n) begin",
        f"      g1 <= {_zero(w)};",
        f"      g2 <= {_zero(w)};",
        "    end else begin",
        "      g1 <= gcode;",
        "      g2 <= g1;",
        "    end",
        "  end",
        "  assign q = g2;",
        "endmodule"])


def _body_pulse(name: str) -> str:
    return "\n".join([
        f"module {name}({_XPORTS}, input req, output pulse_out);",
        "  reg req_r;",
        "  reg req_d;",
        "  wire pin;",
        "  assign pin = req_r & ~req_d;",
        f"  {_SRC_FF}",
        "    if (!rst_s_n) begin",
        "      req_r <= 1'b0;",
        "      req_d <= 1'b0;",
        "    end else begin",
        "      req_r <= req;",
        "      req_d <= req_r;",
        "    end",
        "  end",
        "  reg tgl;",
        f"  {_SRC_FF}",
        "    if (!rst_s_n) tgl <= 1'b0;",
        "    else tgl <= tgl ^ pin;",
        "  end",
        "  reg p1;",
        "  reg p2;",
        "  reg p3;",
        f"  {_DST_FF}",
        "    if (!rst_d_n) begin",
        "      p1 <= 1'b0;",
        "      p2 <= 1'b0;",
        "      p3 <= 1'b0;",
        "    end else begin",
        "      p1 <= tgl;",
        "      p2 <= p1;",
        "      p3 <= p2;",
        "    end",
        "  end",
        "  assign pulse_out = p2 ^ p3;",
        "endmodule"])


def _body_mux(name: str, w: int) -> str:
    r = _rng(w)
    return "\n".join([
        f"module {name}({_XPORTS}, input load, input en_in, output {r}dout);",
        f"  reg {r}bus;",
        "  reg en_a;",
        f"  wire {r}bus_n;",
        f"  assign bus_n = {_inc_expr('bus', w)};",
        f"  {_SRC_FF}",
        "    if (!rst_s_n) begin",
        f"      bus <= {_zero(w)};",
        "      en_a <= 1'b0;",
        "    end else begin",
        "      if (load) bus <= bus_n;",
        "      en_a <= en_in;",
        "    end",
        "  end",
        "  reg e1;",
        "  reg e2;",
        f"  reg {r}capt;",
        f"  {_DST_FF}",
        "    if (!rst_d_n) begin",
        "      e1 <= 1'b0;",
        "      e2 <= 1'b0;",
        f"      capt <= {_zero(w)};",
        "    end else begin",
        "      e1 <= en_a;",
        "      e2 <= e1;",
        "      if (e2) capt <= bus;",
        "    end",
        "  end",
        "  assign dout = capt;",
        "endmodule"])


def _body_fifo(name: str) -> str:
    w = 3
    r = _rng(w)
    full_cmp = "{~wq2[2:2], ~wq2[1:1], wq2[0:0]}"
    return "\n".join([
        f"module {name}({_XPORTS}, input wr_en, input rd_en, output full, output empty);",
        f"  reg {r}wgray;",
        f"  reg {r}rgray;",
        f"  reg {r}wq1;",
        f"  reg {r}wq2;",
        f"  reg {r}rq1;",
        f"  reg {r}rq2;",
        f"  wire {r}wbin;",
        f"  wire {r}wbin_n;",
        f"  wire {r}wgray_n;",
        f"  assign wbin = {_bin_of_gray('wgray', w)};",
        f"  assign wbin_n = {_inc_expr('wbin', w)};",
        f"  assign wgray_n = {_gray_of('wbin_n', w)};",
        f"  wire {r}rbin;",
        f"  wire {r}rbin_n;",
        f"  wire {r}rgray_n;",
        f"  assign rbin = {_bin_of_gray('rgray', w)};",
        f"  assign rbin_n = {_inc_expr('rbin', w)};",
        f"  assign rgray_n = {_gray_of('rbin_n', w)};",
        f"  wire {r}fdiff;",
        f"  assign fdiff = wgray ^ {full_cmp};",
        "  assign full = ~(fdiff[2:2] | fdiff[1:1] | fdiff[0:0]);",
        f"  wire {r}ediff;",
        "  assign ediff = rgray ^ rq2;",
        "  assign empty = ~(ediff[2:2] | ediff[1:1] | ediff[0:0]);",
        f"  {_SRC_FF}",
        "    if (!rst_s_n) begin",
        f"      wq1 <= {_zero(w)};",
        f"      wq2 <= {_zero(w)};",
        "    end else begin",
        "      wq1 <= rgray;",
        "      wq2 <= wq1;",
        "    end",
        "  end",
        f"  {_DST_FF}",
        "    if (!rst_d_n) begin",
        f"      rq1 <= {_zero(w)};",
        f"      rq2 <= {_zero(w)};",
        "    end else begin",
        "      rq1 <= wgray;",
        "      rq2 <= rq1;",
        "    end",
        "  end",
        f"  {_DST_FF}",
        f"    if (!rst_d_n) rgray <= {_zero(w)};",
        "    else begin",
        "      if (rd_en & ~empty) rgray <= rgray_n;",
        "    end",
        "  end",
        f"  {_SRC_FF}",
        f"    if (!rst_s_n) wgray <= {_zero(w)};",
        "    else begin",
        "      if (wr_en & ~full) wgray <= wgray_n;",
        "    end",
        "  end",
        "endmodule"])


def _body_unsync(name: str) -> str:
    return "\n".join([
        f"module {name}({_XPORTS}, input d, output q);",
        "  reg src;",
        "  reg dst;",
        f"  {_SRC_FF}",
        "    if (!rst_s_n) src <= 1'b0;",
        "    else src <= d;",
        "  end",
        f"  {_DST_FF}",
        "    if (!rst_d_n) dst <= 1'b0;",
        "    else dst <= src;",
        "  end",
        "  assign q = dst;",
        "endmodule"])


def _body_local(name: str, w: int) -> str:
    r = _rng(w)
    bcat = "{" + ", ".join(["b"] * w) + "}"
    return "\n".join([
        f"module {name}(input clk, input rst_n, input a, input b, output {r}y);",
        f"  reg {r}r0;",
        f"  reg {r}r1;",
        f"  reg {r}r2;",
        f"  wire {r}n0;",
        f"  wire {r}n1;",
        f"  wire {r}n2;",
        f"  assign n0 = {{r0[{w - 2}:0], r0[{w - 1}:{w - 1}] ^ a}};",
        f"  assign n1 = (r1 ^ r0) | (n0 & {bcat});",
        f"  assign n2 = b ? (r2 ^ n1) : (r2 & ~r1);",
        "  always @(posedge clk or negedge rst_n) begin",
        "    if (!rst_n) begin",
        f"      r0 <= {_zero(w)};",
        f"      r1 <= {_zero(w)};",
        f"      r2 <= {_zero(w)};",
        "    end else begin",
        "      r0 <= n0;",
        "      r1 <= n1;",
        "      r2 <= n2;",
        "    end",
        "  end",
        "  assign y = r2;",
        "endmodule"])


# variant -> (kind, module text function, inputs, outputs)
_VARIANTS = {
    "ndff2": ("ndff", lambda n: _body_ndff(n, 2), [("d", 1)], [("q", 1)]),
    "ndff3": ("ndff", lambda n: _body_ndff(n, 3), [("d", 1)], [("q", 1)]),
    "gray3": ("gray", lambda n: _body_gray(n, 3), [], [("q", 3)]),
    "gray4": ("gray", lambda n: _body_gray(n, 4), [], [("q", 4)]),
    "pulse": ("pulse", _body_pulse, [("req", 1)], [("pulse_out", 1)]),
    "mux4": ("mux", lambda n: _body_mux(n, 4), [("load", 1), ("en_in", 1)], [("dout", 4)]),
    "mux8": ("mux", lambda n: _body_mux(n, 8), [("load", 1), ("en_in", 1)], [("dout", 8)]),
    "fifo": ("fifo", _body_fifo, [("wr_en", 1), ("rd_en", 1)], [("full", 1), ("empty", 1)]),
    "unsync": ("unsync", _body_unsync, [("d", 1)], [("q", 1)]),
    "local8": ("local", lambda n: _body_local(n, 8), [("a", 1), ("b", 1)], [("y", 8)]),
    "local16": ("local", lambda n: _body_local(n, 16), [("a", 1), ("b", 1)], [("y", 16)]),
}

# Per-kind truth: (pairs, synchronizer kind or None, finding rule or None,
# checker id prefix or None).
_TRUTH = {
    "ndff": (1, "ndff", None, "stability"),
    "gray": (1, "ndff", None, "gray_code"),
    "pulse": (1, "pulse", None, "pulse_width"),
    "mux": (2, "mux", None, "mux_enable"),
    "fifo": (2, "fifo", None, "fifo"),
    "unsync": (1, None, "MISSING_SYNC", None),
    "local": (0, None, None, None),
}

# One "block" of variants; designs repeat it.  Ordered so that a block cut
# short still mixes kinds.
_BLOCK = ("local16", "ndff2", "gray3", "local8", "pulse", "ndff3", "mux4",
          "local16", "fifo", "gray4", "local8", "mux8", "unsync", "ndff2")
# A block with no mux or unsync tiles: simulation designs select every
# checker whose verdict is known by construction.
SIM_BLOCK = ("local16", "ndff2", "gray3", "local8", "pulse", "ndff3",
              "local16", "fifo", "gray4", "local8", "ndff2", "pulse")


def _pick_domains(kind: str, rnd: random.Random, n_dom: int) -> tuple[int, int]:
    if kind == "local":
        d = rnd.randrange(n_dom)
        return d, d
    if kind in ("ndff", "unsync"):
        # slow clock (domain 2) into one of the fast ones
        return 2, rnd.randrange(2)
    s = rnd.randrange(n_dom)
    d = rnd.choice([x for x in range(n_dom) if x != s])
    return s, d


def build(name: str, seed: int, blocks: int, *, shape: str = "hier",
          block: tuple[str, ...] = _BLOCK, purpose: str = "static",
          run_edges: int = 0, gray_sources: int = 0) -> Design:
    """Generate one design.

    shape "hier" defines each tile variant once and instances it; "flat"
    gives every tile its own uniquely named module, so parsing scales with
    the design.  purpose "static" emits constraints only; "sim" adds random
    stimulus over `run_edges` edges of the first clock; "explore" keeps
    only ndff and local tiles, adds `gray_sources` free-running gray
    crossings and a stimulus that only releases reset, so those counters
    are the sole source of injection decisions.
    """
    rnd = random.Random(f"{name}:{seed}")
    clocks = _EXPLORE_CLOCKS if purpose == "explore" else _CLOCKS
    n_dom = len(clocks)
    variants = [v for _ in range(blocks) for v in block]
    if purpose == "explore":
        variants = [v if _VARIANTS[v][0] in ("ndff", "local") else "ndff2"
                    for v in variants]
        variants += ["gray3"] * gray_sources
    rnd.shuffle(variants)

    tiles: list[Tile] = []
    for v in variants:
        kind, _body, ins, outs = _VARIANTS[v]
        if purpose == "explore" and kind == "gray":
            s, d = 0, 1
        else:
            s, d = _pick_domains(kind, rnd, n_dom)
        tiles.append(Tile(kind, v, s, d, ins, outs))

    modules: list[str] = []
    defined: set[str] = set()
    top_ports = []
    for k in range(n_dom):
        top_ports += [f"input clk{k}", f"input rst{k}_n"]
    insts = []
    random_ports = []
    for t_idx, t in enumerate(tiles):
        mod = t.variant if shape == "hier" else f"{t.variant}_u{t_idx}"
        if mod not in defined:
            defined.add(mod)
            modules.append(_VARIANTS[t.variant][1](mod))
        conns = []
        if t.kind == "local":
            conns += [f".clk(clk{t.src})", f".rst_n(rst{t.src}_n)"]
        else:
            conns += [f".clk_s(clk{t.src})", f".rst_s_n(rst{t.src}_n)",
                      f".clk_d(clk{t.dst})", f".rst_d_n(rst{t.dst}_n)"]
        for pin, w in t.inputs:
            port = f"t{t_idx}_{pin}"
            top_ports.append(f"input {_rng(w)}{port}")
            conns.append(f".{pin}({port})")
            random_ports.append(port)
        for pin, w in t.outputs:
            port = f"t{t_idx}_{pin}"
            top_ports.append(f"output {_rng(w)}{port}")
            conns.append(f".{pin}({port})")
        insts.append(f"  {mod} u{t_idx}({', '.join(conns)});")
    top = "\n".join([f"module top({', '.join(top_ports)});", *insts, "endmodule"])
    rtl = "\n\n".join(modules + [top]) + "\n"

    cons = []
    for k, (period, phase) in enumerate(clocks):
        ph = f" -phase {phase}" if phase else ""
        cons.append(f"clock clk{k} -period {period}{ph} -domain D{k}")
    for k in range(n_dom):
        cons.append(f"reset rst{k}_n -active_low -domain D{k}")
    files = {"rtl.v": rtl, "constraints.cdc": "\n".join(cons) + "\n"}

    if purpose != "static":
        stim = [f"at clk0 0 set rst{k}_n 1" for k in range(n_dom)]
        if purpose == "sim":
            stim.append(f"random -ports {','.join(random_ports)} -p 0.05 -seed {seed}")
        stim.append(f"run {run_edges} of clk0")
        files["stimulus.stim"] = "\n".join(stim) + "\n"

    kinds = Counter(t.kind for t in tiles)
    pairs = sum(_TRUTH[k][0] * n for k, n in kinds.items())
    syncs = Counter()
    findings = Counter()
    checkers = Counter()
    for k, n in kinds.items():
        _p, sk, rule, chk = _TRUTH[k]
        if sk:
            syncs[sk] += n
        if rule:
            findings[rule] += n
        if chk:
            checkers[chk] += n
    truth = {
        "tiles": dict(sorted(kinds.items())),
        "pairs": pairs,
        "syncs": dict(sorted(syncs.items())),
        "findings": dict(sorted(findings.items())),
        "strict_exit": 2 if findings["MISSING_SYNC"] else 0,
        "checkers": dict(sorted(checkers.items())),
    }
    if purpose == "explore":
        # one setup decision per gray source per run edge, no other source
        # ever flips, and no checker fails to cut the search short
        truth["branches"] = 2 ** (gray_sources * run_edges)
    return Design(name, files, truth)

