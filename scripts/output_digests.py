#!/usr/bin/env python3
"""Print one digest line per CLI command over every corpus case.

For each case it runs `analyze`, `generate`, `simulate --seeds 1..3 --vcd`,
`simulate --seeds 1..20 --probability 0.3` (no waves, so a first seed
whose later seeds share its path records none), `simulate --no-msi`,
`explore` and `explore --latency 1:3` in process, and
hashes the exit code, stdout, stderr and every file the command wrote;
on `gray_cross` it also runs `explore --budget 500`, whose first path is
deeper than a recursive search goes.  It then runs `analyze --strict` and
`generate` on designs from `perfbench/gen.py` (hier and flat, 6 and 24
blocks, seed 1), which hold hundreds of synchronizers where the corpus
designs hold a few, `simulate --seeds 1..2` on the benchmark's generated
2k-net simulation design and `explore` on its 1k-net exploration design
(seed 1), the same command lines the benchmark runs, that `simulate`
again with `--vcd`, whose waves have two-character ids, ids with braces
and nets of 8 to 16 bits, and with `--checkers none`, which leaves only
what decides the opportunities in the cone that a run without waves
evaluates, that `explore` on the exploration designs of
seeds 2 and 3 and with `--latency 1:3` on seed 1,
`analyze`, `simulate` and `generate` on three inline sources at the edges
of the netlist builder (a floating net, a one-operand concatenation, a
600-level module chain), on one that uses names before it declares them
(`use-before-decl`) and on one that declares a name of the form the
elaborator gives its temporaries (`temp-name`), `analyze`, `simulate` and
`explore` on a hierarchy whose repeated modules the elaborator stamps
(`hier-ties`: a module instanced with two inputs tied to one net, with a
port left unconnected and with expressions as connections, at two depths,
under a repeated module that connects its child through expressions),
`explore --latency *:1:3` on a request/acknowledge loop whose crossing
source reads the destination domain (`req-ack`, the `REQ_ACK` of
tests/test_lockstep.py: 16 edges at `--budget 16`, 392 paths, and with
setup and hold windows of 3 and 2 at `--budget 24`, 43,671 paths),
`simulate --seeds 1..3` without waves, with `--vcd` and with latency
checkers alone, `explore` and `explore --latency 1:3` on seven designs at
the edges of that cone (`cone-*`, those of tests/test_cone.py: a
destination that latency checkers read and stability checkers do not, a
gated flop outside the cone, a random port outside it drawn before one
inside, a destination that is a reset net, a source whose hold lookahead
crosses a gated clock, a destination outside the cone held by its reset
and its gated clock, and a destination declared its domain's reset),
`analyze` on sources the
front end rejects,
so the positions of its diagnostics are covered too, after multi-line
comments, CRLF line ends, tabs and a last line without a newline, on
undeclared names (`undeclared-order`: three in one expression, of which
the first must be named; `undeclared-conn`: one in an instance
connection), on width errors that only the elaborator sees (`width`: an
assign of two bits to one; `unsized`: an unsized literal as a port
connection; `concat-width`: an unsized literal as a concatenation
operand; `literal-fits`: a literal wider than the net it drives), on
numbers past the widest net of 65536 bits (`literal-wide`,
`literal-width-digits`, `unsized-digits`, `range-digits`, `slice-digits`,
`range-wide`: widths, values and bounds of 20 to 5000 digits) and a digit
outside a literal's base (`literal-digit`), and on one error of each kind of module shape (a reset arm
that is not an `if ... else`, of the wrong polarity, with a value that is
not a literal or does not fit, a reset wider than one bit, a slice past
the width, a port connected twice or missing, a port declared twice in
one header), `explore` on `msi_latency` with a latency spec whose min
exceeds its max (`reject-latency-order`) and with one that names no
crossing pair (`reject-latency-pair`), `explore --checkers latency` on
`static_config` with one that names its suppressed pair
(`reject-latency-suppressed`), and
`generate` on `gray_cross` with its crossing source renamed to
SystemVerilog keywords that subset Verilog allows as names, and command
lines that end in help, the version or a usage error (`cli` lines).  Paths are
passed relative to the checkout (or to the generated design's directory),
so two checkouts give the same lines exactly when their outputs are
byte-identical:

    python scripts/output_digests.py > new.txt
    python scripts/output_digests.py --root ../other-checkout > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import re
import sys
import tempfile
from pathlib import Path

COMMANDS = (
    ("analyze", ["analyze"]),
    ("generate", ["generate"]),
    ("simulate-seeds", ["simulate", "--seeds", "1..3", "--vcd", "{out}/trace.vcd"]),
    ("simulate-many", ["simulate", "--seeds", "1..20", "--probability", "0.3"]),
    ("simulate-no-msi", ["simulate", "--no-msi"]),
    ("explore", ["explore"]),
    ("explore-latency", ["explore", "--latency", "1:3"]),
)
CASE_COMMANDS = {"gray_cross": (("explore-budget500", ["explore", "--budget", "500"]),)}
GENERATED = (("hier", 6), ("flat", 6), ("hier", 24), ("flat", 24))
GENERATED_COMMANDS = (
    ("analyze-strict", ["analyze", "--strict"]),
    ("generate", ["generate"]),
)
# Sources at the edges of the netlist builder, each with two clock inputs.
INLINE_CONSTRAINTS = "clock clk -period 10 -domain A\nclock clk_b -period 7 -domain B\n"
INLINE_STIMULUS = "run 4 of clk\n"
INLINE_COMMANDS = (("analyze", ["analyze"]), ("simulate", ["simulate"]),
                   ("generate", ["generate"]))
HIER_COMMANDS = (("analyze", ["analyze"]), ("simulate", ["simulate"]),
                 ("explore", ["explore"]))


def _chain(levels: int) -> str:
    """`levels` modules, each instantiating the next; the innermost holds a
    crossing into a two-flop synchronizer."""
    ports = "input clk, input clk_b, input d, output q"
    conns = ".clk(clk), .clk_b(clk_b), .d(d), .q(q)"
    mods = [f"module m{i}({ports});\n  m{i + 1} u({conns});\nendmodule\n"
            for i in range(levels - 1)]
    mods.append(f"module m{levels - 1}({ports});\n  reg s, q1, q2;\n"
                "  always @(posedge clk) s <= d;\n"
                "  always @(posedge clk_b) begin q1 <= s; q2 <= q1; end\n"
                "  assign q = q2;\nendmodule\n")
    return "".join(mods)


INLINE = (
    ("floating", "module top(input clk, input clk_b, input d, output q);\n"
                 "  wire f;\n  reg r;\n  always @(posedge clk) r <= d & f;\n"
                 "  assign q = r;\nendmodule\n"),
    ("concat1", "module top(input clk, input clk_b, input d, output q);\n"
                "  reg s, q1, q2;\n  always @(posedge clk) s <= {d};\n"
                "  always @(posedge clk_b) begin q1 <= s; q2 <= q1; end\n"
                "  assign q = q2;\nendmodule\n"),
    ("chain600", _chain(600)),
    ("use-before-decl", "module top(input clk, input clk_b, input d, output q);\n"
                        "  assign q = q2;\n  always @(posedge clk) s <= d;\n"
                        "  always @(posedge clk_b) begin q1 <= s; q2 <= q1; end\n"
                        "  reg s, q1, q2;\nendmodule\n"),
    ("temp-name", "module top(input clk, input clk_b, input a, input b, output q);\n"
                  "  wire __t1;\n  reg s, q1, q2;\n  assign __t1 = a;\n"
                  "  always @(posedge clk) s <= (a & b) | __t1;\n"
                  "  always @(posedge clk_b) begin q1 <= s; q2 <= q1; end\n"
                  "  assign q = q2;\nendmodule\n"),
)
# A hierarchy the elaborator stamps: `cell` is expanded five times, `pair`
# twice, and each `pair` connects its `cell` through expressions, whose
# temporaries continue the numbering of the pair's own.
HIER_TIES = (
    "module cell(input clk, input a, input b, output q, output n);\n"
    "  reg r;\n  always @(posedge clk) r <= a ^ b;\n"
    "  assign q = r;\n  assign n = ~r & a;\nendmodule\n"
    "module pair(input clk, input clk_b, input d, output q);\n"
    "  wire m;\n  reg s1, s2;\n"
    "  always @(posedge clk_b) begin s1 <= m; s2 <= s1; end\n"
    "  assign q = s2 ^ {d};\n"
    "  cell c0(.clk(clk), .a(d & m), .b(~d), .q(m), .n());\nendmodule\n"
    "module top(input clk, input clk_b, input d, input e, output q, output w);\n"
    "  wire t0, t1, t2, t3, p0, p1;\n"
    "  cell u0(.clk(clk), .a(d), .b(d), .q(t0), .n(t1));\n"
    "  cell u1(.clk(clk), .a(e), .b(t0), .q(t2), .n());\n"
    "  cell u2(.clk(clk), .a(t1 | e), .b(~t2), .q(t3), .n(w));\n"
    "  pair v0(.clk(clk), .clk_b(clk_b), .d(t3 ^ e), .q(p0));\n"
    "  pair v1(.clk(clk), .clk_b(clk_b), .d(t2), .q(p1));\n"
    "  assign q = p0 & p1;\nendmodule\n")
# A request/acknowledge loop: req, the source of ack1, reads ack2.
REQ_ACK = (
    "module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n, output q);\n"
    "  reg req, ack1, ack2;\n"
    "  always @(posedge clk_a or negedge rst_a_n)\n"
    "    if (!rst_a_n) req <= 1'b0; else req <= ~ack2;\n"
    "  always @(posedge clk_b or negedge rst_b_n)\n"
    "    if (!rst_b_n) begin ack1 <= 1'b0; ack2 <= 1'b0; end\n"
    "    else begin ack1 <= req; ack2 <= ack1; end\n"
    "  assign q = ack2;\nendmodule\n")
REQ_ACK_CONSTRAINTS = ("clock clk_a -period 10 -domain A\nclock clk_b -period 7 -domain B\n"
                       "reset rst_a_n -active_low -domain A\n"
                       "reset rst_b_n -active_low -domain B\n")
REQ_ACK_STIMULUS = "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 16 of clk_a\n"
# label: (constraints added, budget)
REQ_ACK_RUNS = (("req-ack", "", "16"),
                ("req-ack-windows", "option setup_window 3\noption hold_window 2\n", "24"))
# Designs at the edges of the observed cone that a run without waves
# evaluates (src/cdckit/sim.py, What a run evaluates; tests/test_cone.py
# runs the same): label, source, constraints added, stimulus.
_CONE_HEAD = "module top(input clk_a, input clk_b, input rst_a_n, input rst_b_n"
_CONE_SYNC = (
    "  always @(posedge clk_a or negedge rst_a_n)\n"
    "    if (!rst_a_n) s <= 1'b0; else s <= ~s;\n"
    "  always @(posedge clk_b or negedge rst_b_n)\n"
    "    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end\n"
    "    else begin q1 <= s; q2 <= q1; end\n")
_CONE_STIMULUS = "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nrun 24 of clk_a\n"
CONE_EDGES = (
    # q1 is read by latency checkers (through q2), not by stability
    ("cone-sync", _CONE_HEAD + ", output q);\n  reg s, q1, q2;\n" + _CONE_SYNC
     + "  assign q = q2;\nendmodule\n", "", _CONE_STIMULUS),
    # g, on a clock that en gates, feeds only an output
    ("cone-gated-outside", _CONE_HEAD + ", output q, output w);\n  reg s, q1, q2, en, g;\n"
     "  wire gclk;\n  assign gclk = clk_a & en;\n" + _CONE_SYNC
     + "  always @(posedge clk_a or negedge rst_a_n)\n"
       "    if (!rst_a_n) en <= 1'b0; else en <= ~en;\n"
       "  always @(posedge gclk) g <= ~g;\n  assign q = q2;\n  assign w = g;\nendmodule\n",
     "", _CONE_STIMULUS),
    # r1, drawn before r2, feeds only x; s follows r2
    ("cone-random-outside", _CONE_HEAD + ", input r1, input r2, output q, output w);\n"
     "  reg s, q1, q2, x;\n"
     "  always @(posedge clk_a or negedge rst_a_n)\n"
     "    if (!rst_a_n) begin s <= 1'b0; x <= 1'b0; end\n"
     "    else begin s <= r2; x <= x ^ r1; end\n"
     "  always @(posedge clk_b or negedge rst_b_n)\n"
     "    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end\n"
     "    else begin q1 <= s; q2 <= q1; end\n"
     "  assign q = q2;\n  assign w = x;\nendmodule\n",
     "", "random -ports r1,r2 -p 0.5 -seed 1\n" + _CONE_STIMULUS),
    # the destination r1 is the reset of x
    ("cone-dst-reset", _CONE_HEAD + ", output q);\n  reg s, r1, x;\n"
     "  always @(posedge clk_a or negedge rst_a_n)\n"
     "    if (!rst_a_n) s <= 1'b0; else s <= ~s;\n"
     "  always @(posedge clk_b or negedge rst_b_n)\n"
     "    if (!rst_b_n) r1 <= 1'b0; else r1 <= s;\n"
     "  always @(posedge clk_b or negedge r1)\n"
     "    if (!r1) x <= 1'b0; else x <= ~x;\n"
     "  assign q = x;\nendmodule\n", "", _CONE_STIMULUS),
    # the source g is clocked through a gate, so its hold lookahead asks
    # whether that clock rises
    ("cone-hold-gated", _CONE_HEAD + ", input gate_en, output q);\n"
     "  reg g, gate_ff, q1, q2;\n  wire gclk;\n  assign gclk = clk_a & gate_ff;\n"
     "  always @(posedge clk_a or negedge rst_a_n)\n"
     "    if (!rst_a_n) gate_ff <= 1'b0; else gate_ff <= gate_en;\n"
     "  always @(posedge gclk) g <= ~g;\n"
     "  always @(posedge clk_b or negedge rst_b_n)\n"
     "    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end\n"
     "    else begin q1 <= g; q2 <= q1; end\n"
     "  assign q = q2;\nendmodule\n", "",
     "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nat clk_a 2 set gate_en 1\n"
     "at clk_a 9 set gate_en 0\nat clk_a 14 set gate_en 1\nrun 24 of clk_a\n"),
    # the destination q1 edges on a gated clock and its reset is asserted
    # mid-run
    ("cone-gated-dst", _CONE_HEAD + ", input gate_en, output q);\n"
     "  reg s, gate_ff, q1, q2;\n  wire gclk;\n  assign gclk = clk_b & gate_ff;\n"
     "  always @(posedge clk_a or negedge rst_a_n)\n"
     "    if (!rst_a_n) s <= 1'b0; else s <= ~s;\n"
     "  always @(posedge clk_b or negedge rst_b_n)\n"
     "    if (!rst_b_n) gate_ff <= 1'b0; else gate_ff <= gate_en;\n"
     "  always @(posedge gclk or negedge rst_b_n)\n"
     "    if (!rst_b_n) begin q1 <= 1'b0; q2 <= 1'b0; end\n"
     "    else begin q1 <= s; q2 <= q1; end\n"
     "  assign q = q2;\nendmodule\n", "",
     "at clk_a 0 set rst_a_n 1\nat clk_a 0 set rst_b_n 1\nat clk_a 2 set gate_en 1\n"
     "at clk_a 8 set gate_en 0\nat clk_a 11 set gate_en 1\nat clk_a 14 set rst_b_n 0\n"
     "at clk_a 18 set rst_b_n 1\nrun 24 of clk_a\n"),
    # the destination q1 is declared the reset of domain B
    ("cone-dst-domain-reset", _CONE_HEAD + ", output q);\n  reg s, q1, q2;\n" + _CONE_SYNC
     + "  assign q = q2;\nendmodule\n", "reset q1 -domain B\n", _CONE_STIMULUS),
)
CONE_COMMANDS = (
    ("simulate", ["simulate", "--seeds", "1..3"]),
    ("simulate-vcd", ["simulate", "--seeds", "1..3", "--vcd", "{out}/trace.vcd"]),
    ("simulate-latency", ["simulate", "--seeds", "1..3", "--latency", "1:3",
                          "--checkers", "latency"]),
    ("explore", ["explore"]),
    ("explore-latency", ["explore", "--latency", "1:3"]),
)
# Rejected sources: one per kind of tokenizer diagnostic, then parser and
# declaration errors that come after a multi-line comment, CRLF line ends,
# tabs, and a last line without a newline, then undeclared names, then one
# error of each kind of module shape.
REJECTED = (
    ("keyword", "module m(input a);\n  // lead\n  initial begin end\nendmodule\n"),
    ("delay", "module m(input a, output w);\n  assign w = #2 a;\nendmodule\n"),
    ("directive", "/* head */\n`define W 4\nmodule m(input a);\nendmodule\n"),
    ("system-task", "module m(input clk);\n  always @(posedge clk) $display(1);\nendmodule\n"),
    ("stray", "module m(input a);\n  /* two\n     lines */ wire w; %\nendmodule\n"),
    ("open-comment", "module m(input a);\n  wire w;\n  /* never closed\nendmodule"),
    ("after-comment", "module m(input a, output w);\n  /* one\n     two */ wire x; /* three\n"
                      "  */\n  assign w = a & ;\nendmodule\n"),
    ("crlf", "module m(input clk, input a, output reg q);\r\n  reg r;\r\n"
             "  always @(posedge clk) begin\r\n    r <= a;\r\n    q <= z;\r\n  end\r\n"
             "endmodule\r\n"),
    ("tabs", "module m(input a, output w);\n\twire\tx;\n\tassign\tw = a\t@ x;\nendmodule\n"),
    ("no-newline-eof", "module m(input a);\n  wire w;"),
    ("no-newline-duplicate", "module m(input a);\nendmodule\nmodule m(input b);\nendmodule"),
    ("undeclared-order", "module m(input clk, input a, output w);\n"
                         "  assign w = xa & yb & zc;\nendmodule\n"),
    ("undeclared-conn", "module m(input clk, input a, output w);\n"
                        "  bb u(.a(a & nope), .y(w));\nendmodule\n"),
    ("reset-shape", "module m(input clk, input rst, input d, output reg q);\n"
                    "  always @(posedge clk or posedge rst) q <= d;\nendmodule\n"),
    ("reset-polarity", "module m(input clk, input rst_n, input d, output reg q);\n"
                       "  always @(posedge clk or negedge rst_n)\n"
                       "    if (rst_n) q <= 1'b0; else q <= d;\nendmodule\n"),
    ("reset-literal", "module m(input clk, input rst, input d, output reg q);\n"
                      "  always @(posedge clk or posedge rst) begin\n"
                      "    if (rst) q <= d;\n    else q <= d;\n  end\nendmodule\n"),
    ("reset-width", "module m(input clk, input [1:0] rst, input d, output reg q);\n"
                    "  always @(posedge clk or posedge rst)\n"
                    "    if (rst) q <= 1'b0; else q <= d;\nendmodule\n"),
    ("reset-fits", "module m(input clk, input rst, input [1:0] d, output reg [1:0] q);\n"
                   "  always @(posedge clk or posedge rst)\n"
                   "    if (rst) q <= 3'd4; else q <= d;\nendmodule\n"),
    ("slice-range", "module m(input clk, input [3:0] d, output reg q);\n"
                    "  always @(posedge clk) q <= d[4];\nendmodule\n"),
    ("conn-twice", "module sub(input a, output y);\n  assign y = a;\nendmodule\n"
                   "module m(input clk, input a, output w);\n"
                   "  sub u(.a(a), .y(w), .a(clk));\nendmodule\n"),
    ("no-port", "module sub(input a, output y);\n  assign y = a;\nendmodule\n"
                "module m(input clk, input a, output w);\n"
                "  sub u(.a(a), .zz(clk), .y(w));\nendmodule\n"),
    ("dup-port", "module m(input clk, input a, input a, output w);\n"
                 "  assign w = a;\nendmodule\n"),
    ("width", "module m(input clk, input [1:0] a, output w);\n"
              "  assign w = a;\nendmodule\n"),
    ("unsized", "module sub(input a, output y);\n  assign y = a;\nendmodule\n"
                "module m(input clk, output w);\n  sub u(.a(1), .y(w));\nendmodule\n"),
    ("concat-width", "module m(input clk, input a, output w);\n"
                     "  assign w = {1};\nendmodule\n"),
    ("literal-fits", "module m(input clk, output [1:0] x);\n"
                     "  assign x = 5;\nendmodule\n"),
    ("literal-wide", "module m(input clk, output y);\n"
                     "  assign y = 99999999999999999999999'h1;\nendmodule\n"),
    ("literal-width-digits", "module m(input clk, output y);\n"
                             f"  assign y = {'9' * 5000}'h1;\nendmodule\n"),
    ("unsized-digits", "module m(input clk, output y);\n"
                       f"  assign y = {'9' * 5000};\nendmodule\n"),
    ("range-digits", f"module m(input clk, input [{'9' * 5000}:0] a, output y);\n"
                     "  assign y = a[0];\nendmodule\n"),
    ("slice-digits", "module m(input clk, input [3:0] a, output y);\n"
                     f"  assign y = a[{'9' * 5000}:0];\nendmodule\n"),
    ("range-wide", "module m(input clk, input [99999999999999999999:0] a, output y);\n"
                   "  assign y = a[0];\nendmodule\n"),
    ("literal-digit", "module m(input clk, output [3:0] y);\n"
                      "  assign y = 4'b1021;\nendmodule\n"),
)
REJECTED_CONSTRAINTS = "clock clk -period 10 -domain A\n"
# Latency specs that no checker can be built from, on `msi_latency`.
REJECTED_LATENCY = (("order", "msi_latency", ["5:2"]),
                    ("pair", "msi_latency", ["cdc99:1:2"]),
                    ("suppressed", "static_config", ["cdc0:1:3", "--checkers", "latency"]))
# Names for gray_cross's source flop `g`: keywords of SystemVerilog only.
KEYWORD_NAMES = ("assert", "bins", "covergroup", "iff", "property")
# Command lines that end in help, the version or a usage error before any
# command runs: the CLI's own text (tests/test_cli.py parses the same ones).
# VALID_ARGS holds the arguments of a command line that each command parses.
VALID_ARGS = {"analyze": ["d.v", "-c", "d.cdc"],
              "simulate": ["d.v", "-c", "d.cdc", "-s", "d.stim"],
              "explore": ["d.v", "-c", "d.cdc", "-s", "d.stim"],
              "generate": ["d.v", "-c", "d.cdc"],
              "report": ["--db", "db.json", "--pairs", "pairs.json"],
              "merge-coverage": ["a.json"]}
CLI_ARGVS = (
    ["--help"], ["--version"], [], ["frobnicate", "d.v"],
    ["--help", "simulate"], ["--bogus", "analyze", *VALID_ARGS["analyze"]],
    ["--", "analyze", *VALID_ARGS["analyze"]], ["analyze", "--", "d.v"],
    ["simulate", *VALID_ARGS["simulate"], "--seed", "x"],
    ["explore", *VALID_ARGS["explore"], "--budget", "x"],
    ["report", *VALID_ARGS["report"], "--format", "xml"],
    *([command, "--help"] for command in VALID_ARGS),
    *([command] for command in VALID_ARGS),
    *([command, *argv, "--bogus"] for command, argv in VALID_ARGS.items()),
    ["explore", *VALID_ARGS["explore"], "-h"],
    ["analyze", *VALID_ARGS["analyze"], "--ou", "o", "--bogus"],
    ["simulate", *VALID_ARGS["simulate"], "--seed", "1.5"],
)


def digest(main, d: str | None, argv: list[str]) -> str:
    """Digest of one command on the design in directory `d`, or of the
    command line `argv` as it is when `d` is None."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [a.format(out=out) for a in argv]
        if d is not None:
            cmd[1:1] = [f"{d}/rtl.v", "-c", f"{d}/constraints.cdc"]
            if cmd[0] in ("simulate", "explore"):
                cmd += ["-s", f"{d}/stimulus.stim"]
            cmd += ["--out", out]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(cmd)
            except SystemExit as e:
                rc = f"exit {e.code}"
            except Exception as e:      # an escaped traceback is an output too
                rc = f"raised {type(e).__name__}: {e}"
        h = hashlib.sha256()
        for part in (str(rc), stdout.getvalue(), stderr.getvalue()):
            h.update(part.replace(out, "<out>").encode() + b"\0")
        files = sorted(p for p in Path(out).rglob("*") if p.is_file())
        for p in files:
            h.update(p.relative_to(out).as_posix().encode() + b"\0")
            h.update(p.read_bytes() + b"\0")
    return f"rc={rc} files={len(files)} {h.hexdigest()[:16]}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                    help="checkout whose src/ and corpus/ are used")
    args = ap.parse_args()
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    from cdckit.cli import main as cli_main

    cases = sorted(p.name for p in Path("corpus").iterdir() if p.is_dir())
    for case in cases:
        for label, argv in COMMANDS + CASE_COMMANDS.get(case, ()):
            print(f"{case} {label} {digest(cli_main, f'corpus/{case}', argv)}",
                  flush=True)

    spec = importlib.util.spec_from_file_location("gen", root / "perfbench" / "gen.py")
    gen = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(gen)
    runs = [(gen.build(f"{shape}{blocks}", 1, blocks, shape=shape), 1, GENERATED_COMMANDS)
            for shape, blocks in GENERATED]
    # the generated designs of the benchmark's msi_seeds and explore_bounded
    sim_seeds = ["simulate", "--seeds", "1..2", "--checkers", ",".join(gen.SIM_CHECKERS)]
    runs.append((gen.build("sim", 1, 8, block=gen.SIM_BLOCK, purpose="sim",
                           run_edges=30), 1,
                 (("simulate-seeds", sim_seeds),
                  ("simulate-seeds-vcd", sim_seeds + ["--vcd", "{out}/trace.vcd"]),
                  ("simulate-no-checkers", ["simulate", "--seeds", "1..2",
                                            "--checkers", "none"]))))
    explore = ["explore", "--budget", "16", "--checkers", ",".join(gen.EXPLORE_CHECKERS)]
    for seed in (1, 2, 3):
        commands = (("explore", explore),)
        if seed == 1:
            commands += (("explore-latency", ["explore", "--budget", "16",
                                              "--latency", "1:3"]),)
        runs.append((gen.build("explore", seed, 8, purpose="explore", run_edges=4,
                               gray_sources=2), seed, commands))
    for design, seed, commands in runs:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            for name, text in design.files.items():
                Path(name).write_text(text)
            for label, argv in commands:
                print(f"gen-{design.name}-s{seed} {label} {digest(cli_main, '.', argv)}",
                      flush=True)
            os.chdir(root)

    for label, text in INLINE:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(text)
            Path("constraints.cdc").write_text(INLINE_CONSTRAINTS)
            Path("stimulus.stim").write_text(INLINE_STIMULUS)
            for cmd, argv in INLINE_COMMANDS:
                print(f"inline-{label} {cmd} {digest(cli_main, '.', argv)}", flush=True)
            os.chdir(root)

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        Path("rtl.v").write_text(HIER_TIES)
        Path("constraints.cdc").write_text(INLINE_CONSTRAINTS)
        Path("stimulus.stim").write_text(INLINE_STIMULUS)
        for cmd, argv in HIER_COMMANDS:
            print(f"inline-hier-ties {cmd} {digest(cli_main, '.', argv)}", flush=True)
        os.chdir(root)

    for label, options, budget in REQ_ACK_RUNS:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(REQ_ACK)
            Path("constraints.cdc").write_text(REQ_ACK_CONSTRAINTS + options)
            Path("stimulus.stim").write_text(REQ_ACK_STIMULUS)
            argv = ["explore", "--latency", "*:1:3", "--budget", budget]
            print(f"inline-{label} explore-latency {digest(cli_main, '.', argv)}", flush=True)
            os.chdir(root)

    for label, text, constraints, stimulus in CONE_EDGES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(text)
            Path("constraints.cdc").write_text(REQ_ACK_CONSTRAINTS + constraints)
            Path("stimulus.stim").write_text(stimulus)
            for cmd, argv in CONE_COMMANDS:
                print(f"inline-{label} {cmd} {digest(cli_main, '.', argv)}", flush=True)
            os.chdir(root)

    for label, text in REJECTED:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(text)
            Path("constraints.cdc").write_text(REJECTED_CONSTRAINTS)
            print(f"reject-{label} analyze {digest(cli_main, '.', ['analyze'])}",
                  flush=True)
            os.chdir(root)

    for label, case, args in REJECTED_LATENCY:
        line = digest(cli_main, f"corpus/{case}", ["explore", "--latency", *args])
        print(f"reject-latency-{label} explore {line}", flush=True)

    gray = root / "corpus" / "gray_cross"
    for name in KEYWORD_NAMES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(re.sub(r"\bg\b", name, (gray / "rtl.v").read_text()))
            Path("constraints.cdc").write_text((gray / "constraints.cdc").read_text())
            print(f"keyword-{name} generate {digest(cli_main, '.', ['generate'])}",
                  flush=True)
            os.chdir(root)

    for argv in CLI_ARGVS:
        print(f"cli {' '.join(argv) or '-'} {digest(cli_main, None, argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
