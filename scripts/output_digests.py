#!/usr/bin/env python3
"""Print one digest line per CLI command over every corpus case.

For each case it runs `analyze`, `generate`, `simulate --seeds 1..3 --vcd`,
`simulate --no-msi`, `explore` and `explore --latency 1:3` in process, and
hashes the exit code, stdout, stderr and every file the command wrote;
on `gray_cross` it also runs `explore --budget 500`, whose first path is
deeper than a recursive search goes.  It then runs `analyze --strict` and
`generate` on designs from `perfbench/gen.py` (hier and flat, 6 and 24
blocks, seed 1), which hold hundreds of synchronizers where the corpus
designs hold a few, `simulate --seeds 1..2` on the benchmark's generated
2k-net simulation design and `explore` on its 1k-net exploration design
(seed 1), the same command lines the benchmark runs,
`analyze`, `simulate` and `generate` on three inline sources at the edges
of the netlist builder (a floating net, a one-operand concatenation, a
600-level module chain), on one that uses names before it declares them
(`use-before-decl`) and on one that declares a name of the form the
elaborator gives its temporaries (`temp-name`), `analyze` on sources the
front end rejects,
so the positions of its diagnostics are covered too, after multi-line
comments, CRLF line ends, tabs and a last line without a newline, on
undeclared names (`undeclared-order`: three in one expression, of which
the first must be named; `undeclared-conn`: one in an instance
connection), and on one error of each kind of module shape (a reset arm
that is not an `if ... else`, of the wrong polarity, with a value that is
not a literal or does not fit, a reset wider than one bit, a slice past
the width, a port connected twice or missing), and
`generate` on `gray_cross` with its crossing source renamed to
SystemVerilog keywords that subset Verilog allows as names.  Paths are
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
)
REJECTED_CONSTRAINTS = "clock clk -period 10 -domain A\n"
# Names for gray_cross's source flop `g`: keywords of SystemVerilog only.
KEYWORD_NAMES = ("assert", "bins", "covergroup", "iff", "property")


def digest(main, d: str, argv: list[str]) -> str:
    """Digest of one command on the design in directory `d`."""
    with tempfile.TemporaryDirectory() as out:
        cmd = [a.format(out=out) for a in argv]
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
    runs = [(gen.build(f"{shape}{blocks}", 1, blocks, shape=shape), GENERATED_COMMANDS)
            for shape, blocks in GENERATED]
    # the generated designs of the benchmark's msi_seeds and explore_bounded
    runs.append((gen.build("sim", 1, 8, block=gen.SIM_BLOCK, purpose="sim",
                           run_edges=30),
                 (("simulate-seeds", ["simulate", "--seeds", "1..2", "--checkers",
                                      ",".join(gen.SIM_CHECKERS)]),)))
    runs.append((gen.build("explore", 1, 8, purpose="explore", run_edges=4,
                           gray_sources=2),
                 (("explore", ["explore", "--budget", "16", "--checkers",
                               ",".join(gen.EXPLORE_CHECKERS)]),)))
    for design, commands in runs:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            for name, text in design.files.items():
                Path(name).write_text(text)
            for label, argv in commands:
                print(f"gen-{design.name}-s1 {label} {digest(cli_main, '.', argv)}",
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

    for label, text in REJECTED:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(text)
            Path("constraints.cdc").write_text(REJECTED_CONSTRAINTS)
            print(f"reject-{label} analyze {digest(cli_main, '.', ['analyze'])}",
                  flush=True)
            os.chdir(root)

    gray = root / "corpus" / "gray_cross"
    for name in KEYWORD_NAMES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            Path("rtl.v").write_text(re.sub(r"\bg\b", name, (gray / "rtl.v").read_text()))
            Path("constraints.cdc").write_text((gray / "constraints.cdc").read_text())
            print(f"keyword-{name} generate {digest(cli_main, '.', ['generate'])}",
                  flush=True)
            os.chdir(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
