#!/usr/bin/env python3
"""Print one digest line per CLI command over every corpus case.

For each case it runs `analyze`, `generate`, `simulate --seeds 1..3 --vcd`,
`simulate --no-msi`, `explore` and `explore --latency 1:3` in process, and
hashes the exit code, stdout, stderr and every file the command wrote.
Paths are passed relative to the checkout, so two checkouts give the same
lines exactly when their outputs are byte-identical:

    python scripts/output_digests.py > new.txt
    python scripts/output_digests.py --root ../other-checkout > old.txt
    diff old.txt new.txt
"""

import argparse
import contextlib
import hashlib
import io
import os
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


def digest(main, case: str, argv: list[str]) -> str:
    d = f"corpus/{case}"
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
        for label, argv in COMMANDS:
            print(f"{case} {label} {digest(cli_main, case, argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
