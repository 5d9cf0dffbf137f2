"""cdckit benchmark: a closed loop of in-process CLI commands.

    python3 perfbench/run.py --workload static_scaled --seed 1 --seconds 30 --trace 0

Run from the root of a cdckit checkout.  One client in this process calls
`cdckit.cli.main([...])` with the next command of the workload's cycle as
soon as the previous one returns; the simulate seed pool inside a command is
the only concurrency.  Every command's exit code and outputs are checked
against labels or generated ground truth (see workloads.py), and its output
bytes must match its first execution.

--trace 0 measures the end-to-end metrics with tracing off, and scales its
times by the host slowdown that a fixed reference task (hostref.py), timed
before each command, shows (see README.md).  --trace 1
alternates untraced and traced passes over the cycle, plus a small probe set
that reaches every layer, and reports per-layer self times and work counts
from the spans (see spans.py).  The last line of standard output is one JSON
object; the lines before it name every metric with its unit.  A record with
counters, digests and machine info goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 6       # before and again after the measured loop
# The host reference (hostref.py) generates one 24-block design with
# gen.py, code of the benchmark's own that no change to cdckit touches.
# REF_S is about its time, as run.py samples it, on a 2-core Intel Xeon host.
REF_BLOCKS = 24
REF_S = 0.007
WARMUP_S = 2.0
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import cdckit.cli as c; "
              "c.make_parser().parse_args(sys.argv[1:]); print('ready', flush=True)")

# per-layer metric -> span names whose self time it sums
LAYER_SELF = {
    "verilog.parse_s": "verilog.parse",
    "elaborate.s": "elaborate",
    "domains.assign_s": "domains.assign",
    "domains.pairs_s": "domains.pairs",
    "syncrec.recognize_s": "syncrec.recognize",
    "syncrec.classify_s": "syncrec.classify",
    "rules.s": "rules",
    "codegen.generate_s": "codegen.generate",
    "codegen.lint_s": "codegen.lint",
    "sim.engine_init_s": "sim.engine_init",
    "sim.plan_tick_s": "sim.plan_tick",
    "sim.commit_tick_s": "sim.commit_tick",
    "sim.run_self_s": "sim.run",
    "checkers.build_s": "checkers.build",
    "checkers.sample_s": "checkers.sample",
    "explore.self_s": "explore",
    "coverage.merge_s": "coverage.merge",
    "vcd.write_s": "vcd.write",
    "cli.self_s": "cli",
}
LAYER_COUNTS = ("verilog.lines", "elaborate.cells", "elaborate.nets",
                "domains.pairs", "syncrec.syncs", "rules.findings",
                "codegen.bytes", "sim.ticks", "sim.opportunities",
                "sim.injections", "checkers.samples", "explore.branches")


class Runner:
    """Runs commands, checks them and keeps the first digest of each."""

    def __init__(self, cli):
        self.cli = cli
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, cmd, tracer=None, cmd_id=0):
        # A fresh cdckit process starts with no garbage and exits without
        # collecting, so leftovers of earlier commands are collected untimed.
        gc.collect()
        buf = io.StringIO()
        rc = None
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(cmd.argv)
                else:
                    with tracer.command(cmd_id):
                        rc = self.cli.main(cmd.argv)
            except SystemExit as e:
                rc = e.code
            except Exception:  # a traceback is a failed command
                buf.write(traceback.format_exc())
            wall = time.perf_counter() - t0
        self.attempted += 1
        text = buf.getvalue()
        ok, why, counts = False, f"exit {rc}: {text.strip()[-200:]}", {}
        if rc is not None:
            try:
                ok, why, counts = cmd.check(rc)
                digest = _digest(cmd, rc, text)
            except (OSError, ValueError, KeyError, TypeError) as e:
                ok, why = False, f"outputs unreadable: {type(e).__name__}: {e}"
            else:
                first = self.digests.setdefault(cmd.label, digest)
                if first != digest:
                    ok, why = False, "output bytes differ from the first run"
        if not ok:
            self.failures.append(f"{cmd.label}: {why}")
        return ok, wall, counts

    def warm_up(self, cmds, seconds=WARMUP_S):
        """Run commands of the cycle until `seconds` pass or the cycle ends,
        so lazy set-up inside the program is done before timing starts."""
        t0 = time.perf_counter()
        for cmd in cmds:
            self.run(cmd)
            if time.perf_counter() - t0 >= seconds:
                break

    def cycle(self, cmds, tracer=None, id_base=0, host=None):
        """One pass over `cmds`; returns (walls, summed counts, work units).
        With `host`, the host reference is timed before each command."""
        walls, counts, work = [], Counter(), 0.0
        for i, cmd in enumerate(cmds):
            if host is not None:
                host.sample()
            ok, wall, c = self.run(cmd, tracer, id_base + i)
            walls.append(wall)
            counts.update(c)
            if ok:
                work += cmd.work(c)
        return walls, counts, work


def _digest(cmd, rc, text) -> str:
    h = hashlib.sha256(f"{rc}\n{text}".encode())
    manifest = cmd.out / "manifest.json"
    names = ["manifest.json", *json.loads(manifest.read_text())["outputs"],
             *cmd.extra_outputs]
    for name in names:
        h.update(name.encode() + b"\0" + (cmd.out / name).read_bytes())
    return h.hexdigest()


def _percentile(values, q: float) -> float:
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples above it."""
    return min(99, int(100 * (1 - 10 / n))) if n > 10 else 0


class HostReference:
    """The hostref.py process; `sample` times its task once, and `times`
    holds every sample."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "hostref.py"), str(REF_BLOCKS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        for _ in range(2):  # imports and first allocations, not timed
            self._ask()

    def _ask(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def sample(self) -> None:
        self.times.append(self._ask())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def measure_setup(argv, host: HostReference) -> list[float]:
    """Fresh interpreter to first command ready, `SETUP_SAMPLES` times,
    each after one sample of the host reference."""
    env = {k: v for k, v in os.environ.items() if k != "CDCKIT_OPTIONS"}
    out = []
    for _ in range(SETUP_SAMPLES):
        host.sample()
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, "-c", SETUP_CODE, *argv], cwd=ROOT,
                             env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        try:
            line = p.stdout.readline().strip()
            dt = time.perf_counter() - t0
        finally:
            p.stdout.close()
            p.wait(timeout=120)
        if line != "ready" or p.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {p.returncode}")
        out.append(dt)
    return out


def build_commands(workload: str, seed: int, root: Path):
    cmds = _commands(workload, seed, root)
    mod, rem = workloads.CYCLE_MOD
    if len(cmds) % mod != rem:
        raise ValueError(f"{workload}: {len(cmds)} commands per cycle, "
                         f"want {rem} modulo {mod}")
    return cmds


def _commands(workload: str, seed: int, root: Path):
    if workload == "static_scaled":
        from cdckit.elaborate import elaborate
        from cdckit.verilog import parse_verilog

        def nets_of(path: Path) -> int:
            mods = parse_verilog((path / "rtl.v").read_text(), "rtl.v")
            return len(elaborate(mods, "top").nets)
        return workloads.static_scaled(seed, root, nets_of)
    if workload == "msi_seeds":
        return workloads.msi_seeds(seed, root)
    return workloads.explore_bounded(seed, root)


def end_to_end(args, runner, cmds) -> tuple[dict, dict, list[str]]:
    ref = HostReference()
    try:
        return _end_to_end(args, runner, cmds, ref)
    finally:
        ref.close()


def _end_to_end(args, runner, cmds, ref) -> tuple[dict, dict, list[str]]:
    setup = measure_setup(cmds[0].argv, ref)
    runner.warm_up(cmds)
    walls, work, cycles, counters = [], 0.0, 0, None
    t0 = time.perf_counter()
    while True:
        w, c, units = runner.cycle(cmds, host=ref)
        walls += w
        work += units
        cycles += 1
        counters = counters or c
        if c != counters:
            runner.failures.append(f"cycle {cycles}: counters {dict(c)} != {dict(counters)}")
        if time.perf_counter() - t0 >= args.seconds:
            break
    setup += measure_setup(cmds[0].argv, ref)
    busy = sum(walls)
    n = len(walls)
    tail = tail_percentile(n)
    unit_name, unit_why = workloads.WORKLOADS[args.workload]
    raw = {
        "setup_s": statistics.median(setup),
        "op_p50_s": _percentile(walls, 0.50),
        "op_p90_s": _percentile(walls, 0.90),
        "ops_per_s": n / busy,
        "work_per_s": work / busy,
    }
    # Times in seconds of a host running the reference in REF_S: the
    # shared host's speed drifts by a third over minutes, and the
    # reference, timed between commands, drifts with it.
    host = statistics.fmean(ref.times) / REF_S
    metrics = {
        "setup_s": (raw["setup_s"] / host, "s"),
        "op_p50_s": (raw["op_p50_s"] / host, "s"),
        "op_p90_s": (raw["op_p90_s"] / host, "s"),
        "ops_per_s": (raw["ops_per_s"] * host, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (raw["work_per_s"] * host, "1/s"),
    }
    info = {
        "commands": n, "cycles": cycles,
        "samples_beyond_p90": sum(1 for w in walls if w > raw["op_p90_s"]),
        "tail_percentile": tail,
        "op_tail_s": _percentile(walls, tail / 100) / host if tail else None,
        "rate": f"{unit_name}_per_s ({unit_why} per second of command time)",
        "host_slowdown": host, "reference_s": ref.times, "raw": raw,
        "setup_samples": setup, "counters_per_cycle": dict(sorted(counters.items())),
        "walls": walls,
    }
    lines = [f"{args.workload} seed {args.seed}: {n} commands in {cycles} cycles "
             f"(closed loop, 1 client), {len(runner.failures)} failed",
             f"  host slowdown {host:.4g} (mean reference time over {REF_S} s); "
             f"times are scaled by it, raw values in brackets"]
    for name, (v, unit) in metrics.items():
        note = f"  [{raw[name]:.6g}]" if name in raw else ""
        if name == "op_p90_s":
            note += f"  ({n} samples, {info['samples_beyond_p90']} beyond)"
        if name == "work_per_s":
            note += f"  (= {unit_name}_per_s)"
        lines.append(f"  {name:24s} {v:.6g} {unit}{note}")
    if tail:
        lines.append(f"  {'op_p' + str(tail) + '_s':24s} {info['op_tail_s']:.6g} s"
                     f"  (highest percentile with 10 samples beyond)")
    lines.append(f"  {unit_name + '_per_s':24s} {metrics['work_per_s'][0]:.6g} 1/s")
    lines.append(f"  {'error_rate':24s} {len(runner.failures) / runner.attempted:.6g} ratio")
    lines.append("  counters per cycle: " + ", ".join(
        f"{k}={v}" for k, v in sorted(counters.items())))
    return metrics, info, lines


def per_layer(args, runner, cmds) -> tuple[dict, dict, list[str]]:
    probes = workloads.probe(Path(cmds[0].out).parent, len(cmds))
    full = cmds + probes
    runner.warm_up(full)
    ratios, passes = [], []
    kept = None
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        # alternate which pass goes first, so drift does not bias the ratio
        if len(passes) % 2:
            plain, _, _ = runner.cycle(full)
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            walls, _, _ = runner.cycle(full, tracer, id_base=1000 * len(passes))
        if not len(passes) % 2:
            plain, _, _ = runner.cycle(full)
        ratios.append(sum(walls) / sum(plain))
        passes.append(_layer_pass(tracer))
        kept = kept or tracer
    overhead = statistics.median(ratios) - 1
    metrics = {}
    for name in LAYER_SELF:
        metrics[name] = (statistics.median(p["self"][name] for p in passes), "s")
    counts = passes[0]["counts"]
    for p in passes[1:]:
        if p["counts"] != counts:
            runner.failures.append(f"traced counters differ: {p['counts']} != {counts}")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    tick_s = sum(metrics[k][0] for k in ("sim.plan_tick_s", "sim.commit_tick_s",
                                         "checkers.sample_s"))
    metrics["sim.us_per_tick"] = (1e6 * tick_s / counts["sim.ticks"], "us")
    explore_s = statistics.median(p["explore_inclusive"] for p in passes)
    metrics["explore.us_per_branch"] = (1e6 * explore_s / counts["explore.branches"], "us")
    metrics["trace_overhead"] = (overhead, "ratio")
    out = Path(cmds[0].out).parent / "spans.tsv"
    kept.write(out)
    lines = [f"{args.workload} seed {args.seed} traced: {len(passes)} traced passes "
             f"of {len(full)} commands ({len(probes)} probes), spans in {out}"]
    for name, (v, unit) in metrics.items():
        lines.append(f"  {name:24s} {v:.6g} {unit}")
    info = {"passes": len(passes), "overhead_ratios": ratios,
            "probe_commands": [c.label for c in probes], "spans_file": str(out)}
    return metrics, info, lines


def _layer_pass(tracer) -> dict:
    # The root "cli" span of a command covers all of it and self times
    # partition a command's root span (see spans.self_times), so a command's
    # self times sum to its traced wall time less the two clock reads
    # around the span; time no layer span covers lands in cli.self_s.
    self_t = spans.self_times(tracer.spans)
    by_name = Counter()
    explore_incl = 0.0
    for s in tracer.spans:
        by_name[s[4]] += self_t[s[0]]
        if s[4] == "explore":
            explore_incl += s[6] - s[5]
    return {"self": {m: by_name.get(n, 0.0) for m, n in LAYER_SELF.items()},
            "counts": tracer.counts(), "explore_inclusive": explore_incl}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("static_scaled", "msi_seeds", "explore_bounded"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src/cdckit/cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: {ROOT} is not a cdckit checkout (src/cdckit and corpus/ "
              f"are missing)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("CDCKIT_OPTIONS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import cdckit
    import cdckit.cli
    if Path(cdckit.__file__).resolve().parent != ROOT / "src" / "cdckit":
        print(f"error: imported cdckit from {cdckit.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    work = Path(os.path.relpath(HERE, ROOT)) / "out" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmds = build_commands(args.workload, args.seed, work)
    runner = Runner(cdckit.cli)
    if args.trace:
        metrics, info, lines = per_layer(args, runner, cmds)
    else:
        metrics, info, lines = end_to_end(args, runner, cmds)
    correct = not runner.failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": runner.attempted,
        "failed": len(runner.failures), "failures": runner.failures[:20],
        "error_rate": len(runner.failures) / runner.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info, "digests": dict(sorted(runner.digests.items())),
        "commands": [c.argv for c in cmds],
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
    }
    rec_path = work.parent / f"record-{args.workload}-s{args.seed}-t{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    for f in runner.failures[:10]:
        print(f"  FAILED {f}")
    print(f"  record: {rec_path}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
