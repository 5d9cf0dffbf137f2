"""Steadiness check for the benchmark.

    python3 perfbench/steady.py --runs 10

Runs `run.py --trace 0` `--runs` times per workload, each time with another
seed, in two sets, with the run length and workloads of BENCHMARK.json.
Runs are interleaved: for each seed, set 1 and set 2 of every workload run
back to back, in an order that alternates from seed to seed, so a slow
period of the host falls on all sets and workloads alike rather than on one
block of runs.

For every end-to-end metric it reports each set's median and spread (the
interquartile distance over the median, quartiles as
`statistics.quantiles(values, n=4)` gives them) and how far the two medians
differ.  It fails when a spread or the difference exceeds the metric's
bound, when a run is not correct, or when a seed's deterministic counters or
output digests differ between the sets.  setup_s is held to its bound on the
difference of medians only: each sample is one interpreter start, and its
spread across runs follows the host's process-start and file-cache noise,
not cdckit.  It also reports, per counter, how much the counters vary from
seed to seed, since the seed changes the inputs.  The record, with CPU
model, core count and Python version, goes to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2


def spread(values) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"record-{workload}-s{seed}-t0.json").read_text())
    return {"result": result, "wall": wall, "raw": record["info"]["raw"],
            "counters": record["info"]["counters_per_cycle"],
            "digests": record["digests"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = {n: [[] for _ in range(SETS)] for n in names}
    ok = True
    for seed in range(1, args.runs + 1):
        order = [(n, s) for n in names for s in range(SETS)]
        for name, s in (order if seed % 2 else order[::-1]):
            r = run_once(name, seed, seconds)
            runs[name][s].append(r)
            print(f"seed {seed} {name} set {s + 1}: {r['wall']:.1f} s, "
                  f"correct={r['result']['correct']}", flush=True)
            ok &= r["result"]["correct"]

    report = {"machine": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                          "python": platform.python_version()},
              "runs": args.runs, "seconds": seconds, "workloads": {}}
    for name in names:
        sets = runs[name]
        wrep = {"walls": [[r["wall"] for r in rs] for rs in sets], "metrics": {}}
        for m in metrics:
            metric, bound = m["name"], m["bound"]
            per_set = [[r["result"]["metrics"][metric]["value"] for r in rs]
                       for rs in sets]
            a, b = (statistics.median(v) for v in per_set)
            rep = {"bound": bound, "values": per_set, "medians": [a, b],
                   "spreads": [spread(v) for v in per_set],
                   "difference": (b - a) / a}
            if metric in sets[0][0]["raw"]:
                rep["raw_spreads"] = [spread([r["raw"][metric] for r in rs])
                                      for rs in sets]
            if metric != "setup_s":
                ok &= all(sp <= bound for sp in rep["spreads"])
            ok &= abs(rep["difference"]) <= bound
            wrep["metrics"][metric] = rep
            print(f"  {name:16s} {metric:12s} medians "
                  f"{' '.join('%.6g' % x for x in rep['medians'])}  spreads "
                  f"{' '.join('%.4f' % x for x in rep['spreads'])}  difference "
                  f"{rep['difference']:+.4f}  bound {bound}"
                  + (f"  (unscaled spreads {' '.join('%.4f' % x for x in rep['raw_spreads'])})"
                     if "raw_spreads" in rep else ""))
        same = all(x["counters"] == y["counters"] and x["digests"] == y["digests"]
                   for x, y in zip(*sets))
        wrep["counters_and_digests_identical"] = same
        ok &= same
        counters = [r["counters"] for r in sets[0]]
        wrep["counter_seed_range"] = {
            k: (max(c[k] for c in counters) - min(c[k] for c in counters))
            / (max(c[k] for c in counters) or 1) for k in counters[0]}
        print(f"  {name}: counters and digests identical across sets: {same}; "
              f"counter range across seeds: "
              + ", ".join(f"{k} {v:.2%}" for k, v in wrep["counter_seed_range"].items()))
        report["workloads"][name] = wrep
    report["ok"] = bool(ok)
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"steady: {'ok' if ok else 'NOT OK'}; record in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
