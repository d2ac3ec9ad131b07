"""Run the benchmark over seeds 1-10, twice, and record medians and spreads.

Usage, from the root of a source checkout:

    python3 perfbench/collect.py --out perfbench/baseline.json

It makes two sets of runs, one after the other.  In each set, every
workload of BENCHMARK.json gets one `--trace 0` run per seed, and each
end-to-end metric gets its median, quartiles and spread, the spread being
the distance between the quartiles as a share of the median.  The two sets
agree when, for every workload and metric, the second median is not worse
than the first by more than the metric's bound.  Last, one `--trace 1` run
per workload at seed 11 gives the per-layer figures.  The machine (CPUs,
Python, numpy, scipy, last-level cache) is recorded with the results.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = tuple(range(1, 11))
SETS = 2
TRACE_SEED = 11


def last_level_cache():
    """Size of the highest-level CPU cache as sysfs reports it."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, "unknown")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def machine():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "last_level_cache": last_level_cache(),
            "platform": platform.platform()}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run_set(bench):
    """One set: a `--trace 0` run per workload and seed; returns
    {workload: {attempted, failed, end_to_end}}."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}"
                for k, v in runs[-1]["metrics"].items())
                + f" ({runs[-1]['attempted']} commands, "
                  f"{runs[-1]['failed']} failed, {runs[-1]['run_s']:.0f} s)",
                flush=True)
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 \
                else "  <-- spread above a third of the bound"
            print(f"  {name:12s} median {s['median']:.5g}  spread "
                  f"{s['spread']:.4f} (bound {bound}){flag}", flush=True)
        out[workload] = entry
    return out


def agreement(bench, first, second):
    """Relative change of each median from the first set to the second,
    signed so that positive is worse."""
    out = {}
    for workload in first:
        out[workload] = {}
        for m in bench["end_to_end"]:
            a = first[workload]["end_to_end"][m["name"]]["median"]
            b = second[workload]["end_to_end"][m["name"]]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            out[workload][m["name"]] = {"worse_by": worse,
                                        "bound": m["bound"],
                                        "ok": worse <= m["bound"]}
            print(f"{workload} {m['name']}: second set worse by "
                  f"{worse:+.4f} (bound {m['bound']})", flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    sets = [run_set(bench) for _ in range(SETS)]
    report = {"machine": machine(), "seeds": list(SEEDS),
              "run_seconds": bench["run_seconds"], "sets": sets,
              "agreement": agreement(bench, sets[0], sets[1]),
              "per_layer_seed": TRACE_SEED, "per_layer": {}}
    for workload in sets[0]:
        traced = run_once(workload, TRACE_SEED, bench["run_seconds"], 1)
        report["per_layer"][workload] = {
            k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
