"""Reference figures: every workload on several seeds, summarised.

    python3 perfbench/reference.py --seeds 1-10 --seconds 20

Runs run.py once per (workload, seed) without tracing, then once per
workload with tracing on the first seed, and prints one table row per
workload and metric: the median over the seeds, the quartiles, and the
spread (the distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them), next to the metric's bound
from BENCHMARK.json. It also prints each run's failed and attempted
operations and the wall time of the runs. The run takes about 21 minutes
on a 2-core machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("protocol", "high-rank", "sweep", "files")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return report, result, wall


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        values, shares, walls = {}, set(), []
        for seed in args.seeds:
            _, result, wall = run(workload, seed, args.seconds, 0)
            walls.append(wall)
            shares.add((result["failed"], result["attempted"], result["correct"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        for name, (unit, vals) in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {workload} | {name} | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds[name]} |")
        print(f"| {workload} | (failed, attempted, correct) | | {sorted(shares)} | | | | |")
        q1, _, q3 = statistics.quantiles(walls, n=4)
        print(f"| {workload} | (run wall time) | s | {statistics.median(walls):.4g} | {q1:.4g} | "
              f"{q3:.4g} | | |", flush=True)
    for workload in WORKLOADS:
        report, result, wall = run(workload, args.seeds[0], args.seconds, 1)
        layer = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"\n{workload} traced (seed {args.seeds[0]}, {wall:.1f} s): {layer}")
        print(f"{workload} conditions: {json.dumps(report['conditions'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
