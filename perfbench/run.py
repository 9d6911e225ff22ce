"""sirmc benchmark: entry point.

    python3 perfbench/run.py --workload {protocol,high-rank,sweep,files} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; sirmc is imported from ./src. Each
workload runs in fresh processes (perfbench/workload.py) started with the
BLAS thread variables unset. With --trace 0 the set-up is made SETUPS
times, each in its own process, and its median is reported; the last of
those processes then measures the workload for S seconds. With --trace 1 a
single process reports the per-layer metrics of a traced round.

Standard output carries one report line (execution conditions, rounds,
failures and their causes) and, last, the JSON result line. Standard error
repeats the metrics as a table. `--workload all` runs the four workloads
in turn and prints both lines for each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from conditions import BLAS_THREAD_VARS  # perfbench/ is sys.path[0] when run as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("protocol", "high-rank", "sweep", "files")
SETUPS = 5
BUDGET_S = 170.0  # every run ends within 180 s


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_THREAD_VARS and k not in ("SIRMC_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd, env, deadline):
    """Run one workload process in its own session; on timeout kill the
    whole session (the process and any CLI it started) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: workload process exceeded the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise SystemExit(f"error: workload process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("error: workload process printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (report, result) or raises SystemExit."""
    deadline = time.monotonic() + BUDGET_S
    env = child_env()
    workdir = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    setups = 1 if trace else SETUPS
    results = []
    try:
        for k in range(setups):
            cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
                   "--workdir", str(workdir)]
            if k < setups - 1:
                cmd.append("--setup-only")
            cmd += ["--launched-at", repr(time.monotonic())]
            results.append(run_child(cmd, env, deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    last = results[-1]
    metrics = last["metrics"]
    setup_samples = [r["setup_s"] for r in results]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(m["name"] for m in declared):
        raise SystemExit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json")
    report = {"workload": workload, "seed": seed, "trace": trace,
              "conditions": last["conditions"], "rounds": last["rounds"],
              "setup_s_samples": setup_samples, "failures": last["failures"],
              "faults": last["faults"]}
    if "spans_file" in last:
        report["spans_file"] = last["spans_file"]
    result = {"correct": last["correct"], "attempted": last["attempted"],
              "failed": last["failed"],
              "metrics": {m["name"]: metrics[m["name"]] for m in declared}}
    return report, result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                   help="one workload, or all four in turn (one result line each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "sirmc" / "__init__.py").is_file():
        print(f"error: no sirmc sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        report, result = run_workload(workload, args.seed, args.seconds, args.trace)
        for name, metric in result["metrics"].items():
            print(f"{workload:9s} {name:26s} {metric['value']:12.6g} {metric['unit']}",
                  file=sys.stderr)
        print(f"{workload:9s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        print(json.dumps(report))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
