"""One benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 \
        --launched-at T --workdir DIR [--setup-only]

run.py starts it in a session of its own and kills that session, CLI
processes included, when the run overruns its time budget.

The process makes the workload's inputs from the seed, runs one warm-up
solve, and reports as set-up time the interval from T (the launcher's
time.monotonic() just before it started this process) to that point. It
then runs whole rounds of the workload's operations for about S seconds,
checks every output with checks.py, and prints one JSON line.

With --trace 1 it instead runs one untraced round and one traced round and
reports the per-layer metrics of the traced round (input generation
included) and the difference of the two rounds' wall times.

sirmc is used only through its public API (`sirmc.solve`, `sirmc.bench`)
and, for `files`, through its command line.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_t0 = time.perf_counter()
import numpy as np  # noqa: E402

import sirmc  # noqa: E402
from sirmc import bench  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import checks  # noqa: E402
from conditions import conditions, nproc  # noqa: E402
from tracing import Tracer, layer_metrics, solve_parts_fault  # noqa: E402

HERE = Path(__file__).resolve().parent
XI = 1e-7
WARMUP_ITERS = 5

# The x1e2 protocol solves stop early and "converge" to a wrong answer: the
# solver's default rho0 = 1e-2 is absolute, so its first threshold 1/rho0 is
# 100 whatever the data scale. They are counted as failed operations.
SCALE_FAULT = ("scale-equivariance fault: SolverConfig's absolute default rho0 = 1e-2 "
               "sets the first threshold to 100 whatever the data scale")


class Round:
    """Outcome of one round: the operations and their failures."""

    def __init__(self):
        self.ops = []        # (label, cause or None, known fault or None)
        self.solve_s = 0.0   # summed wall time of the round's solves
        self.wall_s = 0.0    # wall time of the whole round
        self.solves = 0
        self.faults = []     # whole-round check failures
        self.spans = []      # spans recorded outside this process
        self.pool_wall = None
        self.load_bytes = self.save_bytes = 0
        self.import_s = IMPORT_S

    def op(self, label, cause=None, known=None):
        self.ops.append((label, cause, known))


def _cause(kind_detail):
    return None if kind_detail is None else f"check {kind_detail[0]}: {kind_detail[1]}"


class SolveSet:
    """Solves of seeded (and fixed) synthetic instances through sirmc.solve.

    `scales` apply to the instance drawn from the seed. `fault_scales` apply
    to one instance drawn from FIXED_SEED: the operations there fail on
    every seed because of SCALE_FAULT, so their inputs must not depend on
    the seed for the failed share to be the same in every run.
    """

    FIXED_SEED = 20240501

    def __init__(self, seed, cell, methods, scales, fault_scales=()):
        self.seed, self.cell, self.methods = seed, cell, methods
        self.scales, self.fault_scales = scales, fault_scales
        self.trial_threads = 1

    def make_inputs(self):
        self.cases = []
        draws = [(self.seed, self.scales, None), (self.FIXED_SEED, self.fault_scales, SCALE_FAULT)]
        for seed, scales, known in draws:
            if not scales:
                continue
            truth, obs = bench.gen_synthetic(bench.SyntheticSpec(*self.cell, seed=seed))
            for scale in scales:
                X = sirmc.ObservedMatrix(obs.values * scale, obs.mask)
                for method in self.methods:
                    self.cases.append((f"{method} x{scale:g}", truth, X, scale, method, known))

    def warm_up(self):
        _, _, X, _, method, _ = self.cases[0]
        sirmc.solve(X, bench.config_for_method(method, max_iters=WARMUP_ITERS))

    def run_round(self, traced):
        rnd = Round()
        start = time.perf_counter()
        for label, truth, X, scale, method, known in self.cases:
            config = bench.config_for_method(method, xi=XI)
            t0 = time.perf_counter()
            try:
                M, trace = sirmc.solve(X, config)
            except Exception as exc:  # a failed operation, recorded by type
                rnd.solve_s += time.perf_counter() - t0
                rnd.op(label, f"raised {type(exc).__name__}: {exc}", known)
                continue
            rnd.solve_s += time.perf_counter() - t0
            rnd.solves += 1
            fault = checks.solution_fault(truth, X.values, X.mask, M, scale=scale, xi=XI,
                                          capped=trace.max_iters_reached)
            rnd.op(label, _cause(fault), known)
        rnd.wall_s = time.perf_counter() - start
        return rnd


class Sweep:
    """bench.phase_sweep over the 4x4 transition preset at 150x100, one
    trial per cell, with trial threads = nproc and BLAS at its default."""

    METHODS = ("how", "nnm")
    M, N = 150, 100

    def __init__(self, seed):
        self.seed = seed
        self.trial_threads = nproc()
        self.configs = {m: bench.config_for_method(m, mu=1.10, max_iters=250)
                        for m in self.METHODS}

    def make_inputs(self):
        pass  # phase_sweep draws every trial's instance from the seed

    def warm_up(self):
        _, X = bench.gen_synthetic(bench.SyntheticSpec(self.M, self.N, 0.05, 0.2, self.seed))
        sirmc.solve(X, bench.config_for_method("how", max_iters=WARMUP_ITERS))

    def run_round(self, traced):
        rnd = Round()
        t0 = time.perf_counter()
        grid = bench.phase_sweep(bench.TRANSITION_FR, bench.TRANSITION_FM, self.METHODS, 1,
                                 m=self.M, n=self.N, seed=self.seed, configs=self.configs,
                                 threads=self.trial_threads)
        rnd.wall_s = rnd.pool_wall = time.perf_counter() - t0
        for (i, j, t), reports in sorted(grid.reports.items()):
            for r in reports:
                label = f"{r.method} f_r={grid.f_r_values[i]} f_m={grid.f_m_values[j]}"
                rnd.solve_s += r.wall_time
                # phase_sweep records a solve that raised as rmse=inf, iters=0
                # and keeps neither the exception type nor its message.
                raised = r.iters == 0 and r.rmse == float("inf")
                rnd.solves += not raised
                rnd.op(label, "raised (type not recorded by phase_sweep)" if raised else None)
        fault = checks.sweep_fault(grid.f_r_values, grid.f_m_values, grid.methods,
                                   grid.success_rate, self.M, self.N)
        if fault is not None:
            rnd.faults.append(_cause(fault))
        return rnd


class Files:
    """`sirmc complete matrix.csv --mask observed.csv` as a subprocess, once
    per instance, on INSTANCES tall 1000x80 rank-2 matrices with 30% of
    their entries missing.

    The iterations `how` needs vary between instances, and that variation
    sets most of the spread between seeds, so a round solves several and
    the shape is the one that varies least of those tried: 1000x80 (6.6-
    7.6% coefficient of variation) against 2000x40 or 20000x40 (11-16%).
    The instances are short enough for a run to hold three or four rounds,
    whose median damps the shared machine's bursts.

    A taller shape would also meet SCALE_FAULT on some seeds: at 20000x40
    the zero-filled matrix's third singular value (the mask's noise) is
    125-245, above the first threshold 1/rho0 = 100, and `how` can lock in
    a spurious third component (seed 6215951350: relative RMSE 0.24). Here
    it is 34-63 (400 seeds), like the protocol cell's eleventh at scale 1
    (47-56), which stays below the threshold too."""

    SPEC = (1000, 80, 0.025, 0.3)  # rank round(0.025 * 80) = 2
    INSTANCES = 4

    def __init__(self, seed, workdir):
        self.seed, self.dir = seed, Path(workdir)
        self.trial_threads = 1

    def make_inputs(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for k in range(self.INSTANCES):
            truth, obs = bench.gen_synthetic(
                bench.SyntheticSpec(*self.SPEC, seed=self.seed * self.INSTANCES + k))
            paths = {name: self.dir / f"{name}-{k}.{ext}" for name, ext in
                     (("matrix", "csv"), ("observed", "csv"), ("truth", "npy"))}
            np.savetxt(paths["matrix"], np.where(obs.mask, obs.values, np.nan), fmt="%.17g",
                       delimiter=",")
            coords = np.argwhere(obs.mask)  # 0-based `i,j` lines, row-major
            paths["observed"].write_text(("%d,%d\n" * len(coords)) % tuple(coords.ravel().tolist()),
                                         encoding="utf-8")
            np.save(paths["truth"], truth)
            self.cases.append((paths, obs))

    def warm_up(self):
        # The timed operations are fresh processes, which no in-process
        # warm-up reaches; this solve keeps set-up alike across workloads.
        # The inputs are in the page cache since they were just written.
        sirmc.solve(self.cases[0][1], bench.config_for_method("how", max_iters=WARMUP_ITERS))

    def run_round(self, traced):
        rnd = Round()
        imports = [self._complete(rnd, k, paths, obs, traced)
                   for k, (paths, obs) in enumerate(self.cases)]
        if traced:
            rnd.import_s = statistics.mean(imports)
        return rnd

    def _complete(self, rnd, k, paths, obs, traced):
        out = self.dir / f"completed-{k}.csv"
        trace_file = Path(f"{out}.trace.csv")
        spans_file = self.dir / f"cli-spans-{k}.json"
        for path in (out, trace_file, spans_file):
            path.unlink(missing_ok=True)
        head = ([sys.executable, str(HERE / "tracing.py"), str(spans_file)] if traced
                else [sys.executable, "-m", "sirmc"])
        cmd = head + ["complete", str(paths["matrix"]), "--mask", str(paths["observed"]),
                      "--method", "how", "--xi", repr(XI), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        rnd.wall_s += time.perf_counter() - t0
        label = f"sirmc complete instance {k}"
        found = re.search(r"after (\d+) iterations", proc.stderr)
        if proc.returncode != 0 or found is None:
            rnd.op(label, f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return 0.0
        fault = checks.completed_file_fault(out, trace_file, np.load(paths["truth"]),
                                            obs.values, obs.mask, xi=XI,
                                            iters=int(found.group(1)))
        rnd.op(label, _cause(fault))
        if fault is None:
            rnd.solves += 1
            rnd.solve_s += float(np.loadtxt(trace_file, delimiter=",", skiprows=1, usecols=5,
                                            ndmin=1).sum())
        rnd.load_bytes += paths["matrix"].stat().st_size + paths["observed"].stat().st_size
        rnd.save_bytes += out.stat().st_size
        if traced:
            cli_run = json.loads(spans_file.read_text(encoding="utf-8"))
            rnd.spans = _merge(rnd.spans, cli_run["spans"])
            return cli_run["import_s"]
        return 0.0


WORKLOADS = {
    "protocol": lambda seed, workdir: SolveSet(
        seed, (300, 200, 0.05, 0.3), ("nnm", "how", "hoc", "hog"),
        scales=(1e-2, 1.0), fault_scales=(1e2,)),
    # nnm does not recover at this cell (relative RMSE ~0.4), a property of
    # the method rather than a fault, so it is not run here.
    "high-rank": lambda seed, workdir: SolveSet(
        seed, (300, 200, 0.2, 0.5), ("how", "hoc", "hog"), scales=(1.0,)),
    "sweep": lambda seed, workdir: Sweep(seed),
    "files": Files,
}


def _merge(spans, extra):
    """Append spans recorded in another process, renumbering their ids."""
    base = max((s[0] for s in spans), default=0)
    return spans + [(sid + base, parent + base if parent else 0, name, t0, t1, note)
                    for sid, parent, name, t0, t1, note in extra]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def summarize(rounds):
    """(correct, attempted, failed, failures, faults) over all rounds.

    A failed operation keeps the run correct only when it is one of the
    declared known-fault operations; a whole-round check failure never does.
    """
    ops = [op for rnd in rounds for op in rnd.ops]
    causes = {}
    for label, cause, known in ops:
        if cause is not None:
            causes[(label, cause, known)] = causes.get((label, cause, known), 0) + 1
    failures = [{"op": label, "cause": cause, "known_fault": known, "count": count}
                for (label, cause, known), count in causes.items()]
    faults = [f for rnd in rounds for f in rnd.faults]
    correct = not faults and all(f["known_fault"] for f in failures)
    return correct, len(ops), sum(causes.values()), failures, faults


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload.make_inputs()
    if tracer:
        tracer.uninstall()
    workload.warm_up()
    setup_s = time.monotonic() - args.launched_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if tracer:
        untraced = workload.run_round(traced=False)
        tracer.install()
        try:
            traced = workload.run_round(traced=True)
        finally:
            tracer.uninstall()
        rounds = [untraced, traced]
        spans = _merge(tracer.spans, traced.spans)
        metrics = layer_metrics(spans, pool_wall=traced.pool_wall,
                                pool_threads=workload.trial_threads,
                                load_bytes=traced.load_bytes, save_bytes=traced.save_bytes,
                                import_s=traced.import_s)
        metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
        parts_fault = solve_parts_fault(spans)
        if parts_fault is not None:
            traced.faults.append(f"trace parts: {parts_fault}")
        spans_path = Path(args.workdir).parent / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(spans), encoding="utf-8")
        result["spans_file"] = str(spans_path)
    else:
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(workload.run_round(traced=False))
            elapsed = time.perf_counter() - start
            # Stop where the run ends nearest to S seconds, after whole rounds.
            if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
                break
        metrics = {
            "solve_s": (statistics.median(r.solve_s for r in rounds), "s"),
            "solves_per_s": (statistics.median(r.solves / r.wall_s for r in rounds), "1/s"),
            "complete_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    correct, attempted, failed, failures, faults = summarize(rounds)
    result.update(correct=correct, attempted=attempted, failed=failed, failures=failures,
                  faults=faults, rounds=len(rounds),
                  conditions=conditions(workload.trial_threads),
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
