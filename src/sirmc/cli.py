"""Command-line interface.

Subcommands: complete (fill a matrix from files), sweep (phase-transition
grid), bench (runtime versus rank, a sweep over rank / n), prox-curve
(tabulate loss/prox/regularizer curves), selftest (oracle and invariant
suites).

Exit codes: 0 success/converged, 1 error (including usage), 2 iteration cap
hit, 3 selftest failure. Human-readable output goes to stderr; data goes to
files (or stdout for selftest --json).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import bench, blas, matio, penalties
from .completion import SolverConfig, convergence_diagnostics, solve
from .errors import DomainError, SirmcError, UsageError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITERS = 2
EXIT_SELFTEST = 3
MAX_CURVE_ROWS = 1e7  # prox-curve rows (1e7 write about 1 GB), and oracle grid points
MAX_CURVE_WORK = 1e10  # prox-curve rows x oracle grid points; about 8 ns each

PRESETS = {
    "paper-grid": (bench.PAPER_GRID, bench.PAPER_GRID),
    "broad-grid": (bench.BROAD_GRID, bench.BROAD_GRID),
    "transition-grid": (bench.TRANSITION_FR, bench.TRANSITION_FM),
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=penalties.METHODS, default="how",
                   help="penalty / solver variant (default: how)")
    p.add_argument("--shape-ratio", type=float, default=None,
                   help="shape of the unit penalty (lam = 1), shrunk at lam_k as lam_k * "
                        "prox_1(sigma / lam_k); default is the kind's strict bound")
    p.add_argument("--rho0", type=float, default=SolverConfig.rho0,
                   help="initial penalty parameter (default: 1 / the observed data's "
                        "spectral norm)")
    p.add_argument("--mu", type=float, default=SolverConfig.mu,
                   help="penalty growth factor (default: %(default)s)")
    p.add_argument("--xi", type=float, default=SolverConfig.xi,
                   help="relative-error stopping tolerance (default: %(default)s)")
    p.add_argument("--max-iters", type=int, default=SolverConfig.max_iters,
                   help="iteration cap (default: %(default)s)")


def _add_grid_flags(p: argparse.ArgumentParser, trials: int) -> None:
    p.add_argument("--methods", default=",".join(penalties.METHODS))
    p.add_argument("--trials", type=int, default=trials)
    p.add_argument("--m", type=int, default=300)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--threads", type=int, default=1,
                   help="trial-level parallelism (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--deterministic", action="store_true",
                   help="sequential trials and single-threaded numerics")
    p.add_argument("--out", required=True, help="output file path")


def _trial_threads(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    return 1 if args.deterministic else args.threads


def _log_threads(args, grid: bench.SweepGrid) -> None:
    """Log the pool workers a grid ran on and each solve's BLAS threads."""
    workers, count = bench.pool_workers(_trial_threads(args), len(grid.reports)), blas.threads()
    per_solve = "unknown" if count is None else min(count, blas.per_solve(args.m * args.n, workers))
    total = "unknown" if count is None else workers * per_solve
    _log(f"threads: {workers} trial x {per_solve} BLAS = {total} on {blas.cpus()} CPUs")


def _solver_config(args, method: str) -> SolverConfig:
    return bench.config_for_method(method, shape_ratio=args.shape_ratio, rho0=args.rho0,
                                   mu=args.mu, xi=args.xi, max_iters=args.max_iters)


def _parse_fractions(text: str, flag: str):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}") from None
    return vals


def _method_configs(args) -> dict:
    """{method: solver config} for the comma-separated --methods list."""
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        raise UsageError(f"--methods: no method named in {args.methods!r}")
    return {m: _solver_config(args, m) for m in methods}


def _log_failed_solves(grid: bench.SweepGrid) -> None:
    """One line per method with solves that raised, counted by TrialReport.failure."""
    for k, method in enumerate(grid.methods):
        count = sum(reports[k].failure is not None for reports in grid.reports.values())
        if count:
            _log(f"{method}: {count} solves failed")


def cmd_complete(args) -> int:
    X = matio.load_observed(args.matrix, args.mask)
    config = _solver_config(args, args.method)
    t0 = time.perf_counter()
    M, trace = solve(X, config)
    elapsed = time.perf_counter() - t0
    matio.save_matrix(M, args.out)
    trace.to_csv(args.out + ".trace.csv")
    _log(f"rel_E = {trace.rel_e[-1]:.3e} after {trace.iters} iterations "
         f"({elapsed:.2f}s); wrote {args.out}")
    _log(f"threads: {trace.blas_threads} BLAS on {blas.cpus()} CPUs" if trace.blas_threads
         else "threads: BLAS count not read (no OpenBLAS found)")
    flags = convergence_diagnostics(trace)
    if flags:
        _log(f"warning: convergence diagnostics: {', '.join(flags)}")
    if trace.max_iters_reached:
        _log("iteration cap reached before the tolerance")
        return EXIT_MAX_ITERS
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.preset is not None:
        fr_values, fm_values = PRESETS[args.preset]
    else:
        if args.fr_values is None or args.fm_values is None:
            raise UsageError("give --preset or both --fr-values and --fm-values")
        fr_values = _parse_fractions(args.fr_values, "--fr-values")
        fm_values = _parse_fractions(args.fm_values, "--fm-values")
    configs = _method_configs(args)
    grid = bench.phase_sweep(fr_values, fm_values, tuple(configs), args.trials,
                             m=args.m, n=args.n, seed=args.seed,
                             configs=configs, threads=_trial_threads(args))
    _log_threads(args, grid)
    grid.to_csv(args.out)
    _log(f"swept {len(fr_values)}x{len(fm_values)} cells x {len(configs)} methods "
         f"x {args.trials} trials; wrote {args.out}")
    for method in grid.methods:
        _log(f"{method}: {grid.success_cells(method)} cells with success rate "
             f">= {bench.SUCCESS_CELL_RATE}")
    _log_failed_solves(grid)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        ranks = tuple(int(r) for r in args.ranks.split(",")) if args.ranks else ()
    except ValueError:
        raise UsageError(f"--ranks: expected comma-separated integers, got {args.ranks!r}") from None
    configs = _method_configs(args)
    grid = bench.runtime_bench(ranks, tuple(configs), args.trials, f_m=args.fm,
                               m=args.m, n=args.n, seed=args.seed,
                               configs=configs, threads=_trial_threads(args))
    _log_threads(args, grid)
    mean_seconds = grid.cell_mean(lambda r: r.wall_time)[:, 0, :]
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("rank,method,mean_seconds,trials\n")
        for i, rank in enumerate(ranks):
            for k, method in enumerate(grid.methods):
                f.write(f"{rank},{method},{float(mean_seconds[i, k])!r},{grid.trials}\n")
    _log(f"benchmarked ranks {list(ranks)}; wrote {args.out}")
    _log_failed_solves(grid)
    return EXIT_OK


def cmd_prox_curve(args) -> int:
    if not np.isfinite([args.xmin, args.xmax, args.step]).all():
        raise DomainError("--xmin, --xmax and --step must be finite")
    if args.step <= 0:
        raise UsageError("--step must be positive")
    if args.xmax <= args.xmin:
        raise UsageError("--xmax must exceed --xmin")
    penalty = penalties.make_penalty(penalties.METHODS[args.method], args.lam, shape=args.shape)
    rows = (args.xmax - args.xmin) / args.step
    if not rows < MAX_CURVE_ROWS:
        raise DomainError(f"--step {args.step!r} gives {rows:.3g} rows, over {MAX_CURVE_ROWS:g}")
    count = int(round(rows)) + 1
    # The regularizer column scans the grid oracle's whole grid once per row.
    half = max(abs(args.xmin), abs(args.xmax)) + penalties.ORACLE_RANGE_MARGIN * args.lam
    grid = 2.0 * half / (args.lam / penalties.ORACLE_STEP_DIV)
    if not (grid < MAX_CURVE_ROWS and count * grid < MAX_CURVE_WORK):
        raise DomainError(f"--lam {args.lam!r} gives {count} rows x {grid:.3g} oracle grid "
                          f"points, over {MAX_CURVE_ROWS:g} points or {MAX_CURVE_WORK:g} in all")
    xs = args.xmin + args.step * np.arange(count)
    loss = np.asarray(penalties.loss_eval(penalty, xs))
    prox = np.asarray(penalties.prox_eval(penalty, xs))
    reg = np.asarray(penalties.implicit_regularizer(penalty, xs))
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("x,loss,prox,implicit_regularizer\n")
        for i in range(count):
            f.write(f"{float(xs[i])!r},{float(loss[i])!r},{float(prox[i])!r},"
                    f"{float(reg[i])!r}\n")
    _log(f"wrote {count} rows to {args.out}")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest  # imported here, so other commands skip its load
    results = selftest.run_selftest()
    all_passed = all(r.passed for r in results)
    if args.json:
        report = {
            "suites": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
            "all_passed": all_passed,
        }
        print(json.dumps(report, indent=2))
    for r in results:
        _log(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    _log("selftest " + ("passed" if all_passed else "FAILED"))
    return EXIT_OK if all_passed else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sirmc",
                     description="Low-rank matrix completion with sparsity-inducing "
                                 "regularizers generated from robust losses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a matrix from CSV files")
    p.add_argument("matrix", help="dense CSV; `nan` marks missing unless --mask is given")
    p.add_argument("--mask", default=None, help="observed-coordinate file (0-based i,j lines)")
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("sweep", help="phase-transition sweep over (f_r, f_m)")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p.add_argument("--fr-values", default=None, help="comma-separated rank fractions")
    p.add_argument("--fm-values", default=None, help="comma-separated missing fractions")
    _add_grid_flags(p, trials=10)
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="runtime versus matrix rank")
    p.add_argument("--ranks", default="", help="comma-separated ranks")
    p.add_argument("--fm", type=float, default=0.1, help="missing fraction")
    _add_grid_flags(p, trials=3)
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("prox-curve", help="tabulate loss, prox and regularizer curves")
    p.add_argument("--method", choices=penalties.METHODS, default="how")
    p.add_argument("--lam", type=float, default=1.0, help="threshold")
    p.add_argument("--shape", type=float, default=None,
                   help="shape parameter value; default is the strict bound times lam")
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prox_curve)

    p = sub.add_parser("selftest", help="run the oracle/invariant suites")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        deterministic = getattr(args, "deterministic", False)
        if deterministic and blas.threads() is None:
            _log("warning: --deterministic: BLAS thread count unknown (no OpenBLAS found), "
                 "so BLAS threads were not limited")
        with blas.limit(1) if deterministic else nullcontext():
            return args.func(args)
    except UsageError as exc:
        _log(f"usage error: {exc}")
        return EXIT_ERROR
    except SirmcError as exc:
        _log(f"error: {exc}")
        return EXIT_ERROR
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
