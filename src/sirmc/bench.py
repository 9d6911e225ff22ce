"""Synthetic benchmark harness: data generation, RMSE scoring, phase-transition
sweeps over (rank fraction, missing fraction), and runtime-versus-rank tables,
which are sweeps over rank / n at one missing fraction. Both give a SweepGrid.

Every number produced here is a pure function of (spec, config, seed).
Randomness comes from Philox streams split with SeedSequence spawn keys
(cell row, cell column, trial), so results do not depend on execution order
and the same (ground truth, mask) pair is shared by all methods within a
trial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import blas, matio
from .completion import ObservedMatrix, SolverConfig, solve
from .errors import DomainError, InvalidSpec, ShapeMismatch, SirmcError
from .penalties import METHODS, make_penalty

SUCCESS_RMSE = 1e-3
# A grid cell counts toward a method's success region at this success rate.
SUCCESS_CELL_RATE = 0.5

# Text protocol grid: fractions 0.01 to 0.05, step 0.02.
PAPER_GRID = (0.01, 0.03, 0.05)
# Broader grid for a meaningful phase diagram.
BROAD_GRID = tuple(round(0.05 * i, 2) for i in range(1, 11))
# Compact 4x4 preset spanning the easy region through the transition.
TRANSITION_FR = (0.05, 0.10, 0.20, 0.30)
TRANSITION_FM = (0.20, 0.35, 0.50, 0.65)


def config_for_method(method: str, shape_ratio: float | None = None,
                      **overrides) -> SolverConfig:
    """Solver config for a method name in METHODS: its kind's unit penalty, with
    shape shape_ratio, or the kind's strict bound when shape_ratio is None."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {tuple(METHODS)}")
    return SolverConfig(penalty=make_penalty(METHODS[method], 1.0, shape=shape_ratio),
                        **overrides)


@dataclass(frozen=True)
class SyntheticSpec:
    """Low-rank test instance: rank round(f_r * n), round(f_m * m * n)
    entries removed uniformly without replacement."""

    m: int
    n: int
    f_r: float
    f_m: float
    seed: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise InvalidSpec(f"need positive dimensions, got {self.m}x{self.n}")
        if not 0.0 < self.f_r <= 1.0:
            raise InvalidSpec(f"f_r must be in (0, 1], got {self.f_r}")
        if not 0.0 <= self.f_m < 1.0:
            raise InvalidSpec(f"f_m must be in [0, 1), got {self.f_m}")
        if self.n_observed < 1:
            raise InvalidSpec("no observed entries left")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")

    @property
    def rank(self) -> int:
        return max(1, int(round(self.f_r * self.n)))

    @property
    def n_missing(self) -> int:
        return int(round(self.f_m * self.m * self.n))

    @property
    def n_observed(self) -> int:
        return self.m * self.n - self.n_missing


def _rng(seed) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def gen_synthetic(spec: SyntheticSpec):
    """Sample (X_full, X_obs): X_full = U @ V with standard normal factors.

    Deterministic for a fixed seed (bitwise).
    """
    rng = _rng(spec.seed)
    U = rng.standard_normal((spec.m, spec.rank))
    V = rng.standard_normal((spec.rank, spec.n))
    X_full = U @ V
    mask = np.ones(spec.m * spec.n, dtype=bool)
    if spec.n_missing > 0:
        removed = rng.choice(spec.m * spec.n, size=spec.n_missing, replace=False)
        mask[removed] = False
    mask = mask.reshape(spec.m, spec.n)
    return X_full, ObservedMatrix(np.where(mask, X_full, 0.0), mask)


def rmse(X_full: np.ndarray, M: np.ndarray) -> float:
    """Frobenius distance over sqrt(m*n)."""
    X_full = np.asarray(X_full, dtype=float)
    M = np.asarray(M, dtype=float)
    if X_full.shape != M.shape:
        raise ShapeMismatch(f"shapes differ: {X_full.shape} vs {M.shape}")
    return float(np.linalg.norm(X_full - M) / np.sqrt(X_full.size))


@dataclass(frozen=True)
class TrialReport:
    """One (instance, method) outcome; wall_time covers the solve only, and
    blas_threads is the BLAS count the solve ran under (its trace's).

    A solve that raised carries rmse = inf, iters = 0, blas_threads = None
    and, in failure, the exception's type and message.
    """

    method: str
    rmse: float
    iters: int
    wall_time: float
    failure: str | None = None
    blas_threads: int | None = None

    @property
    def success(self) -> bool:
        return self.rmse < SUCCESS_RMSE


def _trial_seed(base_seed: int, *spawn_key: int) -> int:
    """Deterministic 64-bit sub-seed for a (cell, trial) stream."""
    ss = np.random.SeedSequence(base_seed, spawn_key=spawn_key)
    return int(ss.generate_state(1, np.uint64)[0])


def _run_methods(X_full, X_obs, methods, configs) -> list[TrialReport]:
    reports = []
    for method in methods:
        t0 = time.perf_counter()
        try:
            M, trace = solve(X_obs, configs[method])
        except (SirmcError, np.linalg.LinAlgError) as exc:
            reports.append(TrialReport(method, float("inf"), 0, time.perf_counter() - t0,
                                       f"{type(exc).__name__}: {exc}"))
            continue
        wall_time = time.perf_counter() - t0
        reports.append(TrialReport(method, rmse(X_full, M), trace.iters, wall_time,
                                   blas_threads=trace.blas_threads))
    return reports


@dataclass
class SweepGrid:
    """Phase-transition results: each (i_fr, i_fm, trial) task's reports, one
    TrialReport per method in methods order. Every per-cell number is derived
    from them by cell_mean; a trial that raised is a failure with infinite rmse.
    """

    f_r_values: tuple
    f_m_values: tuple
    methods: tuple
    trials: int
    reports: dict  # (i_fr, i_fm, trial) -> [TrialReport]

    def cell_mean(self, value) -> np.ndarray:
        """Mean of value(report) over each cell's trials, as a (len(f_r),
        len(f_m), len(methods)) array. The trials are reduced in trial order
        along the contiguous last axis, as a 1-D np.mean would."""
        shape = (len(self.f_r_values), len(self.f_m_values), len(self.methods), self.trials)
        values = [value(self.reports[(i, j, t)][k]) for i, j, k, t in np.ndindex(shape)]
        return np.array(values, dtype=float).reshape(shape).mean(axis=-1)

    @property
    def success_rate(self) -> np.ndarray:
        return self.cell_mean(lambda r: r.success)

    @property
    def mean_log10_rmse(self) -> np.ndarray:
        return self.cell_mean(lambda r: np.log10(max(r.rmse, 1e-16)))

    def success_cells(self, method: str) -> int:
        """Number of grid cells where the method's success rate is at least
        SUCCESS_CELL_RATE."""
        k = self.methods.index(method)
        return int(np.sum(self.success_rate[:, :, k] >= SUCCESS_CELL_RATE))

    def to_csv(self, path) -> None:
        success_rate = self.success_rate
        i, j, k = np.indices(success_rate.shape).reshape(3, -1)
        matio.write_table(path, [("f_r", "%r"), ("f_m", "%r"), ("method", "%s"),
                                 ("success_rate", "%r"), ("mean_log10_rmse", "%r"),
                                 ("trials", "%d")],
                          [np.asarray(self.f_r_values, dtype=float)[i],
                           np.asarray(self.f_m_values, dtype=float)[j],
                           np.asarray(self.methods)[k], success_rate.ravel(),
                           self.mean_log10_rmse.ravel(), np.full(k.size, self.trials)])


def pool_workers(threads: int, tasks: int) -> int:
    """Pool workers for tasks on threads trial threads; 1 runs them in turn."""
    return max(1, min(threads, tasks))


def phase_sweep(f_r_values, f_m_values, methods, trials, m: int = 300, n: int = 200,
                seed: int = 0, configs: dict | None = None, threads: int = 1) -> SweepGrid:
    """Run trials for every (f_r, f_m) cell and method; return their reports as a grid.

    Each trial draws one (ground truth, mask) pair, shared across all methods
    to remove instance-to-instance variance from the comparison. Seeds derive
    from (cell row, cell column, trial), so parallel execution order cannot
    change any number. Every cell's spec is checked before the first solve;
    per-trial solver errors are recorded as failures, not raised. The tasks,
    their draws and RMSEs included, run under blas.per_solve's share of the
    CPUs, on pool_workers(threads, tasks) workers or in turn on one. The
    BLAS count can change an RMSE's last bits, so below blas.SERIAL_ENTRIES
    (one thread each way) any `threads` gives the same numbers.
    """
    if trials < 1:
        raise InvalidSpec(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    f_r_values = tuple(f_r_values)
    f_m_values = tuple(f_m_values)
    methods = tuple(methods)
    if configs is None:
        configs = {method: config_for_method(method) for method in methods}

    specs = {(i, j, t): SyntheticSpec(m=m, n=n, f_r=f_r_values[i], f_m=f_m_values[j],
                                      seed=_trial_seed(seed, i, j, t))
             for i, j, t in np.ndindex(len(f_r_values), len(f_m_values), trials)}

    def run_task(spec):
        X_full, X_obs = gen_synthetic(spec)
        return _run_methods(X_full, X_obs, methods, configs)

    workers = pool_workers(threads, len(specs))
    with blas.limit(blas.per_solve(m * n, workers)):
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # ~10 ms; only pools pay it

            with ThreadPoolExecutor(workers) as pool:
                results = dict(zip(specs, pool.map(run_task, specs.values())))
        else:
            results = {key: run_task(spec) for key, spec in specs.items()}

    return SweepGrid(f_r_values, f_m_values, methods, trials, results)


def runtime_bench(ranks, methods, trials, f_m: float = 0.1, m: int = 300, n: int = 200,
                  seed: int = 0, configs: dict | None = None, threads: int = 1) -> SweepGrid:
    """Time solves over ranks: the SweepGrid of a phase_sweep over f_r = rank / n
    at the one missing fraction f_m, so trials are drawn, seeded, solved and
    their failures recorded as in a sweep. Its cell_mean of wall_time is the
    runtime table; timing covers solve only, and a failed solve counts the
    time until it raised and 0 iterations.

    Sequential by default. threads > 1 parallelizes (rank, trial) tasks as
    phase_sweep does: iteration counts do not change, but each wall time is
    that of a solve sharing the CPUs.
    """
    ranks = tuple(int(r) for r in ranks)
    for r in ranks:
        if not 1 <= r <= n:
            raise InvalidSpec(f"rank must be in [1, n] = [1, {n}], got {r}")
    return phase_sweep(tuple(r / n for r in ranks), (f_m,), methods, trials, m=m, n=n,
                       seed=seed, configs=configs, threads=threads)
