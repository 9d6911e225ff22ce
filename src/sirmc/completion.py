"""ADMM solver for low-rank matrix completion with generated penalties.

The model splits the data as X = M + E with E zero on the observed set, so
the unobserved entries of M are free. The E-step has a closed form: E is
-M off the observed set (the multiplier Lambda is zero there) and 0 on it.
E is never stored, and Lambda is a vector over the observed set. Each
iteration shrinks the singular values of D, M with the observed entries set
to X + Lambda/rho, with threshold 1/rho, forms the residual r = X - M on the
observed set that the implicit E leaves, takes the multiplier step
Lambda += rho * r and grows rho geometrically. With the
soft-threshold penalty this is a nuclear-norm-minimization baseline built
on the exact same scaffold, so benchmark comparisons vary only the
regularizer.

The state also carries V, the right singular vectors of M's nonzero
singular values. Each shrink starts from it and, when that certifies,
computes only the singular values above 1/rho (see spectral); the trace
records how many survived and which route the shrink took.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import blas
from .errors import (
    DomainError,
    EmptyObservation,
    NonFiniteInput,
    NonFiniteIterate,
    NonPositiveParameter,
    ZeroNormInput,
)
from .penalties import Penalty, how, validate
from .spectral import Shrinkage, norm_estimate, shrink_singular_values


@dataclass
class ObservedMatrix:
    """Dense values plus boolean observation mask.

    Unobserved entries are stored as exact zeros (the zero-filled projection
    convention); the constructor applies that projection. At least one entry
    must be observed.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2 or self.values.shape != self.mask.shape:
            raise ValueError(
                f"values {self.values.shape} and mask {self.mask.shape} must be equal 2-d shapes"
            )
        if not self.mask.any():
            raise EmptyObservation("mask observes no entries")
        if not np.isfinite(self.values[self.mask]).all():
            raise NonFiniteInput("observed entries contain NaN or inf")
        self.values = np.where(self.mask, self.values, 0.0)

    @property
    def shape(self):
        return self.values.shape

    @property
    def n_observed(self) -> int:
        return int(self.mask.sum())

    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs. Defaults follow the completion algorithm's constants
    (mu = 1.05, xi = 1e-7, 1000 iterations). The schedule start is otherwise
    unspecified; rho0 = None starts it at the data's scale, rho0 = 1/||P_O X||_2
    as in inexact ALM (Lin, Chen & Ma 2010), with the norm estimated by
    spectral.norm_estimate when the solve starts. A given rho0 is used as is.
    family maps a threshold lam to its penalty (default: penalties.how at its
    strict shape); iteration k shrinks with family(1/rho_k). Only family(1)
    is validated, so a family must scale: shape, or generator argument,
    proportional to lam, which makes prox_lam(x) = lam * prox_1(x / lam).
    """

    family: Callable[[float], Penalty] = how
    rho0: Optional[float] = None  # None = 1 / ||P_O X||_2, resolved by SolverState.initial
    mu: float = 1.05
    xi: float = 1e-7
    max_iters: int = 1000

    def __post_init__(self):
        if self.rho0 is not None and not 0 < self.rho0 < math.inf:
            raise NonPositiveParameter(f"rho0 must be positive and finite, got {self.rho0}")
        if not 1 < self.mu < math.inf:
            raise DomainError(f"mu must exceed 1 and be finite, got {self.mu}")
        if not 0 < self.xi < math.inf:
            raise NonPositiveParameter(f"xi must be positive and finite, got {self.xi}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        validate(self.family(1.0))

    def penalty_at(self, rho: float) -> Penalty:
        """Penalty for the current iteration: the family's member at 1/rho."""
        return self.family(1.0 / rho)


@dataclass
class SolverState:
    """ADMM iterates: estimate M, multiplier Lambda, penalty rho.

    Lambda is zero off the observed set, so it is stored as a vector over it,
    in the row-major order of np.flatnonzero(mask) (the solve's index omega).
    The complement fill E is implicit: -M off the observed set, 0 on it.
    V holds the right singular vectors of M's nonzero singular values (a
    factor of M, n x 0 for M = 0); the shrink step warm-starts from it.
    """

    M: np.ndarray
    Lambda: np.ndarray
    rho: float
    V: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.V is None:
            self.V = np.zeros((self.M.shape[1], 0))

    @classmethod
    def initial(cls, X: ObservedMatrix, config: SolverConfig) -> "SolverState":
        """M = Lambda = 0 at rho = config.rho0, or 1 / ||P_O X||_2 when that is None."""
        rho = config.rho0
        if rho is None:
            norm = norm_estimate(X.values)
            if norm == 0.0:
                raise ZeroNormInput("all observed entries are zero; no scale to start from")
            rho = 1.0 / norm
        return cls(M=np.zeros(X.shape), Lambda=np.zeros(X.n_observed), rho=rho)


@dataclass
class IterTrace:
    """Per-iteration history of a solve run.

    rel_e is ||P_O(X - M)||_F / ||P_O X||_F after the iteration's updates,
    the observed-set residual that the implicit E leaves (feas is its
    numerator). kept_rank is the number of singular values above the
    threshold 1/rho, and route the SvdTriplet route each shrink took
    ("truncated", "gram" or "dense"); the CSV writes it as two 0/1 columns,
    dense_svd and gram_svd, so the file stays all-numeric.
    """

    rel_e: list = field(default_factory=list)
    delta_m: list = field(default_factory=list)
    feas: list = field(default_factory=list)
    rho: list = field(default_factory=list)
    wall_time: list = field(default_factory=list)
    kept_rank: list = field(default_factory=list)
    route: list = field(default_factory=list)
    norm_x: float = 0.0
    max_iters_reached: bool = False
    full_rank: int = 0  # min(m, n), the rank of a shrink that keeps every value
    blas_threads: Optional[int] = None  # the count the solve ran under; None = unknown

    @property
    def iters(self) -> int:
        return len(self.rel_e)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("k,rel_E,delta_M,feas,rho,wall_time_s,kept_rank,dense_svd,gram_svd\n")
            for k in range(len(self.rel_e)):
                f.write(
                    f"{k + 1},{self.rel_e[k]!r},{self.delta_m[k]!r},"
                    f"{self.feas[k]!r},{self.rho[k]!r},{self.wall_time[k]!r},"
                    f"{self.kept_rank[k]},{int(self.route[k] == 'dense')},"
                    f"{int(self.route[k] == 'gram')}\n"
                )


def update_m(state: SolverState, X: ObservedMatrix, config: SolverConfig,
             omega: np.ndarray) -> Shrinkage:
    """Estimate update: singular-value shrinkage of D = X - E + Lambda/rho, which
    with the implicit E is X + Lambda/rho on the observed set (flat index omega)
    and M off it, warm-started from the current estimate's right singular vectors."""
    D = state.M.copy()
    np.put(D, omega, X.values.take(omega) + state.Lambda / state.rho)
    return shrink_singular_values(D, config.penalty_at(state.rho), start=state.V)


def update_e(M_new: np.ndarray, X: ObservedMatrix, omega: np.ndarray) -> np.ndarray:
    """E-step in closed form, returned as the residual X - M - E it leaves.

    The exact minimizer of the E-subproblem is E = Lambda/rho - M off the
    observed set and 0 on it; with Lambda zero off the set that is -M, so
    the residual is 0 off the set, and X - M on it, returned in omega's order.
    """
    return X.values.take(omega) - M_new.take(omega)


def update_multiplier_and_rho(state: SolverState, residual: np.ndarray,
                              config: SolverConfig) -> SolverState:
    """Multiplier step on the residual, then grow rho by mu."""
    return SolverState(
        M=state.M,
        Lambda=state.Lambda + state.rho * residual,
        rho=config.mu * state.rho,
        V=state.V,
    )


def solve(X: ObservedMatrix, config: SolverConfig | None = None):
    """Run the ADMM loop until rel_E <= xi or max_iters; returns (M, trace).

    Hitting the iteration cap is not an error: the trace carries a
    max_iters_reached flag. Non-finite iterates abort with NonFiniteIterate.
    The loop runs under blas.per_solve's count: one BLAS thread for a small matrix.
    """
    config = SolverConfig() if config is None else config
    norm_x = X.frob_norm()
    if norm_x == 0.0:
        raise ZeroNormInput("all observed entries are zero; relative error undefined")

    state = SolverState.initial(X, config)
    trace = IterTrace(norm_x=norm_x, full_rank=min(X.shape))
    omega = np.flatnonzero(X.mask)

    with blas.limit(blas.per_solve(X.values.size)):
        trace.blas_threads = blas.threads()
        while True:
            t0 = time.perf_counter()
            rho_k = state.rho
            if not math.isfinite(rho_k):
                raise NonFiniteIterate(f"rho overflowed at iteration {trace.iters + 1}")
            try:
                shrunk = update_m(state, X, config, omega)
            except NonFiniteInput as exc:
                raise NonFiniteIterate(
                    f"iterates went non-finite at iteration {trace.iters + 1}: {exc}"
                ) from exc
            if not shrunk.finite:
                raise NonFiniteIterate(f"estimate went non-finite at iteration {trace.iters + 1}")
            residual = update_e(shrunk.M, X, omega)
            delta_m = float(np.linalg.norm(shrunk.M - state.M))
            state.M, state.V = shrunk.M, shrunk.V
            feas = float(np.linalg.norm(residual))
            rel_e = feas / norm_x
            state = update_multiplier_and_rho(state, residual, config)
            elapsed = time.perf_counter() - t0

            trace.rel_e.append(rel_e)
            trace.delta_m.append(delta_m)
            trace.feas.append(feas)
            trace.rho.append(rho_k)
            trace.wall_time.append(elapsed)
            trace.kept_rank.append(shrunk.rank)
            trace.route.append(shrunk.route)

            if rel_e <= config.xi:
                break
            if trace.iters >= config.max_iters:
                trace.max_iters_reached = True
                break

    return state.M, trace


DIAGNOSTIC_WINDOW = 10   # trailing iterations over which feasibility must fall
SETTLE_ITERS = 3         # final increments judged; a healthy solve's oscillate down
DELTA_M_REL_TOL = 1e-6   # settled: increments at most this times ||X||_F
EARLY_ITERS = 2          # converging within this many iterations is suspect


def convergence_diagnostics(trace: IterTrace) -> tuple:
    """Judge a trace and return its flags, an empty tuple for a clean solve.

    In this order: "max_iters_reached" when the cap was hit,
    "delta_m_above_threshold" when the last SETTLE_ITERS estimate increments
    did not settle, "feas_stalled" when feasibility did not fall over the
    last DIAGNOSTIC_WINDOW iterations, and "zero_filled_input" when the solve
    kept every singular value or converged within EARLY_ITERS iterations:
    its answer is likely the zero-filled input, not a completion.
    """
    if trace.iters == 0:
        raise ValueError("empty trace")
    last_feas = trace.feas[-DIAGNOSTIC_WINDOW:]
    delta_m_settled = max(trace.delta_m[-SETTLE_ITERS:]) <= DELTA_M_REL_TOL * trace.norm_x
    feas_decreasing = last_feas[-1] == 0.0 or last_feas[-1] < last_feas[0]
    flags = []
    if trace.max_iters_reached:
        flags.append("max_iters_reached")
    if not delta_m_settled:
        flags.append("delta_m_above_threshold")
    if not feas_decreasing:
        flags.append("feas_stalled")
    if (0 < trace.full_rank <= max(trace.kept_rank, default=0)
            or (trace.iters <= EARLY_ITERS and not trace.max_iters_reached)):
        flags.append("zero_filled_input")
    return tuple(flags)
