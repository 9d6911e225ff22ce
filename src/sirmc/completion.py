"""ADMM solver for low-rank matrix completion with generated penalties.

The model splits the data as X = M + E with E zero on the observed set, so
the unobserved entries of M are free. The E-step has a closed form: E is
-M off the observed set (the multiplier Lambda is zero there) and 0 on it.
E is never stored, and Lambda is a vector over the observed set. Each
iteration shrinks the singular values of D, M with the observed entries set
to X + Lambda/rho, as lam * prox_1(sigma / lam) at lam = 1/rho with prox_1
the unit penalty's, forms the residual r = X - M on the observed set that
the implicit E leaves, takes the multiplier step Lambda += rho * r and grows
rho by the factor rho_growth picks: the paper's fixed mu, or MU_SETTLED once
the kept rank has settled on a well-sampled instance (inexact ALM's larger
late growth, Lin, Chen & Ma 2010). With the soft-threshold penalty this is a
nuclear-norm-minimization baseline built on the exact same scaffold, so
benchmark comparisons vary only the regularizer.

The iteration is homogeneous in the data, so the solve, its start included,
runs at unit scale, on X / 2^e with max|X| in [2^(e-1), 2^e); a power of
two is exact, so the answer does not depend on the data's scale.

The loop keeps three iterates: the last shrink (M, and V, the right
singular vectors of M's nonzero singular values), Lambda and rho. Each
shrink starts from the last one's V and, when that certifies, computes
only the singular values above 1/rho (see spectral); the trace records how
many survived and which route the shrink took.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

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
from .spectral import ROUTES, Shrinkage, norm_estimate, shrink_singular_values


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


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs. Defaults follow the completion algorithm's constants
    (mu = 1.05, xi = 1e-7, 1000 iterations). mu is the growth of rho until
    rho_growth finds the iterate settled, then max(mu, MU_SETTLED); so a mu
    of at least MU_SETTLED = 1.3 gives a plain geometric schedule, and the
    paper's fixed mu holds on instances with few observations per degree of
    freedom. The paper leaves the schedule's start open; solve starts it at
    the data's scale (see solve), so no setting has units.
    penalty is the unit penalty, at lam = 1 (default: penalties.how(1.0), at
    its strict shape), validated here once; iteration k shrinks with
    lam_k * prox_1(sigma / lam_k) at lam_k = 1/rho_k, the prox of the penalty
    whose shape, or generator argument, is scaled by lam_k.
    """

    penalty: Penalty = how(1.0)
    mu: float = 1.05
    xi: float = 1e-7
    max_iters: int = 1000

    def __post_init__(self):
        if not 1 < self.mu < math.inf:
            raise DomainError(f"mu must exceed 1 and be finite, got {self.mu}")
        if not 0 < self.xi < math.inf:
            raise NonPositiveParameter(f"xi must be positive and finite, got {self.xi}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.penalty.lam != 1.0:
            raise DomainError(f"penalty must be the unit penalty, lam = 1; got {self.penalty.lam}")
        validate(self.penalty)


@dataclass
class IterTrace:
    """Per-iteration history of a solve run.

    rel_e is ||P_O(X - M)||_F / ||P_O X||_F after the iteration's updates,
    the observed-set residual that the implicit E leaves (feas is its
    numerator). kept_rank is the number of singular values above the
    threshold 1/rho, and route the SvdTriplet route each shrink took, one
    of spectral.ROUTES; the CSV writes it as a 0/1 column per route but the
    first, last route first (dense_svd, gram_svd, gram_block_svd), so the
    file stays all-numeric. norm_x, feas, delta_m and rho are in data units
    (see solve); rel_e is scale-free.
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
        from .matio import write_table  # matio imports this module
        route, onehot = np.asarray(self.route, dtype=str), ROUTES[:0:-1]
        write_table(path, [("k", "%d"), ("rel_E", "%r"), ("delta_M", "%r"), ("feas", "%r"),
                           ("rho", "%r"), ("wall_time_s", "%r"), ("kept_rank", "%d")]
                    + [(f"{r}_svd", "%d") for r in onehot],
                    [range(1, self.iters + 1), self.rel_e, self.delta_m, self.feas, self.rho,
                     self.wall_time, self.kept_rank] + [route == r for r in onehot])


def update_m(prev: Shrinkage, x: np.ndarray, Lambda: np.ndarray, rho: float,
             penalty: Penalty, omega: np.ndarray) -> Shrinkage:
    """Estimate update: singular-value shrinkage at threshold 1/rho of D = X - E +
    Lambda/rho, which with the implicit E is x + Lambda/rho on the observed set (flat
    index omega, x the observed values and Lambda the multiplier in its order) and
    M = prev.M off it, warm-started from prev.V and gated by prev.gapped."""
    D = prev.M.copy()
    D.reshape(-1)[omega] = x + Lambda / rho  # a view: np.put costs 3x
    return shrink_singular_values(D, penalty, start=prev.V, scale=1.0 / rho, gapped=prev.gapped)


def update_e(M_new: np.ndarray, x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """E-step in closed form, returned as the residual X - M - E it leaves.

    The exact minimizer of the E-subproblem is E = Lambda/rho - M off the
    observed set and 0 on it; with Lambda zero off the set that is -M, so
    the residual is 0 off the set, and x - M on it, returned in omega's order.
    """
    return x - M_new.take(omega)


def update_multiplier_and_rho(Lambda: np.ndarray, rho: float, residual: np.ndarray,
                              growth: float) -> tuple:
    """Multiplier step on the residual, then grow rho by growth: (Lambda, rho)."""
    return Lambda + rho * residual, growth * rho


RANK_HOLD = 5       # settled: RANK_HOLD + 1 shrinks in a row kept one rank
MU_SETTLED = 1.3    # rho's growth once settled; 1.5 lost transition-grid successes
OVERSAMPLING = 3    # observed entries per degree of freedom r(m+n-r) of rank r


def rho_growth(mu: float, trace: IterTrace, n_observed: int, shape: tuple) -> float:
    """The factor rho grows by after the trace's last shrink: max(mu, MU_SETTLED)
    when the iterate has settled, else mu.

    Settled means that the last RANK_HOLD + 1 shrinks kept one rank r > 0,
    that n_observed >= OVERSAMPLING * r(m+n-r), and that rel_E fell by at
    least mu**RANK_HOLD over those shrinks, so the residual keeps pace with
    rho. Near the degrees-of-freedom bound a faster rho leaves kept values
    within roundoff of the threshold, where the shrink goes dense, so there
    the schedule stays the paper's. Every input is scale-free.
    """
    if mu >= MU_SETTLED or trace.iters <= RANK_HOLD:
        return mu
    ranks = trace.kept_rank[-RANK_HOLD - 1:]
    r, (m, n) = ranks[-1], shape
    settled = (r > 0 and ranks.count(r) == len(ranks)
               and n_observed >= OVERSAMPLING * r * (m + n - r)
               and trace.rel_e[-1] * mu ** RANK_HOLD <= trace.rel_e[-RANK_HOLD - 1])
    return MU_SETTLED if settled else mu


def _ldexp_finite(values, e: int, what: str) -> np.ndarray:
    """values * 2^e, exact while it stays a normal double; a DomainError if it is not finite."""
    peak = float(np.max(np.abs(values)))
    if not (math.isfinite(peak) and math.frexp(peak)[1] + e <= sys.float_info.max_exp):
        raise DomainError(f"{what} overflows a double at the data's scale; rescale the data")
    return np.ldexp(values, e)


def solve(X: ObservedMatrix, config: SolverConfig | None = None):
    """Run the ADMM loop until rel_E <= xi or max_iters; returns (M, trace).

    The start and the loop run at unit scale: rho starts at 1/||P_O X||_2
    from spectral.norm_estimate, as in inexact ALM (Lin, Chen & Ma 2010), or
    at 1/max|X| when its power steps find nothing (|X_ij| <= ||P_O X||_2).
    M and the trace come back in data units, and a DomainError says that
    ||P_O X||_F or one of them does not fit a double at the data's scale;
    all-zero data is a ZeroNormInput. Hitting the cap is not an error: the
    trace carries a max_iters_reached flag.
    Non-finite iterates abort with NonFiniteIterate. The start and the loop
    run under blas.per_solve's count, one BLAS thread for a small matrix, so
    ||P_O X||_F and every rel_E are the same under any caller's count.
    """
    config = SolverConfig() if config is None else config
    with blas.limit(blas.per_solve(X.values.size)):
        omega = np.flatnonzero(X.mask)
        peak = float(np.max(np.abs(X.values)))  # 0 off the observed set
        if peak == 0.0:
            raise ZeroNormInput("all observed entries are zero; relative error undefined")
        e = math.frexp(peak)[1]
        unit = np.ldexp(X.values, -e)  # max|unit| in [1/2, 1)
        x = unit.take(omega)
        norm_x = float(np.linalg.norm(unit))  # zero-filled m x n: keeps rel_E's last bit
        trace = IterTrace(norm_x=float(_ldexp_finite(norm_x, e, "||P_O X||_F")),
                          full_rank=min(X.shape))
        trace.blas_threads = blas.threads()
        rho = 1.0 / (norm_estimate(unit) or math.ldexp(peak, -e))
        del unit  # the loop reads x: one m x n array less at its peak
        last = Shrinkage(np.zeros(X.shape), np.zeros(0), np.zeros((X.shape[1], 0)), "none")  # M = 0
        Lambda = np.zeros(omega.size)

        while True:
            t0 = time.perf_counter()
            rho_k = rho
            if not math.isfinite(rho_k):
                raise NonFiniteIterate(f"rho overflowed at iteration {trace.iters + 1}")
            try:
                shrunk = update_m(last, x, Lambda, rho, config.penalty, omega)
            except (NonFiniteInput, NonFiniteIterate) as exc:
                raise NonFiniteIterate(
                    f"iterates went non-finite at iteration {trace.iters + 1}: {exc}"
                ) from exc
            residual = update_e(shrunk.M, x, omega)
            delta_m = float(np.linalg.norm(shrunk.M - last.M))
            last = shrunk
            feas = float(np.linalg.norm(residual))
            rel_e = feas / norm_x
            trace.rel_e.append(rel_e)
            trace.delta_m.append(delta_m)
            trace.feas.append(feas)
            trace.rho.append(rho_k)
            trace.kept_rank.append(shrunk.rank)
            trace.route.append(shrunk.route)
            growth = rho_growth(config.mu, trace, omega.size, X.shape)
            Lambda, rho = update_multiplier_and_rho(Lambda, rho, residual, growth)
            trace.wall_time.append(time.perf_counter() - t0)

            if rel_e <= config.xi:
                break
            if trace.iters >= config.max_iters:
                trace.max_iters_reached = True
                break

    trace.delta_m = _ldexp_finite(trace.delta_m, e, "delta_M").tolist()
    trace.feas = _ldexp_finite(trace.feas, e, "feas").tolist()
    trace.rho = _ldexp_finite(trace.rho, -e, "rho").tolist()
    return _ldexp_finite(last.M, e, "the estimate M"), trace


DIAGNOSTIC_WINDOW = 10   # trailing iterations over which feasibility must fall
SETTLE_ITERS = 3         # final increments judged; a healthy solve's oscillate down
DELTA_M_REL_TOL = 1e-6   # settled: increments at most this times ||X||_F
SETTLE_RATE = 0.5        # or falling by this factor, the last within the tolerance
EARLY_ITERS = 2          # converging within this many iterations is suspect


def convergence_diagnostics(trace: IterTrace) -> tuple:
    """Judge a trace and return its flags, an empty tuple for a clean solve.

    In this order: "max_iters_reached" when the cap was hit,
    "delta_m_above_threshold" when the last SETTLE_ITERS estimate increments
    did not settle (settled: all within DELTA_M_REL_TOL * ||X||_F, or the last
    within it and each at most SETTLE_RATE times the one before, so that a
    tail as fast moves M less), "feas_stalled" when feasibility did not fall
    over the last DIAGNOSTIC_WINDOW iterations, and "zero_filled_input" when
    the solve kept every singular value or converged within EARLY_ITERS
    iterations: its answer is likely the zero-filled input, not a completion.
    """
    if trace.iters == 0:
        raise ValueError("empty trace")
    last_feas = trace.feas[-DIAGNOSTIC_WINDOW:]
    last, tol = trace.delta_m[-SETTLE_ITERS:], DELTA_M_REL_TOL * trace.norm_x
    delta_m_settled = max(last) <= tol or (
        last[-1] <= tol and all(b <= SETTLE_RATE * a for a, b in zip(last, last[1:])))
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
