"""Generalized singular-value shrinkage.

Applies a penalty's scalar proximity operator to the spectrum of a dense
matrix. For nondecreasing proximity operators (all penalties in this
package) this solves the spectral proximal subproblem used by the solver's
estimate update.

Every penalty's prox is exactly zero on [-lam, lam], so only the singular
values above the threshold matter. Given a warm start (the right singular
vectors the previous shrink kept), the shrinkage computes just those with a
certified randomized subspace iteration (Halko, Martinsson & Tropp 2011)
and falls back to the dense SVD whenever truncation would be the slower
path or its checks fail. Without a warm start it always runs the dense SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox  # at load, not in the first timed shrink

from .errors import NonFiniteInput, SvdFailure
from .penalties import Penalty, prox_eval

# Truncated SVD constants (fixed; not configuration).
OVERSAMPLE = 10          # block columns beyond the warm rank
POWER_STEPS = 12         # power steps allowed before going dense
BLOCK_DIVISOR = 4        # truncate only while the block is <= min(m, n) / 4
SETTLE_TOL = 1e-12       # settled: kept Ritz values move <= this times s_1
DROP_MARGIN = 10         # largest dropped Ritz value: below lam by this times its rise
RESIDUAL_TOL = 1e-10     # certified: triplet residuals <= this times s_1
FILL_SEED = 20230417     # Philox key of the start block's fill columns and norm_estimate's start
NORM_POWER_STEPS = 4     # power steps of norm_estimate


@dataclass(frozen=True)
class SvdTriplet:
    """Thin SVD D = U @ diag(S) @ V.T with S sorted nonincreasing, or, when
    `dense` is False, only the triplets of D with S above a threshold."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    dense: bool = True

    @classmethod
    def of(cls, D: np.ndarray, above: float | None = None,
           start: np.ndarray | None = None) -> "SvdTriplet":
        """Dense thin SVD of D; with a threshold `above` and a warm start
        (n x k, orthonormal columns), the truncated SVD when it certifies."""
        try:
            if start is not None:
                found = _truncated_svd(D, above, start)
                if found is not None:
                    return cls(*found, dense=False)
            U, s, Vh = np.linalg.svd(D, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SvdFailure(f"SVD did not converge: {exc}") from exc
        return cls(U, s, Vh.T)


def _truncated_svd(D: np.ndarray, lam: float, start: np.ndarray):
    """(U, S, V) holding exactly the singular triplets of D with S > lam, or
    None when the dense SVD should run instead.

    ||D||_F <= lam proves that no value exceeds lam (empty result). Else a
    block of `start` plus OVERSAMPLE fill columns from a fixed Philox stream
    goes through randomized subspace iteration, each step's Ritz vectors
    starting the next, for at most POWER_STEPS power steps. A step's kept
    triplets (Ritz values above lam) are returned once

    - settled: since the previous step, the number of Ritz values above lam
      is unchanged and each of them moved by at most SETTLE_TOL * s_1, and
      the largest dropped Ritz value lies below lam by more than
      DROP_MARGIN times its rise;
    - not saturated: the block's smallest Ritz value is at most lam (else
      the block doubles and iterates again);
    - certified: every kept triplet has max(||D v - u s||, ||D^T u - v s||)
      <= RESIDUAL_TOL * s_1, so a singular value of D lies that close to
      each kept value, and neither a kept value nor the largest dropped
      one lies that close to lam.

    These are a posteriori tests, not a proof that no value above lam lies
    outside the block. A block wider than min(m, n) / BLOCK_DIVISOR, where
    the power steps cost about as much as the dense SVD, goes dense, and so
    does a block whose residuals, shrinking at their last observed rate,
    would not reach the tolerance within the steps left. The step budget
    lets a cold or thin start (the first shrinks of a solve) certify: a
    step of a narrow block costs a small fraction of the dense SVD.
    """
    m, n = D.shape
    if np.linalg.norm(D) <= lam:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    limit = min(m, n) // BLOCK_DIVISOR
    fill = Generator(Philox(FILL_SEED))
    V = start
    width = start.shape[1] + OVERSAMPLE
    while width <= limit:
        V = np.hstack([V, fill.standard_normal((n, width - V.shape[1]))])
        Y = D @ V
        prev = prev_res = None
        for step in range(POWER_STEPS + 1):
            # Rayleigh-Ritz on the range of Y = D @ V.
            Q, _ = np.linalg.qr(Y)
            W, s, Vh = np.linalg.svd(Q.T @ D, full_matrices=False)
            U, V = Q @ W, Vh.T
            kept = int(np.count_nonzero(s > lam))
            if kept == width:
                break
            Y = D @ V  # the next step's product; gives this step's residuals
            tol = RESIDUAL_TOL * s[0]
            res = float(np.max(np.linalg.norm(Y[:, :kept] - U[:, :kept] * s[:kept], axis=0),
                               initial=0.0))
            if (prev is not None and prev.size == kept + 1
                    and np.all(np.abs(s[:kept] - prev[:kept]) <= SETTLE_TOL * s[0])
                    and lam - s[kept] > DROP_MARGIN * max(s[kept] - prev[kept], 0.0)
                    and res <= tol and np.all(np.abs(s[:kept + 1] - lam) > tol)):
                U, s, V = U[:, :kept], s[:kept], V[:, :kept]
                if np.all(np.linalg.norm(D.T @ U - V * s, axis=0) <= tol):
                    return U, s, V
                return None
            # No rate to judge from a step that kept nothing (prev_res 0).
            if prev_res and res > tol and (
                    res >= prev_res or res * (res / prev_res) ** (POWER_STEPS - step) > tol):
                return None  # the residuals shrink too slowly to certify in time
            prev, prev_res = s[:kept + 1], res
        else:
            return None
        width *= 2
    return None


def norm_estimate(A: np.ndarray) -> float:
    """Estimate of ||A||_2 from NORM_POWER_STEPS power steps on A^T A from a
    fixed Philox start: a lower bound, homogeneous in A, with no SVD."""
    v = Generator(Philox(FILL_SEED)).standard_normal(A.shape[1])
    for _ in range(NORM_POWER_STEPS):
        v = A.T @ (A @ v)
        v /= np.linalg.norm(v) or 1.0
    return float(np.linalg.norm(A @ v))


@dataclass(frozen=True)
class Shrinkage:
    """A warm-started shrink M = U @ diag(S) @ V.T: S holds the nonzero
    shrunk singular values and V their right singular vectors (the next
    shrink's warm start); `dense` says whether the dense SVD ran, and
    `finite` whether the factors M was formed from are finite, which makes
    M finite (|M_ij| <= max S for orthonormal U and V)."""

    M: np.ndarray
    S: np.ndarray
    V: np.ndarray
    dense: bool
    finite: bool

    @property
    def rank(self) -> int:
        return self.S.size

    def norm(self) -> float:
        """||M||_F, which is ||S||."""
        return float(np.linalg.norm(self.S))


def shrink_singular_values(D: np.ndarray, penalty: Penalty,
                           start: np.ndarray | None = None):
    """Return U @ diag(P(sigma_i)) @ V.T where P is the penalty's prox.

    Output singular values are the prox of the input's; in particular any
    input with spectral norm <= lam maps to the zero matrix. Without
    `start` this is the dense SVD and returns the matrix. With `start`, the
    right singular vectors of the previous shrink's kept values (n x 0 at
    first), only the values above lam are computed when that certifies (see
    `_truncated_svd`), and a `Shrinkage` is returned.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {D.shape}")
    if not np.isfinite(D).all():
        raise NonFiniteInput("matrix contains NaN or inf")
    if start is None:
        svd = SvdTriplet.of(D)
        return (svd.U * prox_eval(penalty, svd.S)) @ svd.V.T
    svd = SvdTriplet.of(D, above=penalty.lam, start=start)
    s = prox_eval(penalty, svd.S)
    finite = bool(np.isfinite(s).all() and np.isfinite(svd.U).all()
                  and np.isfinite(svd.V).all())
    keep = s != 0.0
    return Shrinkage((svd.U * s) @ svd.V.T, s[keep], svd.V[:, keep], svd.dense, finite)
