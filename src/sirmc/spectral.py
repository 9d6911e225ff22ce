"""Generalized singular-value shrinkage.

Applies a penalty's scalar proximity operator to the spectrum of a dense
matrix. For nondecreasing proximity operators (all penalties in this
package) this solves the spectral proximal subproblem used by the solver's
estimate update.

Every penalty's prox is exactly zero on [-lam, lam], so only the singular
values above the threshold matter. Without a warm start the shrinkage runs
the dense SVD. Given one (the right singular vectors the previous shrink
kept, k columns) it chooses its route once, in `SvdTriplet.of`, in this
order: a certified randomized subspace iteration (Halko, Martinsson &
Tropp 2011) on one block of k + OVERSAMPLE columns, while that is at most
min(m, n) // BLOCK_DIVISOR; a certified eigendecomposition of D^T D or
D D^T, while that bound is at least OVERSAMPLE; the dense SVD last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox  # at load, not in the first timed shrink

from .errors import NonFiniteInput, SvdFailure
from .penalties import Penalty, prox_eval

# Truncated SVD constants (fixed; not configuration).
OVERSAMPLE = 10          # block columns beyond the warm rank
POWER_STEPS = 12         # power steps allowed before giving up
BLOCK_DIVISOR = 5        # truncate while the block is <= min(m, n) / 5; wider, _gram_svd costs less
SETTLE_TOL = 1e-12       # settled: kept Ritz values move <= this times s_1
DROP_MARGIN = 10         # largest dropped Ritz value: below lam by this times its rise
RESIDUAL_TOL = 1e-10     # certified: triplet residuals <= this times s_1
FILL_SEED = 20230417     # Philox key of the start block's fill columns and norm_estimate's start
NORM_POWER_STEPS = 4     # power steps of norm_estimate


@dataclass(frozen=True)
class SvdTriplet:
    """Thin SVD D = U @ diag(S) @ V.T with S sorted nonincreasing, or, when
    `route` is "truncated" or "gram", only the triplets with S above a threshold."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    route: str = "dense"

    @classmethod
    def of(cls, D: np.ndarray, above: float | None = None,
           start: np.ndarray | None = None) -> "SvdTriplet":
        """Dense thin SVD of D; with a threshold `above` and a warm start (n x k,
        orthonormal columns), the first route that applies and certifies:
        the truncated SVD when k + OVERSAMPLE <= min(m, n) // BLOCK_DIVISOR,
        the Gram route when that bound is at least OVERSAMPLE, else LAPACK."""
        try:
            if start is not None:
                limit = min(D.shape) // BLOCK_DIVISOR
                if start.shape[1] + OVERSAMPLE <= limit:
                    found = _truncated_svd(D, above, start)
                    if found is not None:
                        return cls(*found, route="truncated")
                if limit >= OVERSAMPLE:
                    found = _gram_svd(D, above)
                    if found is not None:
                        return cls(*found, route="gram")
            U, s, Vh = np.linalg.svd(D, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SvdFailure(f"SVD did not converge: {exc}") from exc
        return cls(U, s, Vh.T)


def _truncated_svd(D: np.ndarray, lam: float, start: np.ndarray):
    """(U, S, V) holding exactly the singular triplets of D with S > lam, or
    None when the Gram route should run instead.

    A block of `start` plus OVERSAMPLE fill columns from a fixed Philox
    stream goes through randomized subspace iteration, each step's Ritz
    vectors starting the next, for at most POWER_STEPS power steps. A step's
    kept triplets (Ritz values above lam) are returned once

    - settled: since the previous step, the number of Ritz values above lam
      is unchanged and each of them moved by at most SETTLE_TOL * s_1, and
      the largest dropped Ritz value lies below lam by more than
      DROP_MARGIN times its rise;
    - not saturated: the block's smallest Ritz value is at most lam (else
      the block is too narrow, and the call gives up at once);
    - certified: every kept triplet has max(||D v - u s||, ||D^T u - v s||)
      <= RESIDUAL_TOL * s_1, so a singular value of D lies that close to
      each kept value, and neither a kept value nor the largest dropped
      one lies that close to lam.

    These are a posteriori tests, not a proof that no value above lam lies
    outside the block. A block whose residuals, shrinking at their last
    observed rate, would not reach the tolerance within the steps left gives
    up too. The step budget lets a cold or thin start (the first shrinks of
    a solve) certify: a step of a narrow block costs a small fraction of the
    dense SVD.
    """
    fill = Generator(Philox(FILL_SEED)).standard_normal((D.shape[1], OVERSAMPLE))
    Y = D @ np.hstack([start, fill])
    prev = prev_res = None
    for step in range(POWER_STEPS + 1):
        # Rayleigh-Ritz on the range of Y = D @ V.
        Q, _ = np.linalg.qr(Y)
        W, s, Vh = np.linalg.svd(Q.T @ D, full_matrices=False)
        U, V = Q @ W, Vh.T
        kept = int(np.count_nonzero(s > lam))
        if kept == s.size:
            return None  # saturated
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
    return None


def _gram_svd(D: np.ndarray, lam: float):
    """(U, S, V) holding exactly the singular triplets of D with S > lam, or
    None: the eigenvalues w > lam^2 of D^T D (D D^T when m < n) give S =
    sqrt(w), V their eigenvectors and U = D V / S. Squaring costs accuracy,
    about n * eps * s_1^2 in w (Golub & Van Loan, ch. 8), so the route gives
    up when a w lies that close to lam^2, and unless every kept triplet has
    ||D^T u - v s|| <= RESIDUAL_TOL * s_1 (which blurred small values fail).
    """
    A = D if D.shape[0] >= D.shape[1] else D.T
    w, V = np.linalg.eigh(A.T @ A)  # ascending
    if np.any(np.abs(w - lam * lam) <= A.shape[1] * np.finfo(float).eps * w[-1]):
        return None
    keep = np.flatnonzero(w > lam * lam)[::-1]
    s, V = np.sqrt(w[keep]), V[:, keep]
    U = (A @ V) / s
    if np.any(np.linalg.norm(A.T @ U - V * s, axis=0) > RESIDUAL_TOL * np.sqrt(w[-1])):
        return None
    return (U, s, V) if A is D else (V, s, U)


def norm_estimate(A: np.ndarray) -> float:
    """Estimate of ||A||_2 from NORM_POWER_STEPS power steps on A^T A from a
    fixed Philox start: a lower bound, homogeneous in A, with no SVD, and 0
    when the start is orthogonal to A's row space. A^T A squares the scale,
    so solve passes A at unit scale, max|A_ij| in [1/2, 1)."""
    v = Generator(Philox(FILL_SEED)).standard_normal(A.shape[1])
    for _ in range(NORM_POWER_STEPS):
        v = A.T @ (A @ v)
        v /= np.linalg.norm(v) or 1.0
    return float(np.linalg.norm(A @ v))


@dataclass(frozen=True)
class Shrinkage:
    """A warm-started shrink M = U @ diag(S) @ V.T: S holds the nonzero
    shrunk singular values and V their right singular vectors (the next
    shrink's warm start); `route` is the SvdTriplet's, and `finite` says
    whether the factors M was formed from are finite, which makes M finite
    (|M_ij| <= max S for orthonormal U and V)."""

    M: np.ndarray
    S: np.ndarray
    V: np.ndarray
    route: str
    finite: bool

    @property
    def rank(self) -> int:
        return self.S.size


def shrink_singular_values(D: np.ndarray, penalty: Penalty,
                           start: np.ndarray | None = None, scale: float = 1.0):
    """Return U @ diag(P(sigma_i)) @ V.T where P(x) = scale * prox(x / scale),
    the penalty's prox scaled to threshold lam = scale * penalty.lam.

    Any input with spectral norm <= lam maps to the zero matrix. Without
    `start` this is the dense SVD and returns the matrix. With `start`, the
    right singular vectors of the previous shrink's kept values (n x 0 at
    first), only the values above lam are computed when a route certifies
    (see `SvdTriplet.of`), and a `Shrinkage` is returned.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {D.shape}")
    if not np.isfinite(D).all():
        raise NonFiniteInput("matrix contains NaN or inf")
    svd = SvdTriplet.of(D, above=scale * penalty.lam, start=start)
    s = scale * prox_eval(penalty, svd.S / scale)
    if start is None:
        return (svd.U * s) @ svd.V.T
    finite = bool(np.isfinite(s).all() and np.isfinite(svd.U).all()
                  and np.isfinite(svd.V).all())
    keep = s != 0.0
    return Shrinkage((svd.U * s) @ svd.V.T, s[keep], svd.V[:, keep], svd.route, finite)
