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
Tropp 2011) on one block of k + OVERSAMPLE columns, while BLOCK_DIVISOR
such blocks fit in min(m, n); the Gram route on G = D^T D or D D^T; the
dense SVD last. A truncated shrink makes about eight products of D with its
block (two per power step over about three steps, the first and the
certifying one), the Gram route one product with D's n columns to form G,
so a narrow D goes to the Gram side. A D of at most DENSE_ENTRIES entries
takes the exact dense SVD on every shrink. The Gram route first runs block
Rayleigh-Ritz steps on G from the warm start (Saad 2011), when the
previous shrink saw a gap below its kept values, and proves the count of
values above lam with one Cholesky factorization; else it takes the full
eigendecomposition of G.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox  # at load, not in the first timed shrink

from .errors import NonFiniteInput, NonFiniteIterate, SvdFailure
from .penalties import Penalty, prox_eval

# Route and truncated SVD constants (fixed; not configuration).
OVERSAMPLE = 10          # block columns beyond the warm rank
POWER_STEPS = 12         # power steps allowed before giving up
BLOCK_DIVISOR = 8        # truncate while 8 blocks fit in min(m, n): ~8 block products vs G's one
DENSE_ENTRIES = 4096     # a D of at most this many entries takes the dense SVD on every shrink
SETTLE_TOL = 1e-12       # settled: kept Ritz values move <= this times s_1
DROP_MARGIN = 10         # largest dropped Ritz value: below lam by this times its rise
RESIDUAL_TOL = 1e-10     # certified: triplet residuals <= this times s_1
FILL_SEED = 20230417     # Philox key of the start block's fill columns and norm_estimate's start
NORM_POWER_STEPS = 4     # power steps of norm_estimate
GAP = 1e-2               # gapped: (sigma_{k+1} / sigma_k)^2 <= GAP below the k kept values
GRAM_STEPS = 4           # Rayleigh-Ritz steps of the Gram block before eigh runs
ROUTES = ("truncated", "gram_block", "gram", "dense")  # SvdTriplet.route, in the order tried


@dataclass(frozen=True)
class SvdTriplet:
    """Thin SVD D = U @ diag(S) @ V.T with S sorted nonincreasing, or, when
    `route` is not "dense", only the triplets with S above a threshold.
    `gapped` says that this SVD saw (S_{k+1} / S_k)^2 <= GAP below its k
    values above the threshold (see _gapped)."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    route: str = "dense"
    gapped: bool = False

    @classmethod
    def of(cls, D: np.ndarray, above: float | None = None,
           start: np.ndarray | None = None, gapped: bool = False) -> "SvdTriplet":
        """Dense thin SVD of D; with a threshold `above` and a warm start (n x k,
        orthonormal columns) on a D of more than DENSE_ENTRIES entries, the
        first route that applies and certifies: the truncated SVD when
        BLOCK_DIVISOR * (k + OVERSAMPLE) <= min(m, n), then the Gram route
        (trying its block from `start` first when the previous shrink was
        `gapped`), else LAPACK."""
        try:
            if start is not None and D.size > DENSE_ENTRIES:
                if BLOCK_DIVISOR * (start.shape[1] + OVERSAMPLE) <= min(D.shape):
                    found = _truncated_svd(D, above, start)
                    if found is not None:
                        return cls(*found, route="truncated")
                found = _gram_svd(D, above, start if gapped else None)
                if found is not None:
                    return cls(*found)
            U, s, Vh = np.linalg.svd(D, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise SvdFailure(f"SVD did not converge: {exc}") from exc
        return cls(U, s, Vh.T, gapped=above is not None
                   and _gapped(s * s, int(np.count_nonzero(s > above))))


def _gapped(w: np.ndarray, k: int) -> bool:
    """Whether the nonincreasing squared spectrum w (all of it) has k > 0 values
    kept and w[k] <= GAP * w[k - 1]: the next shrink's Gram block from these k
    vectors then gains about a factor GAP per step."""
    return bool(0 < k and (k == w.size or w[k] <= GAP * w[k - 1]))


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
    Y = D @ np.hstack([start, fixed_normal((D.shape[1], OVERSAMPLE))])
    prev = prev_res = None
    for step in range(POWER_STEPS + 1):
        # Rayleigh-Ritz on range(Y): tall D^T Q = V S W^T (as the faster (Q^T D)^T) gives U = Q W.
        Q, _ = np.linalg.qr(Y)
        V, s, Wt = np.linalg.svd((Q.T @ D).T, full_matrices=False)
        U = Q @ Wt.T
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


def _gram_svd(D: np.ndarray, lam: float, start: np.ndarray | None = None):
    """(U, S, V, route, gapped) holding exactly the singular triplets of D
    with S > lam, or None. With A = D (D^T when m < n) and G = A^T A, the
    eigenvalues w > lam^2 of G give S = sqrt(w), V their eigenvectors and
    U = A V / S (then swapped back when A = D^T).

    Given a warm start (for A = D^T, the orthonormalized D @ start), the
    route first tries _gram_block ("gram_block", gapped left set). When
    that gives up, it takes eigh of the same G ("gram", gapped from its
    spectrum). Squaring costs accuracy, about n * eps * s_1^2 in w (Golub &
    Van Loan, ch. 8), so eigh gives up when a w lies that close to lam^2,
    and unless every kept triplet has ||A^T u - v s|| <= RESIDUAL_TOL * s_1
    (which blurred small values fail).
    """
    A = D if D.shape[0] >= D.shape[1] else D.T
    G = A.T @ A
    found = None
    if start is not None and start.shape[1]:
        found = _gram_block(A, G, lam, start if A is D else np.linalg.qr(D @ start)[0])
    if found is not None:
        (U, s, V), route, gapped = found, "gram_block", True
    else:
        w, V = np.linalg.eigh(G)  # ascending
        if np.any(np.abs(w - lam * lam) <= A.shape[1] * np.finfo(float).eps * w[-1]):
            return None
        keep = np.flatnonzero(w > lam * lam)[::-1]
        s, V = np.sqrt(w[keep]), V[:, keep]
        U = _gram_left(A, s, V, RESIDUAL_TOL * np.sqrt(w[-1]))
        if U is None:
            return None
        route, gapped = "gram", _gapped(w[::-1], keep.size)
    return (U, s, V, route, gapped) if A is D else (V, s, U, route, gapped)


def _gram_block(A: np.ndarray, G: np.ndarray, lam: float, B: np.ndarray):
    """(U, S, V) holding exactly the singular triplets of A with S > lam, or
    None: block subspace iteration with Rayleigh-Ritz on G = A^T A from the
    orthonormal block B, for at most GRAM_STEPS steps. A step's Ritz values
    theta > lam^2 are kept once

    (a) every kept triplet has ||A^T u - v s|| <= RESIDUAL_TOL * s_1, with
        s = sqrt(theta), u = A v / s (else the next step runs);
    (b) no theta lies within n * eps * theta_1 of lam^2 (else None);
    (c) (lam^2 - n * eps * theta_1) I - (G - V_k diag(theta_k) V_k^T) has a
        Cholesky factorization (else None).

    By Cauchy interlacing the k kept theta lie below the top k eigenvalues of
    G, and by Weyl's inequality its (k+1)-th lies below the largest of
    G - V_k diag(theta_k) V_k^T, so (c) proves that exactly k singular
    values of A exceed lam. The block gains about (s_{k+1} / s_k)^2 per
    step: a narrow block is worth a step only below a gap.
    """
    n, lam2 = G.shape[0], lam * lam
    GB = G @ B
    for _ in range(GRAM_STEPS):
        Q, _ = np.linalg.qr(GB)
        GQ = G @ Q
        theta, W = np.linalg.eigh(Q.T @ GQ)  # ascending
        B, GB = Q @ W, GQ @ W  # the Ritz vectors and the next step's product
        band = n * np.finfo(float).eps * theta[-1]
        if np.any(np.abs(theta - lam2) <= band):
            return None
        keep = np.flatnonzero(theta > lam2)[::-1]
        s, V = np.sqrt(theta[keep]), B[:, keep]
        U = _gram_left(A, s, V, RESIDUAL_TOL * np.sqrt(theta[-1]))
        if U is None:
            continue
        C = (V * theta[keep]) @ V.T - G
        C.flat[::n + 1] += lam2 - band
        try:
            np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            return None
        return U, s, V
    return None


def _gram_left(A: np.ndarray, s: np.ndarray, V: np.ndarray, tol: float):
    """U = A V / s, or None unless every triplet has ||A^T u - v s|| <= tol."""
    U = (A @ V) / s
    if np.any(np.linalg.norm(A.T @ U - V * s, axis=0) > tol):
        return None
    return U


@functools.lru_cache(maxsize=8)
def fixed_normal(shape: tuple) -> np.ndarray:
    """FILL_SEED's Philox normals in `shape`, drawn once per shape and shared read-only."""
    draw = Generator(Philox(FILL_SEED)).standard_normal(shape)
    draw.flags.writeable = False
    return draw


def norm_estimate(A: np.ndarray) -> float:
    """Estimate of ||A||_2 from NORM_POWER_STEPS power steps on A^T A from a
    fixed Philox start: a lower bound, homogeneous in A, with no SVD, and 0
    when the start is orthogonal to A's row space. A^T A squares the scale,
    so solve passes A at unit scale, max|A_ij| in [1/2, 1)."""
    v = fixed_normal((A.shape[1],))
    for _ in range(NORM_POWER_STEPS):
        v = A.T @ (A @ v)
        v /= np.linalg.norm(v) or 1.0
    return float(np.linalg.norm(A @ v))


@dataclass(frozen=True)
class Shrinkage:
    """A shrink M = U @ diag(S) @ V.T: S holds the nonzero shrunk singular
    values and V their right singular vectors (the next shrink's warm
    start); `route` and `gapped` are the SvdTriplet's (the next shrink's
    gate for the Gram block)."""

    M: np.ndarray
    S: np.ndarray
    V: np.ndarray
    route: str
    gapped: bool = False

    @property
    def rank(self) -> int:
        return self.S.size


def shrink_singular_values(D: np.ndarray, penalty: Penalty,
                           start: np.ndarray | None = None, scale: float = 1.0,
                           gapped: bool = False) -> Shrinkage:
    """The Shrinkage M = U @ diag(P(sigma_i)) @ V.T of D, where P(x) =
    scale * prox(x / scale) is the penalty's prox scaled to threshold
    lam = scale * penalty.lam.

    Any input with spectral norm <= lam maps to the zero matrix. Without
    `start` this is the dense SVD. With `start`, the right singular vectors
    of the previous shrink's kept values (n x 0 at first), only the values
    above lam are computed when a route certifies (see `SvdTriplet.of`);
    `gapped` is the previous shrink's.
    A non-finite D is a NonFiniteInput. Non-finite factors (at a tiny
    scale the shrunk values overflow) are a NonFiniteIterate, raised before
    M is formed; finite ones make M finite (|M_ij| <= max S).
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {D.shape}")
    if not np.isfinite(D).all():
        raise NonFiniteInput("matrix contains NaN or inf")
    svd = SvdTriplet.of(D, above=scale * penalty.lam, start=start, gapped=gapped)
    with np.errstate(all="ignore"):  # an overflow or nan fails the check below, typed
        s = scale * prox_eval(penalty, svd.S / scale)
    if not (np.isfinite(s).all() and np.isfinite(svd.U).all() and np.isfinite(svd.V).all()):
        raise NonFiniteIterate(f"shrunk factors not finite at scale {scale!r}")
    keep = s != 0.0
    return Shrinkage((svd.U * s) @ svd.V.T, s[keep], svd.V[:, keep], svd.route, svd.gapped)
