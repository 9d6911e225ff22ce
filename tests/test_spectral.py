"""Singular-value shrinkage: spectrum contract and unitary invariance."""

import math
from collections import Counter

import numpy as np
import pytest

from sirmc import (SvdTriplet, bench, how, prox_eval, shrink_singular_values, soft_threshold,
                   solve, spectral)
from sirmc.errors import NonFiniteInput, NonFiniteIterate, SvdFailure
from sirmc.spectral import norm_estimate
from sirmc import selftest, spectral
from sirmc.selftest import TRUNCATION_CASES, planted


def _rand_orthogonal(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q


def test_svd_triplet_invariants(rng):
    D = rng.standard_normal((9, 6))
    t = SvdTriplet.of(D)
    k = min(D.shape)
    assert np.max(np.abs(t.U.T @ t.U - np.eye(k))) <= 1e-10
    assert np.max(np.abs(t.V.T @ t.V - np.eye(k))) <= 1e-10
    assert np.all(np.diff(t.S) <= 0.0) and np.all(t.S >= 0.0)
    assert np.max(np.abs((t.U * t.S) @ t.V.T - D)) <= 1e-12


def test_diagonal_example():
    D = np.diag([3.0, 1.5, 0.5])
    out = shrink_singular_values(D, how(1.0)).M
    expected = np.diag([3.0 - 3.0 * math.exp(-4.0),
                        1.5 - 1.5 * math.exp(-0.625),
                        0.0])
    assert np.allclose(out, expected, atol=1e-12)


def test_zero_matrix_maps_to_zero():
    assert np.array_equal(shrink_singular_values(np.zeros((4, 7)), how(1.0)).M,
                          np.zeros((4, 7)))


def test_rotated_diagonal_example(rng):
    D0 = np.diag([3.0, 1.5, 0.5])
    Q1 = _rand_orthogonal(rng, 3)
    Q2 = _rand_orthogonal(rng, 3)
    expected = Q1 @ np.diag([3.0 - 3.0 * math.exp(-4.0),
                             1.5 - 1.5 * math.exp(-0.625),
                             0.0]) @ Q2.T
    out = shrink_singular_values(Q1 @ D0 @ Q2.T, how(1.0)).M
    assert np.max(np.abs(out - expected)) <= 1e-8


def test_spectrum_contract(rng, penalty):
    for _ in range(5):
        D = rng.standard_normal((12, 9)) * 2.0
        out = shrink_singular_values(D, penalty).M
        s_in = np.linalg.svd(D, compute_uv=False)
        s_out = np.linalg.svd(out, compute_uv=False)
        expected = np.sort(np.asarray(prox_eval(penalty, s_in)))[::-1]
        assert np.max(np.abs(s_out - expected)) <= 1e-8


def test_unitary_invariance(rng, penalty):
    for _ in range(5):
        D = rng.standard_normal((10, 6)) * 1.5
        Q1 = _rand_orthogonal(rng, 10)
        Q2 = _rand_orthogonal(rng, 6)
        direct = shrink_singular_values(Q1 @ D @ Q2.T, penalty).M
        rotated = Q1 @ shrink_singular_values(D, penalty).M @ Q2.T
        assert np.max(np.abs(direct - rotated)) <= 1e-8


def test_subthreshold_spectral_norm_maps_to_zero(rng, penalty):
    D = rng.standard_normal((8, 5))
    D *= 0.9 / np.linalg.norm(D, 2)  # spectral norm below lam = 1
    assert np.array_equal(shrink_singular_values(D, penalty).M, np.zeros((8, 5)))


def test_rank_never_increases(rng, penalty):
    for _ in range(5):
        U = rng.standard_normal((10, 3))
        V = rng.standard_normal((3, 7))
        D = U @ V
        out = shrink_singular_values(D, penalty).M
        rank_in = np.sum(np.linalg.svd(D, compute_uv=False) > 1e-10)
        rank_out = np.sum(np.linalg.svd(out, compute_uv=False) > 1e-10)
        assert rank_out <= rank_in


def test_soft_matches_independent_svt(rng):
    D = rng.standard_normal((9, 9)) * 2.0
    lam = 0.8
    U, s, Vh = np.linalg.svd(D, full_matrices=False)
    svt = U @ np.diag(np.maximum(s - lam, 0.0)) @ Vh
    out = shrink_singular_values(D, soft_threshold(lam)).M
    assert np.max(np.abs(out - svt)) <= 1e-10


def test_nonfinite_rejected():
    D = np.ones((3, 3))
    D[1, 1] = np.nan
    with pytest.raises(NonFiniteInput):
        shrink_singular_values(D, how(1.0))


@pytest.mark.parametrize("start", [None, np.zeros((3, 0))], ids=["dense", "warm"])
def test_nonfinite_factors_are_a_typed_error(start):
    # At scale 1e-310 the shrunk values overflow to inf. The shrink raises
    # before forming M from them, and with no RuntimeWarning (an error here).
    with pytest.raises(NonFiniteIterate):
        shrink_singular_values(10 * np.eye(3), soft_threshold(1.0), start=start, scale=1e-310)


def test_svd_backend_failure_wrapped(monkeypatch):
    def no_converge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_converge)
    with pytest.raises(SvdFailure):
        shrink_singular_values(np.ones((3, 3)), how(1.0))


def test_non_2d_rejected():
    with pytest.raises(ValueError):
        shrink_singular_values(np.ones(5), how(1.0))


# Warm-started shrinkage: the truncated SVD against the dense oracle.

def _matches_dense(D, penalty, start):
    """The warm-started shrink keeps exactly the values the dense SVD keeps
    and agrees with the dense shrink within 1e-10 * sigma_1."""
    out = shrink_singular_values(D, penalty, start=start)
    s = SvdTriplet.of(D).S  # the dense shrink's own spectrum, rounding included
    assert out.rank == np.count_nonzero(prox_eval(penalty, s))
    assert np.max(np.abs(out.M - shrink_singular_values(D, penalty).M)) <= 1e-10 * s[0]
    return out


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_truncated_matches_dense_on_planted_spectra(rng, penalty, case):
    # Cases: 40 values at 1.001 lam seen from a 10-column warm start, a
    # block that saturates, values exactly at lam, a rank-deficient input,
    # a warm start wider than the truncated block allows.
    values, width = TRUNCATION_CASES[case]
    D, V = planted(rng, values)
    out = _matches_dense(D, penalty, V[:, :width])
    if case in ("separated", "rank_deficient"):
        assert out.route == "truncated"  # the fast path ran
    if case in ("cluster_above", "saturated", "wide_warm"):
        assert out.route == "gram"


def test_selftest_planted_cases_take_every_route(monkeypatch):
    # The selftest's warm shrinks are the referee of every fast route: a route
    # that no planted case reaches would go unchecked there.
    taken = Counter()

    def spy(D, penalty, start=None, **kwargs):
        out = shrink_singular_values(D, penalty, start=start, **kwargs)
        taken[out.route] += start is not None
        return out

    monkeypatch.setattr(selftest, "shrink_singular_values", spy)
    assert selftest.suite_truncated_shrink().passed
    assert {route: taken[route] for route in spectral.ROUTES} == {
        "truncated": 8, "gram_block": 4, "gram": 8, "dense": 4}


@pytest.mark.parametrize("scale", [0.0, 0.9])
def test_truncated_frobenius_shortcut_is_bitwise_dense(rng, penalty, scale):
    # ||D||_F <= lam = 1, so nothing survives: the truncated route certifies
    # the empty result, the zero matrix, byte for byte the dense one.
    D = rng.standard_normal((200, 120))
    D *= scale / np.linalg.norm(D)
    out = shrink_singular_values(D, penalty, start=np.zeros((120, 0)))
    assert out.rank == 0 and out.route == "truncated"
    assert out.M.tobytes() == shrink_singular_values(D, penalty).M.tobytes()


def test_truncated_nonfinite_rejected(rng):
    D, V = planted(rng, [3.0, 2.0])
    D[5, 7] = np.inf
    with pytest.raises(NonFiniteInput):
        shrink_singular_values(D, how(1.0), start=V[:, :2])


def test_truncated_is_deterministic(rng):
    D, V = planted(rng, TRUNCATION_CASES["separated"][0])  # 12 values above lam
    first = shrink_singular_values(D, how(1.0), start=V[:, :4])
    np.random.seed(7)
    np.random.standard_normal(1000)  # the fill must not come from global state
    again = shrink_singular_values(D, how(1.0), start=V[:, :4])
    assert first.route == "truncated"
    for a, b in ((first.M, again.M), (first.S, again.S), (first.V, again.V)):
        assert a.tobytes() == b.tobytes()


def test_truncated_triplet_invariants(rng):
    D, V = planted(rng, TRUNCATION_CASES["separated"][0])  # 12 values above lam
    t = SvdTriplet.of(D, above=1.0, start=V[:, :12])
    assert t.route != "dense" and t.S.size == 12
    assert np.all(np.diff(t.S) <= 0.0) and np.all(t.S > 1.0)
    assert np.max(np.abs(t.U.T @ t.U - np.eye(12))) <= 1e-12
    assert np.max(np.abs(t.V.T @ t.V - np.eye(12))) <= 1e-12
    assert np.max(np.abs(D @ t.V - t.U * t.S)) <= 1e-10 * t.S[0]


# The route is chosen once, in SvdTriplet.of.

def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's result."""
    calls, real = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_warm_start_too_wide_to_truncate_goes_to_gram(rng, monkeypatch):
    # BLOCK_DIVISOR blocks of 40 + OVERSAMPLE columns exceed 120.
    values, width = TRUNCATION_CASES["wide_warm"]
    D, V = planted(rng, values)
    assert spectral.BLOCK_DIVISOR * (width + spectral.OVERSAMPLE) > min(D.shape)
    truncated = _spy(monkeypatch, spectral, "_truncated_svd")
    out = _matches_dense(D, how(1.0), V[:, :width])
    assert truncated == [] and out.route == "gram"


def test_saturated_block_gives_up_after_one_block(rng, monkeypatch):
    # 15 values above lam against a 2 + OVERSAMPLE column block: every Ritz
    # value of the first step lies above lam, so the Gram route takes over.
    values, width = TRUNCATION_CASES["saturated"]
    D, V = planted(rng, values)
    truncated = _spy(monkeypatch, spectral, "_truncated_svd")
    qr = _spy(monkeypatch, np.linalg, "qr")
    out = _matches_dense(D, how(1.0), V[:, :width])
    assert truncated == [None] and len(qr) == 1 and out.route == "gram"


def test_small_warm_shrink_takes_no_route_before_lapack(rng, monkeypatch):
    # 10 x 8 has at most DENSE_ENTRIES entries: LAPACK decides every shrink.
    start = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    routes = [_spy(monkeypatch, spectral, name) for name in ("_truncated_svd", "_gram_svd")]
    svd = _spy(monkeypatch, np.linalg, "svd")
    D = rng.standard_normal((10, 8))
    D *= 0.9 / np.linalg.norm(D)  # nothing survives, and still LAPACK decides it
    out = SvdTriplet.of(D, above=1.0, start=start)
    assert out.route == "dense" and len(svd) == 1 and routes == [[], []]
    assert np.all(out.S <= 1.0)
    out = SvdTriplet.of(D * 10.0, above=1.0, start=start)
    assert out.route == "dense" and len(svd) == 2 and routes == [[], []]


# Each shape's route: LAPACK at DENSE_ENTRIES or fewer, the truncated SVD
# while BLOCK_DIVISOR blocks of k + OVERSAMPLE columns fit in min(m, n),
# else the Gram side; every result against the dense shrink.
@pytest.mark.parametrize("m, n, k, route", [
    (10, 8, 2, "dense"), (60, 40, 2, "dense"),
    (4000, 40, 2, "gram"), (1000, 80, 2, "gram"), (150, 100, 5, "gram"),
    (300, 200, 10, "truncated"), (300, 200, 40, "gram")])
def test_route_follows_the_shape(rng, m, n, k, route):
    values = list(np.linspace(8.0, 1.5, k)) + list(np.linspace(0.9, 0.1, min(m, n) - k))
    D, V = planted(rng, values, m, n)
    out = _matches_dense(D, how(1.0), V[:, :k])
    assert out.route == route and out.rank == k


def test_trace_route_counts_match_the_shrinks(monkeypatch):
    # At 150x100, rank 10, 65% missing, the solve takes three routes, none
    # truncated (after the first shrink BLOCK_DIVISOR blocks no longer fit
    # in 100); the trace holds one route per shrink, as SvdTriplet.of returned it.
    _, X_obs = bench.gen_synthetic(bench.SyntheticSpec(m=150, n=100, f_r=0.1, f_m=0.65, seed=1))
    of = SvdTriplet.__dict__["of"].__func__
    routes = Counter()

    def spy(cls, D, above=None, start=None, gapped=False):
        svd = of(cls, D, above, start, gapped)
        routes[svd.route] += 1
        return svd

    monkeypatch.setattr(SvdTriplet, "of", classmethod(spy))
    _, trace = solve(X_obs, bench.config_for_method("how", mu=1.10, max_iters=250))
    assert Counter(trace.route) == routes
    assert set(routes) == {"gram_block", "gram", "dense"}


# The Gram route against np.linalg.svd: kept values above lam = 1 planted
# within 1e-8 relative of it, on both sides, in a tall and a wide matrix.
NEAR_LAM = list(np.linspace(6.0, 1.5, 30)) + [1 + 1e-8, 1 - 1e-8] + list(np.linspace(0.9, 0.1, 40))


def _matches_lapack(D, U, S, V):
    """(U, S, V) holds exactly the triplets of D with S above lam = 1, within
    1e-10 * sigma_1 of np.linalg.svd's values, with residuals that small
    both ways."""
    s = np.linalg.svd(D, compute_uv=False)
    assert U.shape == (D.shape[0], S.size) and V.shape == (D.shape[1], S.size)
    assert S.size == np.count_nonzero(s > 1.0)
    assert np.all(np.diff(S) <= 0.0)
    assert np.max(np.abs(S - s[:S.size])) <= 1e-10 * s[0]
    assert np.max(np.abs(D @ V - U * S)) <= 1e-10 * s[0]
    assert np.max(np.abs(D.T @ U - V * S)) <= 1e-10 * s[0]


@pytest.mark.parametrize("wide", [False, True])
def test_gram_route_matches_lapack_svd(rng, wide):
    D, _ = planted(rng, NEAR_LAM)
    D = D.T if wide else D
    U, S, V, route, _ = spectral._gram_svd(D, 1.0)
    assert route == "gram" and S.size == 31
    _matches_lapack(D, U, S, V)


@pytest.mark.parametrize("near", [1.0, 1 + 1e-15, 1 - 1e-15])
def test_gram_route_gives_up_near_lam(rng, near):
    # A value whose square lies within n * eps * s_1^2 of lam^2 may sit on
    # either side of lam in the Gram matrix's eigenvalues.
    D, V = planted(rng, [6.0, 3.0, near] + [0.5] * 30)
    assert spectral._gram_svd(D, 1.0) is None
    assert spectral._gram_svd(D.T, 1.0) is None
    out = shrink_singular_values(D, how(1.0), start=np.zeros((D.shape[1], 0)))
    assert out.route != "gram"


def test_gram_route_gives_up_on_blurred_small_values(rng):
    # Values 3e-7 * s_1, far enough above lam for the eigenvalue gap test,
    # but squaring blurs their vectors beyond RESIDUAL_TOL * s_1.
    D, _ = planted(rng, [5e6, 1.5, 1.4])
    w = np.linalg.eigvalsh(D.T @ D)
    assert np.all(np.abs(w - 1.0) > D.shape[1] * np.finfo(float).eps * w[-1])
    assert spectral._gram_svd(D, 1.0) is None


def test_gram_route_certifies_every_kept_triplet(rng, monkeypatch):
    D, _ = planted(rng, NEAR_LAM)
    assert spectral._gram_svd(D, 1.0) is not None
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-18)
    assert spectral._gram_svd(D, 1.0) is None


# The Gram block: 30 values above lam = 1 with a gap below them, (0.1 / 1.5)^2
# <= GAP, seen from a warm start one perturbation away from their vectors.
GAPPED = list(np.linspace(6.0, 1.5, 30)) + list(np.linspace(0.1, 0.01, 40))
FLAT = list(np.linspace(6.0, 1.5, 30)) + list(np.linspace(0.9, 0.1, 40))


def _warm(rng, D, k, noise=1e-3):
    """D's top k right singular vectors, perturbed by `noise` and orthonormalized."""
    V = np.linalg.svd(D)[2][:k].T
    return np.linalg.qr(V + noise * rng.standard_normal(V.shape))[0]


def _cholesky_calls(monkeypatch):
    """Count np.linalg.cholesky calls, the raising ones too."""
    calls, real = [], np.linalg.cholesky

    def spy(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return calls


@pytest.mark.parametrize("wide", [False, True])
def test_gram_block_matches_lapack_svd(rng, monkeypatch, wide):
    D, _ = planted(rng, GAPPED)
    D = D.T if wide else D
    eigh = _spy(monkeypatch, np.linalg, "eigh")
    U, S, V, route, gapped = spectral._gram_svd(D, 1.0, _warm(rng, D, 30))
    assert route == "gram_block" and gapped and S.size == 30
    assert all(w.size == 30 for w, _ in eigh)  # only Rayleigh-Ritz, no full eigh
    _matches_lapack(D, U, S, V)


@pytest.mark.parametrize("values, cols", [
    ([6.0, 5.0, 4.0, 3.0, 2.0] + [0.05] * 40, [0, 1, 3, 4]),  # 4.0 outside the block
    ([6.0, 5.0, 4.0, 3.0, 1.05] + [0.05] * 40, [0, 1, 2, 3]),  # the rank grows by one
])
def test_gram_block_refuses_a_value_outside_it(rng, monkeypatch, values, cols):
    # The start holds exact singular vectors, so every kept triplet passes
    # (a) at once; only the Cholesky certificate (c) sees the fifth value
    # above lam, and the full eigh of the same G finds it.
    D, V = planted(rng, values)
    cholesky = _cholesky_calls(monkeypatch)
    assert spectral._gram_block(D, D.T @ D, 1.0, V[:, cols]) is None
    assert cholesky == [(120, 120)]
    eigh = _spy(monkeypatch, np.linalg, "eigh")
    U, S, V, route, _ = spectral._gram_svd(D, 1.0, V[:, cols])
    assert route == "gram" and eigh[-1][0].size == 120
    _matches_lapack(D, U, S, V)


@pytest.mark.parametrize("near", [1.0, 1 + 1e-15, 1 - 1e-15])
def test_gram_block_gives_up_near_lam(rng, monkeypatch, near):
    # A Ritz value within n * eps * theta_1 of lam^2: (b) refuses it before
    # any certificate, and so does eigh, so the shrink runs the dense SVD.
    D, V = planted(rng, [6.0, 3.0, near] + [0.05] * 30)
    cholesky = _cholesky_calls(monkeypatch)
    assert spectral._gram_block(D, D.T @ D, 1.0, V[:, :3]) is None
    assert spectral._gram_svd(D, 1.0, V[:, :3]) is None
    assert cholesky == []
    out = shrink_singular_values(D, how(1.0), start=V[:, :3], gapped=True)
    assert out.route == "dense"


def test_gram_block_certifies_every_kept_triplet(rng, monkeypatch):
    # At RESIDUAL_TOL = 1e-18 (a) fails at every step: the block gives up
    # after GRAM_STEPS steps and never reaches its certificate.
    D, _ = planted(rng, GAPPED)
    start = _warm(rng, D, 30)
    assert spectral._gram_block(D, D.T @ D, 1.0, start) is not None
    monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-18)
    qr, cholesky = _spy(monkeypatch, np.linalg, "qr"), _cholesky_calls(monkeypatch)
    assert spectral._gram_block(D, D.T @ D, 1.0, start) is None
    assert len(qr) == spectral.GRAM_STEPS and cholesky == []


def test_gap_gate_follows_the_exact_spectrum(rng):
    # The dense SVD and eigh set the gate from the whole spectrum, the block
    # that certifies leaves it set, the truncated route clears it; the route
    # tries the block only when the previous shrink was gapped.
    gapped, V = planted(rng, GAPPED)
    flat, W = planted(rng, FLAT)
    assert SvdTriplet.of(gapped, above=1.0).gapped
    assert not SvdTriplet.of(flat, above=1.0).gapped
    assert not SvdTriplet.of(gapped).gapped  # no threshold, nothing kept
    for D, start, gap in ((gapped, V[:, :30], True), (flat, W[:, :30], False)):
        cold = SvdTriplet.of(D, above=1.0, start=start)
        assert (cold.route, cold.gapped) == ("gram", gap)
        warm = SvdTriplet.of(D, above=1.0, start=start, gapped=True)
        assert (warm.route, warm.gapped) == ("gram_block", True)
    values, width = TRUNCATION_CASES["separated"]
    D, V = planted(rng, values)
    out = SvdTriplet.of(D, above=1.0, start=V[:, :width], gapped=True)
    assert (out.route, out.gapped) == ("truncated", False)


def test_norm_estimate_is_a_homogeneous_lower_bound(rng):
    # Fixed power steps from a fixed Philox start: no global RNG state is
    # read or advanced, the result never exceeds ||A||_2 and scales with A.
    A = rng.standard_normal((30, 20)) * np.linspace(1.0, 0.1, 20)
    state = np.random.get_state()
    est = norm_estimate(A)
    assert np.array_equal(np.random.get_state()[1], state[1])
    s1 = np.linalg.norm(A, 2)
    assert 0.5 * s1 <= est <= s1 * (1 + 1e-12)
    assert norm_estimate(A) == est
    for c in (1e-6, 1e6):
        assert abs(norm_estimate(c * A) - c * est) <= 1e-13 * c * est
    assert norm_estimate(np.zeros((3, 2))) == 0.0


def test_fixed_normal_is_a_shared_read_only_fresh_draw(rng):
    # The fill block and norm_estimate's start are drawn once per shape and
    # shared: no caller may write to them, and they stay the fresh draw.
    D = rng.standard_normal((300, 200))
    shrink_singular_values(D, how(1.0), start=np.zeros((200, 0)), scale=5.0)
    norm_estimate(D)
    for shape in ((200, spectral.OVERSAMPLE), (200,)):
        block = spectral.fixed_normal(shape)
        assert spectral.fixed_normal(shape) is block
        fresh = np.random.Generator(np.random.Philox(spectral.FILL_SEED)).standard_normal(shape)
        assert np.array_equal(block, fresh)
        with pytest.raises(ValueError, match="read-only"):
            block[0] = 0.0
