"""The OpenBLAS thread count: get, limit and restore, and its share in a sweep pool."""

import sys

import pytest

import sirmc.bench as bench
from sirmc import blas, phase_sweep

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the library is found through /proc/self/maps")

FAST = dict(mu=1.3, max_iters=60, xi=1e-7)


def test_limit_sets_and_restores():
    before = blas.threads()
    assert before is not None and before >= 1
    with blas.limit(1):
        assert blas.threads() == 1
    assert blas.threads() == before


def test_limit_restores_when_body_raises():
    before = blas.threads()
    with pytest.raises(RuntimeError), blas.limit(1):
        raise RuntimeError("body failed")
    assert blas.threads() == before


def test_limit_never_raises_the_count():
    before = blas.threads()
    with blas.limit(before + 4):
        assert blas.threads() == before
    with blas.limit(1):
        with blas.limit(before + 4):
            assert blas.threads() == 1
        assert blas.threads() == 1
    assert blas.threads() == before


def test_unknown_library_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_library", lambda: None)
    assert blas.threads() is None
    with blas.limit(1):
        assert blas.threads() is None


def _sweep_seeing_threads(monkeypatch, threads):
    """BLAS thread counts that phase_sweep's solves ran under."""
    real_solve, seen = bench.solve, []

    def recording_solve(X, config):
        seen.append(blas.threads())
        return real_solve(X, config)

    monkeypatch.setattr(bench, "solve", recording_solve)
    configs = {"how": bench.config_for_method("how", **FAST)}
    phase_sweep((0.1,), (0.2, 0.4), ("how",), trials=2, m=20, n=15, seed=3,
                configs=configs, threads=threads)
    assert len(seen) == 4
    return set(seen)


def test_pool_shares_the_cpus(monkeypatch):
    before = blas.threads()
    share = min(before, max(1, blas.cpus() // 2))
    assert _sweep_seeing_threads(monkeypatch, threads=2) == {share}
    assert blas.threads() == before
    # An outer limit stays in force inside the pool.
    with blas.limit(1):
        assert _sweep_seeing_threads(monkeypatch, threads=2) == {1}


def test_sequential_sweep_keeps_the_count(monkeypatch):
    before = blas.threads()
    assert _sweep_seeing_threads(monkeypatch, threads=1) == {before}
    assert blas.threads() == before
