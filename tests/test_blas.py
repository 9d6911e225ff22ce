"""The OpenBLAS thread count: get, limit and restore on the main thread only,
and the one rule of the count a solve gets (per_solve), alone, in a single
solve and in a sweep pool."""

import sys
import threading

import pytest

import sirmc.bench as bench
from sirmc import blas, completion, gen_synthetic, phase_sweep, SyntheticSpec

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the library is found through /proc/self/maps")

FAST = dict(mu=1.3, max_iters=60, xi=1e-7)
FAST_CONFIG = bench.config_for_method("how", **FAST)


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


def test_per_solve_rule(monkeypatch):
    monkeypatch.setattr(blas, "cpus", lambda: 8)
    serial = blas.SERIAL_ENTRIES
    assert blas.per_solve(serial) == blas.per_solve(serial, 3) == 1
    assert blas.per_solve(serial + 1) == 8
    assert blas.per_solve(serial + 1, 3) == 2
    assert blas.per_solve(serial + 1, 9) == blas.per_solve(serial + 1, 100) == 1
    monkeypatch.setattr(blas, "SERIAL_ENTRIES", 0)  # read at call time
    assert blas.per_solve(1, 2) == 4


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
    monkeypatch.setattr(blas, "SERIAL_ENTRIES", 0)  # share out, as for a large matrix
    before = blas.threads()
    share = min(before, max(1, blas.cpus() // 2))
    assert _sweep_seeing_threads(monkeypatch, threads=2) == {share}
    assert blas.threads() == before
    # An outer limit stays in force inside the pool.
    with blas.limit(1):
        assert _sweep_seeing_threads(monkeypatch, threads=2) == {1}


def test_sequential_sweep_keeps_the_count(monkeypatch):
    # In turn, each task (its draw and RMSE too) runs under the count a lone
    # solve gets: one thread at this size, as in a pool, so the two agree.
    before = blas.threads()
    assert _sweep_seeing_threads(monkeypatch, threads=1) == {min(before, 1)}
    assert blas.threads() == before
    monkeypatch.setattr(blas, "SERIAL_ENTRIES", 0)  # as for a large matrix
    assert _sweep_seeing_threads(monkeypatch, threads=1) == {min(before, blas.cpus())}
    assert blas.threads() == before


# The thread rule of a single solve: one BLAS thread at most SERIAL_ENTRIES
# entries, set only on the main thread.

def _small_instance():
    return gen_synthetic(SyntheticSpec(m=20, n=15, f_r=0.1, f_m=0.3, seed=9))[1]


def _spy_update_m(monkeypatch, fail_at=None):
    """BLAS thread counts each update_m of a solve ran under; the update
    numbered fail_at raises instead of returning."""
    real, seen = completion.update_m, []

    def spy(*args):
        seen.append(blas.threads())
        if len(seen) == fail_at:
            raise RuntimeError("update failed")
        return real(*args)

    monkeypatch.setattr(completion, "update_m", spy)
    return seen


def _spy_setter(monkeypatch):
    """Threads that call the library's thread-count setter."""
    get, put = blas._library()
    callers = []

    def spy(n):
        callers.append(threading.current_thread())
        put(n)

    monkeypatch.setattr(blas, "_library", lambda: (get, spy))
    return callers


def test_limit_off_the_main_thread_never_sets_the_count(monkeypatch):
    before = blas.threads()
    callers = _spy_setter(monkeypatch)
    seen = []

    def body():
        with blas.limit(1):
            seen.append(blas.threads())

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    assert callers == [] and seen == [before]


def _two_threads():
    if blas.threads() < 2:
        pytest.skip("one BLAS thread in effect; a limit to 1 cannot be seen")
    return blas.threads()


def test_pool_of_small_solves_runs_one_thread(monkeypatch):
    before = _two_threads()
    # Without the size rule, the pool's share would leave each solve `before`.
    monkeypatch.setattr(blas, "cpus", lambda: 4 * before)
    assert _sweep_seeing_threads(monkeypatch, threads=2) == {1}
    assert blas.threads() == before


def test_small_solve_runs_on_one_thread_and_restores(monkeypatch):
    before = _two_threads()
    seen = _spy_update_m(monkeypatch)
    _, trace = completion.solve(_small_instance(), FAST_CONFIG)
    assert seen == [1] * trace.iters and trace.blas_threads == 1
    assert blas.threads() == before
    seen = _spy_update_m(monkeypatch, fail_at=3)
    with pytest.raises(RuntimeError):
        completion.solve(_small_instance(), FAST_CONFIG)
    assert seen == [1, 1, 1]
    assert blas.threads() == before


def test_small_solve_starts_under_its_own_count():
    # ||P_O X||_F is a threaded dot product: on this instance its last bit,
    # and so every rel_E, changes with the count it is taken under.
    _two_threads()
    X = gen_synthetic(SyntheticSpec(m=300, n=200, f_r=0.05, f_m=0.3, seed=10))[1]
    _, default = completion.solve(X, FAST_CONFIG)
    with blas.limit(1):
        _, single = completion.solve(X, FAST_CONFIG)
    assert single.norm_x == default.norm_x and single.rel_e == default.rel_e


def test_solve_above_serial_entries_keeps_the_count(monkeypatch):
    before = _two_threads()
    monkeypatch.setattr(blas, "SERIAL_ENTRIES", 20 * 15 - 1)
    seen = _spy_update_m(monkeypatch)
    _, trace = completion.solve(_small_instance(), FAST_CONFIG)
    assert seen == [before] * trace.iters and trace.blas_threads == before
    with blas.limit(1):
        seen.clear()
        completion.solve(_small_instance(), FAST_CONFIG)
        assert set(seen) == {1}


def test_pool_workers_never_set_the_count(monkeypatch):
    callers = _spy_setter(monkeypatch)
    phase_sweep((0.1,), (0.2, 0.4), ("how",), trials=2, m=20, n=15, seed=3,
                configs={"how": FAST_CONFIG}, threads=2)
    assert callers and set(callers) == {threading.main_thread()}


def test_solve_off_the_main_thread_leaves_the_count(monkeypatch):
    before = _two_threads()
    callers = _spy_setter(monkeypatch)
    seen = _spy_update_m(monkeypatch)
    out = []
    worker = threading.Thread(
        target=lambda: out.append(completion.solve(_small_instance(), FAST_CONFIG)))
    worker.start()
    worker.join()
    assert out and callers == []
    assert seen == [before] * out[0][1].iters and out[0][1].blas_threads == before
