"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The solver criteria run at the protocol scale and take a
few minutes in total.
"""

import time

import numpy as np
import pytest

from sirmc import SyntheticSpec, bench, gen_synthetic, phase_sweep, runtime_bench, selftest, solve
from sirmc.cli import main

pytestmark = pytest.mark.acceptance

def _report(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


# Criteria 1-4 are the selftest suites, each reported from its own detail.
def _run_suites(num, desc, *suites):
    results = [suite() for suite in suites]
    ok = all(r.passed for r in results)
    _report(num, desc, ok, "; ".join(r.detail for r in results))
    return ok


def test_01_prox_oracle_equivalence():
    t0 = time.perf_counter()
    result = selftest.suite_moreau_oracle()
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 60.0
    _report(1, "Moreau-envelope oracle agrees with closed-form prox/loss", ok,
            f"{result.detail}, {elapsed:.1f}s < 60s")
    assert ok


def test_02_moreau_gradient_identity():
    assert _run_suites(2, "d/dx loss = x - prox(x) by central differences, loss C1 and even",
                       selftest.suite_loss_smoothness)


def test_03_sir_property_suite():
    assert _run_suites(3, "oddness, thresholding, monotonicity, bias dominance, bias(lam)=lam",
                       selftest.suite_oddness, selftest.suite_thresholding,
                       selftest.suite_monotone, selftest.suite_bias_dominance)


def test_04_spectral_shrinkage():
    assert _run_suites(4, "spectrum contract and unitary invariance", selftest.suite_spectral)


@pytest.mark.slow
def test_05_algorithm_convergence():
    spec = SyntheticSpec(m=300, n=200, f_r=0.05, f_m=0.3, seed=20240501)
    assert spec.rank == 10
    _, X_obs = gen_synthetic(spec)
    ok = True
    details = []
    for method in ("how", "hoc", "hog", "nnm"):
        # xi below the 1e-7 target keeps the trace running into the settled
        # regime so the final-window increment check is meaningful.
        cfg = bench.config_for_method(method, xi=1e-9, max_iters=1000)
        t0 = time.perf_counter()
        M, trace = solve(X_obs, cfg)
        elapsed = time.perf_counter() - t0
        rel = np.asarray(trace.rel_e)
        crossed = np.nonzero(rel <= 1e-7)[0]
        reached = crossed.size > 0 and crossed[0] + 1 <= 1000
        window = trace.delta_m[-10:]
        settled = max(window) < 1e-6 * trace.norm_x
        decreasing = window[-1] <= window[0]
        ok = ok and reached and settled and decreasing
        details.append(f"{method}: rel_E<=1e-7 at {crossed[0] + 1 if crossed.size else '-'}, "
                       f"max|dM| last10 {max(window):.1e}, "
                       f"final ||M||_F={np.linalg.norm(M):.0f}, {elapsed:.0f}s")
    _report(5, "every solver reaches rel_E <= 1e-7 within 1000 iterations with "
               "settled estimate increments", ok, "; ".join(details))
    assert ok


@pytest.mark.slow
def test_06_exact_recovery_protocol():
    grid = phase_sweep((0.05,), (0.3,), ("how",), trials=20, m=300, n=200,
                       seed=20240601, threads=2)
    rate = float(grid.success_rate[0, 0, 0])
    ok = rate >= 0.9
    _report(6, "MC-HOW success rate over 20 trials at (f_r=0.05, f_m=0.3), "
               "RMSE < 1e-3 threshold", ok, f"rate {rate:.2f} >= 0.9")
    assert ok


@pytest.mark.slow
def test_07_regularizer_ordering():
    # Qualitative ordering over a 4x4 transition preset; the schedule is
    # shortened (mu=1.10) and the instance scaled to 150x100 to keep the
    # 320-solve sweep desk-sized. Failure here warrants investigation, not
    # tolerance tweaks.
    methods = ("how", "nnm")
    configs = {m: bench.config_for_method(m, mu=1.10, max_iters=250) for m in methods}
    grid = phase_sweep(bench.TRANSITION_FR, bench.TRANSITION_FM, methods, trials=10,
                       m=150, n=100, seed=20240701, configs=configs, threads=2)
    how_cells = grid.success_cells("how")
    nnm_cells = grid.success_cells("nnm")
    ok = how_cells >= nnm_cells
    _report(7, "MC-HOW success region at least as large as NNM on the 4x4 sweep",
            ok, f"cells with rate >= 0.5: MC-HOW {how_cells}, NNM {nnm_cells}")
    assert ok


@pytest.mark.slow
def test_08_runtime_sanity():
    methods = ("nnm", "how", "hoc", "hog")
    # Equal-length runs (tiny xi, fixed cap) make per-iteration cost directly
    # comparable; a warmup solve absorbs BLAS/cache spin-up.
    configs = {m: bench.config_for_method(m, xi=1e-30, max_iters=120) for m in methods}
    _, X_warm = gen_synthetic(SyntheticSpec(m=300, n=200, f_r=0.05, f_m=0.1, seed=1))
    solve(X_warm, bench.config_for_method("nnm", xi=1e-30, max_iters=30))
    ranks = (10, 30)
    grid = runtime_bench(ranks, methods, trials=2, f_m=0.1, m=300, n=200,
                         seed=20240801, configs=configs)
    per_iter = (grid.cell_mean(lambda r: r.wall_time)[:, 0]
                / np.maximum(grid.cell_mean(lambda r: r.iters)[:, 0], 1))
    ok = True
    rows = []
    for i, rank in enumerate(ranks):
        base = per_iter[i, 0]  # nnm
        for k, method in enumerate(methods[1:], start=1):
            ratio = per_iter[i, k] / base
            ok = ok and ratio <= 1.5
            rows.append(f"r={rank} {method}/nnm={ratio:.2f}")
    _report(8, "per-iteration time of MC-HOW/HOC/HOG within 1.5x of NNM", ok,
            "; ".join(rows))
    assert ok


def test_09_sweep_determinism(tmp_path):
    args = ["sweep", "--fr-values", "0.1", "--fm-values", "0.2,0.4",
            "--trials", "2", "--methods", "how,nnm", "--m", "30", "--n", "20",
            "--seed", "424242", "--mu", "1.3", "--max-iters", "150"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--threads", "1", "--out", str(a)])
    code_b = main(args + ["--threads", "2", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(9, "seeded sweep CSV is byte-identical on 1 and 2 trial threads",
            ok, f"{a.stat().st_size} bytes compared")
    assert ok
