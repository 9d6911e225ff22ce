"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete. The solver criteria run at the protocol scale and take a
few minutes in total.
"""

import time

import numpy as np
import pytest

from sirmc import (
    bench,
    gen_synthetic,
    loss_eval,
    moreau_argmin_oracle,
    phase_sweep,
    prox_eval,
    runtime_bench,
    shrink_singular_values,
    soft_threshold,
    solve,
    SyntheticSpec,
)
from sirmc.cli import main

from conftest import boundary_penalties, nonconvex_penalties

pytestmark = pytest.mark.acceptance

GRID_STEP = 1.0 / 200


def _report(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


def test_01_prox_oracle_equivalence():
    xs = np.linspace(-5.0, 5.0, 50)
    t0 = time.perf_counter()
    worst_arg = worst_val = 0.0
    for p in boundary_penalties():
        argmin, minval = moreau_argmin_oracle(p, xs)
        worst_arg = max(worst_arg, float(np.max(np.abs(argmin - np.asarray(prox_eval(p, xs))))))
        worst_val = max(worst_val, float(np.max(np.abs(minval - np.asarray(loss_eval(p, xs))))))
    elapsed = time.perf_counter() - t0
    ok = worst_arg <= GRID_STEP and worst_val <= 1e-4 and elapsed < 60.0
    _report(1, "Moreau-envelope oracle agrees with closed-form prox/loss", ok,
            f"argmin gap {worst_arg:.2e} <= {GRID_STEP}, value gap {worst_val:.2e} <= 1e-4, "
            f"{elapsed:.1f}s")
    assert ok


def test_02_moreau_gradient_identity():
    h = 1e-4
    worst = 0.0
    for p in boundary_penalties():
        xs = np.linspace(-5.0, 5.0, 200)
        xs = xs[np.minimum(np.abs(xs - p.lam), np.abs(xs + p.lam)) > 1e-3]
        fd = (np.asarray(loss_eval(p, xs + h)) - np.asarray(loss_eval(p, xs - h))) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - (xs - np.asarray(prox_eval(p, xs)))))))
    ok = worst <= 1e-5
    _report(2, "d/dx loss = x - prox(x) by central differences", ok,
            f"max gap {worst:.2e} <= 1e-5")
    assert ok


def test_03_sir_property_suite():
    checks = []
    grid = np.linspace(-10.0, 10.0, 10001)
    for p in boundary_penalties():
        vals = np.asarray(prox_eval(p, grid))
        checks.append(np.array_equal(np.asarray(prox_eval(p, -grid)), -vals))  # odd, exact
        checks.append(bool(np.all(np.diff(vals) >= 0.0)))                      # monotone
        inside = np.abs(grid) <= p.lam
        checks.append(bool(np.all(vals[inside] == 0.0)))                       # prox=0 inside
        checks.append(bool(np.all(vals[~inside] != 0.0)))                      # nonzero outside
        checks.append(prox_eval(p, p.lam) == 0.0 and p.lam - prox_eval(p, p.lam) == p.lam)
    xs = np.linspace(1.0, 10.0, 2001)
    soft_vals = np.asarray(prox_eval(soft_threshold(1.0), xs))
    for p in nonconvex_penalties():
        b = xs - np.asarray(prox_eval(p, xs))
        checks.append(bool(np.all(b <= p.lam + 1e-12)))
        checks.append(bool(np.all(np.diff(b) <= 1e-12)))
        checks.append(bool(np.all(np.asarray(prox_eval(p, xs)) >= soft_vals - 1e-12)))
    ok = all(checks)
    _report(3, "oddness, monotonicity, thresholding, bias dominance, bias(lam)=lam",
            ok, f"{sum(checks)}/{len(checks)} checks")
    assert ok


def test_04_spectral_shrinkage():
    rng = np.random.Generator(np.random.Philox(2024))
    worst_spec = worst_unit = 0.0
    for p in boundary_penalties():
        for _ in range(20):
            D = rng.standard_normal((30, 20)) * 2.0
            out = shrink_singular_values(D, p).M
            s_in = np.linalg.svd(D, compute_uv=False)
            s_out = np.linalg.svd(out, compute_uv=False)
            expected = np.sort(np.asarray(prox_eval(p, s_in)))[::-1]
            worst_spec = max(worst_spec, float(np.max(np.abs(s_out - expected))))
            Q1, _ = np.linalg.qr(rng.standard_normal((30, 30)))
            Q2, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            direct = shrink_singular_values(Q1 @ D @ Q2.T, p).M
            worst_unit = max(worst_unit, float(np.max(np.abs(direct - Q1 @ out @ Q2.T))))
    ok = worst_spec <= 1e-8 and worst_unit <= 1e-8
    _report(4, "spectrum contract and unitary invariance on 20 random 30x20 per penalty",
            ok, f"spec {worst_spec:.2e}, unitary {worst_unit:.2e}, tol 1e-8")
    assert ok


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
            "--seed", "424242", "--deterministic", "--mu", "1.3",
            "--max-iters", "150"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _report(9, "seeded sweep CSV is byte-identical across runs in deterministic mode",
            ok, f"{a.stat().st_size} bytes compared")
    assert ok
