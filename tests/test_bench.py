"""Synthetic data generation, RMSE scoring, sweeps and the runtime table."""

import pathlib
import time
from collections import Counter

import numpy as np
import pytest

import sirmc.bench as bench
from sirmc import (IterTrace, SyntheticSpec, TrialReport, gen_synthetic, phase_sweep, rmse,
                   runtime_bench)
from sirmc.cli import main
from sirmc.errors import InvalidSpec, ShapeMismatch

REPO = pathlib.Path(__file__).resolve().parent.parent
FAST = dict(mu=1.3, max_iters=120, xi=1e-7)
FAST_SOLVER = ["--mu", "1.3", "--max-iters", "120"]


class TestSyntheticSpec:
    def test_counts_at_protocol_scale(self):
        spec = SyntheticSpec(m=300, n=200, f_r=0.05, f_m=0.3, seed=0)
        assert spec.rank == 10
        assert spec.n_observed == 42000

    def test_rank_floor_is_one(self):
        assert SyntheticSpec(m=30, n=20, f_r=0.01, f_m=0.0, seed=0).rank == 1

    def test_bad_fractions_rejected(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(m=10, n=10, f_r=0.0, f_m=0.1, seed=0)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(m=10, n=10, f_r=0.5, f_m=1.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec, match="seed must be >= 0"):
            SyntheticSpec(m=10, n=10, f_r=0.5, f_m=0.1, seed=-1)


class TestGenSynthetic:
    def test_rank_and_mask_cardinality(self):
        spec = SyntheticSpec(m=40, n=30, f_r=0.1, f_m=0.25, seed=3)
        X_full, X_obs = gen_synthetic(spec)
        sv = np.linalg.svd(X_full, compute_uv=False)
        assert sv[spec.rank - 1] / sv[0] > 1e-6
        assert np.all(sv[spec.rank:] / sv[0] < 1e-12)
        assert int((~X_obs.mask).sum()) == spec.n_missing == round(0.25 * 1200)

    def test_no_missing_when_fm_zero(self):
        spec = SyntheticSpec(m=5, n=4, f_r=0.5, f_m=0.0, seed=1)
        _, X_obs = gen_synthetic(spec)
        assert X_obs.mask.all()

    def test_deterministic_bitwise(self):
        spec = SyntheticSpec(m=25, n=18, f_r=0.2, f_m=0.4, seed=99)
        a_full, a_obs = gen_synthetic(spec)
        b_full, b_obs = gen_synthetic(spec)
        assert np.array_equal(a_full, b_full)
        assert np.array_equal(a_obs.values, b_obs.values)
        assert np.array_equal(a_obs.mask, b_obs.mask)

    def test_different_seeds_differ(self):
        a, _ = gen_synthetic(SyntheticSpec(m=10, n=10, f_r=0.2, f_m=0.1, seed=1))
        b, _ = gen_synthetic(SyntheticSpec(m=10, n=10, f_r=0.2, f_m=0.1, seed=2))
        assert not np.array_equal(a, b)


class TestRmse:
    def test_zero_on_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        assert rmse(X, X) == 0.0

    def test_one_by_one(self):
        assert rmse(np.array([[2.0]]), np.array([[0.0]])) == 2.0

    def test_all_ones_two_by_two(self):
        assert rmse(np.ones((2, 2)), np.zeros((2, 2))) == pytest.approx(1.0, rel=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            rmse(np.ones((2, 2)), np.ones((2, 3)))


class TestTrialReport:
    def test_success_threshold(self):
        assert TrialReport("how", 9.99e-4, 10, 0.1).success
        assert not TrialReport("how", 1e-3, 10, 0.1).success
        assert not TrialReport("how", float("inf"), 0, 0.1).success


class TestPhaseSweep:
    def test_easy_cell_succeeds(self):
        grid = phase_sweep((0.05,), (0.2,), ("how",), trials=1, m=40, n=30,
                           seed=5, configs={"how": bench.config_for_method("how", **FAST)})
        assert grid.success_rate.shape == (1, 1, 1)
        assert grid.success_rate[0, 0, 0] == 1.0
        assert grid.mean_log10_rmse[0, 0, 0] < -3.0

    def test_empty_methods_gives_empty_grid(self):
        grid = phase_sweep((0.05,), (0.2,), (), trials=1, m=20, n=15, seed=5)
        assert grid.success_rate.shape == (1, 1, 0)

    def test_deterministic_across_runs_and_threads(self):
        kwargs = dict(trials=2, m=30, n=20, seed=11,
                      configs={"how": bench.config_for_method("how", **FAST)})
        a = phase_sweep((0.1,), (0.2, 0.4), ("how",), **kwargs)
        b = phase_sweep((0.1,), (0.2, 0.4), ("how",), threads=2, **kwargs)
        assert np.array_equal(a.success_rate, b.success_rate)
        assert np.array_equal(a.mean_log10_rmse, b.mean_log10_rmse)

    def test_solver_error_recorded_as_failure(self, monkeypatch, tmp_path, capsys):
        real_solve = bench.solve

        def how_fails(X, config):
            if config.penalty.kind == "how":
                raise np.linalg.LinAlgError("forced")
            return real_solve(X, config)

        monkeypatch.setattr(bench, "solve", how_fails)
        configs = {m: bench.config_for_method(m, **FAST) for m in ("how", "nnm")}
        grid = phase_sweep((0.1,), (0.2,), ("how", "nnm"), trials=2, m=10, n=8, seed=0,
                           configs=configs)
        assert grid.success_rate[0, 0, 0] == 0.0
        for t in range(2):
            failed, solved = grid.reports[(0, 0, t)]
            assert (failed.rmse, failed.iters) == (float("inf"), 0)
            assert failed.failure == "LinAlgError: forced"
            assert solved.iters > 0 and solved.failure is None
        # One failed solve no longer aborts a runtime table.
        table = runtime_bench((2,), ("how", "nnm"), trials=2, m=10, n=8, seed=0,
                              configs=configs)
        assert [table.reports[(0, 0, t)][0].iters for t in range(2)] == [0, 0]
        assert all(table.reports[(0, 0, t)][1].iters > 0 for t in range(2))
        capsys.readouterr()
        for command in (["sweep", "--fr-values", "0.2", "--fm-values", "0.2"],
                        ["bench", "--ranks", "2"]):
            code = main([*command, "--trials", "2", "--methods", "how,nnm", "--m", "10",
                         "--n", "8", *FAST_SOLVER, "--out", str(tmp_path / "out.csv")])
            assert code == 0
            err = capsys.readouterr().err.splitlines()
            assert "how: 2 solves failed" in err
            assert not any(line.startswith("nnm:") and "failed" in line for line in err)

    def test_wall_time_covers_solve_only(self, monkeypatch):
        def instant_solve(X, config):
            return np.zeros(X.values.shape), IterTrace(rel_e=[0.0])

        def slow_rmse(X_full, M):
            time.sleep(0.2)
            return 0.0

        monkeypatch.setattr(bench, "solve", instant_solve)
        monkeypatch.setattr(bench, "rmse", slow_rmse)
        grid = phase_sweep((0.1,), (0.2,), ("how",), trials=1, m=10, n=8, seed=0)
        assert grid.reports[(0, 0, 0)][0].wall_time < 0.1

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidSpec):
            phase_sweep((0.1,), (0.2,), ("how",), trials=0, m=10, n=8, seed=0)
        with pytest.raises(InvalidSpec):
            runtime_bench((2,), ("how",), trials=0, m=10, n=8, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidSpec, match="seed must be >= 0"):
            phase_sweep((0.1,), (0.2,), ("how",), trials=1, m=10, n=8, seed=-1)
        with pytest.raises(InvalidSpec, match="seed must be >= 0"):
            runtime_bench((2,), ("how",), trials=1, m=10, n=8, seed=-1)

    def test_invalid_last_cell_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "solve", lambda *args: calls.append(args))
        with pytest.raises(InvalidSpec, match="f_r must be in"):
            phase_sweep((0.1, 0.2, 2.0), (0.2,), ("nnm",), trials=2, m=10, n=8, seed=0)
        assert calls == []

    def test_cell_mean_reduces_each_cells_trials_in_order(self):
        # Eight or more trials take np.mean's pairwise sum; the grid must
        # reduce each cell exactly as a 1-D mean over its trials would.
        grid = phase_sweep((0.1,), (0.2,), ("how", "nnm"), trials=9, m=10, n=8, seed=2,
                           configs={m: bench.config_for_method(m, **FAST)
                                    for m in ("how", "nnm")})
        for k in range(2):
            cell = [grid.reports[(0, 0, t)][k] for t in range(9)]
            assert grid.success_rate[0, 0, k] == np.mean([r.success for r in cell])
            assert grid.mean_log10_rmse[0, 0, k] == np.mean(
                np.log10(np.clip([r.rmse for r in cell], 1e-16, None)))
            assert grid.cell_mean(lambda r: r.wall_time)[0, 0, k] == np.mean(
                [r.wall_time for r in cell])

    def test_csv_schema(self, tmp_path):
        grid = phase_sweep((0.1,), (0.2,), ("how", "nnm"), trials=1, m=20, n=15,
                           seed=3, configs={m: bench.config_for_method(m, **FAST)
                                            for m in ("how", "nnm")})
        out = tmp_path / "grid.csv"
        grid.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "f_r,f_m,method,success_rate,mean_log10_rmse,trials"
        assert len(lines) == 1 + 2


class TestRuntimeBench:
    def test_positive_timings_and_shared_iters(self):
        configs = {m: bench.config_for_method(m, **FAST) for m in ("how", "nnm")}
        t1 = runtime_bench((3,), ("how", "nnm"), trials=2, f_m=0.1, m=30, n=20,
                           seed=7, configs=configs)
        t2 = runtime_bench((3,), ("how", "nnm"), trials=2, f_m=0.1, m=30, n=20,
                           seed=7, configs=configs, threads=2)
        assert np.all(t1.cell_mean(lambda r: r.wall_time) > 0.0)
        # timings may differ, iterates cannot: every trial keeps its count
        assert ({key: [r.iters for r in rs] for key, rs in t1.reports.items()}
                == {key: [r.iters for r in rs] for key, rs in t2.reports.items()})

    @pytest.mark.parametrize("rank", [0, -1, 9])
    def test_rank_outside_one_to_n_named_as_a_rank(self, rank):
        message = rf"^rank must be in \[1, n\] = \[1, 8\], got {rank}$"
        with pytest.raises(InvalidSpec, match=message):
            runtime_bench((2, rank), ("nnm",), trials=1, m=10, n=8, seed=0)

    def test_csv_schema(self, tmp_path, monkeypatch):
        # `sirmc bench` writes each cell's mean of TrialReport.wall_time.
        grids = []

        def keep_grid(*args, **kwargs):
            grids.append(runtime_bench(*args, **kwargs))
            return grids[-1]

        monkeypatch.setattr(bench, "runtime_bench", keep_grid)
        out = tmp_path / "rt.csv"
        assert main(["bench", "--ranks", "2,4", "--methods", "nnm", "--trials", "2",
                     "--fm", "0.1", "--m", "20", "--n", "15", "--seed", "1", *FAST_SOLVER,
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,method,mean_seconds,trials"
        (grid,) = grids
        means = [float(np.mean([grid.reports[(i, 0, t)][0].wall_time for t in range(2)]))
                 for i in range(2)]
        assert lines[1:] == [f"2,nnm,{means[0]!r},2", f"4,nnm,{means[1]!r},2"]


def test_benchmark_tracer_sees_each_sweep_task(monkeypatch):
    # The benchmark's tracer patches bench.gen_synthetic, bench.solve and
    # bench.rmse, which the sweep looks up at call time; sweeps and runtime
    # tables must draw and solve every task through them, pool or not.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import tracing

    methods = ("how", "nnm")
    configs = {m: bench.config_for_method(m, **FAST) for m in methods}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phase_sweep((0.1, 0.2), (0.2,), methods, trials=2, m=20, n=15, seed=4,
                    configs=configs, threads=2)
        runtime_bench((2, 3), methods, trials=1, m=20, n=15, seed=4, configs=configs)
    finally:
        tracer.uninstall()
    counts = Counter(span[2] for span in tracer.spans)
    tasks = 2 * 2 + 2 * 1
    assert counts["bench.gen_synthetic"] == tasks
    assert counts["completion.solve"] == tasks * len(methods)
    assert counts["bench.rmse"] == tasks * len(methods)
    assert tracing.solve_parts_fault(tracer.spans) is None


def test_config_for_method_maps_nnm_to_soft():
    assert bench.config_for_method("nnm").penalty.kind == "soft"
    assert bench.config_for_method("how").penalty.kind == "how"
    with pytest.raises(ValueError):
        bench.config_for_method("wnnm")
