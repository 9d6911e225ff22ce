"""End-to-end CLI behavior and exit codes."""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from sirmc import SyntheticSpec, bench, blas, cli, gen_synthetic, load_observed, rmse, save_matrix
from sirmc.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
DEMO_OBS = REPO / "data" / "demo_rank1_obs.csv"
DEMO_FULL = REPO / "data" / "demo_rank1_full.csv"

FAST_SOLVER = ["--mu", "1.3", "--max-iters", "150"]


def _write_matrix(path, X, mask=None):
    X = np.asarray(X, dtype=float)
    body = np.where(mask, X, np.nan) if mask is not None else X
    save_matrix(body, path)
    return str(path)


def _write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestComplete:
    def test_fully_observed_identity(self, tmp_path, rng):
        X = rng.standard_normal((10, 8)) * 3.0
        inp = _write_matrix(tmp_path / "in.csv", X)
        out = tmp_path / "out.csv"
        code = main(["complete", inp, "--method", "nnm", "--out", str(out)])
        assert code == 0
        M = load_observed(str(out)).values
        assert np.linalg.norm(M - X) / np.linalg.norm(X) <= 1e-6
        trace_lines = (tmp_path / "out.csv.trace.csv").read_text().splitlines()
        assert trace_lines[0] == ("k,rel_E,delta_M,feas,rho,wall_time_s,kept_rank,dense_svd,"
                                  "gram_svd,gram_block_svd")
        assert len(trace_lines) > 1
        rows = np.loadtxt(tmp_path / "out.csv.trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[-1, 6] == 8  # the full-rank data keeps every value at the end
        # 10x8 is too small to truncate, and too narrow for the Gram route:
        # every shrink runs the dense SVD.
        assert np.all(rows[:, 7] == 1.0) and np.all(rows[:, 8:] == 0.0)

    def test_demo_fixture_recovers_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "m.csv"
        code = main(["complete", str(DEMO_OBS), "--method", "how", "--out", str(out)])
        assert code == 0
        M = load_observed(str(out)).values
        X_full = load_observed(str(DEMO_FULL)).values
        assert rmse(X_full, M) < 1e-3
        assert "zero_filled_input" not in capsys.readouterr().err

    def test_logs_the_blas_threads_of_its_solve(self, tmp_path, monkeypatch, capsys):
        before = blas.threads()
        args = ["complete", str(DEMO_OBS), "--method", "how", "--out", str(tmp_path / "m.csv")]
        assert main(args) == 0
        assert f"threads: 1 BLAS on {blas.cpus()} CPUs" in capsys.readouterr().err.splitlines()
        monkeypatch.setattr(blas, "SERIAL_ENTRIES", 0)
        assert main(args) == 0
        assert (f"threads: {before} BLAS on {blas.cpus()} CPUs"
                in capsys.readouterr().err.splitlines())

    def test_demo_fixture_has_no_convergence_warning(self, tmp_path, capsys):
        code = main(["complete", str(DEMO_OBS), "--method", "how",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 0
        assert "warning:" not in capsys.readouterr().err

    def test_diagnostics_flags_logged_as_one_warning(self, tmp_path, rng, capsys):
        # Fully observed full-rank data: the answer is the input itself, so
        # the zero-filled-input flag fires; the exit code stays 0.
        inp = _write_matrix(tmp_path / "in.csv", rng.standard_normal((10, 8)) * 3.0)
        code = main(["complete", inp, "--method", "nnm", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "zero_filled_input" in warnings[0]

    def test_mask_file_variant(self, tmp_path, rng):
        X = rng.standard_normal((6, 5))
        inp = _write_matrix(tmp_path / "in.csv", X)
        coords = [(i, j) for i in range(6) for j in range(5) if (i + j) % 7 != 0]
        mask_file = tmp_path / "mask.csv"
        mask_file.write_text("".join(f"{i},{j}\n" for i, j in coords))
        out = tmp_path / "out.csv"
        code = main(["complete", inp, "--mask", str(mask_file), "--out", str(out),
                     *FAST_SOLVER])
        assert code == 0

    def test_missing_file_is_error(self, tmp_path):
        code = main(["complete", str(tmp_path / "nope.csv"), "--out",
                     str(tmp_path / "o.csv")])
        assert code == 1

    def test_data_scale_sets_only_the_units(self, tmp_path):
        # At 1e-200 the squares of the data underflow, and at 1e307 its
        # ||P_O X||_F overflows: the first completes as at scale 1, the
        # second is one error line, not a traceback.
        _, X_obs = gen_synthetic(SyntheticSpec(m=60, n=40, f_r=0.05, f_m=0.3, seed=1))
        runs = {}
        for c in (1.0, 1e-200, 1e307):
            inp = _write_matrix(tmp_path / f"in{c:g}.csv", X_obs.values * c, X_obs.mask)
            out = tmp_path / f"out{c:g}.csv"
            runs[c] = subprocess.run([sys.executable, "-m", "sirmc", "complete", inp,
                                      "--out", str(out)], capture_output=True, text=True)
        assert [runs[c].returncode for c in runs] == [0, 0, 1]
        assert runs[1e307].stderr.splitlines() == [
            "error: ||P_O X||_F overflows a double at the data's scale; rescale the data"]
        M1 = load_observed(str(tmp_path / "out1.csv")).values
        M = load_observed(str(tmp_path / "out1e-200.csv")).values
        assert np.max(np.abs(M / 1e-200 - M1)) <= 1e-12 * np.max(np.abs(M1))
        trace1, trace = (np.loadtxt(tmp_path / f"out{c:g}.csv.trace.csv", delimiter=",",
                                    skiprows=1, ndmin=2) for c in (1.0, 1e-200))
        assert trace.shape == trace1.shape
        # feas in data units, rho in inverse data units
        np.testing.assert_allclose(trace[:, 3] / 1e-200, trace1[:, 3], rtol=1e-9)
        np.testing.assert_allclose(trace[:, 4] * 1e-200, trace1[:, 4], rtol=1e-12)

    def test_iteration_cap_exit_code(self, tmp_path, rng):
        X = rng.standard_normal((8, 6)) * 5.0
        inp = _write_matrix(tmp_path / "in.csv", X)
        code = main(["complete", inp, "--max-iters", "2", "--out",
                     str(tmp_path / "o.csv")])
        assert code == 2


def test_demo_fixture_is_what_its_script_writes(tmp_path):
    # The script writes next to its own directory: run a copy, so the
    # checked-in fixture is compared, not overwritten.
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(REPO / "scripts" / "make_demo_data.py", tmp_path / "scripts")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in (tmp_path / "data").iterdir())
    assert written == sorted(p.name for p in (REPO / "data").glob("*.csv"))
    for name in written:
        assert (tmp_path / "data" / name).read_bytes() == (REPO / "data" / name).read_bytes()


class TestSweep:
    def test_paper_grid_row_count(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--preset", "paper-grid", "--trials", "1",
                     "--methods", "how", "--m", "40", "--n", "30",
                     *FAST_SOLVER, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 3 * 3 * 1
        rates = [float(line.split(",")[3]) for line in lines[1:]]
        assert (f"how: {sum(r >= 0.5 for r in rates)} cells with success rate >= 0.5"
                in capsys.readouterr().err.splitlines())

    def test_zero_trials_usage_error(self, tmp_path):
        code = main(["sweep", "--preset", "paper-grid", "--trials", "0",
                     "--out", str(tmp_path / "g.csv")])
        assert code == 1

    def test_grid_required(self, tmp_path):
        code = main(["sweep", "--trials", "1", "--out", str(tmp_path / "g.csv")])
        assert code == 1

    @pytest.mark.parametrize("command", [["sweep", "--fr-values", "0.1", "--fm-values", "0.2"],
                                         ["bench", "--ranks", "2"]])
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, command):
        code = main([*command, "--seed", "-1", "--trials", "1", "--methods", "nnm",
                     "--m", "10", "--n", "8", "--out", str(tmp_path / "g.csv")])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert code == 1 and errors == ["error: seed must be >= 0, got -1"]
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("command, error", [
        (["sweep", "--fr-values", "0.1,0.2,2", "--fm-values", "0.2"],
         "error: f_r must be in (0, 1], got 2.0"),
        (["bench", "--ranks", "2,0"], "error: rank must be in [1, n] = [1, 8], got 0"),
        (["bench", "--ranks", "9"], "error: rank must be in [1, n] = [1, 8], got 9")],
        ids=["sweep-last-fraction", "bench-rank-0", "bench-rank-9"])
    def test_rejected_grid_prints_only_its_error(self, tmp_path, capsys, command, error):
        code = main([*command, "--trials", "2", "--methods", "nnm", "--m", "10", "--n", "8",
                     "--threads", "2", "--out", str(tmp_path / "g.csv")])
        assert code == 1 and capsys.readouterr().err.splitlines() == [error]
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("command", [["sweep", "--fr-values", "0.1", "--fm-values", "0.2"],
                                         ["bench", "--ranks", "2"]])
    def test_logs_threads_in_effect(self, tmp_path, capsys, command):
        args = [*command, "--trials", "2", "--methods", "nnm", "--m", "12", "--n", "10",
                "--threads", "2", *FAST_SOLVER, "--out", str(tmp_path / "o.csv")]
        nproc, before = blas.cpus(), blas.threads()
        share = min(before, blas.per_solve(12 * 10, 2))
        assert main(args) == 0
        assert (f"threads: 2 trial x {share} BLAS = {2 * share} on {nproc} CPUs"
                in capsys.readouterr().err.splitlines())
        assert main(args + ["--deterministic"]) == 0
        assert (f"threads: 1 trial x 1 BLAS = 1 on {nproc} CPUs"
                in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("command", [["sweep", "--fr-values", "0.1", "--fm-values", "0.2"],
                                         ["bench", "--ranks", "2"]])
    def test_threads_line_prints_the_counts_the_solves_report(self, tmp_path, monkeypatch,
                                                             capsys, command):
        real_solve = bench.solve

        def reported(X, config):
            M, trace = real_solve(X, config)
            trace.blas_threads = 1 if config.penalty.kind == "soft" else 2
            return M, trace

        monkeypatch.setattr(bench, "solve", reported)
        for methods, counts in (("nnm", "1 BLAS = 2"), ("nnm,how", "1-2 BLAS = 2-4")):
            assert main([*command, "--trials", "2", "--methods", methods, "--m", "12",
                         "--n", "10", "--threads", "2", *FAST_SOLVER,
                         "--out", str(tmp_path / "o.csv")]) == 0
            assert (f"threads: 2 trial x {counts} on {blas.cpus()} CPUs"
                    in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("command", [["sweep", "--fr-values", "0.1", "--fm-values", "0.2"],
                                         ["bench", "--ranks", "2"]])
    def test_sequential_small_solves_log_one_blas_thread(self, tmp_path, capsys, command):
        args = [*command, "--trials", "1", "--methods", "nnm", "--m", "12", "--n", "10",
                *FAST_SOLVER, "--out", str(tmp_path / "o.csv")]
        # One task runs sequentially whatever --threads asks for.
        for threads in (["--threads", "1"], ["--threads", "4"]):
            assert main(args + threads) == 0
            assert (f"threads: 1 trial x 1 BLAS = 1 on {blas.cpus()} CPUs"
                    in capsys.readouterr().err.splitlines())

    def test_threads_line_without_openblas(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(blas, "_library", lambda: None)
        code = main(["sweep", "--fr-values", "0.1", "--fm-values", "0.2", "--trials", "2",
                     "--methods", "nnm", "--m", "12", "--n", "10", "--threads", "2",
                     *FAST_SOLVER, "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert (f"threads: 2 trial x unknown BLAS = unknown on {blas.cpus()} CPUs"
                in capsys.readouterr().err.splitlines())

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = ["sweep", "--fr-values", "0.1", "--fm-values", "0.2,0.4",
                "--trials", "2", "--methods", "how,nnm", "--m", "30", "--n", "20",
                "--seed", "7", "--deterministic", *FAST_SOLVER]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_small_bench(self, tmp_path):
        out = tmp_path / "rt.csv"
        code = main(["bench", "--ranks", "2,3", "--trials", "1",
                     "--methods", "nnm,how", "--m", "25", "--n", "20",
                     *FAST_SOLVER, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,method,mean_seconds,trials"
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize("ranks", [[], ["--ranks", ""]], ids=["missing", "empty"])
    def test_missing_or_empty_ranks_is_a_usage_error(self, tmp_path, capsys, ranks):
        # A table of no ranks would be a header alone, written with exit 0.
        out = tmp_path / "rt.csv"
        code = main(["bench", *ranks, "--trials", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "usage error: --ranks: expected comma-separated integers, got ''"]
        assert not out.exists()


class TestProxCurve:
    def test_how_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["prox-curve", "--method", "how", "--lam", "1", "--xmin", "-3",
                     "--xmax", "3", "--step", "0.01", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,loss,prox,implicit_regularizer"
        assert len(lines) == 1 + 601
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        inside = np.abs(rows[:, 0]) <= 1.0
        assert np.all(rows[inside, 2] == 0.0)

    def test_nnm_prox_is_soft_threshold(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["prox-curve", "--method", "nnm", "--lam", "1", "--xmin", "-2",
                     "--xmax", "2", "--step", "0.5", "--out", str(out)])
        assert code == 0
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in out.read_text().splitlines()[1:]])
        expected = np.sign(rows[:, 0]) * np.maximum(np.abs(rows[:, 0]) - 1.0, 0.0)
        assert np.allclose(rows[:, 2], expected, atol=1e-12)

    def test_nonpositive_step_usage_error(self, tmp_path):
        code = main(["prox-curve", "--step", "0", "--out", str(tmp_path / "c.csv")])
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--xmin", "nan"], "--xmin, --xmax and --step must be finite"),
        (["--xmax", "inf"], "--xmin, --xmax and --step must be finite"),
        (["--step", "nan"], "--xmin, --xmax and --step must be finite"),
        (["--step", "1e-300"], "--step 1e-300 gives 6e+300 rows, over 1e+07"),
        (["--xmin=-1e308", "--xmax=1e308"], "--step 0.01 gives inf rows, over 1e+07"),
        (["--method", "hoc", "--shape", "nan"],
         "hoc needs a finite and positive shape parameter, got nan"),
        (["--lam", "1e-12"], "oracle grid at lam 1e-12: 601 inputs x 1.2e+15 points, "
                             "over 1e+07 points or 1e+10 in all"),
        (["--lam", "1e-4", "--step", "1"], "oracle grid at lam 0.0001: 7 inputs x 1.2e+07 "
                                           "points, over 1e+07 points or 1e+10 in all"),
        (["--lam", "0.01", "--step", "1e-5"], "oracle grid at lam 0.01: 600001 inputs x "
                                              "1.24e+05 points, over 1e+07 points or 1e+10 in all"),
        (["--lam", "1e200"], "lam 1e+200 and shape 1.414213562373095e+200 overflow the loss"),
    ])
    def test_bad_range_is_one_error_line(self, tmp_path, flags, message):
        proc = subprocess.run(
            [sys.executable, "-m", "sirmc", "prox-curve", *flags, "--out", str(tmp_path / "c.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "c.csv").exists()


class TestSelftest:
    @pytest.mark.slow
    def test_passes_and_json(self, capsys):
        code = main(["selftest", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_passed"]
        assert {s["name"] for s in report["suites"]} >= {
            "prox_oddness", "prox_thresholding", "prox_monotone",
            "bias_dominance", "loss_smoothness", "moreau_oracle",
            "spectral_shrinkage", "truncated_shrink"}

    @pytest.mark.slow
    def test_corrupted_prox_fails(self, monkeypatch):
        # Negative control: the suites must catch a prox biased by +0.05.
        from sirmc import penalties, selftest
        monkeypatch.setattr(selftest, "prox_eval",
                            lambda p, x: np.asarray(penalties.prox_eval(p, x)) + 0.05)
        code = main(["selftest"])
        assert code == 3


class TestParsing:
    def test_solver_flag_defaults(self):
        from sirmc.cli import build_parser
        args = build_parser().parse_args(["complete", "x.csv", "--out", "o.csv"])
        assert args.mu == 1.05
        assert args.xi == 1e-7
        assert args.max_iters == 1000

    def test_deterministic_limits_blas_threads(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_complete", lambda args: seen.append(blas.threads()) or 0)
        before = blas.threads()
        code = main(["complete", "x.csv", "--deterministic", "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert seen == [1]
        assert blas.threads() == before

    def test_deterministic_without_openblas_logs_unknown_once(self, tmp_path, monkeypatch,
                                                               capsys):
        monkeypatch.setattr(blas, "_library", lambda: None)
        inp = _write_matrix(tmp_path / "in.csv", np.eye(4) * 3.0)
        code = main(["complete", inp, "--method", "nnm", "--deterministic",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert capsys.readouterr().err.count("unknown") == 1

    def test_complete_has_no_threads_flag(self, tmp_path, capsys):
        # Nor --seed: complete uses no randomness.
        for flag in ("--threads 2", "--seed 3"):
            code = main(["complete", "x.csv", *flag.split(), "--out", str(tmp_path / "o.csv")])
            assert code == 1
            assert f"usage error: unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--mu", "1"], ["--max-iters", "0"], ["--mu", "nan"],
                                      ["--mu", "inf"], ["--xi", "inf"], ["--rho0", "inf"]])
    def test_bad_solver_flag_is_one_error_line(self, tmp_path, flag):
        proc = subprocess.run(
            [sys.executable, "-m", "sirmc", "complete", str(DEMO_OBS), *flag,
             "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert len(lines) == 1 and lines[0].startswith(f"error: {flag[0][2:].replace('-', '_')} ")
        assert not (tmp_path / "o.csv").exists()

    def test_nonfinite_shape_ratio_is_not_called_nonpositive(self, tmp_path, capsys):
        code = main(["complete", str(DEMO_OBS), "--shape-ratio", "inf",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: how needs a finite and positive shape parameter, got inf"]

    def test_imports_no_optional_dependency(self):
        code = ("import sys, sirmc, sirmc.cli; "
                "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'threadpoolctl'}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("args", [
        ["sweep", "--preset", "transition-grid", "--trials", "1", "--m", "60", "--n", "40",
         "--methods", "how"],
        ["bench", "--ranks", "2,3", "--trials", "1"],
        ["prox-curve"],
        ["complete", str(DEMO_OBS)],
    ], ids=lambda args: args[0])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys, args):
        calls = []
        for owner, name in ((bench, "phase_sweep"), (cli, "solve"),
                            (cli.penalties, "implicit_regularizer")):
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
        out = tmp_path / "missing" / "x.csv"
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}: cannot write a file there"]
        assert calls == [] and not out.parent.exists()

    def test_an_existing_out_keeps_its_bytes_when_a_run_fails(self, tmp_path, monkeypatch,
                                                              capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"1,2\n")
        trace = tmp_path / "out.csv.trace.csv"
        trace.mkdir()  # complete's second output cannot be written
        solves = []
        monkeypatch.setattr(cli, "solve", lambda *a: solves.append(a))
        assert main(["complete", str(DEMO_OBS), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {trace}: cannot write a file there\n"
        assert solves == [] and out.read_bytes() == b"1,2\n"
        trace.rmdir()
        bad = _write_text(tmp_path / "bad.csv", "1,x\n")
        assert main(["complete", bad, "--out", str(out)]) == 1  # fails after the check
        assert main(["sweep", "--preset", "paper-grid", "--methods", "wnnm",
                     "--out", str(out)]) == 1
        assert out.read_bytes() == b"1,2\n" and not trace.exists()

    def test_unknown_flag_exit_one(self, tmp_path):
        assert main(["complete", "x.csv", "--bogus", "--out", "o.csv"]) == 1

    def test_unknown_method_exit_one(self, tmp_path):
        code = main(["sweep", "--preset", "paper-grid", "--trials", "1",
                     "--methods", "wnnm", "--out", str(tmp_path / "g.csv")])
        assert code == 1

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_methods_is_a_usage_error(self, tmp_path, capsys, methods):
        code = main(["sweep", "--preset", "paper-grid", "--trials", "1",
                     "--methods", methods, "--out", str(tmp_path / "g.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: --methods: no method named in {methods!r}"]
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["sweep", "--preset", "paper-grid", "--fr-values", "0.9", "--fm-values", "0.9"],
         "give --preset or --fr-values and --fm-values, not both"),
        (["complete", str(DEMO_OBS), "--method", "nnm", "--shape-ratio", "3"],
         "--shape-ratio: nnm takes no shape"),
        (["prox-curve", "--method", "nnm", "--shape", "5"], "--shape: nnm takes no shape")],
        ids=["sweep-preset-and-values", "complete-nnm-shape", "prox-curve-nnm-shape"])
    def test_ignored_flag_is_a_usage_error(self, tmp_path, capsys, args, message):
        code = main([*args, "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]
        assert not (tmp_path / "o.csv").exists()

    def test_shape_ratio_taken_if_any_method_takes_one(self, tmp_path):
        code = main(["sweep", "--fr-values", "0.1", "--fm-values", "0.2", "--trials", "1",
                     "--methods", "how,nnm", "--shape-ratio", "1", "--m", "12", "--n", "10",
                     *FAST_SOLVER, "--out", str(tmp_path / "g.csv")])
        assert code == 0
        assert len((tmp_path / "g.csv").read_text().splitlines()) == 1 + 2

    def test_method_names_come_from_one_table(self):
        import sirmc
        from sirmc import bench, penalties, selftest

        assert bench.METHODS is penalties.METHODS and sirmc.METHODS is penalties.METHODS
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command in ("complete", "sweep", "bench", "prox-curve"):
            [method] = [a for a in sub.choices[command]._actions if a.dest == "method"]
            assert method.choices is penalties.METHODS
        for command in ("sweep", "bench"):
            assert sub.choices[command].get_default("methods") == ",".join(penalties.METHODS)
        assert ([p.kind for p in selftest.default_penalties()]
                == list(penalties.METHODS.values()))

    def test_selftest_module_loads_only_for_selftest(self):
        code = "import sys, sirmc.cli; sys.exit('sirmc.selftest' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "c.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sirmc", "prox-curve", "--method", "hoc",
             "--step", "0.1", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()
