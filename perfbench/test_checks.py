"""Negative controls for the benchmark's own checks.

    python3 -m pytest perfbench/test_checks.py

Each check must accept a correct output and reject the wrong outputs a
broken solver could plausibly return. Only numpy is needed.
"""

import numpy as np
import pytest

from checks import completed_file_fault, dof_bound_cells, solution_fault, sweep_fault
from tracing import solve_parts_fault

XI = 1e-7


@pytest.fixture
def instance():
    rng = np.random.default_rng(7)
    truth = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 20))
    mask = rng.random(truth.shape) > 0.3
    return truth, mask


def kind(fault):
    return None if fault is None else fault[0]


@pytest.mark.parametrize("scale", [1e-2, 1.0, 1e2])
def test_exact_answer_accepted(instance, scale):
    truth, mask = instance
    values = np.where(mask, scale * truth, 0.0)
    assert solution_fault(truth, values, mask, scale * truth, scale=scale, xi=XI,
                          capped=False) is None


def test_zero_filled_input_rejected(instance):
    truth, mask = instance
    values = np.where(mask, truth, 0.0)
    # Reproduces every observed entry, so only the held-out truth exposes it.
    assert kind(solution_fault(truth, values, mask, values, scale=1.0, xi=XI,
                               capped=False)) == "relative_rmse"


@pytest.mark.parametrize("scale,factor", [(1e2, 1e-2), (1.0, 2.0), (1e-2, 1e2)])
def test_answer_scaled_by_wrong_factor_rejected(instance, scale, factor):
    truth, mask = instance
    values = np.where(mask, scale * truth, 0.0)
    M = factor * scale * truth
    assert kind(solution_fault(truth, values, mask, M, scale=scale, xi=XI,
                               capped=False)) == "residual"


def test_capped_solve_rejected(instance):
    truth, mask = instance
    values = np.where(mask, truth, 0.0)
    assert kind(solution_fault(truth, values, mask, truth, scale=1.0, xi=XI,
                               capped=True)) == "cap"


def test_nonfinite_and_misshapen_answers_rejected(instance):
    truth, mask = instance
    values = np.where(mask, truth, 0.0)
    bad = truth.copy()
    bad[0, 0] = np.nan
    assert kind(solution_fault(truth, values, mask, bad, scale=1.0, xi=XI,
                               capped=False)) == "nonfinite"
    assert kind(solution_fault(truth, values, mask, truth[:, :-1], scale=1.0, xi=XI,
                               capped=False)) == "shape"


FR = (0.05, 0.10, 0.20, 0.30)
FM = (0.20, 0.35, 0.50, 0.65)


def sweep_grid():
    """The grid the sweep workload measures: how and nnm both succeed in the
    upper-left region, how in one cell more."""
    rate = np.zeros((4, 4, 2))
    rate[:, :, 0] = [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0]]
    rate[:, :, 1] = [[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]]
    return rate


def test_dof_bound_cells_at_sweep_size():
    # Only (f_r=0.3, f_m=0.65): 5250 observed < 30 * (150 + 100 - 30) = 6600.
    assert dof_bound_cells(FR, FM, 150, 100) == [(3, 3)]


def test_sweep_grid_accepted():
    assert sweep_fault(FR, FM, ("how", "nnm"), sweep_grid(), 150, 100) is None


def test_success_below_dof_bound_rejected():
    rate = sweep_grid()
    rate[3, 3, 1] = 1.0
    assert kind(sweep_fault(FR, FM, ("how", "nnm"), rate, 150, 100)) == "dof_bound"


def test_easiest_cell_failure_rejected():
    rate = sweep_grid()
    rate[0, 0, 0] = 0.0
    assert kind(sweep_fault(FR, FM, ("how", "nnm"), rate, 150, 100)) == "easiest_cell"


def test_how_region_smaller_than_nnm_rejected():
    rate = sweep_grid()
    rate[:, :, 0], rate[:, :, 1] = rate[:, :, 1].copy(), rate[:, :, 0].copy()
    assert kind(sweep_fault(FR, FM, ("how", "nnm"), rate, 150, 100)) == "ordering"


def write_run(tmp_path, M, rows):
    out = tmp_path / "completed.csv"
    np.savetxt(out, M, fmt="%.17g", delimiter=",")
    trace = tmp_path / "completed.csv.trace.csv"
    lines = ["k,rel_E,delta_M,feas,rho,wall_time_s"]
    lines += [f"{k},1e-3,1.0,1.0,0.01,0.001" for k in range(1, rows + 1)]
    trace.write_text("\n".join(lines) + "\n")
    return out, trace


def test_completed_files_accepted(tmp_path, instance):
    truth, mask = instance
    out, trace = write_run(tmp_path, truth, rows=12)
    assert completed_file_fault(out, trace, truth, np.where(mask, truth, 0.0), mask,
                                xi=XI, iters=12) is None


def test_zero_filled_output_file_rejected(tmp_path, instance):
    truth, mask = instance
    values = np.where(mask, truth, 0.0)
    out, trace = write_run(tmp_path, values, rows=12)
    assert kind(completed_file_fault(out, trace, truth, values, mask, xi=XI,
                                     iters=12)) == "relative_rmse"


def test_trace_without_one_row_per_iteration_rejected(tmp_path, instance):
    truth, mask = instance
    out, trace = write_run(tmp_path, truth, rows=11)
    assert kind(completed_file_fault(out, trace, truth, np.where(mask, truth, 0.0), mask,
                                     xi=XI, iters=12)) == "trace_rows"


def test_transposed_output_file_rejected(tmp_path, instance):
    truth, mask = instance
    out, trace = write_run(tmp_path, truth.T, rows=12)
    assert kind(completed_file_fault(out, trace, truth, np.where(mask, truth, 0.0), mask,
                                     xi=XI, iters=12)) == "shape"


def test_solve_parts_add_up():
    # solve [0, 10] holding update_m [1, 6] (svd [2, 5]) and update_e [6, 8].
    spans = [(2, 1, "completion.update_m", 1.0, 6.0, None),
             (3, 2, "spectral.svd", 2.0, 5.0, None),
             (4, 1, "completion.update_e", 6.0, 8.0, None),
             (1, 0, "completion.solve", 0.0, 10.0, [3, False])]
    assert solve_parts_fault(spans) is None
    # A child span longer than its parent leaves a negative self time.
    spans[1] = (3, 2, "spectral.svd", 0.5, 7.0, None)
    assert solve_parts_fault(spans) is not None
