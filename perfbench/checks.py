"""Output checks computed apart from the solver.

Each check takes what the program returned (or wrote) plus the inputs the
benchmark made, and recomputes the acceptance quantities with plain numpy.
None of them calls into sirmc, so a fault in the program cannot hide a
fault in its own scoring. A check returns None when the output is
accepted and a (kind, detail) pair naming the rejected property otherwise.
"""

from __future__ import annotations

import numpy as np

SUCCESS_RMSE = 1e-3      # recovery threshold on RMSE / data scale
RESIDUAL_SLACK = 1e-6    # relative rounding allowance when recomputing rel_E


def solution_fault(truth, values, mask, M, *, scale, xi, capped):
    """Judge one solve of the scaled instance (scale * truth observed on mask).

    Rejects, in order: a wrong shape or non-finite output, a solve that hit
    the iteration cap, an observed residual ||P_O(X - M)|| / ||P_O X|| above
    xi, and a relative RMSE against the held-out truth of 1e-3 or more.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != truth.shape:
        return "shape", f"output {M.shape} != input {truth.shape}"
    if not np.isfinite(M).all():
        return "nonfinite", "output holds NaN or inf"
    if capped:
        return "cap", "iteration cap reached before the tolerance"
    observed = values[mask]
    rel_res = np.linalg.norm(observed - M[mask]) / np.linalg.norm(observed)
    if not rel_res <= xi * (1 + RESIDUAL_SLACK):
        return "residual", f"observed residual {rel_res:.3e} > xi {xi:g}"
    rel_rmse = np.linalg.norm(M - scale * truth) / np.sqrt(truth.size) / scale
    if not rel_rmse < SUCCESS_RMSE:
        return "relative_rmse", f"relative RMSE {rel_rmse:.3g} >= {SUCCESS_RMSE:g}"
    return None


def dof_bound_cells(f_r_values, f_m_values, m, n):
    """Cells whose observed count |O| is below r(m + n - r), the number of
    degrees of freedom of a rank-r m x n matrix: no method can recover there.
    Rank and missing count follow the generator's rounding rules."""
    cells = []
    for i, f_r in enumerate(f_r_values):
        r = max(1, int(round(f_r * n)))
        for j, f_m in enumerate(f_m_values):
            observed = m * n - int(round(f_m * m * n))
            if observed < r * (m + n - r):
                cells.append((i, j))
    return cells


def sweep_fault(f_r_values, f_m_values, methods, success_rate, m, n):
    """Judge a phase-transition grid (success_rate[i_fr, i_fm, method]).

    Rejects a grid in which a cell below the degrees-of-freedom bound has a
    nonzero success rate, in which the easiest cell (smallest rank and
    missing fractions) is not recovered in every trial, or in which `how`
    succeeds (rate >= 0.5) in fewer cells than `nnm`.
    """
    rate = np.asarray(success_rate, dtype=float)
    for i, j in dof_bound_cells(f_r_values, f_m_values, m, n):
        if rate[i, j].any():
            return "dof_bound", (f"cell (f_r={f_r_values[i]}, f_m={f_m_values[j]}) is below "
                                 f"r(m+n-r) yet has success rates {rate[i, j].tolist()}")
    i0 = int(np.argmin(f_r_values))
    j0 = int(np.argmin(f_m_values))
    if not (rate[i0, j0] == 1.0).all():
        return "easiest_cell", f"easiest cell success rates {rate[i0, j0].tolist()}"
    cells = {meth: int(np.sum(rate[:, :, k] >= 0.5)) for k, meth in enumerate(methods)}
    if cells["how"] < cells["nnm"]:
        return "ordering", f"success cells how {cells['how']} < nnm {cells['nnm']}"
    return None


def completed_file_fault(out_path, trace_path, truth, values, mask, *, xi, iters):
    """Judge the files written by `sirmc complete`: the matrix loads back at
    the input shape, reproduces the observed entries to xi, and is within
    RMSE 1e-3 of the truth; the trace has one row per iteration."""
    try:
        M = np.loadtxt(out_path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return "unreadable_output", f"{type(exc).__name__}: {exc}"
    fault = solution_fault(truth, values, mask, M, scale=1.0, xi=xi, capped=False)
    if fault is not None:
        return fault
    try:
        trace = np.loadtxt(trace_path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return "unreadable_trace", f"{type(exc).__name__}: {exc}"
    if trace.shape[0] != iters or not np.array_equal(trace[:, 0], np.arange(1, iters + 1)):
        return "trace_rows", f"trace has {trace.shape[0]} rows for {iters} iterations"
    return None
