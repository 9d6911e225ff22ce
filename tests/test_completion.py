"""ADMM solver: update formulas, optimality of the subproblem solutions,
convergence behavior, diagnostics, and parity with the dense three-block
reference loop."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import sirmc
from sirmc import (
    IterTrace,
    ObservedMatrix,
    SolverConfig,
    convergence_diagnostics,
    gen_synthetic,
    generic,
    how,
    implicit_regularizer,
    prox_eval,
    rmse,
    shrink_singular_values,
    soft_threshold,
    solve,
    SyntheticSpec,
    welsch_generator,
)
from sirmc import bench, cli, completion, matio, spectral
from sirmc.completion import (
    MU_SETTLED,
    OVERSAMPLING,
    RANK_HOLD,
    rho_growth,
    update_e,
    update_m,
    update_multiplier_and_rho,
)
from sirmc.errors import (
    BiasConstraintViolated,
    DomainError,
    EmptyObservation,
    NonFiniteInput,
    NonFiniteIterate,
    NonPositiveParameter,
    ZeroNormInput,
)
from sirmc.penalties import STRICT_SHAPE_RATIO
from sirmc.spectral import Shrinkage

from conftest import GENERATOR_TWINS


def _full(values):
    values = np.asarray(values, dtype=float)
    return ObservedMatrix(values, np.ones_like(values, dtype=bool))


def _observed(X):
    """The observed values and the observed set's flat index, the order of
    Lambda and the residual: what solve passes to update_m and update_e."""
    omega = np.flatnonzero(X.mask)
    return X.values.take(omega), omega


def _start(M):
    """M as the last shrink, with no warm start: M = 0 is what a solve starts from."""
    return Shrinkage(M, np.zeros(0), np.zeros((M.shape[1], 0)), "none")


def _first_shrink(X, cfg):
    """update_m's M from a solve's start, M = Lambda = 0, at rho = cfg.rho0."""
    x, omega = _observed(X)
    return update_m(_start(np.zeros(X.shape)), x, np.zeros(x.size), cfg.rho0, cfg.penalty,
                    omega).M


def _start_rho(X, config):
    """The rho0 a solve starts from, in data units: its trace's first rho."""
    return solve(X, replace(config, max_iters=1))[1].rho[0]


def _on_grid(vector, X):
    """A vector over the observed set as a dense array, zero off the set."""
    dense = np.zeros(X.shape)
    dense[X.mask] = vector
    return dense


class TestObservedMatrix:
    def test_offmask_values_zeroed(self):
        X = ObservedMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]),
                           np.array([[True, False], [True, True]]))
        assert X.values[0, 1] == 0.0
        assert X.n_observed == 3

    def test_empty_mask_rejected(self):
        with pytest.raises(EmptyObservation):
            ObservedMatrix(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))

    def test_nonfinite_observed_rejected(self):
        with pytest.raises(NonFiniteInput):
            ObservedMatrix(np.array([[np.nan, 1.0]]), np.array([[True, True]]))

    def test_nonfinite_unobserved_tolerated(self):
        X = ObservedMatrix(np.array([[np.nan, 1.0]]), np.array([[False, True]]))
        assert X.values[0, 0] == 0.0


class TestSolverConfig:
    def test_defaults_match_algorithm_constants(self):
        cfg = SolverConfig()
        assert cfg.mu == 1.05
        assert cfg.xi == 1e-7
        assert cfg.max_iters == 1000

    def test_mu_must_exceed_one(self):
        with pytest.raises(ValueError):
            SolverConfig(mu=1.0)

    @pytest.mark.parametrize("kind", ["how", "hoc", "hog"])
    @pytest.mark.parametrize("case", ["zero", "negative", "nan", "over_bound"])
    def test_shape_ratio_bound(self, kind, case):
        bound = STRICT_SHAPE_RATIO[kind]
        ratio, error = {"zero": (0.0, NonPositiveParameter),
                        "negative": (-1.0, NonPositiveParameter),
                        "nan": (math.nan, NonPositiveParameter),
                        "over_bound": (1.01 * bound, BiasConstraintViolated)}[case]
        with pytest.raises(error) as caught:
            bench.config_for_method(kind, shape_ratio=ratio)
        assert type(caught.value) is error
        for fraction in (1.0, 0.8, 0.05):
            bench.config_for_method(kind, shape_ratio=fraction * bound)

    def test_unit_penalty_shrinks_as_the_penalty_at_each_threshold(self):
        # lam * prox_1(sigma / lam) with how(1.0) is the prox of how at lam,
        # whose shape sqrt(2) * lam scales with it.
        rng = np.random.Generator(np.random.Philox(21))
        Q1, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        Q2, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        unit = np.linspace(0.0, 6.0, 9)
        for lam in np.logspace(-3.0, 3.0, 25):
            D = (Q1[:, :9] * (lam * unit)) @ Q2.T
            out = shrink_singular_values(D, how(1.0), scale=lam).M
            expected = shrink_singular_values(D, how(lam, math.sqrt(2.0) * lam)).M
            assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected)), lam

    def test_penalty_must_be_the_unit_penalty(self):
        with pytest.raises(DomainError, match="unit penalty"):
            SolverConfig(penalty=how(0.5))

    def test_solve_builds_no_penalty(self, monkeypatch):
        # The unit penalty, certified in SolverConfig, is the only one a solve uses.
        cfg = bench.config_for_method("how", max_iters=20)
        built = []
        real = completion.Penalty.__post_init__
        monkeypatch.setattr(completion.Penalty, "__post_init__",
                            lambda self: built.append(self) or real(self))
        _, X_obs = gen_synthetic(SyntheticSpec(m=30, n=20, f_r=0.1, f_m=0.3, seed=4))
        solve(X_obs, cfg)
        assert built == []


class TestUpdateM:
    def test_first_iteration_shrinks_data(self):
        rng = np.random.Generator(np.random.Philox(3))
        X = _full(rng.standard_normal((6, 5)) * 50.0)
        cfg = SolverConfig(rho0=1.0)
        out = _first_shrink(X, cfg)
        assert np.allclose(out, shrink_singular_values(X.values, cfg.penalty).M,
                           atol=1e-12)

    def test_subthreshold_data_maps_to_zero(self):
        X = _full(np.diag([0.5, 0.2]))  # spectral norm below 1/rho0 = 100
        cfg = SolverConfig(rho0=1e-2)
        assert np.array_equal(_first_shrink(X, cfg), np.zeros((2, 2)))

    def test_two_by_two_diagonal_case(self):
        X = _full(np.array([[3.0, 0.0], [0.0, 0.5]]))
        cfg = SolverConfig(rho0=1.0)
        out = _first_shrink(X, cfg)
        assert np.allclose(out, np.diag([3.0 - 3.0 * math.exp(-4.0), 0.0]), atol=1e-12)

    def test_flat_scatter_builds_d_bitwise(self, monkeypatch):
        # D = M with the observed entries set to x + Lambda/rho, written
        # through a flat view of M's copy; M itself is not touched.
        rng = np.random.Generator(np.random.Philox(8))
        X = ObservedMatrix(rng.standard_normal((7, 5)), rng.random((7, 5)) < 0.6)
        M = rng.standard_normal((7, 5))
        prev, Lambda, rho = _start(M.copy()), rng.standard_normal(X.n_observed), 0.7
        seen = []
        monkeypatch.setattr(completion, "shrink_singular_values",
                            lambda D, *args, **kwargs: seen.append(D.copy()))
        x, omega = _observed(X)
        update_m(prev, x, Lambda, rho, SolverConfig().penalty, omega)
        expected = np.where(X.mask, X.values + _on_grid(Lambda, X) / rho, M)
        assert np.array_equal(seen[0], expected)
        assert np.array_equal(prev.M, M)

    def test_optimality_against_regularizer_oracle(self):
        # The shrinkage output must beat random perturbations on the
        # subproblem objective evaluated with the grid-reconstructed
        # regularizer.
        rng = np.random.Generator(np.random.Philox(17))
        mask = np.array([[True, True, False], [True, False, True], [True, True, True]])
        X = ObservedMatrix(rng.standard_normal((3, 3)) * 2.0, mask)
        cfg = SolverConfig(rho0=1.0)
        rho = cfg.rho0
        M = rng.standard_normal((3, 3))
        Lam = np.where(mask, rng.standard_normal((3, 3)) * 0.1, 0.0)
        E = np.where(mask, 0.0, -M)  # the implicit complement fill
        D = X.values - E + Lam / rho
        x, omega = _observed(X)
        M_star = update_m(_start(M), x, Lam[mask], rho, cfg.penalty, omega).M
        penalty = cfg.penalty  # rho0 = 1: the threshold is 1
        grid_tol = penalty.lam / 200

        def objective(M):
            sv = np.linalg.svd(M, compute_uv=False)
            reg = float(np.sum(implicit_regularizer(penalty, sv)))
            return reg / rho + 0.5 * float(np.sum((D - M) ** 2))

        base = objective(M_star)
        for _ in range(200):
            pert = M_star + rng.standard_normal((3, 3)) * rng.uniform(0.01, 0.3)
            assert base <= objective(pert) + grid_tol


class TestUpdateE:
    """update_e is the E-step in closed form, returned as the residual
    X - M - E that the minimizer E = -M (off the observed set) leaves."""

    def test_zero_multiplier(self):
        mask = np.array([[True, False], [False, True]])
        X = ObservedMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]), mask)
        M_new = np.full((2, 2), 0.7)
        residual = _on_grid(update_e(M_new, *_observed(X)), X)
        assert np.array_equal(residual[mask], X.values[mask] - 0.7)
        assert np.array_equal(residual[~mask], np.zeros(2))
        E = X.values - M_new - residual
        assert np.array_equal(E[mask], np.zeros(2))
        assert np.array_equal(E[~mask], -M_new[~mask])

    def test_fully_observed_gives_zero(self):
        X = _full(np.ones((3, 3)))
        assert np.array_equal(_on_grid(update_e(np.ones((3, 3)), *_observed(X)), X),
                              np.zeros((3, 3)))

    def test_single_cell_formula(self):
        mask = np.array([[True, False]])
        X = ObservedMatrix(np.array([[1.0, 0.0]]), mask)
        residual = _on_grid(update_e(np.array([[0.5, 0.25]]), *_observed(X)), X)
        assert residual[0, 0] == 1.0 - 0.5
        assert residual[0, 1] == 0.0

    def test_first_order_optimality(self):
        # The implicit E is the exact minimizer of the E-subproblem, a
        # quadratic over the unobserved set; no perturbation there may lower
        # the objective. Lambda is zero off the observed set, as in solve.
        rng = np.random.Generator(np.random.Philox(23))
        mask = rng.uniform(size=(5, 4)) < 0.6
        mask[0, 0] = True
        X = ObservedMatrix(np.where(mask, rng.standard_normal((5, 4)), 0.0), mask)
        Lambda, rho = rng.standard_normal((5, 4))[mask], 2.5
        M_new = rng.standard_normal((5, 4))
        E_star = X.values - M_new - _on_grid(update_e(M_new, *_observed(X)), X)
        assert np.array_equal(E_star[mask], np.zeros(int(mask.sum())))

        def objective(E):
            target = X.values - M_new + _on_grid(Lambda, X) / rho
            return 0.5 * float(np.sum((target[~mask] - E[~mask]) ** 2))

        base = objective(E_star)
        for _ in range(100):
            delta = np.where(mask, 0.0, rng.standard_normal((5, 4)) * 1e-3)
            assert objective(E_star + delta) >= base - 1e-10


class TestMultiplierAndRho:
    def test_zero_residual_leaves_multiplier(self):
        Lambda = np.full(4, 0.3)
        new_Lambda, new_rho = update_multiplier_and_rho(Lambda, 1.0, np.zeros(4), SolverConfig().mu)
        assert np.array_equal(new_Lambda, Lambda)
        assert new_rho == pytest.approx(1.05, rel=1e-15)

    def test_residual_arithmetic(self):
        mask = np.array([[True]])
        X = ObservedMatrix(np.array([[3.0]]), mask)
        residual = update_e(np.array([[1.0]]), *_observed(X))
        new_Lambda, _ = update_multiplier_and_rho(np.array([1.0]), 3.0, residual, SolverConfig().mu)
        assert new_Lambda[0] == pytest.approx(1.0 + 3.0 * 2.0, rel=1e-15)


def _settled_trace(rank=2, fall=MU_SETTLED):
    """RANK_HOLD + 1 shrinks at one rank, rel_E falling by fall per shrink,
    after an earlier shrink at another rank."""
    shrinks = RANK_HOLD + 1
    return IterTrace(rel_e=[1.0] + [0.5 / fall ** k for k in range(shrinks)],
                     kept_rank=[rank + 1] + [rank] * shrinks)


class TestRhoGrowth:
    shape = (60, 40)
    n_observed = 1680

    def growth(self, trace, mu=1.05, n_observed=None):
        return rho_growth(mu, trace, self.n_observed if n_observed is None else n_observed,
                          self.shape)

    def test_settled_trace_speeds_up(self):
        assert self.growth(_settled_trace()) == MU_SETTLED
        assert self.growth(_settled_trace(), mu=1.1) == MU_SETTLED

    @pytest.mark.parametrize("mu", [MU_SETTLED, 1.5])
    def test_large_mu_is_kept(self, mu):
        assert self.growth(_settled_trace(), mu=mu) == mu

    def test_too_short_a_trace_keeps_mu(self):
        trace = _settled_trace()
        short = IterTrace(rel_e=trace.rel_e[-RANK_HOLD:], kept_rank=trace.kept_rank[-RANK_HOLD:])
        assert self.growth(short) == 1.05

    def test_a_rank_change_in_the_window_keeps_mu(self):
        trace = _settled_trace()
        trace.kept_rank[-RANK_HOLD - 1] += 1
        assert self.growth(trace) == 1.05

    def test_rank_zero_keeps_mu(self):
        assert self.growth(_settled_trace(rank=0)) == 1.05

    def test_undersampled_instance_keeps_mu(self):
        bound = OVERSAMPLING * 2 * (60 + 40 - 2)
        assert self.growth(_settled_trace(), n_observed=bound) == MU_SETTLED
        assert self.growth(_settled_trace(), n_observed=bound - 1) == 1.05

    def test_residual_slower_than_mu_keeps_mu(self):
        assert self.growth(_settled_trace(fall=1.04)) == 1.05
        assert self.growth(_settled_trace(fall=1.04), mu=1.04) == MU_SETTLED


class TestSolve:
    def test_fully_observed_converges_to_data(self):
        rng = np.random.Generator(np.random.Philox(5))
        X = _full(rng.standard_normal((20, 15)) * 3.0)
        M, trace = solve(X, SolverConfig(penalty=soft_threshold(1.0)))
        assert trace.rel_e[-1] <= 1e-7
        assert not trace.max_iters_reached
        assert np.linalg.norm(X.values - M) / np.linalg.norm(X.values) <= 1e-6

    def test_e_stays_zero_on_observed_set(self):
        spec = SyntheticSpec(m=20, n=15, f_r=0.1, f_m=0.3, seed=9)
        _, X_obs = gen_synthetic(spec)
        cfg = SolverConfig(max_iters=40)
        last, Lambda, rho = (_start(np.zeros(X_obs.shape)), np.zeros(X_obs.n_observed),
                             _start_rho(X_obs, cfg))
        off, (x, omega) = ~X_obs.mask, _observed(X_obs)
        for _ in range(10):
            last = update_m(last, x, Lambda, rho, cfg.penalty, omega)
            M_new = last.M
            r = update_e(M_new, x, omega)
            residual = _on_grid(r, X_obs)
            E = X_obs.values - M_new - residual
            assert np.array_equal(E[X_obs.mask], np.zeros(X_obs.n_observed))
            assert np.array_equal(residual[off], np.zeros(int(off.sum())))
            Lambda, rho = update_multiplier_and_rho(Lambda, rho, r, cfg.mu)
            assert np.array_equal(_on_grid(Lambda, X_obs)[off], np.zeros(int(off.sum())))

    def test_rho_schedule_is_exact_geometric(self):
        # 40 observed entries lie below OVERSAMPLING * r(m+n-r) at every rank
        # r >= 1 of a 10x8 matrix, so rho keeps the paper's fixed growth.
        spec = SyntheticSpec(m=10, n=8, f_r=0.2, f_m=0.5, seed=1)
        _, X_obs = gen_synthetic(spec)
        assert X_obs.n_observed < OVERSAMPLING * 1 * (10 + 8 - 1)
        cfg = SolverConfig(penalty=soft_threshold(1.0), max_iters=30, xi=1e-30)
        _, trace = solve(X_obs, cfg)
        assert trace.iters == 30 and min(trace.kept_rank) > 0
        expected = _start_rho(X_obs, cfg)
        for rho_k in trace.rho:
            assert rho_k == expected
            expected *= cfg.mu

    def test_rho_grows_by_rho_growth_each_iteration(self):
        _, X_obs = gen_synthetic(SyntheticSpec(m=60, n=40, f_r=0.05, f_m=0.3, seed=1))
        cfg = bench.config_for_method("how")
        _, trace = solve(X_obs, cfg)
        growths = []
        for k in range(trace.iters - 1):
            prefix = IterTrace(rel_e=trace.rel_e[:k + 1], kept_rank=trace.kept_rank[:k + 1])
            growths.append(rho_growth(cfg.mu, prefix, X_obs.n_observed, X_obs.shape))
            assert trace.rho[k + 1] == growths[-1] * trace.rho[k]
        assert set(growths) == {cfg.mu, MU_SETTLED}

    def test_nnm_first_iteration_is_svt(self):
        rng = np.random.Generator(np.random.Philox(8))
        X = _full(rng.standard_normal((8, 6)) * 4.0)
        cfg = SolverConfig(penalty=soft_threshold(1.0), rho0=1.0, max_iters=1, xi=1e-30)
        M, trace = solve(X, cfg)
        U, s, Vh = np.linalg.svd(X.values, full_matrices=False)
        svt = U @ np.diag(np.maximum(s - 1.0, 0.0)) @ Vh
        assert np.max(np.abs(M - svt)) <= 1e-10

    def test_zero_observed_norm_rejected(self):
        X = ObservedMatrix(np.zeros((3, 3)), np.ones((3, 3), dtype=bool))
        with pytest.raises(ZeroNormInput):
            solve(X)

    def test_max_iters_flagged_not_raised(self):
        spec = SyntheticSpec(m=12, n=10, f_r=0.2, f_m=0.3, seed=2)
        _, X_obs = gen_synthetic(spec)
        M, trace = solve(X_obs, SolverConfig(max_iters=3))
        assert trace.max_iters_reached
        assert trace.iters == 3

    def test_nonfinite_iterate_aborts(self):
        # Extreme mu overflows rho after two iterations; xi below the SVD
        # roundoff floor keeps the loop from stopping first. On the way the
        # generated penalties' prox sees sigma * rho near 1e195, where x^2
        # overflows, and must pass it without a RuntimeWarning (an error here).
        rng = np.random.Generator(np.random.Philox(4))
        X = _full(rng.standard_normal((4, 4)) * 2.0)
        for method in ("nnm", "how", "hoc", "hog"):
            cfg = bench.config_for_method(method, rho0=1e-5, mu=1e200, xi=1e-320, max_iters=10)
            with pytest.raises(NonFiniteIterate):
                solve(X, cfg)

    @pytest.mark.slow
    def test_rank1_recovery_end_to_end(self):
        spec = SyntheticSpec(m=300, n=200, f_r=1.0 / 200, f_m=0.3, seed=77)
        X_full, X_obs = gen_synthetic(spec)
        assert spec.rank == 1
        M, trace = solve(X_obs, SolverConfig())
        assert rmse(X_full, M) < 1e-3
        assert convergence_diagnostics(trace) == ()
        assert trace.delta_m[-1] < 1e-6 * trace.norm_x


class TestConvergenceDiagnostics:
    def _trace(self, feas, delta, capped):
        n = len(feas)
        return IterTrace(
            rel_e=[f / 10.0 for f in feas],
            delta_m=list(delta),
            feas=list(feas),
            rho=[1.0] * n,
            wall_time=[0.01] * n,
            norm_x=10.0,
            max_iters_reached=capped,
        )

    def test_geometric_feasibility_converged(self):
        feas = [2.0 * 0.5 ** k for k in range(20)]
        delta = [1e-7] * 20
        flags = convergence_diagnostics(self._trace(feas, delta, capped=False))
        assert flags == ()

    def test_stalled_at_cap_flagged(self):
        feas = [1.0] * 20
        delta = [0.5] * 20
        flags = convergence_diagnostics(self._trace(feas, delta, capped=True))
        assert flags == ("max_iters_reached", "delta_m_above_threshold", "feas_stalled")

    def test_oscillating_increments_settled_at_the_end(self):
        # A healthy solve's increments oscillate on their way down; those of
        # the demo fixture's solve (times 1e-7 ||X||_F, ||X||_F = 10 here).
        delta = [1e-6 * d for d in (19.0, 6.0, 4.7, 11.2, 13.0, 11.0, 6.8, 2.1, 1.8, 4.1,
                                    4.7, 4.0)]
        flags = convergence_diagnostics(self._trace([0.5 ** k for k in range(12)], delta,
                                                    capped=False))
        assert flags == ()

    def test_increments_falling_fast_into_tolerance_settle(self):
        # The fully observed 3x4 rank-1 solve's last increments (9.1e-6,
        # 2.8e-6, 7.5e-7 against 3.2e-6, rescaled to ||X||_F = 10): two lie
        # above the tolerance, but falling 3x an iteration they leave a tail
        # smaller than the last increment.
        delta = [1e-4] * 9 + [2.89e-5, 8.87e-6, 2.36e-6]
        flags = convergence_diagnostics(self._trace([0.5 ** k for k in range(12)], delta,
                                                    capped=False))
        assert flags == ()

    def test_final_increments_above_tolerance_flagged(self):
        # Falling increments that end just above the tolerance, and a single
        # final one below it, both leave the estimate unsettled.
        feas = [0.5 ** k for k in range(12)]
        for delta in ([1e-4 * 0.85 ** k for k in range(12)],
                      [2e-5] * 11 + [1e-6]):
            flags = convergence_diagnostics(self._trace(feas, delta, capped=False))
            assert flags == ("delta_m_above_threshold",)

    @pytest.mark.parametrize("seed", [4, 5, 6, 7])
    def test_no_false_flag_on_files_instances(self, seed):
        # The benchmark's files workload: 1000x80, rank 2, 30% missing.
        _, X_obs = gen_synthetic(SyntheticSpec(1000, 80, 0.025, 0.3, seed=seed))
        _, trace = solve(X_obs, SolverConfig())
        assert convergence_diagnostics(trace) == ()


def _reference_solve(X, config):
    """The dense three-block ADMM over (M, E, Lambda) that the solver's loop
    replaces: E is filled explicitly as Lambda/rho - M off the observed set
    and the residual X - M - E is formed from all three blocks. rho grows by
    rho_growth of the reference's own rel_E and kept ranks."""
    norm_x = float(np.linalg.norm(X.values))
    M = np.zeros(X.shape)
    E = np.zeros(X.shape)
    Lam = np.zeros(X.shape)
    rho = _start_rho(X, config)
    trace = IterTrace()
    while True:
        shrunk = shrink_singular_values(X.values - E + Lam / rho, config.penalty, scale=1.0 / rho)
        M = shrunk.M
        E = np.where(X.mask, 0.0, Lam / rho - M)
        residual = X.values - M - E
        trace.rel_e.append(float(np.linalg.norm(residual)) / norm_x)
        trace.kept_rank.append(shrunk.rank)
        Lam = Lam + rho * residual
        rho = rho_growth(config.mu, trace, X.n_observed, X.shape) * rho
        if trace.rel_e[-1] <= config.xi or trace.iters >= config.max_iters:
            return M, trace.rel_e


@pytest.mark.parametrize("method", ["nnm", "how", "hoc", "hog"])
def test_solve_matches_dense_reference(method):
    _, X_obs = gen_synthetic(SyntheticSpec(m=30, n=20, f_r=0.1, f_m=0.3, seed=4))
    cfg = bench.config_for_method(method)
    M_ref, rel_e_ref = _reference_solve(X_obs, cfg)
    M, trace = solve(X_obs, cfg)
    assert len(rel_e_ref) < cfg.max_iters  # the reference converged
    assert any(b == MU_SETTLED * a for a, b in zip(trace.rho, trace.rho[1:]))  # it sped up
    assert trace.iters == len(rel_e_ref)
    assert np.array_equal(M, M_ref)
    np.testing.assert_allclose(trace.rel_e, rel_e_ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("method", ["how", "hoc", "hog"])
def test_generator_twin_solves_like_its_closed_form(method):
    # A hybrid kind is the splice of its generator: the generated twin's unit
    # prox is bitwise the named kind's, and a solve shrinks at every threshold
    # with the unit prox alone, so the two solve alike step for step.
    penalty = bench.config_for_method(method).penalty
    twin = GENERATOR_TWINS[method](1.0)
    assert twin.kind == "generic"
    xs = np.concatenate([np.linspace(0.0, 12.0, 4801), np.logspace(-3.0, 3.0, 61)])
    assert np.array_equal(prox_eval(twin, xs), prox_eval(penalty, xs))
    _, X_obs = gen_synthetic(SyntheticSpec(m=30, n=20, f_r=0.1, f_m=0.3, seed=4))
    M, trace = solve(X_obs, SolverConfig(penalty=penalty))
    M_twin, trace_twin = solve(X_obs, SolverConfig(penalty=twin))
    assert trace_twin.iters == trace.iters and np.array_equal(M_twin, M)


def test_benchmark_tracer_sees_each_step_once_per_iteration(tracing):
    # The benchmark's tracer patches the module attributes that solve and
    # the shrink look up at call time; renaming or inlining a step would
    # break traced runs. Uninstalling puts every attribute back.
    owners = (sirmc, completion, spectral, spectral.SvdTriplet, completion.IterTrace, bench,
              cli, matio)
    before = [dict(vars(owner)) for owner in owners]
    _, X_obs = gen_synthetic(SyntheticSpec(m=20, n=15, f_r=0.1, f_m=0.3, seed=9))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, trace = completion.solve(X_obs, SolverConfig(mu=1.3))
    finally:
        tracer.uninstall()
    counts = Counter(span[2] for span in tracer.spans)
    assert counts["completion.solve"] == 1
    for step in ("completion.update_m", "completion.update_e",
                 "completion.update_multiplier_and_rho", "spectral.shrink_singular_values",
                 "penalties.prox_eval", "spectral.svd"):
        assert counts[step] == trace.iters, step
    assert tracing.solve_parts_fault(tracer.spans) is None
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys(), owner
        assert all(after[name] is value for name, value in attrs.items()), owner


def _protocol_instance(f_r=0.05, f_m=0.3, m=300, n=200):
    return gen_synthetic(SyntheticSpec(m=m, n=n, f_r=f_r, f_m=f_m, seed=1))


@pytest.mark.parametrize("method", ["nnm", "how", "hoc", "hog"])
def test_truncated_shrink_matches_dense_svd_every_iteration(method, monkeypatch):
    # Spy on every shrink of a protocol solve: the values kept above 1/rho
    # must be exactly those of the dense SVD of the same D (the oracle's).
    _, X_obs = _protocol_instance()
    of = spectral.SvdTriplet.__dict__["of"].__func__
    truncated = []

    def spy(cls, D, above=None, start=None, gapped=False):
        svd = of(cls, D, above, start, gapped)
        s = of(cls, D).S
        kept = svd.S[svd.S > above]
        assert kept.size == np.count_nonzero(s > above)
        assert np.max(np.abs(kept - s[:kept.size]), initial=0.0) <= 1e-10 * s[0]
        truncated.append(svd.route != "dense")
        return svd

    monkeypatch.setattr(spectral.SvdTriplet, "of", classmethod(spy))
    _, trace = solve(X_obs, bench.config_for_method(method))
    assert len(truncated) == trace.iters
    assert sum(truncated) >= 0.9 * trace.iters  # the spy saw the fast path
    assert [route == "dense" for route in trace.route] == [not t for t in truncated]


@pytest.mark.parametrize("cell, methods", [
    ((0.05, 0.3), ("nnm", "how", "hoc", "hog")),
    pytest.param((0.2, 0.5), ("how", "hoc", "hog"), marks=pytest.mark.slow),
    pytest.param((0.05, 0.3, 2000, 40), ("how", "nnm"), id="narrow"),
])
def test_truncated_solve_matches_dense_solve(cell, methods, monkeypatch):
    # The same iteration counts as with the dense SVD in every shrink, and
    # the relative RMSE to 3 significant digits. The narrow 2000x40 cell
    # takes the Gram side on every warm shrink.
    truth, X_obs = _protocol_instance(*cell)
    fast = {m: solve(X_obs, bench.config_for_method(m)) for m in methods}
    monkeypatch.setattr(spectral, "_truncated_svd", lambda D, lam, start: None)
    monkeypatch.setattr(spectral, "_gram_svd", lambda D, lam, start: None)
    for m in methods:
        M_dense, trace_dense = solve(X_obs, bench.config_for_method(m))
        M_fast, trace_fast = fast[m]
        assert (not all(r == "dense" for r in trace_fast.route)
                and all(r == "dense" for r in trace_dense.route))
        assert trace_fast.iters == trace_dense.iters
        rel_fast, rel_dense = (np.linalg.norm(M - truth) / np.linalg.norm(truth)
                               for M in (M_fast, M_dense))
        assert abs(rel_fast - rel_dense) <= 1e-3 * rel_dense


def test_trace_records_each_shrinks_route(monkeypatch):
    # At 150x100 and rank 20 the kept spectrum outgrows the truncated block:
    # those shrinks take the Gram route, and the trace says which did.
    _, X_obs = gen_synthetic(SyntheticSpec(m=150, n=100, f_r=0.2, f_m=0.3, seed=1))
    of = spectral.SvdTriplet.__dict__["of"].__func__
    routes = []

    def spy(cls, D, above=None, start=None, gapped=False):
        routes.append(of(cls, D, above, start, gapped))
        return routes[-1]

    monkeypatch.setattr(spectral.SvdTriplet, "of", classmethod(spy))
    _, trace = solve(X_obs, bench.config_for_method("how", mu=1.10))
    assert trace.route == [svd.route for svd in routes]
    assert "gram" in trace.route and "dense" not in trace.route


def test_gram_block_runs_only_after_a_gapped_shrink(monkeypatch):
    # The gate travels in each solve's Shrinkage: update_m hands the last
    # shrink's flag to the next, and only a gapped shrink lets the block run.
    shrinks = []

    def spy(*args):
        shrinks.append(update_m(*args))
        return shrinks[-1]

    monkeypatch.setattr(completion, "update_m", spy)
    _, X_obs = gen_synthetic(SyntheticSpec(m=150, n=100, f_r=0.2, f_m=0.2, seed=1))
    _, trace = solve(X_obs, bench.config_for_method("how"))
    assert trace.route == [s.route for s in shrinks] and "gram_block" in trace.route
    for prev, shrunk in zip(shrinks, shrinks[1:]):
        if shrunk.route == "gram_block":
            assert prev.gapped and shrunk.gapped


def test_trace_norm_m_is_read_from_the_shrunk_values(monkeypatch):
    # A Shrinkage's kept values S are M's nonzero singular values, on the
    # truncated route and on the dense one: the next warm start relies on it.
    shrinks = []

    def spy(*args):
        shrinks.append(update_m(*args))
        return shrinks[-1]

    monkeypatch.setattr(completion, "update_m", spy)
    _, X_obs = _protocol_instance()
    _, trace = solve(X_obs, bench.config_for_method("how", max_iters=60, xi=1e-30))
    assert trace.route[-1] != "dense"
    last = shrinks[-1]
    _, small = gen_synthetic(SyntheticSpec(m=30, n=20, f_r=0.1, f_m=0.3, seed=4))
    _, trace = solve(small, bench.config_for_method("how", max_iters=60, xi=1e-30))
    assert trace.route[-1] == "dense"
    for shrunk in (last, shrinks[-1]):
        norm_m = np.linalg.norm(shrunk.M)
        assert abs(np.linalg.norm(shrunk.S) - norm_m) <= 1e-12 * norm_m


class TestDefaultRho0:
    """rho0 = None starts the schedule at 1 / ||P_O X||_2 (inexact ALM's start)."""

    def test_resolved_from_a_lower_bound_on_the_norm(self):
        _, X_obs = _protocol_instance()
        s1 = np.linalg.norm(X_obs.values, 2)
        threshold = 1.0 / _start_rho(X_obs, SolverConfig())
        assert 0.5 * s1 <= threshold <= s1 * (1 + 1e-12)

    def test_explicit_rho0_is_exact(self):
        _, X_obs = _protocol_instance()
        assert _start_rho(X_obs, SolverConfig(rho0=0.3)) == 0.3
        with pytest.raises(NonPositiveParameter):
            SolverConfig(rho0=0.0)

    def test_zero_data_has_no_scale(self):
        X = ObservedMatrix(np.zeros((3, 3)), np.ones((3, 3), dtype=bool))
        with pytest.raises(ZeroNormInput):
            solve(X, SolverConfig())

    def test_start_orthogonal_to_the_power_steps(self):
        # Rows r, 2r, 0 with r orthogonal to norm_estimate's fixed start: the
        # power steps return 0, and max|X| (a lower bound on sigma_1 = 3.37)
        # starts the schedule instead. The two unobserved entries are zeros
        # of the rank-1 truth.
        v = np.random.Generator(np.random.Philox(spectral.FILL_SEED)).standard_normal(4)
        r = np.array([v[1], -v[0], 0.0, 0.0])
        truth = np.outer([1.0, 2.0, 0.0], r)
        mask = np.ones((3, 4), dtype=bool)
        mask[0, 2:] = False
        X = ObservedMatrix(truth, mask)
        assert spectral.norm_estimate(X.values) == 0.0
        M, trace = solve(X, SolverConfig())
        assert trace.rho[0] == 1.0 / np.max(np.abs(truth))
        assert not trace.max_iters_reached and trace.rel_e[-1] <= 1e-7
        assert np.linalg.norm(M - truth) <= 1e-6 * np.linalg.norm(truth)

    @pytest.mark.parametrize("orthogonal, full", [(False, True), (True, False), (True, True)])
    def test_small_right_answer_is_not_flagged(self, orthogonal, full):
        # Rows r, 2r, 0 of a rank-1 matrix: r = (1, -1, 0, 0), or r orthogonal
        # to norm_estimate's start as above, fully observed or with two
        # entries unobserved. Each solves to about 6e-8, with increments that
        # fall 3x an iteration into the tolerance, and gets no flag.
        v = np.random.Generator(np.random.Philox(spectral.FILL_SEED)).standard_normal(4)
        r = np.array([v[1], -v[0], 0.0, 0.0]) if orthogonal else np.array([1.0, -1.0, 0, 0])
        truth = np.outer([1.0, 2.0, 0.0], r)
        mask = np.ones((3, 4), dtype=bool)
        mask[0, 2:] = full
        M, trace = solve(ObservedMatrix(truth, mask), SolverConfig())
        assert np.linalg.norm(M - truth) <= 1e-7 * np.linalg.norm(truth)
        assert convergence_diagnostics(trace) == ()

    def test_huge_data_keeps_its_scale(self):
        # The loop runs at unit scale, so data far above 1 recovers as at 1;
        # at 1e153 the old loop's squares of ||P_O X||_F overflowed. At 1e307
        # ||P_O X||_F itself is not a finite double, and a typed error, not a
        # false early stop on rel_E = feas / inf = 0, ends the solve.
        _, X_obs = gen_synthetic(SyntheticSpec(m=60, n=40, f_r=0.05, f_m=0.3, seed=1))
        M, trace = solve(X_obs, SolverConfig())
        for c in (1e75, 1e150, 1e153):
            M_big, trace_big = solve(ObservedMatrix(X_obs.values * c, X_obs.mask), SolverConfig())
            assert trace_big.iters == trace.iters and not trace_big.max_iters_reached
            assert np.max(np.abs(M_big - c * M)) <= 1e-12 * c * np.max(np.abs(M))
        with pytest.raises(DomainError, match="overflows"):
            solve(ObservedMatrix(X_obs.values * 1e307, X_obs.mask), SolverConfig())

    def test_first_shrinks_certify_on_the_protocol_cell(self):
        # The first threshold sits among the data's top singular values, and
        # the first shrinks start cold; they must not fall back to the dense SVD.
        _, X_obs = _protocol_instance()
        for method in bench.METHODS:
            _, trace = solve(X_obs, bench.config_for_method(method, max_iters=5))
            assert "dense" not in trace.route, method


@pytest.mark.parametrize("method", ["nnm", "how", "hoc", "hog", "generic-welsch"])
def test_solve_is_scale_equivariant(method):
    # solve(cX) takes the same iterations as solve(X) and returns c * M(X)
    # within 1e-12 relative (measured: at most 2.2e-15), from 1e-300 to 1e300.
    _, X_obs = gen_synthetic(SyntheticSpec(m=30, n=20, f_r=0.1, f_m=0.3, seed=4))
    cfg = (SolverConfig(penalty=generic(1.0, welsch_generator(math.sqrt(2.0))))
           if method == "generic-welsch" else bench.config_for_method(method))
    M, trace = solve(X_obs, cfg)
    for c in (1e-300, 1e-160, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e153, 1e300):
        M_c, trace_c = solve(ObservedMatrix(X_obs.values * c, X_obs.mask), cfg)
        assert trace_c.iters == trace.iters, c
        # Compared at unit scale: the norm of c * M overflows at c = 1e300.
        assert np.linalg.norm(M_c / c - M) <= 1e-12 * np.linalg.norm(M), c


def test_power_of_two_scaling_is_exact():
    # Scaling by 2^k is exact, and the loop runs on the data divided by the
    # power of two of its largest entry: solve(2^k X) is 2^k solve(X) bitwise,
    # iteration for iteration, across the exponent range of the doubles.
    _, X_obs = gen_synthetic(SyntheticSpec(m=60, n=40, f_r=0.05, f_m=0.3, seed=1))
    M, trace = solve(X_obs, SolverConfig())
    for k in (-1000, -600, -1, 1, 600, 1000, 1017):
        M_k, trace_k = solve(ObservedMatrix(np.ldexp(X_obs.values, k), X_obs.mask),
                             SolverConfig())
        assert trace_k.iters == trace.iters, k
        assert np.array_equal(M_k, np.ldexp(M, k)), k
        assert trace_k.rel_e == trace.rel_e, k
        assert all(map(math.isfinite, trace_k.feas + trace_k.delta_m + trace_k.rho)), k


def test_explicit_rho0_stays_in_data_units():
    # A given rho0 is the data's; the trace's rho column is too.
    _, X_obs = gen_synthetic(SyntheticSpec(m=30, n=20, f_r=0.1, f_m=0.3, seed=4))
    cfg = SolverConfig(rho0=0.3, max_iters=5, xi=1e-30)
    _, trace = solve(ObservedMatrix(np.ldexp(X_obs.values, 40), X_obs.mask), cfg)
    assert trace.rho[0] == 0.3
    with pytest.raises(DomainError, match="underflows"):
        solve(ObservedMatrix(X_obs.values * 1e-100, X_obs.mask), SolverConfig(rho0=1e-250))


@pytest.mark.slow
@pytest.mark.parametrize("method", ["nnm", "how", "hoc", "hog"])
def test_zero_filled_input_flagged(method):
    # An absolute rho0 = 1e-2 on data scaled by 1e2 keeps every singular
    # value and "converges" to the zero-filled input; the default does not.
    _, X_obs = gen_synthetic(SyntheticSpec(m=300, n=200, f_r=0.05, f_m=0.3, seed=20240501))
    X = ObservedMatrix(X_obs.values * 1e2, X_obs.mask)
    _, trace = solve(X, bench.config_for_method(method, rho0=1e-2))
    assert "zero_filled_input" in convergence_diagnostics(trace)
    _, trace = solve(X, bench.config_for_method(method))
    assert "zero_filled_input" not in convergence_diagnostics(trace)


def test_zero_filled_input_flag_on_early_convergence():
    # A rank-1 matrix under a first threshold far below its norm: the second
    # iteration returns it exactly, without any shrink keeping every value.
    X = _full(np.outer([1.0, 2.0, 3.0], [1.0, 1.0]))
    _, trace = solve(X, SolverConfig(penalty=soft_threshold(1.0), rho0=1e3))
    assert trace.iters <= completion.EARLY_ITERS and not trace.max_iters_reached
    assert max(trace.kept_rank) < min(X.shape)
    assert "zero_filled_input" in convergence_diagnostics(trace)


@pytest.mark.slow
def test_tall_unit_scale_instance_recovers():
    # At 20000x40 the zero-filled matrix's third singular value exceeded the
    # old absolute first threshold 1/rho0 = 100, and how locked in a spurious
    # third component (rank 3, relative error 0.15 after 82 iterations).
    truth, X_obs = gen_synthetic(SyntheticSpec(20000, 40, 0.05, 0.3, seed=6215951350))
    M, trace = solve(X_obs, bench.config_for_method("how"))
    assert not trace.max_iters_reached
    assert trace.kept_rank[-1] == 2
    assert np.linalg.norm(M - truth) <= 1e-5 * np.linalg.norm(truth)
