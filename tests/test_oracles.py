"""Grid oracles: regularizer reconstruction and brute-force envelope search.

These never touch the closed-form prox on their search path, so agreement
certifies the closed forms.
"""

import time

import numpy as np
import pytest

from sirmc import (
    hoc,
    how,
    implicit_regularizer,
    loss_eval,
    moreau_argmin_oracle,
    prox_eval,
    selftest,
    soft_threshold,
)
from sirmc.errors import DomainError, NonFiniteInput

from conftest import caught_in

GRID_STEP = 1.0 / 200  # default for lam = 1


class TestImplicitRegularizer:
    def test_zero_at_origin(self):
        assert implicit_regularizer(how(1.0), 0.0) == 0.0
        assert implicit_regularizer(hoc(1.0), 0.0) == 0.0

    def test_nonnegative_and_monotone_in_magnitude(self, penalty):
        ys = np.linspace(0.0, 4.0, 81)
        vals = np.asarray(implicit_regularizer(penalty, ys))
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_soft_regularizer_is_abs(self):
        # The l1 regularizer is known in closed form, so reconstruction of it
        # is an absolute accuracy check on the grid maximization.
        ys = np.array([0.5, 1.0, 2.0, 3.5])
        vals = np.asarray(implicit_regularizer(soft_threshold(1.0), ys))
        assert np.max(np.abs(vals - ys)) <= 1e-6


class TestMoreauOracle:
    def test_argmin_matches_prox_how(self):
        argmin, _ = moreau_argmin_oracle(how(1.0), 2.0)
        assert abs(argmin - prox_eval(how(1.0), 2.0)) <= GRID_STEP

    def test_origin(self, penalty):
        argmin, minval = moreau_argmin_oracle(penalty, 0.0)
        assert argmin == 0.0
        assert minval == 0.0

    def test_soft_reproduces_huber(self):
        argmin, minval = moreau_argmin_oracle(soft_threshold(1.0), 3.0)
        assert abs(argmin - 2.0) <= GRID_STEP
        assert minval == pytest.approx(2.5, abs=1e-4)

    def test_envelope_consistency_at_two(self):
        # loss(2) must equal (x* - 2)^2/2 + lam*reg(prox(2)) when the pieces
        # are evaluated independently.
        p = how(1.0)
        y_star = prox_eval(p, 2.0)
        reg = implicit_regularizer(p, y_star)
        assert 0.5 * (2.0 - y_star) ** 2 + 1.0 * reg == pytest.approx(
            loss_eval(p, 2.0), abs=1e-4)

    def test_selftest_catches_a_prox_off_the_oracle(self):
        # selftest.suite_moreau_oracle, run by acceptance criterion 1, certifies
        # every kind; here it must name the one whose prox is 4 grid steps off.
        four_steps_off = lambda x, v: v + 4.0 * GRID_STEP * np.sign(v)
        assert caught_in(selftest.suite_moreau_oracle, "hoc", four_steps_off) == ["hoc"]


ORACLES = [implicit_regularizer, moreau_argmin_oracle]


class TestOracleGrid:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("lam, x", [(1e-6, 3.0), (1.0, np.linspace(-300.0, 300.0, 10**5))])
    def test_oversized_grid_refused_before_allocating(self, oracle, lam, x):
        # 1.2e9 grid points (9.6 GB); 1e5 inputs x 124001 points, over 1e10 in all.
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="oracle grid"):
            oracle(how(lam), x)
        assert time.perf_counter() - t0 < 0.1

    def test_moreau_inner_scan_refused_past_its_bound(self):
        # The inner scan takes about (400 * (|x|/lam + 15))^2 steps: over 1e10 past 235.
        t0 = time.perf_counter()
        with pytest.raises(DomainError, match="oracle grid"):
            moreau_argmin_oracle(how(2.0), 2.0 * 236.0)
        assert time.perf_counter() - t0 < 0.1

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, [1.0, np.nan]])
    def test_nonfinite_input_is_a_typed_error(self, oracle, x):
        with pytest.raises(NonFiniteInput):
            oracle(how(1.0), x)
