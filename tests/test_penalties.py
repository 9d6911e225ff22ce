"""Loss/prox values against the closed forms, splice constants, and the scalar invariants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirmc import (
    METHODS,
    GeneratorFunction,
    Penalty,
    bias,
    cauchy_generator,
    continuity_constants,
    generic,
    hoc,
    hog,
    how,
    loss_eval,
    make_penalty,
    prox_eval,
    soft_threshold,
    validate,
    welsch_generator,
)
from sirmc.errors import (
    BiasConstraintViolated,
    DomainError,
    GeneratorNotConvex,
    NonPositiveParameter,
    ZeroDerivativeAtThreshold,
)
from sirmc.penalties import STRICT_SHAPE_RATIO

from conftest import (
    GENERATOR_TWINS,
    boundary_penalties,
    closed_form_loss,
    closed_form_prox,
    nonconvex_penalties,
)


class TestValidate:
    def test_boundary_shapes_pass_strict(self):
        validate(how(1.0, math.sqrt(2.0)))
        validate(hoc(1.0, 1.0))
        validate(hog(1.0, math.sqrt(3.0) / 2.0))

    def test_oversized_shape_rejected_in_strict_mode(self):
        with pytest.raises(BiasConstraintViolated):
            validate(hoc(1.0, 1.5))

    def test_nonpositive_threshold(self):
        with pytest.raises(NonPositiveParameter):
            how(0.0, 1.0)

    def test_nonpositive_shape(self):
        with pytest.raises(NonPositiveParameter):
            how(1.0, -2.0)

    @pytest.mark.parametrize("build", [lambda: Penalty("bogus", 1.0),
                                       lambda: Penalty("generic", 1.0),
                                       lambda: make_penalty("bogus", 1.0)])
    def test_unknown_kind_is_a_typed_error(self, build):
        with pytest.raises(DomainError):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Penalty("how", 1.0, 0.5, generator=cauchy_generator(1.0)),
        lambda: make_penalty("hoc", 1.0, generator=cauchy_generator(1.0))])
    def test_generator_given_to_a_named_kind_is_a_typed_error(self, build):
        # A named kind builds its generator from its shape; only generic takes one.
        with pytest.raises(DomainError, match="only generic takes a generator"):
            build()

    @pytest.mark.parametrize("build", [lambda: how(1e200), lambda: hoc(1e200),
                                       lambda: hog(1e100), lambda: soft_threshold(1e200),
                                       lambda: how(1.0, 1e200)])
    def test_overflowing_parameters_are_a_typed_error(self, build):
        # hog's loss squares lam^2 + 4 shape^2, the largest power any closed form takes
        with pytest.raises(DomainError, match="overflow the loss"):
            build()
        hog(1e76)  # just below the bound


class TestContinuityConstants:
    def test_cauchy_matches_hand_solution(self):
        # Solving a*h'(1) = 1 and a*h(1) + b = 1/2 by hand gives a = 1,
        # b = 1/2 - ln 2; a must also equal (gamma^2 + lam^2)/2.
        cc = continuity_constants(cauchy_generator(1.0), 1.0)
        assert cc.a == pytest.approx(1.0, rel=1e-14)
        assert cc.a == pytest.approx((1.0 + 1.0) / 2.0, rel=1e-14)
        assert cc.b == pytest.approx(0.5 - math.log(2.0), rel=1e-14)

    def test_welsch_generator_reproduces_how_tail(self):
        sigma = math.sqrt(2.0)
        p = generic(1.0, welsch_generator(sigma))
        xs = np.linspace(1.0, 6.0, 23)
        expected = 0.5 * sigma**2 * (1.0 - np.exp((1.0 - xs**2) / sigma**2)) + 0.5
        assert np.allclose(loss_eval(p, xs), expected, rtol=1e-12, atol=1e-12)

    def test_linear_generator_gives_huber(self):
        lin = GeneratorFunction(
            h=lambda x: np.asarray(x, dtype=float),
            h_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        )
        cc = continuity_constants(lin, 1.0)
        assert cc.a == 1.0
        assert cc.b == -0.5
        p = generic(1.0, lin)
        xs = np.linspace(-4.0, 4.0, 41)
        assert np.allclose(loss_eval(p, xs), loss_eval(soft_threshold(1.0), xs),
                           rtol=0, atol=1e-14)

    def test_flat_generator_rejected(self):
        flat = GeneratorFunction(
            h=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            h_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
        with pytest.raises(ZeroDerivativeAtThreshold):
            continuity_constants(flat, 1.0)
        # h'(1) = exp(-1/0.0375^2) ~ 1.5e-309 is subnormal: a = 1/h'(1) overflows
        with pytest.raises(ZeroDerivativeAtThreshold):
            continuity_constants(welsch_generator(0.0375), 1.0)


class TestLossValues:
    def test_how_at_threshold(self):
        assert loss_eval(how(1.0), 1.0) == 0.5

    def test_hoc_tail_value(self):
        # Table value by scalar calculation: ln 5 + (1/2 - ln 2).
        expected = math.log(5.0) + 0.5 - math.log(2.0)
        assert expected == pytest.approx(1.4162907318741551, rel=1e-15)
        assert loss_eval(hoc(1.0), 2.0) == pytest.approx(expected, rel=1e-12)

    def test_hog_at_threshold(self):
        assert loss_eval(hog(1.0), 1.0) == 0.5

    @pytest.mark.parametrize("lam", [1e60, 1e76])
    def test_hog_tail_stays_finite_for_huge_lam(self, lam):
        # c * x^2 with c = (lam^2 + 4 tau^2)^2 alone would overflow from lam ~ 1e60;
        # the loss scales as lam^2 * loss_1(x / lam) at a strict-shape family.
        value = loss_eval(hog(lam), 10.0 * lam)
        assert math.isfinite(value)
        assert value == pytest.approx(lam * lam * loss_eval(hog(1.0), 10.0), rel=1e-12)

    def test_hog_tail_has_no_cancellation_at_a_small_tau(self):
        # a = (lam^2 + 4 tau^2)^2 / (8 tau^2) is ~3e7 here; the tail must match
        # the cancellation-free form, not a*h + b with h's constant cancelled.
        lam, tau = 1.0, 1e-4 * math.sqrt(3.0) / 2.0
        t2 = 4.0 * tau * tau
        a = (lam * lam + t2) ** 2 / (2.0 * t2)  # lam / h'(lam)
        xs = np.array([1.5, 3.0])
        expected = lam * lam / 2 + a * t2 * (xs**2 - lam**2) / ((xs**2 + t2) * (lam**2 + t2))
        np.testing.assert_allclose(loss_eval(hog(lam, tau), xs), expected, rtol=1e-13, atol=0)

    def test_soft_loss_is_huber(self):
        p = soft_threshold(1.0)
        assert loss_eval(p, 3.0) == pytest.approx(3.0 - 0.5, rel=1e-14)
        assert loss_eval(p, 0.4) == pytest.approx(0.08, rel=1e-14)


class TestProxValues:
    def test_soft(self):
        assert prox_eval(soft_threshold(1.0), 2.5) == pytest.approx(1.5, rel=1e-14)

    def test_how(self):
        expected = 2.0 - 2.0 * math.exp(-1.5)  # = 1.5537396797031404
        assert prox_eval(how(1.0), 2.0) == pytest.approx(expected, rel=1e-12)

    def test_hoc(self):
        # shrinkage (gamma^2+lam^2)|x|/(gamma^2+x^2) = 4/5
        assert prox_eval(hoc(1.0), 2.0) == pytest.approx(1.2, rel=1e-12)

    def test_hog(self):
        # 4*tau^2 = 3, shrinkage (1+3)^2 * 2 / (4+3)^2 = 32/49
        assert prox_eval(hog(1.0), 2.0) == pytest.approx(2.0 - 32.0 / 49.0, rel=1e-12)

    def test_below_threshold_is_exact_zero(self):
        assert prox_eval(how(1.0), -0.7) == 0.0

    def test_zero_at_threshold_for_all_kinds(self):
        for p in boundary_penalties():
            assert prox_eval(p, 1.0) == 0.0
            assert prox_eval(p, -1.0) == 0.0

    @pytest.mark.parametrize("x", [1e160, 1e300])
    @pytest.mark.parametrize("method", ["how", "hoc", "hog"])
    def test_far_out_values_are_the_limit(self, method, x):
        # x^2 overflows here. RuntimeWarnings are errors in this suite, so
        # the values must come without one: the prox is the identity, and
        # the loss tends to b (how, hog) or grows as a*log(x^2/gamma^2) + b.
        p = make_penalty(METHODS[method], 1.0)
        cc = continuity_constants(p.generator, 1.0)
        far = 2.0 * math.log(x) - 2.0 * math.log(p.shape) if method == "hoc" else 0.0
        for sign in (1.0, -1.0):
            assert prox_eval(p, sign * x) == sign * x
            assert loss_eval(p, sign * x) == pytest.approx(cc.a * far + cc.b, rel=1e-15)

    @pytest.mark.parametrize("method", ["how", "hoc", "hog"])
    def test_generators_are_finite_at_every_finite_argument(self, method):
        xs = np.array([0.0, 5e-324, 1.0, 1e77, 1e154, 1e160, 1e300, np.finfo(float).max])
        gen = make_penalty(METHODS[method], 1.0).generator
        for f in (gen.h, gen.h_prime, gen.h_second):
            values = np.concatenate([f(xs), f(-xs)])
            assert np.isfinite(values).all()


class TestBias:
    def test_equals_lam_at_threshold(self):
        for p in boundary_penalties():
            assert bias(p, 1.0) == 1.0

    def test_how_vanishes_far_out(self):
        # 10*exp((1-100)/2) ~ 3.1e-21; indistinguishable from 0 at double precision
        assert bias(how(1.0), 10.0) <= 1e-12

    def test_soft_is_constant(self):
        assert bias(soft_threshold(1.0), 5.0) == pytest.approx(1.0, rel=1e-14)

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            bias(how(1.0), 0.5)


class TestScalarInvariants:
    def test_oddness_exact_on_grid(self, penalty):
        xs = np.linspace(0.0, 12.0, 4001)
        assert np.array_equal(np.asarray(prox_eval(penalty, -xs)),
                              -np.asarray(prox_eval(penalty, xs)))

    def test_thresholding_iff(self, penalty):
        xs = np.linspace(-10.0, 10.0, 10001)
        vals = np.asarray(prox_eval(penalty, xs))
        inside = np.abs(xs) <= penalty.lam
        assert np.all(vals[inside] == 0.0)
        assert np.all(vals[~inside] != 0.0)

    def test_monotone_nondecreasing(self, penalty):
        xs = np.linspace(-10.0, 10.0, 10001)
        assert np.all(np.diff(np.asarray(prox_eval(penalty, xs))) >= 0.0)

    def test_bias_bounded_and_nonincreasing(self):
        xs = np.linspace(1.0, 10.0, 2001)
        p_soft = soft_threshold(1.0)
        soft_vals = np.asarray(prox_eval(p_soft, xs))
        for p in nonconvex_penalties():
            b = np.asarray(bias(p, xs))
            assert np.all(b <= 1.0 + 1e-12)
            assert np.all(np.diff(b) <= 1e-12)
            assert np.all(np.asarray(prox_eval(p, xs)) >= soft_vals - 1e-12)

    def test_loss_even_and_c1_at_threshold(self, penalty):
        xs = np.linspace(0.0, 8.0, 1601)
        assert np.array_equal(np.asarray(loss_eval(penalty, -xs)),
                              np.asarray(loss_eval(penalty, xs)))
        h = 1e-7
        lam = penalty.lam
        left = (loss_eval(penalty, lam) - loss_eval(penalty, lam - h)) / h
        right = (loss_eval(penalty, lam + h) - loss_eval(penalty, lam)) / h
        assert abs(left - right) <= 1e-6

    def test_moreau_gradient_identity(self, penalty):
        xs = np.linspace(-5.0, 5.0, 401)
        lam = penalty.lam
        xs = xs[np.minimum(np.abs(xs - lam), np.abs(xs + lam)) > 1e-3]
        h = 1e-4
        fd = (np.asarray(loss_eval(penalty, xs + h))
              - np.asarray(loss_eval(penalty, xs - h))) / (2 * h)
        expected = xs - np.asarray(prox_eval(penalty, xs))
        assert np.max(np.abs(fd - expected)) <= 1e-5


@given(x=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_prox_odd_property(x):
    for p in boundary_penalties():
        assert prox_eval(p, -x) == -prox_eval(p, x)


@given(x=st.floats(min_value=-30.0, max_value=30.0),
       gap=st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_prox_monotone_property(x, gap):
    for p in boundary_penalties():
        assert prox_eval(p, x) <= prox_eval(p, x + gap)


@given(lam=st.floats(min_value=1e-3, max_value=1e3),
       x=st.floats(min_value=-1e4, max_value=1e4))
@settings(max_examples=200, deadline=None)
def test_prox_threshold_property(lam, x):
    for make in (soft_threshold, how, hoc, hog):
        v = prox_eval(make(lam), x)
        if abs(x) <= lam:
            assert v == 0.0
        else:
            assert abs(v) <= abs(x)


class TestGenericKind:
    def test_matches_each_closed_form(self):
        # The paper's closed forms referee each hybrid kind's generator splice,
        # at its strict shape and at a small one, where Welsch's h'' underflows.
        xs = np.linspace(-6.0, 6.0, 241)
        for method in GENERATOR_TWINS:
            for lam, ratio in itertools.product((1e-2, 1.0, 1e2), (0.05, 1.0)):
                p = make_penalty(METHODS[method], lam,
                                 shape=ratio * STRICT_SHAPE_RATIO[method] * lam)
                validate(p)
                x = lam * xs
                assert np.allclose(prox_eval(p, x), closed_form_prox(method, lam, p.shape, x),
                                   rtol=1e-12, atol=1e-12 * lam)
                assert np.allclose(loss_eval(p, x), closed_form_loss(method, lam, p.shape, x),
                                   rtol=1e-12, atol=1e-12 * lam * lam)

    @pytest.mark.parametrize("method", sorted(GENERATOR_TWINS))
    def test_twin_prox_is_zero_at_every_threshold(self, method):
        # The shrink routes assume prox is exactly zero on [-lam, lam].
        missed = [lam for lam in np.logspace(-3.0, 3.0, 2001)
                  if np.any(prox_eval(GENERATOR_TWINS[method](lam), np.array([-lam, lam])))]
        assert missed == []

    def test_nonconvex_complement_rejected(self):
        cubic = GeneratorFunction(
            h=lambda x: np.asarray(x, dtype=float) ** 3,
            h_prime=lambda x: 3.0 * np.square(np.asarray(x, dtype=float)),
        )
        with pytest.raises(GeneratorNotConvex):
            validate(generic(1.0, cubic))

    def test_linear_generator_fails_strict_concavity(self):
        lin = GeneratorFunction(
            h=lambda x: np.asarray(x, dtype=float),
            h_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        )
        p = generic(1.0, lin)
        with pytest.raises(BiasConstraintViolated):
            validate(p)
