"""Quadrature and special-constant checks against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gamma as scipy_gamma

from fracgap.errors import DomainError, NonConvergenceError
from fracgap.numerics import (
    DEFAULT_2D,
    QuadConfig,
    gamma_fn,
    integrate_1d,
    levy_constant,
    singular_double_integral,
)

TIGHT = QuadConfig(abs_tol=1e-10, rel_tol=1e-10, max_panels=4096)


def levy_oracle(g):
    # Independent composition from scipy's gamma; the library builds the
    # same quantity on math.gamma.
    return scipy_gamma((1.0 - g) / 2.0) / (
        2.0**g * math.sqrt(math.pi) * abs(scipy_gamma(g / 2.0))
    )


class TestGammaFn:
    def test_positive_integers(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half_integer(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    def test_negative_noninteger(self):
        assert gamma_fn(-0.75) == pytest.approx(scipy_gamma(-0.75), rel=1e-12)
        assert gamma_fn(-1.5) == pytest.approx(scipy_gamma(-1.5), rel=1e-12)

    def test_accuracy_on_fixed_grid(self):
        # Steps of 0.01 over [-1.99, 3.5], staying 0.01 away from the poles.
        xs = np.concatenate([np.linspace(-1.99, -1.01, 99),
                             np.linspace(-0.99, -0.01, 99),
                             np.linspace(0.01, 3.5, 350)])
        rel = np.array([gamma_fn(x) for x in xs]) / scipy_gamma(xs) - 1.0
        assert np.max(np.abs(rel)) <= 4e-15, xs[np.argmax(np.abs(rel))]

    def test_poles_rejected(self):
        for bad in (0.0, -1.0, -2.0):
            with pytest.raises(DomainError):
                gamma_fn(bad)
        with pytest.raises(DomainError):
            gamma_fn(float("nan"))

    @given(st.floats(min_value=0.1, max_value=10.0))
    def test_recurrence(self, z):
        assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-10)


class TestLevyConstant:
    def test_cauchy_value(self):
        assert levy_constant(-1.0) == pytest.approx(1.0 / math.pi, abs=1e-14)

    def test_general_negative_order(self):
        assert levy_constant(-1.5) == pytest.approx(levy_oracle(-1.5), rel=1e-13)
        assert levy_constant(-0.5) == pytest.approx(levy_oracle(-0.5), rel=1e-13)

    def test_frozen_regression(self):
        # High-precision reference for the order used throughout the docs.
        assert levy_constant(-1.5) == pytest.approx(0.2992067103010746, rel=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -2.0, 1.5):
            with pytest.raises(DomainError):
                levy_constant(bad)

    @given(st.floats(min_value=-1.95, max_value=-0.05))
    def test_matches_direct_composition(self, g):
        assert levy_constant(g) == pytest.approx(levy_oracle(g), rel=1e-10)


class TestIntegrate1D:
    def test_constant(self):
        r = integrate_1d(lambda x: np.ones_like(x), 0.0, 3.0, TIGHT)
        assert r.value == pytest.approx(3.0, abs=1e-12)
        assert r.error_estimate < 1e-10

    def test_polynomial_exact(self):
        r = integrate_1d(lambda x: x**3 - x, -1.0, 2.0, TIGHT)
        # antiderivative x^4/4 - x^2/2 at the endpoints
        assert r.value == pytest.approx(2.25, rel=1e-12)

    def test_empty_range(self):
        r = integrate_1d(lambda x: x, 1.0, 1.0)
        assert r.value == 0.0 and r.error_estimate == 0.0

    def test_reversed_range_rejected(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: x, 1.0, 0.0)

    def test_inverse_sqrt_endpoint_singularity(self):
        r = integrate_1d(
            lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, QuadConfig(1e-9, 1e-9, 4096)
        )
        assert r.value == pytest.approx(2.0, rel=1e-7)

    def test_interior_kink(self):
        r = integrate_1d(lambda x: np.abs(x), -1.0, 1.0, TIGHT)
        assert r.value == pytest.approx(1.0, rel=1e-10)

    def test_scalar_callable_broadcast(self):
        r = integrate_1d(lambda x: 2.0, 0.0, 5.0, TIGHT)
        assert r.value == pytest.approx(10.0, rel=1e-12)

    def test_budget_exhaustion_raises_with_partial_value(self):
        with pytest.raises(NonConvergenceError) as exc:
            integrate_1d(
                lambda x: 1.0 / np.sqrt(np.abs(x - 0.123456)),
                0.0,
                1.0,
                QuadConfig(1e-14, 1e-14, 8),
            )
        assert exc.value.value is not None
        assert exc.value.error_estimate is not None

    @given(st.floats(min_value=0.1, max_value=1.9))
    def test_power_singularity_both_ends(self, alpha):
        # int_{-1}^{1} |x|^(1-alpha) dx = 2 / (2 - alpha)
        r = integrate_1d(
            lambda x: np.abs(x) ** (1.0 - alpha),
            -1.0,
            1.0,
            QuadConfig(1e-8, 1e-8, 4096),
        )
        assert r.value == pytest.approx(2.0 / (2.0 - alpha), rel=1e-5)


class TestSingularDoubleIntegral:
    def test_constant_function_vanishes(self):
        r = singular_double_integral(
            lambda x: np.full_like(x, 2.5), None, 1.5, (0.0, 1.0), DEFAULT_2D
        )
        assert abs(r.value) < 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_linear_closed_form(self, alpha):
        # For f(x) = x on (0, 1) the squared difference is u^2 and the
        # double integral reduces to 2 / ((2 - alpha) (3 - alpha)).
        r = singular_double_integral(lambda x: x, None, alpha, (0.0, 1.0), DEFAULT_2D)
        want = 2.0 / ((2.0 - alpha) * (3.0 - alpha))
        assert r.value == pytest.approx(want, rel=1e-6)

    def test_interval_scaling_for_linear(self):
        # Doubling the interval scales the linear-profile value by 2^(3-alpha).
        alpha = 1.3
        r1 = singular_double_integral(lambda x: x, None, alpha, (0.0, 1.0), DEFAULT_2D)
        r2 = singular_double_integral(lambda x: x, None, alpha, (0.0, 2.0), DEFAULT_2D)
        assert r2.value == pytest.approx(2.0 ** (3.0 - alpha) * r1.value, rel=1e-6)

    def test_reflection_symmetry(self):
        alpha = 1.5
        f = lambda x: np.sin(3.0 * x) + x**2
        g = lambda x: np.sin(3.0 * (1.0 - x)) + (1.0 - x) ** 2
        r1 = singular_double_integral(f, None, alpha, (0.0, 1.0), DEFAULT_2D)
        r2 = singular_double_integral(g, None, alpha, (0.0, 1.0), DEFAULT_2D)
        assert r1.value == pytest.approx(r2.value, rel=1e-8)

    def test_error_estimate_honest_for_smooth_profile(self):
        alpha = 1.5
        f = lambda x: x * (1.0 - x)
        r = singular_double_integral(f, None, alpha, (0.0, 1.0), DEFAULT_2D)
        tight = singular_double_integral(
            f, None, alpha, (0.0, 1.0), QuadConfig(1e-10, 1e-10, 4096)
        )
        assert abs(r.value - tight.value) <= 2.0 * (r.error_estimate + 1e-12)

    def test_high_alpha_converges(self):
        r = singular_double_integral(lambda x: x, None, 1.9, (0.0, 1.0), DEFAULT_2D)
        assert r.value == pytest.approx(2.0 / (0.1 * 1.1), rel=1e-6)

    def test_unit_weight_matches_unweighted(self):
        alpha = 1.2
        f = lambda x: x**2
        one = lambda x: np.ones_like(x)
        r1 = singular_double_integral(f, None, alpha, (0.0, 1.0), DEFAULT_2D)
        r2 = singular_double_integral(f, one, alpha, (0.0, 1.0), DEFAULT_2D)
        assert r2.value == pytest.approx(r1.value, rel=1e-10)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(NonConvergenceError):
            singular_double_integral(
                lambda x: np.abs(x - 0.3712) ** 0.51,
                None,
                1.9,
                (0.0, 1.0),
                QuadConfig(1e-14, 1e-14, 32),
            )

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            singular_double_integral(lambda x: x, None, 2.0, (0.0, 1.0))
        with pytest.raises(DomainError):
            singular_double_integral(lambda x: x, None, 0.0, (0.0, 1.0))
