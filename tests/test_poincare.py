"""Inequality checks, witness recursion invariants, and the low-alpha failure."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from hypothesis import given, strategies as st

from fracgap.errors import DomainError, WitnessSearchError
from fracgap.forms import weighted_form
from fracgap.montecarlo import make_rng
from fracgap.numerics import piecewise_linear_form, piecewise_linear_weighted_form
from fracgap.poincare import (
    PiecewiseLinear,
    counterexample_scan,
    poincare_check,
    poincare_constant,
    random_piecewise_linear,
    smooth_step,
    step_contraction,
    weighted_poincare_check,
    witness_search,
)
from fracgap.potentials import make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve

IDENTITY = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
ONE = PiecewiseLinear([0.0, 1.0], [1.0, 1.0])


class TestConstants:
    def test_values_at_three_halves(self):
        # exponent (alpha+1)/(alpha-1) = 5 and contraction 9^(-2) = 1/81
        assert poincare_constant(1.5) == pytest.approx((1.0 / 9.0) ** 5, rel=1e-14)
        assert step_contraction(1.5) == pytest.approx(1.0 / 81.0, rel=1e-14)

    def test_defining_identity(self):
        # c is defined by 9 c^(alpha-1) = 1
        for alpha in (1.05, 1.2, 1.5, 1.9):
            c = step_contraction(alpha)
            assert 9.0 * c ** (alpha - 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_constant_decreases_toward_alpha_one(self):
        vals = [poincare_constant(a) for a in (1.9, 1.5, 1.2, 1.05)]
        assert all(u > v for u, v in zip(vals, vals[1:]))

    def test_domain(self):
        for bad in (1.0, 2.0, 0.5):
            with pytest.raises(DomainError):
                poincare_constant(bad)
            with pytest.raises(DomainError):
                step_contraction(bad)


class TestPiecewiseLinear:
    def test_eval_and_clamp(self):
        f = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
        assert f(0.25) == pytest.approx(0.5)
        assert f(-1.0) == pytest.approx(0.0)
        assert f(2.0) == pytest.approx(0.5)

    def test_lipschitz_and_scaled(self):
        f = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
        assert f.lipschitz() == pytest.approx(2.0)
        assert f.scaled(2.0)(0.25) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            PiecewiseLinear([0.0, 0.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            PiecewiseLinear([0.0], [1.0])
        with pytest.raises(DomainError):
            PiecewiseLinear([0.0, 1.0], [0.0, np.inf])


class TestPoincareCheck:
    def test_identity_function_closed_form(self):
        alpha = 1.5
        res = poincare_check(IDENTITY, alpha)
        assert res.passed
        # lhs has the closed form 2 / ((2 - alpha) (3 - alpha)) = 8/3
        assert res.lhs == pytest.approx(8.0 / 3.0, rel=1e-6)
        assert res.rhs == pytest.approx((1.0 / 9.0) ** 5, rel=1e-14)
        assert res.ratio == pytest.approx(res.lhs / res.rhs, rel=1e-12)

    def test_anchored_endpoint_enforced(self):
        with pytest.raises(DomainError):
            poincare_check(PiecewiseLinear([0.0, 1.0], [0.5, 1.5]), 1.5)

    def test_vacuous_and_degenerate_bounds(self):
        tent = PiecewiseLinear([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        res = poincare_check(tent, 1.5)
        assert math.isinf(res.ratio)
        assert res.passed
        zero = PiecewiseLinear([0.0, 1.0], [0.0, 0.0])
        res0 = poincare_check(zero, 1.5)
        assert math.isnan(res0.ratio)
        assert res0.passed

    def test_interval_rescaling_consistency(self):
        # Pulling f back onto [0, 1] scales both sides by (b-a)^(alpha-1).
        alpha = 1.4
        f = PiecewiseLinear([0.0, 2.0], [0.0, 1.0])
        big = poincare_check(f, alpha, interval=(0.0, 2.0))
        unit = poincare_check(PiecewiseLinear(f.xs / 2.0, f.ys), alpha)
        factor = 2.0 ** (alpha - 1.0)
        assert big.lhs == pytest.approx(unit.lhs / factor, rel=1e-6)
        assert big.rhs == pytest.approx(unit.rhs / factor, rel=1e-14)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            poincare_check(IDENTITY, 0.9)

    def test_piecewise_linear_input_is_exact(self):
        rng = make_rng(17)
        for alpha in (1.1, 1.5, 1.9):
            f = random_piecewise_linear(rng)
            res = poincare_check(f, alpha)
            exact = piecewise_linear_form(f, alpha, (0.0, 1.0))
            assert (res.lhs, res.lhs_error) == (exact.value, exact.error_estimate)


class TestWitnessSearch:
    def test_identity_terminates_at_first_step(self):
        alpha = 1.5
        cert = witness_search(IDENTITY, alpha)
        c = step_contraction(alpha)
        assert cert.n0 == 1
        assert cert.scale == pytest.approx(1.0)
        assert cert.steps[-1].branch == "terminal"
        assert cert.rectangle == pytest.approx((0.0, c, 1.0 - c, 1.0))
        assert cert.certified_bound == pytest.approx((c / 3.0) ** 2, rel=1e-14)

    def test_certified_bound_equals_universal_constant(self):
        # (c/3)^2 telescopes to the universal constant for every depth.
        staircase = PiecewiseLinear([0.0, 0.003, 0.005, 1.0],
                                    [0.0, 0.5, 0.5, 1.0])
        for alpha in (1.2, 1.5, 1.8):
            for f in (IDENTITY, staircase):
                cert = witness_search(f, alpha)
                assert cert.certified_bound == pytest.approx(
                    poincare_constant(alpha), rel=1e-12)

    def test_early_rise_forces_left_branch(self):
        # Crosses level 1/3 at x = 0.002, well before the first probe point.
        f = PiecewiseLinear([0.0, 0.003, 0.005, 1.0], [0.0, 0.5, 0.5, 1.0])
        cert = witness_search(f, 1.5)
        assert cert.steps[0].branch == "left"
        assert cert.n0 >= 2

    def test_step_invariants(self):
        f = PiecewiseLinear([0.0, 0.003, 0.005, 1.0], [0.0, 0.5, 0.5, 1.0])
        cert = witness_search(f, 1.5)
        c = cert.c
        for i, s in enumerate(cert.steps):
            assert s.n == i + 1
            assert s.b - s.a == pytest.approx(c ** (s.n - 1), rel=1e-12)
            assert s.level_high - s.level_low == pytest.approx(
                3.0 ** (-s.n), rel=1e-12)
            assert s.x == pytest.approx(s.a + c ** s.n, rel=1e-12)
            assert s.y == pytest.approx(s.b - c ** s.n, rel=1e-12)
        assert cert.steps[-1].branch == "terminal"
        assert all(s.branch in ("left", "right", "terminal") for s in cert.steps)

    def test_certificate_is_sound(self):
        # certified_bound scales back to a true lower bound for the form.
        rng = np.random.default_rng(2024)
        alpha = 1.5
        for _ in range(5):
            f = random_piecewise_linear(rng, max_segments=12)
            cert = witness_search(f, alpha)
            res = poincare_check(f, alpha)
            lower = cert.certified_bound * cert.scale**2
            assert lower <= res.lhs + 3.0 * res.lhs_error

    def test_boundary_requirements(self):
        with pytest.raises(DomainError):
            witness_search(PiecewiseLinear([0.0, 1.0], [1.0, 2.0]), 1.5)
        with pytest.raises(DomainError):
            witness_search(PiecewiseLinear([0.0, 1.0], [0.0, 0.0]), 1.5)

    def test_non_lipschitz_hits_depth_cap_or_deep_recursion(self):
        # The interpolant of x^0.01 on knots down to 1e-30 crosses every
        # level essentially at zero (slope 5e29 on its first cell); the
        # recursion either exhausts its cap or terminates very deep. Both
        # outcomes are acceptable; silent shallow termination is not.
        xs = np.concatenate([[0.0], np.logspace(-30, 0, 60)])
        f = PiecewiseLinear(xs, xs ** 0.01)
        try:
            cert = witness_search(f, 1.5)
        except WitnessSearchError:
            return
        assert cert.n0 > 10


class TestWeightedCheck:
    def test_unit_weight(self):
        alpha = 1.5
        res = weighted_poincare_check(IDENTITY, ONE, alpha)
        assert res.passed
        assert res.lhs == pytest.approx(8.0 / 3.0, rel=1e-6)
        # rhs = C (1/L^alpha) int x^2 dx = C / 3
        assert res.rhs == pytest.approx(poincare_constant(alpha) / 3.0, rel=1e-8)

    def test_decreasing_weight(self):
        res = weighted_poincare_check(IDENTITY, PiecewiseLinear([0.0, 1.0], [1.0, 0.6]), 1.5)
        assert res.passed

    def test_piecewise_linear_mass_is_exact(self):
        # The mass of (f g)^2, integrated cell by cell as a polynomial.
        def poly_mass(f, g, a, b):
            edges = np.union1d(np.union1d(f.xs, g.xs), [a, b])
            edges = edges[(edges >= a) & (edges <= b)]
            total = 0.0
            for lo, hi in zip(edges[:-1], edges[1:]):
                fl, fh, gl, gh = f(lo), f(hi), g(lo), g(hi)
                prod = (Polynomial([fl, fh - fl]) * Polynomial([gl, gh - gl])) ** 2
                total += (hi - lo) * prod.integ()(1.0)
            return total

        rng = make_rng(29)
        for interval in ((0.0, 1.0), (-1.0, 2.0)):
            a, b = interval
            alpha = float(rng.uniform(1.05, 1.95))
            for _ in range(20):
                f0 = random_piecewise_linear(rng)
                f = PiecewiseLinear(a + (b - a) * f0.xs, f0.ys)
                k = int(rng.integers(2, 9))
                xs = np.concatenate([[a - 0.1], np.sort(rng.uniform(a, b, size=k)), [b]])
                g = PiecewiseLinear(xs, np.sort(rng.uniform(0.1, 2.0, size=k + 2))[::-1])
                res = weighted_poincare_check(f, g, alpha, interval)
                want = poincare_constant(alpha) / (b - a) ** alpha * poly_mass(f, g, a, b)
                assert res.rhs == pytest.approx(want, rel=1e-12)
                assert res.rhs_error <= 1e-12 * res.rhs

    def test_piecewise_linear_lhs_is_exact(self):
        # The lhs of a PiecewiseLinear pair is the exact weighted form, whose
        # own accuracy tests/test_numerics.py checks against mpmath.
        rng = make_rng(37)
        for alpha in (1.1, 1.5, 1.9):
            f = random_piecewise_linear(rng)
            k = int(rng.integers(2, 9))
            xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k)), [1.0]])
            g = PiecewiseLinear(xs, np.sort(rng.uniform(0.1, 2.0, size=k + 2))[::-1])
            res = weighted_poincare_check(f, g, alpha, (0.0, 1.0))
            exact = piecewise_linear_weighted_form(f, g, alpha, (0.0, 1.0))
            assert (res.lhs, res.lhs_error) == (exact.value, exact.error_estimate)
            assert res.lhs_error <= 1e-11 * res.lhs

    def test_weight_gating(self):
        with pytest.raises(DomainError, match="nonincreasing"):
            weighted_poincare_check(IDENTITY, PiecewiseLinear([0.0, 1.0], [0.5, 1.5]), 1.5)
        with pytest.raises(DomainError, match="positive"):
            weighted_poincare_check(IDENTITY, PiecewiseLinear([0.0, 1.0], [0.5, -0.5]), 1.5)
        with pytest.raises(DomainError):
            weighted_poincare_check(PiecewiseLinear([0.0, 1.0], [1.0, 2.0]), ONE, 1.5)

    def test_weight_dip_between_knots_rejected(self):
        # Narrower than any fixed sample spacing; checked at g's knots.
        g = PiecewiseLinear([0.0, 0.1001, 0.1002, 0.1003, 1.0], [1.0, 1.0, -5.0, 1.0, 1.0])
        with pytest.raises(DomainError, match=r"positive on \[a, b\); g\(0\.1002\)"):
            weighted_poincare_check(IDENTITY, g, 1.5)

    def test_weight_may_vanish_at_b_only(self):
        assert weighted_poincare_check(IDENTITY, PiecewiseLinear([0.0, 1.0], [1.0, 0.0]),
                                       1.5).passed
        with pytest.raises(DomainError, match=r"g\(1\.0\) = -1e-09"):
            weighted_poincare_check(IDENTITY, PiecewiseLinear([0.0, 1.0], [1.0, -1e-9]), 1.5)


def _free_16():
    return eigensolve(assemble_operator(Grid(0.0, 1.0, 16), 1.5, make_zero((0.0, 1.0))), 2)


@pytest.mark.parametrize("call", [
    lambda f: poincare_check(f, 1.5),
    lambda f: weighted_poincare_check(f, ONE, 1.5),
    lambda f: weighted_poincare_check(IDENTITY, f, 1.5),
    lambda f: witness_search(f, 1.5),
    lambda f: weighted_form(f, _free_16()),
], ids=["poincare_check", "weighted_poincare_check-f", "weighted_poincare_check-g",
        "witness_search", "weighted_form"])
def test_callables_rejected(call):
    # PiecewiseLinear is the only test-function type; a plain callable is
    # refused before anything evaluates it.
    with pytest.raises(DomainError, match=r"^[fg] must be a PiecewiseLinear, got function$"):
        call(lambda x: x)


class TestSmoothStep:
    def test_plateaus_and_midpoint(self):
        x = np.array([0.0, 0.25, 0.375, 0.5, 1.0])
        v = smooth_step(x)
        assert v[0] == 0.0 and v[1] == 0.0
        assert v[2] == pytest.approx(0.5, abs=1e-14)
        assert v[3] == 1.0 and v[4] == 1.0

    def test_monotone(self):
        v = smooth_step(np.linspace(0.2, 0.55, 200))
        assert np.all(np.diff(v) >= 0)


class TestCounterexampleScan:
    def test_values_decay_at_low_alpha(self):
        scan = counterexample_scan(0.5, n_list=(1, 2, 4))
        assert scan.values[0] > scan.values[1] > scan.values[2]
        assert scan.slope < -0.15
        # frozen regression for the uncompressed step
        assert scan.values[0] == pytest.approx(1.880693, abs=2e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            counterexample_scan(1.5)
        with pytest.raises(DomainError):
            counterexample_scan(0.5, n_list=(4, 2))
        with pytest.raises(DomainError):
            counterexample_scan(0.5, n_list=(2,))


class TestRandomPiecewiseLinear:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_always_admissible(self, seed):
        rng = np.random.default_rng(seed)
        f = random_piecewise_linear(rng)
        assert f.ys[0] == 0.0
        assert 0.2 <= f.ys[-1] <= 1.5
        assert f.xs[0] == 0.0
        assert f.xs[-1] == pytest.approx(1.0)
        assert np.all(np.diff(f.xs) > 0)
        assert 4 <= f.xs.size <= 33

    def test_fewer_than_three_segments_rejected(self):
        for max_segments in (2, 0, -1):
            with pytest.raises(DomainError, match="max_segments must be >= 3"):
                random_piecewise_linear(make_rng(1), max_segments)
        assert random_piecewise_linear(make_rng(1), 3).xs.size == 4
