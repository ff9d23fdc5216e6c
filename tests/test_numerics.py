"""Special constants and the piecewise-linear closed forms against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import gamma as scipy_gamma

from fracgap.errors import DomainError
from fracgap.montecarlo import make_rng
from fracgap.numerics import (
    _balanced,
    _cell_edges,
    _pl_form_terms,
    _pl_weighted_terms,
    gamma_fn,
    levy_constant,
    piecewise_linear_form,
    piecewise_linear_weighted_form,
)
from fracgap.poincare import (PiecewiseLinear, _compressed_step, counterexample_scan,
                              random_piecewise_linear)


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


def linear_form_oracle(alpha, length):
    # f(x) = x: (f(x)-f(y))^2 |x-y|^(-1-alpha) = |x-y|^(1-alpha), whose
    # integral over a square of side L is 2 L^(3-alpha) / ((2-alpha)(3-alpha)).
    return 2.0 * length ** (3.0 - alpha) / ((2.0 - alpha) * (3.0 - alpha))


def pl_form_longdouble(xs, ys, alpha, interval):
    """_pl_form_terms replayed in extended precision on the float64 cells."""
    ld = np.longdouble
    edges = _cell_edges(np.asarray(xs, dtype=float), interval)
    vals = np.interp(edges, xs, ys)
    edges, vals = edges.astype(ld), vals.astype(ld)
    return _pl_form_terms(edges, np.diff(vals) / np.diff(edges), ld(alpha))[0]


class TestPiecewiseLinearForm:
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.1, 1.5, 1.9])
    def test_linear_closed_form(self, alpha):
        unit = piecewise_linear_form([0.0, 1.0], [0.0, 1.0], alpha, (0.0, 1.0))
        assert unit.value == pytest.approx(linear_form_oracle(alpha, 1.0), rel=1e-13)
        assert abs(unit.value - linear_form_oracle(alpha, 1.0)) <= unit.error_estimate
        wide = piecewise_linear_form([-2.0, 1.0], [-2.0, 1.0], alpha, (-2.0, 1.0))
        assert wide.value == pytest.approx(linear_form_oracle(alpha, 3.0), rel=1e-13)
        # The unit ramp (x - a) / L on (-2, 1) carries the factor L^(1-alpha).
        ramp = piecewise_linear_form([-2.0, 1.0], [0.0, 1.0], alpha, (-2.0, 1.0))
        want = 2.0 / ((2.0 - alpha) * (3.0 - alpha)) * 3.0 ** (1.0 - alpha)
        assert ramp.value == pytest.approx(want, rel=1e-13)
        for r in (unit, wide, ramp):
            assert 0.0 < r.error_estimate <= 1e-10 * r.value

    def test_mpmath_references_for_kinked_inputs(self):
        # 30-digit mpmath evaluations of the double integral (outer integral
        # over u split at the kink distances, exact inner pieces).
        cases = [([0.0, 0.5, 1.0], [0.0, 1.0, 0.0], 3.0114946277372597),
                 ([0.0, 0.3, 1.0], [0.0, 1.0, 1.0], 2.1995418514963731)]
        for xs, ys, ref in cases:
            r = piecewise_linear_form(xs, ys, 1.1, (0.0, 1.0))
            assert abs(r.value - ref) <= 1e-12 * ref

    def test_homogeneous_and_blind_to_constants(self):
        rng = make_rng(31)
        for alpha in (1.1, 1.5, 1.9, 0.3, 0.6, 0.9):
            f = random_piecewise_linear(rng)
            base = piecewise_linear_form(f.xs, f.ys, alpha, (0.0, 1.0))
            scaled = piecewise_linear_form(f.xs, -3.7 * f.ys, alpha, (0.0, 1.0)).value
            shifted = piecewise_linear_form(f.xs, f.ys + 2.25, alpha, (0.0, 1.0)).value
            assert scaled == pytest.approx(3.7**2 * base.value, rel=1e-12)
            assert shifted == pytest.approx(base.value, rel=1e-12)
            # Mirror image x -> 1 - x: the same form, summed in another order.
            mirrored = piecewise_linear_form(1.0 - f.xs[::-1], f.ys[::-1], alpha, (0.0, 1.0))
            bound = mirrored.error_estimate + base.error_estimate
            assert abs(mirrored.value - base.value) <= bound

    def test_knots_outside_interval_match_clipped_function(self):
        alpha = 1.4
        f = PiecewiseLinear([-0.5, 0.2, 0.6, 1.7], [1.0, -0.4, 0.8, 2.0])
        a, b = 0.0, 1.0
        clipped_xs = [a, 0.2, 0.6, b]
        clipped = piecewise_linear_form(clipped_xs, f(np.array(clipped_xs)), alpha, (a, b))
        r = piecewise_linear_form(f.xs, f.ys, alpha, (a, b))
        assert r.value == pytest.approx(clipped.value, rel=1e-13)
        # An interval wider than the knots sees the clamped constant ends.
        g = PiecewiseLinear([0.25, 0.5, 0.75], [0.0, 1.0, 0.5])
        padded = piecewise_linear_form([0.0, 0.25, 0.5, 0.75, 1.0],
                                       [0.0, 0.0, 1.0, 0.5, 0.5], alpha, (0.0, 1.0))
        r = piecewise_linear_form(g.xs, g.ys, alpha, (0.0, 1.0))
        assert r.value == pytest.approx(padded.value, rel=1e-13)

    def test_agrees_with_tight_quadrature(self):
        # The mpmath quadrature of the weighted form at w = 1, which shares
        # no code with d^T W d.
        cases = [([0.0, 0.5, 1.0], [0.0, 1.0, 0.0]),
                 ([0.0, 0.25, 0.75, 1.0], [0.0, 1.0, -0.5, 0.5]),
                 ([0.0, 0.375, 0.625, 1.0], [0.0, 1.0, 0.25, 1.25])]
        for xs, ys in cases:
            exact = piecewise_linear_form(xs, ys, 1.1, (0.0, 1.0))
            quad = weighted_form_oracle(xs, ys, [0.0, 1.0], [1.0, 1.0], 1.1, (0.0, 1.0))
            assert abs(exact.value - quad) <= 1e-6 * exact.value

    def test_error_estimate_bounds_rounding(self):
        # The 3000 (function, alpha) pairs of acceptance criterion 8: the
        # float64 value against the same d^T W d in extended precision.
        rng = make_rng(20260115 + 1)
        functions = [random_piecewise_linear(rng) for _ in range(1000)]
        ld = np.longdouble
        worst = 0.0
        for alpha in (1.1, 1.5, 1.9, 0.3, 0.6, 0.9):
            for f in functions:
                r = piecewise_linear_form(f.xs, f.ys, alpha, (0.0, 1.0))
                xs, ys = f.xs.astype(ld), f.ys.astype(ld)
                v_ld, _ = _pl_form_terms(xs, np.diff(ys) / np.diff(xs), ld(alpha))
                err = float(abs(ld(r.value) - v_ld))
                assert err <= r.error_estimate, (alpha, f.xs, f.ys)
                assert r.error_estimate <= 1e-6 * r.value
                worst = max(worst, err / r.error_estimate)
        assert worst > 0.0

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.7, 0.95])
    def test_counterexample_steps(self, alpha):
        # The scan's steps against the cell-pair moments of the weighted form
        # at w = 1, and each reported estimate against an extended-precision
        # replay of the same d^T W d.
        for n in (1, 8, 32):
            f = _compressed_step(n)
            r = piecewise_linear_form(f.xs, f.ys, alpha, (0.0, 1.0))
            w = piecewise_linear_weighted_form(f.xs, f.ys, [0.0, 1.0], [1.0, 1.0],
                                               alpha, (0.0, 1.0))
            assert abs(r.value - w.value) <= r.error_estimate + w.error_estimate
        scan = counterexample_scan(alpha)
        for n, value, err in zip(scan.n_list, scan.values, scan.error_estimates):
            f = _compressed_step(n)
            exact = pl_form_longdouble(f.xs, f.ys, alpha, (0.0, 1.0))
            assert 0.0 < err and float(abs(np.longdouble(value) - exact)) <= err, (alpha, n)

    def test_domain(self):
        for alpha in (1.0, 2.0, 2.5, 0.0):
            with pytest.raises(DomainError):
                piecewise_linear_form([0.0, 1.0], [0.0, 1.0], alpha, (0.0, 1.0))
        assert piecewise_linear_form([0.0, 1.0], [0.0, 1.0], 0.5, (0.0, 1.0)).value > 0.0
        for interval in ((1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(DomainError):
                piecewise_linear_form([0.0, 1.0], [0.0, 1.0], 1.5, interval)
        with pytest.raises(DomainError):
            piecewise_linear_form([0.0, 0.0, 1.0], [0.0, 1.0, 1.0], 1.5, (0.0, 1.0))


def weighted_form_oracle(f_xs, f_ys, w_xs, w_ys, alpha, interval, dps=20):
    """mpmath value of iint (f(x)-f(y))^2 w(x) w(y) |x-y|^(-1-alpha).

    Substituting u = y - x gives 2 int_0^L u^(-1-alpha) inner(u) du, with
    inner(u) the integral over x of (f(x+u)-f(x))^2 w(x) w(x+u), exact by
    3-point Gauss between the breakpoints {knots} and {knots - u}. inner is
    smooth between knot distances. Below the smallest one, u1, it is a
    polynomial of degree <= 5 vanishing to second order at 0, so it is
    fitted there from eight values and integrated against u^(-1-alpha) in
    closed form.
    """
    with mp.workdps(dps):
        a, b = mp.mpf(interval[0]), mp.mpf(interval[1])
        fx, fy, wx, wy = ([mp.mpf(float(v)) for v in arr] for arr in (f_xs, f_ys, w_xs, w_ys))

        def interp(x, xs, ys):
            if x <= xs[0]:
                return ys[0]
            k = next((k for k in range(len(xs) - 1) if x <= xs[k + 1]), None)
            if k is None:
                return ys[-1]
            return ys[k] + (ys[k + 1] - ys[k]) * (x - xs[k]) / (xs[k + 1] - xs[k])

        knots = sorted({a, b} | {k for k in fx + wx if a < k < b})
        nodes, weights = (list(map(mp.mpf, v)) for v in np.polynomial.legendre.leggauss(3))

        def inner(u):
            pts = sorted({a, b - u} | {k for k in knots if a < k < b - u}
                         | {k - u for k in knots if a < k - u < b - u})
            total = mp.mpf(0)
            for lo, hi in zip(pts[:-1], pts[1:]):
                for z, wt in zip(nodes, weights):
                    x = (lo + hi) / 2 + (hi - lo) / 2 * z
                    df = interp(x + u, fx, fy) - interp(x, fx, fy)
                    total += (hi - lo) / 2 * wt * df * df * interp(x, wx, wy) * interp(x + u, wx, wy)
            return total

        al = mp.mpf(float(alpha))
        splits = sorted({mp.mpf(0), b - a} | {abs(p - q) for p in knots for q in knots
                                               if 0 < abs(p - q) < b - a})
        u1 = splits[1]
        # Fitted in v = u / u1, so the fit stays well conditioned for tiny u1.
        vs = [mp.mpf(j + 1) / 8 for j in range(8)]
        coef = mp.lu_solve(mp.matrix([[v ** j for j in range(8)] for v in vs]),
                           mp.matrix([inner(u1 * v) for v in vs]))
        head = sum(coef[j] * u1 ** (-al) / (j - al) for j in range(2, 8))
        # Pieces span at most a factor two in u, so u^(-1-alpha) stays
        # resolved when the knot distances span many scales.
        pieces = [u1]
        for hi in splits[2:]:
            while 2 * pieces[-1] < hi:
                pieces.append(2 * pieces[-1])
            pieces.append(hi)
        tail = mp.quad(lambda u: u ** (-1 - al) * inner(u), pieces, method="gauss-legendre")
        return float(2 * (head + tail))


# 2-4 cells of unequal widths (cells are cut at the knots of both functions).
ORACLE_CASES = [
    ([0.0, 0.3, 1.0], [0.0, 1.0, 0.5], [0.0, 0.6, 1.0], [1.0, 0.7, 0.2], (0.0, 1.0)),
    ([0.0, 0.1, 0.45, 1.0], [1.0, -1.0, 2.0, 0.0], [0.2, 0.8], [2.0, 1.0], (0.0, 1.0)),
    ([-1.0, 0.5], [0.0, 1.0], [-1.0, -0.2, 0.5], [0.5, 1.0, 0.25], (-1.0, 0.5)),
]


def weighted_replay_ld(f_xs, f_ys, w_xs, w_ys, alpha, interval):
    """The same computation in np.longdouble, from the same cells and values."""
    ld = np.longdouble
    edges = _balanced(np.union1d(_cell_edges(np.asarray(f_xs, float), interval),
                                 _cell_edges(np.asarray(w_xs, float), interval)))
    value, _, _ = _pl_weighted_terms(edges.astype(ld), np.interp(edges, f_xs, f_ys).astype(ld),
                                     np.interp(edges, w_xs, w_ys).astype(ld), ld(alpha))
    return value


class TestPiecewiseLinearWeightedForm:
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_unit_weight_matches_unweighted_form(self, alpha):
        # piecewise_linear_form integrates the kernel against slopes
        # (d^T W d); this function integrates cell-pair moments. Grids in
        # index coordinates (equal widths) and random knots.
        rng = make_rng(41)
        inputs = []
        for n in (8, 64, 512):
            xs = np.arange(n + 2.0)
            inputs.append((xs, np.cumsum(rng.standard_normal(n + 2)), (0.0, n + 1.0)))
        for _ in range(4):
            f = random_piecewise_linear(rng)
            inputs.append((f.xs, f.ys, (0.0, 1.0)))
        for xs, ys, interval in inputs:
            r = piecewise_linear_weighted_form(xs, ys, [0.0, 1.0], [1.0, 1.0], alpha, interval)
            want = piecewise_linear_form(xs, ys, alpha, interval).value
            assert r.value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.9, 1.0, 1.3])
    def test_linear_closed_form(self, alpha):
        r = piecewise_linear_weighted_form([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0],
                                           alpha, (0.0, 1.0))
        want = 2.0 / ((2.0 - alpha) * (3.0 - alpha))
        assert r.value == pytest.approx(want, rel=1e-14)
        assert abs(r.value - want) <= r.error_estimate <= 1e-12 * want

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.5, 1.95])
    def test_mpmath_references(self, alpha):
        for case in ORACLE_CASES:
            *data, interval = case
            ref = weighted_form_oracle(*data, alpha, interval)
            r = piecewise_linear_weighted_form(*data, alpha, interval)
            assert abs(r.value - ref) <= 1e-13 * ref
            assert abs(r.value - ref) <= r.error_estimate <= 1e-12 * ref

    def test_mpmath_reference_across_scales(self):
        # A 1e-12 cell next to cells of width 0.5: the balanced mesh grades
        # between them, and value and bound still hold.
        data = ([0.0, 1e-12, 0.5, 1.0], [0.0, 1.0, -1.0, 0.3], [0.0, 1.0], [1.0, 2.0])
        ref = weighted_form_oracle(*data, 1.95, (0.0, 1.0))
        r = piecewise_linear_weighted_form(*data, 1.95, (0.0, 1.0))
        assert abs(r.value - ref) <= r.error_estimate <= 1e-12 * ref

    def test_quadrature_breakdown_case(self):
        # On this 8-cell pair at alpha = 1.95, the package's former adaptive
        # double quadrature, at tolerance 1e-9 and 4096 panels, exhausted
        # its budget (refinement difference 4e-3 after 113 s).
        f = ([0.0, 0.15, 0.4, 0.6, 0.85, 1.0], [0.0, 0.8, -0.3, 0.5, 1.2, 1.0])
        w = ([0.0, 0.3, 0.5, 0.7, 1.0], [1.5, 1.2, 1.0, 0.6, 0.4])
        r = piecewise_linear_weighted_form(*f, *w, 1.95, (0.0, 1.0))
        ref = weighted_form_oracle(*f, *w, 1.95, (0.0, 1.0))
        assert math.isfinite(r.value)
        assert abs(r.value - ref) <= r.error_estimate <= 1e-12 * ref

    def test_homogeneity_and_invariances(self):
        rng = make_rng(43)
        for alpha in (0.4, 1.0, 1.6):
            f = random_piecewise_linear(rng)
            w = random_piecewise_linear(rng, 6)
            wy = 0.5 + w.ys ** 2
            base = piecewise_linear_weighted_form(f.xs, f.ys, w.xs, wy, alpha, (0.0, 1.0)).value

            def form(fx, fy, wx, wy_):
                return piecewise_linear_weighted_form(fx, fy, wx, wy_, alpha, (0.0, 1.0)).value

            assert form(f.xs, -2.5 * f.ys, w.xs, wy) == pytest.approx(6.25 * base, rel=1e-13)
            assert form(f.xs, f.ys, w.xs, 3.0 * wy) == pytest.approx(9.0 * base, rel=1e-13)
            assert form(f.xs, f.ys + 4.75, w.xs, wy) == pytest.approx(base, rel=1e-12)
            mirrored = form(1.0 - f.xs[::-1], f.ys[::-1], 1.0 - w.xs[::-1], wy[::-1])
            assert mirrored == pytest.approx(base, rel=1e-12)

    def test_error_estimate_bounds_rounding(self):
        # Against the same computation in extended precision: equal-width
        # grids (the Rayleigh quotient's shape: a random-walk ratio against
        # a positive weight) and random knots at every alpha.
        rng = make_rng(47)
        worst = 0.0
        for trial in range(24):
            alpha = (0.3, 1.0, 1.5, 1.95)[trial % 4]
            if trial % 3 == 0:
                n = int(rng.integers(2, 200))
                xs = np.arange(n + 2.0)
                data = (xs, np.cumsum(rng.standard_normal(n + 2)) + 3.0,
                        xs, np.abs(rng.standard_normal(n + 2)))
                interval = (0.0, n + 1.0)
            else:
                f = random_piecewise_linear(rng)
                w = random_piecewise_linear(rng, 8)
                data = (f.xs, f.ys, w.xs, 1.0 + w.ys ** 2)
                interval = (0.0, 1.0)
            r = piecewise_linear_weighted_form(*data, alpha, interval)
            err = float(abs(np.longdouble(r.value) - weighted_replay_ld(*data, alpha, interval)))
            assert err <= r.error_estimate, (trial, err, r.error_estimate)
            assert r.error_estimate <= 1e-11 * r.value
            worst = max(worst, err / r.error_estimate)
        assert worst > 0.0

    def test_domain(self):
        args = ([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0])
        for alpha in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(DomainError):
                piecewise_linear_weighted_form(*args, alpha, (0.0, 1.0))
        for interval in ((1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(DomainError):
                piecewise_linear_weighted_form(*args, 1.5, interval)
        with pytest.raises(DomainError):
            piecewise_linear_weighted_form([0.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                                           [0.0, 1.0], [1.0, 1.0], 1.5, (0.0, 1.0))
        with pytest.raises(DomainError):
            piecewise_linear_weighted_form([0.0, 1.0], [0.0, 1.0],
                                           [0.0, 0.5, 0.5], [1.0, 1.0, 1.0], 1.5, (0.0, 1.0))
