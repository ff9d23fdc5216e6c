"""Potential families: values, domain gating, CSV round-trip, well validation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgap.errors import DomainError
from fracgap.potentials import (
    Potential,
    load_tabulated_csv,
    make_inverse_boundary_well,
    make_power_well,
    make_tabulated,
    make_zero,
    validate_single_well,
)


class TestZero:
    def test_values(self):
        v = make_zero((-1.0, 1.0))
        assert np.all(v(np.linspace(-1, 1, 7)) == 0.0)

    def test_offset(self):
        v = make_zero((0.0, 2.0), offset=-3.0)
        assert v(1.0) == pytest.approx(-3.0)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            make_zero((1.0, 1.0))
        with pytest.raises(DomainError):
            make_zero((0.0, float("inf")))


class TestPowerWell:
    def test_quadratic_values(self):
        v = make_power_well(1.0, 2.0, (-1.0, 1.0))
        assert v(0.5) == pytest.approx(0.25, rel=1e-14)
        assert v(-0.5) == pytest.approx(0.25, rel=1e-14)
        assert v(0.0) == pytest.approx(0.0, abs=1e-15)

    def test_off_center_interval(self):
        # midpoint of (0, 2) is 1, so V(x) = kappa |x - 1|^p there
        v = make_power_well(3.0, 1.0, (0.0, 2.0))
        assert v(0.5) == pytest.approx(1.5, rel=1e-14)

    def test_offset_applied(self):
        v = make_power_well(1.0, 2.0, (-1.0, 1.0), offset=-3.0)
        assert v(0.0) == pytest.approx(-3.0)

    def test_parameter_gating(self):
        with pytest.raises(DomainError):
            make_power_well(-0.1, 2.0, (-1.0, 1.0))
        with pytest.raises(DomainError):
            make_power_well(1.0, 0.9, (-1.0, 1.0))

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=1.0, max_value=3.0))
    def test_always_single_well(self, kappa, p):
        v = make_power_well(kappa, p, (-1.0, 1.0))
        assert validate_single_well(v).passed


class TestInverseBoundaryWell:
    def test_values(self):
        # beta = 0.5: at s = +-0.8 the value is (1 - 0.64)^(-1/2) = 1/0.6
        v = make_inverse_boundary_well(0.5, 1.5, (-1.0, 1.0))
        assert v(0.8) == pytest.approx(1.0 / 0.6, rel=1e-12)
        assert v(-0.8) == pytest.approx(1.0 / 0.6, rel=1e-12)

    def test_endpoint_clamp_keeps_values_finite(self):
        v = make_inverse_boundary_well(0.5, 1.5, (-1.0, 1.0))
        vals = v(np.array([-1.0, 1.0]))
        assert np.all(np.isfinite(vals))
        assert np.all(vals > 1.0)

    def test_beta_gated_by_alpha(self):
        # beta must stay below min(alpha, 1)
        with pytest.raises(DomainError):
            make_inverse_boundary_well(0.7, 0.5, (-1.0, 1.0))
        with pytest.raises(DomainError):
            make_inverse_boundary_well(1.0, 1.5, (-1.0, 1.0))
        make_inverse_boundary_well(0.4, 0.5, (-1.0, 1.0))

    def test_single_well(self):
        v = make_inverse_boundary_well(0.3, 1.2, (0.0, 3.0))
        assert validate_single_well(v).passed


class TestTabulated:
    def test_interpolation(self):
        v = make_tabulated([0.0, 1.0, 2.0], [2.0, 0.0, 2.0])
        assert v.interval == (0.0, 2.0)
        assert v(0.5) == pytest.approx(1.0)

    def test_rejects_unsorted_and_nonfinite(self):
        with pytest.raises(DomainError):
            make_tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            make_tabulated([0.0, 1.0], [np.nan, 1.0])
        with pytest.raises(DomainError):
            make_tabulated([0.0], [1.0])

    def test_table_holds_copies(self):
        xs, ys = np.array([0.0, 1.0, 2.0]), np.array([2.0, 0.0, 2.0])
        v = make_tabulated(xs, ys)
        xs[1], ys[1] = 1.5, 9.0
        assert v(1.0) == 0.0

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "well.csv"
        path.write_text("x,V\n-1.0,4.0\n-0.5,1.0\n0.0,0.0\n0.5,1.0\n1.0,4.0\n")
        v = load_tabulated_csv(path)
        assert v.interval == (-1.0, 1.0)
        assert v(-0.5) == pytest.approx(1.0)
        assert validate_single_well(v).passed

    def test_csv_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n0.5,oops\n")
        with pytest.raises(DomainError):
            load_tabulated_csv(path)
        path.write_text("x,V\n0.0,1.0\n")
        with pytest.raises(DomainError):
            load_tabulated_csv(path)


class TestValidateSingleWell:
    def test_w_shape_fails_with_located_violation(self):
        # Symmetric but rising from the midpoint outward on the left half.
        v = make_tabulated([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 2.0, 3.0, 2.0, 0.0])
        report = validate_single_well(v)
        assert not report.passed
        assert report.symmetric
        assert not report.single_well
        # The first rising segment, located at its knots.
        assert report.violation == (-1.0, -0.5)

    def test_asymmetric_fails(self):
        v = make_tabulated([-1.0, 0.0, 1.0], [3.0, 0.0, 2.0])
        report = validate_single_well(v)
        assert not report.passed
        assert not report.symmetric
        assert report.max_symmetry_error > 0.1

    def test_bump_between_samples_is_asymmetric(self):
        # A spike at 0.3 narrower than any fixed sample spacing; the knot
        # check sees it.
        v = make_tabulated([-1.0, 0.0, 0.295, 0.3, 0.305, 1.0],
                           [1.0, 0.0, 0.295, 5.0, 0.305, 1.0])
        report = validate_single_well(v)
        assert not report.passed
        assert not report.symmetric
        assert report.max_symmetry_error == pytest.approx(4.7)
        assert report.violation == (-0.3, 0.3)

    def test_rise_to_midpoint_without_interior_knots(self):
        v = make_tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        report = validate_single_well(v)
        assert report.symmetric and not report.single_well
        assert report.violation == (-1.0, 0.0)


class TestSymmetric:
    @pytest.mark.parametrize("pot", [
        make_zero((3.0, 7.5), offset=-2.0),
        make_power_well(4.0, 2.5, (-0.3, 2.0), offset=1.5),
        make_power_well(0.0, 1.0, (100.0, 101.0), offset=-7.0),
        make_inverse_boundary_well(0.3, 0.35, (100.0, 101.0)),
        make_inverse_boundary_well(0.6, 1.5, (-5.0, 7.3)),
    ], ids=["zero", "power", "flat_power", "inverse_far", "inverse_wide"])
    def test_analytic_families_by_definition(self, pot):
        assert pot.symmetric
        assert validate_single_well(pot).passed

    def test_symmetric_table(self):
        # Knots at linspace(0.1, 2.3, 23) mirror each other only to rounding.
        xs = np.linspace(0.1, 2.3, 23)
        v = make_tabulated(xs, 4.0 * np.abs(xs - 1.2) ** 2)
        assert v.symmetric
        assert validate_single_well(v).passed

    def test_off_centre_table(self):
        xs = np.linspace(-1.0, 1.0, 17)
        assert not make_tabulated(xs, 10.0 * np.abs(xs - 0.4) ** 2).symmetric


def plain_values(pot, x):
    """The families' formulas as plain out-of-place expressions."""
    x = np.asarray(x, dtype=float)
    a, b = pot.interval
    if pot.kind == "zero":
        vals = np.zeros_like(x)
    elif pot.kind == "power_well":
        kappa, p = pot.params
        vals = kappa * np.abs(x - 0.5 * (a + b)) ** p
    elif pot.kind == "inverse_boundary_well":
        (beta,) = pot.params
        xc = np.clip(x, a + 1e-9, b - 1e-9)
        s = (2.0 * xc - (a + b)) / (b - a)
        vals = (1.0 - s * s) ** (-beta)
    else:
        vals = np.interp(x, pot.table.xs, pot.table.ys)
    return vals + pot.offset


class TestInPlaceEvaluation:
    """Potential.__call__ builds its values in place, bit for bit as the
    plain expressions, without writing its input."""

    INTERVAL = (-1.3, 0.7)
    TABLE = make_tabulated([-1.3, -0.5, -0.3, 0.2, 0.7], [3.0, 1.0, 0.0, 1.0, 3.0])

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    @pytest.mark.parametrize("family", [
        ("zero", ()), ("power_well", (1.7, 1.0)), ("power_well", (1.7, 2.0)),
        ("power_well", (1.7, 2.7)), ("inverse_boundary_well", (0.6,)), ("tabulated", ()),
    ], ids=["zero", "power1", "power2", "power2.7", "inverse", "tabulated"])
    def test_matches_plain_expressions(self, family, offset):
        kind, params = family
        table = self.TABLE.table if kind == "tabulated" else None
        self.check(Potential(kind, self.INTERVAL, params, offset, table))

    @pytest.mark.parametrize("p", [1.0, 2.0, 2.7])
    def test_centred_power_well_matches_plain_expressions(self, p):
        # A zero midpoint skips the subtraction.
        for offset in (0.0, 0.3):
            self.check(make_power_well(1.7, p, (-1.0, 1.0), offset=offset))

    @staticmethod
    def check(pot):
        a, b = pot.interval
        x = np.random.default_rng(5).uniform(-1.5, 0.9, size=(4, 97))
        # The midpoint, both zeros, and the endpoints.
        x[0, :5] = [0.5 * (a + b), -0.0, 0.0, a, b]
        inputs = [x, x[:, ::3], np.array(-0.3), np.array(-0.0), -0.3, -0.0,
                  *map(float, x[1, :40])]
        for xin in inputs:
            before = np.array(xin, copy=True)
            got, want = pot(xin), plain_values(pot, xin)
            assert type(got) is type(want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(np.asarray(xin), before)
            assert np.signbit(np.asarray(xin)).tolist() == np.signbit(before).tolist()
            if np.ndim(xin) == 0:
                assert type(got) is np.float64

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_quadratic_well_bitwise(self, offset):
        # p == 2 squares where other powers call **; every bit matches the
        # plain expression, the sign of a NaN included.
        pot = make_power_well(1.7, 2.0, (-1.0, 1.0), offset=offset)
        big = np.finfo(float).max
        tiny = np.finfo(float).tiny
        edge = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, 1.5e-162, -1e-160,
                1.3e154, -1.4e154, 1e300, -big, math.inf, -math.inf, math.nan, -math.nan]
        x = np.concatenate([np.random.default_rng(9).uniform(-2.0, 2.0, 10_000), edge])
        for xin in [x, *map(np.array, edge)]:
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                got, want = pot(xin), plain_values(pot, xin)
            assert type(got) is type(want)
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64)), xin
