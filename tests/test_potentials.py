"""Potential families: values, domain gating, CSV round-trip, well validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgap.errors import DomainError
from fracgap.potentials import (
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
        lo, hi = report.violation
        assert -1.0 < lo < hi <= 0.0

    def test_asymmetric_fails(self):
        v = make_tabulated([-1.0, 0.0, 1.0], [3.0, 0.0, 2.0])
        report = validate_single_well(v)
        assert not report.passed
        assert not report.symmetric
        assert report.max_symmetry_error > 0.1
