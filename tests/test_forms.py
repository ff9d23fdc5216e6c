"""Weighted forms vs the eigensolve, and the closed-form gap bounds.

rayleigh_gap and weighted_form evaluate the weighted form of
piecewise-linear functions exactly.
"""

import numpy as np
import pytest

from fracgap.errors import DomainError
from fracgap.forms import (
    check_gaps,
    gap_bounds,
    ground_state_weight,
    rayleigh_gap,
    weighted_form,
)
from fracgap.numerics import levy_constant
from fracgap.poincare import PiecewiseLinear
from fracgap.potentials import make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve


def linear(slope=1.0, intercept=0.0):
    """slope * x + intercept on the fixtures' interval (-1, 1)."""
    return PiecewiseLinear([-1.0, 1.0], [intercept - slope, intercept + slope])


class TestGroundStateWeight:
    def test_pinned_at_endpoints_and_matches_nodes(self, free_15_512):
        w = ground_state_weight(free_15_512)
        assert w(-1.0) == 0.0
        assert w(1.0) == 0.0
        x = free_15_512.grid.nodes()
        assert np.allclose(w(x), free_15_512.eigenvectors[:, 0], atol=1e-14)

    def test_positive_inside(self, free_15_512):
        w = ground_state_weight(free_15_512)
        assert np.all(w(np.linspace(-0.99, 0.99, 101)) > 0)


class TestWeightedForm:
    def test_constant_in_null_space(self, free_15_512):
        r = weighted_form(linear(0.0, 3.0), free_15_512)
        assert abs(r.value) < 1e-12

    def test_golden_identity_value(self, free_15_512):
        # Frozen regression: f(x) = x against the alpha = 1.5 free ground
        # state on (-1, 1) at N = 256, resolved to ten digits.
        n256 = eigensolve(assemble_operator(Grid(-1.0, 1.0, 256), 1.5,
                                            make_zero((-1.0, 1.0))), 2)
        r256 = weighted_form(linear(), n256)
        assert r256.value == pytest.approx(0.532013819563, abs=1e-8)
        # The N = 512 weight moves the value only at discretization order.
        r512 = weighted_form(linear(), free_15_512)
        assert r512.value == pytest.approx(r256.value, rel=1e-3)

    def test_reflection_invariance(self, free_15_512):
        r1 = weighted_form(linear(), free_15_512)
        r2 = weighted_form(linear(-1.0), free_15_512)
        assert r1.value == pytest.approx(r2.value, rel=1e-8)

    def test_prefactor_is_half_levy_constant(self, free_15_512):
        # Doubling f scales the form by 4; checks the quadratic homogeneity.
        r1 = weighted_form(linear(), free_15_512)
        r2 = weighted_form(linear(2.0), free_15_512)
        assert r2.value == pytest.approx(4.0 * r1.value, rel=1e-9)


class TestRayleighGap:
    def test_free_case_matches_eigenvalue_gap(self, free_15_512):
        gap = free_15_512.eigenvalues[1] - free_15_512.eigenvalues[0]
        val = rayleigh_gap(free_15_512, 2)
        assert abs(val - gap) <= 0.02 * gap

    def test_third_level(self, free_15_512):
        gap3 = free_15_512.eigenvalues[2] - free_15_512.eigenvalues[0]
        val = rayleigh_gap(free_15_512, 3)
        assert abs(val - gap3) <= 0.03 * gap3

    def test_power_well(self, well_15_512):
        gap = well_15_512.eigenvalues[1] - well_15_512.eigenvalues[0]
        val = rayleigh_gap(well_15_512, 2)
        assert abs(val - gap) <= 0.02 * gap

    def test_n_domain(self, free_15_512):
        with pytest.raises(DomainError):
            rayleigh_gap(free_15_512, 1)
        with pytest.raises(DomainError):
            rayleigh_gap(free_15_512, free_15_512.m + 1)


class TestGapBounds:
    def test_star_bound_arithmetic(self):
        # bound_star = A / (b - a)^alpha with A the jump-kernel constant.
        b = gap_bounds(1.5, -1.0, 1.0)
        assert b.bound_star == pytest.approx(levy_constant(-1.5) / 2.0**1.5,
                                             rel=1e-13)

    def test_main_bound_arithmetic(self):
        b = gap_bounds(1.5, -1.0, 1.0)
        want = (levy_constant(-1.5) / 4.0) * (1.0 / 9.0) ** 5.0 / 2.0**1.5
        assert b.bound_main == pytest.approx(want, rel=1e-13)

    def test_main_bound_absent_at_low_alpha(self):
        assert gap_bounds(0.7, -1.0, 1.0).bound_main is None
        assert gap_bounds(1.0, -1.0, 1.0).bound_main is None

    def test_length_scaling(self):
        alpha = 1.3
        b1 = gap_bounds(alpha, 0.0, 1.0)
        b5 = gap_bounds(alpha, 0.0, 5.0)
        assert b5.bound_star == pytest.approx(b1.bound_star / 5.0**alpha, rel=1e-13)
        assert b5.bound_main == pytest.approx(b1.bound_main / 5.0**alpha, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            gap_bounds(2.0, 0.0, 1.0)
        # The last three returned GapBounds(0.0, 0.0): b > a held, and the
        # length, inf or overflowed, drove both bounds to 0.
        for a, b in [(1.0, 1.0), (0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)]:
            with pytest.raises(DomainError):
                gap_bounds(1.5, a, b)


class TestCheckGaps:
    def test_free_case_report(self, free_15_512):
        rep = check_gaps(free_15_512)
        assert rep.passed
        assert rep.pass_star
        assert rep.pass_main is True
        assert rep.star_index == 2
        assert rep.gap_star == pytest.approx(rep.gap, rel=1e-12)
        assert rep.consistency_gap_vs_rayleigh < 0.02
        # ordering sanity: gap >= star bound >= main bound
        assert rep.gap_star >= rep.bound_star
        assert rep.bound_star > rep.bound_main

    def test_low_alpha_main_bound_not_applicable(self):
        op = assemble_operator(Grid(-1.0, 1.0, 256), 0.7, make_zero((-1.0, 1.0)))
        rep = check_gaps(eigensolve(op, 4))
        assert rep.pass_main is None
        assert rep.pass_star
        assert rep.passed

    def test_well_report(self, well_15_512):
        rep = check_gaps(well_15_512)
        assert rep.passed
        assert rep.star_index == 2

    def test_needs_two_eigenvalues(self):
        op = assemble_operator(Grid(-1.0, 1.0, 64), 1.5, make_zero((-1.0, 1.0)))
        with pytest.raises(DomainError):
            check_gaps(eigensolve(op, 1))
