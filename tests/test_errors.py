"""Every entry point refuses a bad interval and an alpha at either end of
its range, through the two shared domain checks."""

import math

import pytest

from fracgap.errors import DomainError, _require_interval, _require_open
from fracgap.forms import gap_bounds
from fracgap.montecarlo import (PathConfig, make_rng, sample_stable_increment,
                                sample_subordinator_increment)
from fracgap.numerics import (PiecewiseLinear, piecewise_linear_form, piecewise_linear_mass,
                              piecewise_linear_weighted_form)
from fracgap.poincare import (counterexample_scan, poincare_check, poincare_constant,
                              step_contraction, weighted_poincare_check, witness_search)
from fracgap.potentials import make_inverse_boundary_well, make_power_well, make_zero
from fracgap.spectral import Grid

RAMP = PiecewiseLinear([0.0, 1.0], [0.0, 1.0])
ONE = PiecewiseLinear([0.0, 1.0], [1.0, 1.0])

# name: (call(alpha, a, b), the open alpha range or None, a good alpha or
# None, whether the call takes an interval). (0, 1) is a good interval
# for every call.
ENTRY_POINTS = {
    "Grid": (lambda al, a, b: Grid(a, b, 8), None, None, True),
    "PathConfig": (lambda al, a, b: PathConfig(al, 0.25, 8, (a, b), 0), (0.0, 2.0), 1.5, True),
    "sample_stable_increment": (
        lambda al, a, b: sample_stable_increment(al, 0.1, make_rng(1), 4), (0.0, 2.0), 1.5, False),
    "sample_subordinator_increment": (
        lambda al, a, b: sample_subordinator_increment(al, 0.1, make_rng(1), 4),
        (0.0, 1.0), 0.5, False),
    "piecewise_linear_form": (
        lambda al, a, b: piecewise_linear_form(RAMP, al, (a, b)), (0.0, 2.0), 1.5, True),
    "piecewise_linear_weighted_form": (
        lambda al, a, b: piecewise_linear_weighted_form(RAMP, ONE, al, (a, b)),
        (0.0, 2.0), 1.5, True),
    "piecewise_linear_mass": (
        lambda al, a, b: piecewise_linear_mass(RAMP, ONE, (a, b)), None, None, True),
    "gap_bounds": (lambda al, a, b: gap_bounds(al, a, b), (0.0, 2.0), 1.5, True),
    "poincare_constant": (lambda al, a, b: poincare_constant(al), (1.0, 2.0), 1.5, False),
    "step_contraction": (lambda al, a, b: step_contraction(al), (1.0, 2.0), 1.5, False),
    "witness_search": (lambda al, a, b: witness_search(RAMP, al), (1.0, 2.0), 1.5, False),
    "poincare_check": (lambda al, a, b: poincare_check(RAMP, al, (a, b)), (1.0, 2.0), 1.5, True),
    "weighted_poincare_check": (
        lambda al, a, b: weighted_poincare_check(RAMP, ONE, al, (a, b)), (1.0, 2.0), 1.5, True),
    "counterexample_scan": (lambda al, a, b: counterexample_scan(al), (0.0, 1.0), 0.5, False),
    "make_zero": (lambda al, a, b: make_zero((a, b)), None, None, True),
    "make_power_well": (lambda al, a, b: make_power_well(5.0, 2.0, (a, b)), None, None, True),
    "make_inverse_boundary_well": (
        lambda al, a, b: make_inverse_boundary_well(0.3, al, (a, b)), (0.0, 2.0), 1.5, True),
}

BAD_INTERVALS = [(0.0, math.inf), (1.0, 0.0), (math.nan, 1.0), (-1e308, 1e308)]


def _cases():
    for name, (call, span, good, takes_interval) in ENTRY_POINTS.items():
        if takes_interval:
            for a, b in BAD_INTERVALS:
                yield pytest.param(call, good, a, b, "^interval must be finite with b > a",
                                   id=f"{name}-({a}, {b})")
        if span is not None:
            for end in span:
                yield pytest.param(call, end, 0.0, 1.0,
                                   r"^(alpha|subordinator index) must lie in \(",
                                   id=f"{name}-alpha={end}")


@pytest.mark.parametrize("call, alpha, a, b, message", list(_cases()))
def test_entry_points_refuse_bad_domains(call, alpha, a, b, message):
    with pytest.raises(DomainError, match=message):
        call(alpha, a, b)


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_points_accept_a_good_domain(name):
    # The refusals above come from the domain, not from the call's form.
    call, _, good, _ = ENTRY_POINTS[name]
    call(good, 0.0, 1.0)


def test_checks_return_floats():
    assert _require_interval(0, 5e-324) == (0.0, 5e-324)
    assert type(_require_interval(-1, 1)[0]) is float
    assert _require_open(1, 0.0, 2.0, "alpha") == 1.0
    assert type(_require_open(1, 0.0, 2.0, "alpha")) is float
    with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 2\), got nan$"):
        _require_open(math.nan, 0.0, 2.0, "alpha")
