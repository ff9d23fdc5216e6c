"""Every entry point refuses a bad interval, an alpha at either end of its
range, a count that is not an integer at least its least value and a time
outside (0, inf), through the shared domain checks."""

import math

import pytest

import numpy as np

from fracgap.errors import DomainError, _require_count, _require_interval, _require_open
from fracgap.forms import gap_bounds
from fracgap.montecarlo import (PathConfig, cauchy_kernel_check, estimate_feynman_kac,
                                gaussian_chain, make_rng, sample_stable_increment,
                                sample_subordinator_increment)
from fracgap.numerics import (PiecewiseLinear, piecewise_linear_form, piecewise_linear_mass,
                              piecewise_linear_weighted_form)
from fracgap.poincare import (counterexample_scan, poincare_check, poincare_constant,
                              random_piecewise_linear, step_contraction,
                              weighted_poincare_check, witness_search)
from fracgap.potentials import make_inverse_boundary_well, make_power_well, make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve, frac_coeffs

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


ZERO = make_zero((0.0, 1.0))
OP = assemble_operator(Grid(0.0, 1.0, 8), 1.5, ZERO)

# name: (call(count), least value).
COUNTS = {
    "Grid.n": (lambda n: Grid(0.0, 1.0, n), 2),
    "frac_coeffs.k_max": (lambda n: frac_coeffs(1.5, n), 1),
    "eigensolve.m": (lambda n: eigensolve(OP, n), 1),
    "PathConfig.n_steps": (lambda n: PathConfig(1.5, 0.25, n, (0.0, 1.0), 0), 1),
    "PathConfig.seed": (lambda n: PathConfig(1.5, 0.25, 8, (0.0, 1.0), n), 0),
    "make_rng.seed": (make_rng, 0),
    "estimate_feynman_kac.n_paths": (
        lambda n: estimate_feynman_kac([0.5], ZERO, PathConfig(1.5, 0.25, 8, (0.0, 1.0), 0), n),
        2),
    "cauchy_kernel_check.n_samples": (
        lambda n: cauchy_kernel_check(1.0, [0.0], n_samples=n), 2),
    "random_piecewise_linear.max_segments": (
        lambda n: random_piecewise_linear(make_rng(1), n), 3),
    "counterexample_scan.n_list": (lambda n: counterexample_scan(0.5, (n, 40)), 1),
}

# name: call(time).
TIMES = {
    "PathConfig.t_final": lambda t: PathConfig(1.5, t, 8, (0.0, 1.0), 0),
    "sample_stable_increment.dt": lambda t: sample_stable_increment(1.5, t, make_rng(1), 4),
    "sample_subordinator_increment.dt": (
        lambda t: sample_subordinator_increment(0.5, t, make_rng(1), 4)),
    "cauchy_kernel_check.t": lambda t: cauchy_kernel_check(t, [0.0], n_samples=2),
    "gaussian_chain.kernel_times": lambda t: gaussian_chain([0.5], [0.1, t], [0.0, 0.0], ZERO),
}


def _count_cases():
    for name, (call, least) in COUNTS.items():
        for value, message in [(float(least + 1), "must be an integer, got"),
                               (True, "must be an integer, got True"),
                               (least - 1, f"must be >= {least}, got {least - 1}")]:
            yield pytest.param(call, value, message, id=f"{name}={value!r}")


@pytest.mark.parametrize("call, value, message", list(_count_cases()))
def test_counts_refuse_floats_bools_and_values_below_their_least(call, value, message):
    with pytest.raises(DomainError, match=message):
        call(value)


@pytest.mark.parametrize("name", list(COUNTS))
def test_counts_accept_their_least_value_as_a_numpy_integer(name):
    call, least = COUNTS[name]
    call(np.int64(least))


@pytest.mark.parametrize("name", list(TIMES))
@pytest.mark.parametrize("value", [0.0, math.inf, math.nan])
def test_times_refuse_values_outside_zero_to_inf(name, value):
    with pytest.raises(DomainError, match=r"must lie in \(0, inf\), got "):
        TIMES[name](value)


@pytest.mark.parametrize("name", list(TIMES))
def test_times_accept_a_positive_value(name):
    TIMES[name](0.1)


def test_count_check_returns_an_int():
    assert _require_count(np.int64(3), 1, "n") == 3
    assert type(_require_count(np.int64(3), 1, "n")) is int
    with pytest.raises(DomainError, match=r"^n must be an integer, got '3'$"):
        _require_count("3", 1, "n")
