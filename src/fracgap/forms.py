"""Ground-state-weighted quadratic forms and spectral gap bounds.

The gap between the two lowest eigenvalues admits a variational expression:
it is the infimum over mean-zero, normalized test functions f of

    (A/2) * iint (f(x) - f(y))^2 |x-y|^(-1-alpha) phi1(x) phi1(y) dx dy,

where phi1 is the ground state and A the jump-kernel normalizing constant,
and the infimum is attained at f = phi2/phi1. This module evaluates that
form independently of the matrix eigensolve and checks both routes against
closed-form lower bounds for the gap. Test functions, the eigenfunction
ratio among them, are piecewise linear, as is the interpolated ground
state, so the form is exact up to rounding (piecewise_linear_weighted_form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import (FormValue, levy_constant, piecewise_linear_mass,
                       piecewise_linear_weighted_form)
from .poincare import PiecewiseLinear, _require_piecewise_linear
from .spectral import SpectralResult

__all__ = [
    "GapBounds",
    "GapReport",
    "ground_state_weight",
    "weighted_form",
    "rayleigh_gap",
    "gap_bounds",
    "check_gaps",
    "gap_report_to_json_dict",
]

# Ground-state fringe below this fraction of the sup is excluded from the
# eigenfunction-ratio interpolant; the ratio is noise there.
_FRINGE_RTOL = 1e-12


def ground_state_weight(result: SpectralResult) -> PiecewiseLinear:
    """Piecewise-linear interpolant of phi1, pinned to zero at the endpoints."""
    grid = result.grid
    return PiecewiseLinear(np.concatenate([[grid.a], grid.nodes(), [grid.b]]),
                           np.concatenate([[0.0], result.eigenvectors[:, 0], [0.0]]))


def _index_form(t_xs, f_ys, result: SpectralResult) -> FormValue:
    """weighted_form of the interpolant of (t_xs, f_ys) in grid-index coordinates.

    Coordinate t = (x - a) / h puts the ground-state knots on the integers
    0..N+1, where every cell has width exactly 1, so the moments depend on
    the cell offset alone; the form scales as h^(1-alpha).
    """
    grid = result.grid
    index = np.arange(grid.n + 2, dtype=float)
    raw = piecewise_linear_weighted_form(t_xs, f_ys, index, ground_state_weight(result).ys,
                                         result.alpha, (0.0, grid.n + 1.0))
    scale = 0.5 * levy_constant(-result.alpha) * grid.h ** (1.0 - result.alpha)
    return FormValue(scale * raw.value, scale * raw.error_estimate)


def weighted_form(f: PiecewiseLinear, result: SpectralResult) -> FormValue:
    """Ground-state-weighted form of f, with the normalizing prefactor A/2.

    The weight is the interpolated ground state of the given spectral
    result; constants are in the kernel's null space, so the value vanishes
    iff f is constant on the interval. Exact up to rounding, with a
    floating-point error bound (piecewise_linear_weighted_form).
    """
    _require_piecewise_linear(f)
    grid = result.grid
    # (x - a) / (b - a) is exactly 1 at x = b, so knots at the ends stay
    # on the ends.
    return _index_form((f.xs - grid.a) / (grid.b - grid.a) * (grid.n + 1), f.ys, result)


def rayleigh_gap(result: SpectralResult, n: int = 2) -> float:
    """Variational gap estimate from the eigenfunction ratio phi_n / phi_1.

    The ratio is formed at nodes where phi1 exceeds a 1e-12 fringe of its
    sup, interpolated linearly between them and extended constantly through
    the fringe to the endpoints. The returned value is the weighted form of
    that ratio divided by its phi1^2-weighted L2 norm, an upper bound for
    lambda_n - lambda_1 up to discretization error. Both are exact for these
    piecewise-linear inputs.
    """
    if not (2 <= n <= result.m):
        raise DomainError(f"n must lie in [2, {result.m}], got {n}")
    grid = result.grid
    phi1 = result.eigenvectors[:, 0]
    phin = result.eigenvectors[:, n - 1]
    keep = phi1 >= _FRINGE_RTOL * float(np.max(np.abs(phi1)))
    # The interpolants are constant outside their knots, which is exactly
    # the intended treatment of the excluded fringe.
    ratio = phin[keep] / phi1[keep]
    form = _index_form(np.arange(1.0, grid.n + 1)[keep], ratio, result)

    w = ground_state_weight(result)
    norm_sq = piecewise_linear_mass(grid.nodes()[keep], ratio, w.xs, w.ys,
                                    (grid.a, grid.b)).value
    if norm_sq <= 0:
        raise DomainError("degenerate eigenfunction ratio: zero weighted norm")
    return form.value / norm_sq


@dataclass(frozen=True)
class GapBounds:
    """Closed-form lower bounds for the spectral gaps on an interval.

    bound_star bounds the gap to the lowest antisymmetric level for any
    alpha in (0, 2); bound_main bounds the full gap lambda_2 - lambda_1 and
    exists only for alpha in (1, 2), else it is None.
    """

    bound_star: float
    bound_main: float | None


def gap_bounds(alpha: float, a: float, b: float) -> GapBounds:
    """Evaluate both bounds for the interval (a, b)."""
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"gap bounds require alpha in (0, 2), got {alpha}")
    if not (b > a):
        raise DomainError(f"degenerate interval ({a}, {b})")
    length = b - a
    const = levy_constant(-alpha)
    bound_star = const / length ** alpha
    bound_main = None
    if alpha > 1.0:
        bound_main = (const / 4.0) * (1.0 / 9.0) ** ((alpha + 1.0) / (alpha - 1.0)) \
            / length ** alpha
    return GapBounds(bound_star, bound_main)


@dataclass(frozen=True)
class GapReport:
    """Gap values, bounds, the exact-form cross-check, and pass flags.

    pass_main is None when alpha <= 1 (the bound does not apply there).
    star_index records which eigenvalue is the lowest antisymmetric one;
    whether that index is always 2 is an open question and is reported,
    never asserted.
    """

    alpha: float
    a: float
    b: float
    gap: float
    gap_star: float
    star_index: int
    bound_main: float | None
    bound_star: float
    rayleigh_value: float
    consistency_gap_vs_rayleigh: float
    pass_main: bool | None
    pass_star: bool

    @property
    def passed(self) -> bool:
        return self.pass_star and (self.pass_main is None or self.pass_main)


# Slack for comparing computed gaps against exact bounds; covers eigensolve
# round-off, not discretization error, which the campaigns absorb by margin.
_BOUND_SLACK = 1e-9


def check_gaps(result: SpectralResult, cfg=None) -> GapReport:
    """Compare computed gaps against the closed-form bounds.

    Needs m >= 2 and a mirror-symmetric operator (for lambda_star). The
    rayleigh consistency field is |rayleigh - gap| / gap. cfg is ignored;
    the benchmark harness passes it, and it goes with the next change to
    the benchmark definition.
    """
    if result.m < 2 or result.star is None:
        raise DomainError("check_gaps needs m >= 2 and a mirror-symmetric potential")
    alpha = result.alpha
    a, b = result.grid.a, result.grid.b
    lam = result.eigenvalues
    gap = float(lam[1] - lam[0])
    idx, lam_s = result.star
    gap_star = lam_s - float(lam[0])
    bounds = gap_bounds(alpha, a, b)
    rayleigh = rayleigh_gap(result, 2)
    consistency = abs(rayleigh - gap) / gap if gap > 0 else math.inf
    pass_star = gap_star >= bounds.bound_star - _BOUND_SLACK
    pass_main = None
    if bounds.bound_main is not None:
        pass_main = gap >= bounds.bound_main - _BOUND_SLACK
    return GapReport(alpha, a, b, gap, gap_star, idx, bounds.bound_main,
                     bounds.bound_star, rayleigh, consistency,
                     pass_main, pass_star)


def gap_report_to_json_dict(report: GapReport) -> dict:
    """Plain-dict form preserving the None of a not-applicable bound."""
    return {
        "alpha": report.alpha,
        "a": report.a,
        "b": report.b,
        "gap": report.gap,
        "gap_star": report.gap_star,
        "star_index": report.star_index,
        "bound_main": report.bound_main,
        "bound_star": report.bound_star,
        "rayleigh_value": report.rayleigh_value,
        "consistency_gap_vs_rayleigh": report.consistency_gap_vs_rayleigh,
        "pass_main": report.pass_main,
        "pass_star": report.pass_star,
    }
