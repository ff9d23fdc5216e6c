"""Fractional Poincare inequality: checks, certificates, counterexample.

For alpha in (1, 2) and Lipschitz f on [0, 1] with f(0) = 0, the double
integral of (f(x) - f(y))^2 |x-y|^(-1-alpha) dominates C * f(1)^2 with the
universal constant C = (1/9)^((alpha+1)/(alpha-1)). witness_search replays
the constructive proof: it zooms into nested intervals of widths c^n,
c = 9^(-1/(alpha-1)), following level sets of f until it finds a rectangle
on which f is separated by 3^(-n), whose kernel mass alone certifies the
bound. For alpha in (0, 1) the inequality fails, and counterexample_scan
exhibits smoothed steps with constant boundary values whose form values
decay like n^(alpha-1); the steps are piecewise linear, so those values are
exact up to rounding. Test functions are numerics.PiecewiseLinear, and every
form here is one of its closed forms in numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, WitnessSearchError, _require_count, _require_interval,
                     _require_open)
from .numerics import (PiecewiseLinear, QuadConfig, _cell_edges, _require_piecewise_linear,
                       piecewise_linear_form, piecewise_linear_mass,
                       piecewise_linear_weighted_form)

__all__ = [
    "PoincareResult",
    "WitnessStep",
    "WitnessCertificate",
    "WeightedPoincareResult",
    "CounterexampleScan",
    "poincare_constant",
    "step_contraction",
    "poincare_check",
    "witness_search",
    "weighted_poincare_check",
    "smooth_step",
    "counterexample_scan",
    "random_piecewise_linear",
]

_BOUNDARY_TOL = 1e-10
_PASS_SLACK = 1e-12

# Depth cap of the witness recursion: (alpha - 1) log_3(L / _DEPTH_SCALE) + 10
# steps for a function of Lipschitz constant L.
_DEPTH_SCALE = 1e-9

# Read by nothing. The benchmark harness passes it as the cfg argument of
# poincare_check and weighted_poincare_check; remove it, and those cfg
# parameters, with the next change to the benchmark definition.
CAMPAIGN_CFG = QuadConfig(abs_tol=1e-6, rel_tol=1e-2, max_panels=512)


def poincare_constant(alpha: float) -> float:
    """The universal constant (1/9)^((alpha+1)/(alpha-1)), alpha in (1, 2)."""
    _require_open(alpha, 1.0, 2.0, "alpha")
    return (1.0 / 9.0) ** ((alpha + 1.0) / (alpha - 1.0))


def step_contraction(alpha: float) -> float:
    """Interval contraction ratio c = 9^(-1/(alpha-1)) of the witness recursion."""
    _require_open(alpha, 1.0, 2.0, "alpha")
    return 9.0 ** (-1.0 / (alpha - 1.0))


@dataclass(frozen=True)
class PoincareResult:
    """One inequality check: form value (lhs), bound (rhs), and verdict."""

    lhs: float
    lhs_error: float
    rhs: float
    ratio: float
    passed: bool


def poincare_check(f: PiecewiseLinear, alpha: float,
                   interval: tuple[float, float] = (0.0, 1.0), cfg=None) -> PoincareResult:
    """Check the inequality for one function.

    f must vanish at the left endpoint within 1e-10; the bound then
    involves the value at the right endpoint. The ratio lhs/rhs is inf when
    the bound is vacuous (rhs = 0 with positive lhs) and nan when both
    sides vanish. lhs is the closed form (piecewise_linear_form), exact up
    to rounding, and lhs_error its floating-point bound. cfg is ignored
    (see CAMPAIGN_CFG).
    """
    _require_piecewise_linear(f)
    _require_open(alpha, 1.0, 2.0, "alpha")
    a, b = _require_interval(interval[0], interval[1])
    fa, fb = (float(v) for v in f(np.array([a, b])))
    if abs(fa) > _BOUNDARY_TOL * max(1.0, abs(fb)):
        raise DomainError(f"f must vanish at the left endpoint; got {fa!r}")

    lhs = piecewise_linear_form(f, alpha, (a, b))
    rhs = poincare_constant(alpha) * fb ** 2 / (b - a) ** (alpha - 1.0)
    if rhs > 0:
        ratio = lhs.value / rhs
    else:
        ratio = math.inf if lhs.value > 0 else math.nan
    passed = lhs.value >= rhs - _PASS_SLACK
    return PoincareResult(lhs.value, lhs.error_estimate, rhs, ratio, passed)


@dataclass(frozen=True)
class WitnessStep:
    """One recursion step: interval, probe points, levels, crossings, branch."""

    n: int
    a: float
    b: float
    x: float
    y: float
    level_low: float
    level_high: float
    first_cross: float | None
    last_cross: float | None
    branch: str  # "left", "right" or "terminal"


@dataclass(frozen=True)
class WitnessCertificate:
    """Terminating run of the zoom recursion with its certified lower bound.

    rectangle is (a, x, y, b) at the terminal step: f stays below level_low
    on (a, x) and above level_high on (y, b) in the generic case, and the
    kernel mass of (a, x) x (y, b) against the 3^(-n) separation certifies
    certified_bound <= lhs for the normalized input (f(1) scaled to 1;
    scale records the factor that was divided out).
    """

    alpha: float
    c: float
    n0: int
    certified_bound: float
    scale: float
    rectangle: tuple[float, float, float, float]
    steps: tuple[WitnessStep, ...]


def witness_search(f: PiecewiseLinear, alpha: float) -> WitnessCertificate:
    """Run the constructive zoom recursion until it terminates.

    f is Lipschitz on [0, 1] with f(0) = 0 and f(1) != 0; it is normalized
    by f(1) internally. At step n the current interval [a_n, b_n] has width
    c^(n-1) and carries anchor levels (f_a, f_b) with f_b - f_a = 3^(-(n-1)).
    Probe points sit a fraction c inside either end, with probe levels
    3^(-n) above f_a and below f_b. If f crosses the low level before the
    left probe point, the recursion descends left; if it crosses the high
    level after the right probe point, it descends right; otherwise the
    rectangle between the probe points witnesses the separation and the
    recursion stops. Termination within the depth cap is guaranteed by the
    Lipschitz bound, since anchor levels separate by 3^(-n) across intervals
    of width c^n and c^n shrinks strictly faster. Level sets are located
    exactly, segment by segment.
    """
    _require_piecewise_linear(f)
    _require_open(alpha, 1.0, 2.0, "alpha")
    f0, f1 = (float(v) for v in f(np.array([0.0, 1.0])))
    if abs(f0) > _BOUNDARY_TOL * max(1.0, abs(f1)):
        raise DomainError(f"witness_search requires f(0) = 0, got {f0!r}")
    if f1 == 0.0:
        raise DomainError("witness_search requires f(1) != 0")

    fn = f.scaled(1.0 / f1)
    lip = fn.lipschitz()
    c = step_contraction(alpha)
    n_cap = math.ceil((alpha - 1.0) * math.log(max(lip, 1.0) / _DEPTH_SCALE, 3.0)) + 10

    a_n, b_n = 0.0, 1.0
    level_a, level_b = 0.0, 1.0
    steps: list[WitnessStep] = []
    for n in range(1, n_cap + 1):
        shift = c ** n
        x_n = a_n + shift
        y_n = b_n - shift
        level_low = level_a + 3.0 ** (-n)
        level_high = level_b - 3.0 ** (-n)
        first = min(_crossings(fn, level_low, a_n, b_n), default=None)
        last = max(_crossings(fn, level_high, a_n, b_n), default=None)

        go_left = first is not None and a_n < first < x_n
        go_right = last is not None and y_n < last < b_n
        branch = "left" if go_left else "right" if go_right else "terminal"
        steps.append(WitnessStep(n, a_n, b_n, x_n, y_n, level_low,
                                 level_high, first, last, branch))
        if go_left:
            b_n = x_n
            level_b = level_low
        elif go_right:
            a_n = y_n
            level_a = level_high
        else:
            # Telescoping the per-step contraction leaves (c/3)^2 exactly
            # when 9 c^(alpha-1) = 1, which defines c; kept in product form
            # so any float drift is visible rather than hidden.
            bound = (c / 3.0) ** 2 * (1.0 / (9.0 * c ** (alpha - 1.0))) ** (n - 1)
            return WitnessCertificate(alpha, c, n, bound, f1,
                                      (a_n, x_n, y_n, b_n), tuple(steps))
    raise WitnessSearchError(
        f"witness recursion did not terminate within {n_cap} steps "
        f"(lipschitz {lip:.3g})")


@dataclass(frozen=True)
class WeightedPoincareResult:
    """Weighted inequality check: lhs with weight g, rhs with f^2 g^2 mass."""

    lhs: float
    lhs_error: float
    rhs: float
    rhs_error: float
    passed: bool


def weighted_poincare_check(f: PiecewiseLinear, g: PiecewiseLinear, alpha: float,
                            interval: tuple[float, float] = (0.0, 1.0),
                            cfg=None) -> WeightedPoincareResult:
    """Weighted variant: kernel mass with weight g dominates the g^2 mass of f^2.

    Requires f(a) = 0, and g positive on [a, b) and nonincreasing (checked
    exactly at a, g's knots and b; violations are rejected). The bound
    constant is the same universal one divided by the interval length to
    the alpha. lhs and
    the mass of (f g)^2 are exact (piecewise_linear_weighted_form,
    piecewise_linear_mass), and lhs_error and rhs_error are rounding-level
    bounds. cfg is ignored (see CAMPAIGN_CFG).
    """
    _require_piecewise_linear(f)
    _require_piecewise_linear(g, "g")
    _require_open(alpha, 1.0, 2.0, "alpha")
    a, b = _require_interval(interval[0], interval[1])
    fa = float(f(a))
    if abs(fa) > _BOUNDARY_TOL:
        raise DomainError(f"weighted check requires f(a) = 0, got {fa!r}")

    # g is linear between a, its knots inside (a, b) and b: checking there
    # is exact. g(b) may be 0, but not below it.
    edges = _cell_edges(g.xs, (a, b))
    gv = g(edges)
    low = np.append(gv[:-1] <= 0.0, gv[-1] < 0.0)
    if np.any(low):
        j = int(np.flatnonzero(low)[0])
        raise DomainError(f"weight must be positive on [a, b); "
                          f"g({float(edges[j])!r}) = {float(gv[j])!r}")
    increases = np.diff(gv) > 1e-12 * max(1.0, float(np.max(np.abs(gv))))
    if np.any(increases):
        j = int(np.flatnonzero(increases)[0])
        raise DomainError(
            f"weight must be nonincreasing; increases between x={float(edges[j])!r} "
            f"and x={float(edges[j + 1])!r}")

    lhs = piecewise_linear_weighted_form(f, g, alpha, (a, b))
    mass = piecewise_linear_mass(f, g, (a, b))
    const = poincare_constant(alpha) / (b - a) ** alpha
    rhs = const * mass.value
    passed = lhs.value >= rhs - _PASS_SLACK
    return WeightedPoincareResult(lhs.value, lhs.error_estimate,
                                  rhs, const * mass.error_estimate, passed)


def smooth_step(x) -> np.ndarray:
    """C-infinity step: 0 for x <= 1/4, 1 for x >= 1/2, monotone between.

    Built from the standard bump partition e^(-1/t) / (e^(-1/t) + e^(-1/(1-t)))
    with t the affine coordinate of [1/4, 1/2].
    """
    x = np.asarray(x, dtype=float)
    t = np.clip(4.0 * x - 1.0, 0.0, 1.0)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    inside = (t > 0.0) & (t < 1.0)
    ti = t[inside]
    ea = np.exp(-1.0 / ti)
    eb = np.exp(-1.0 / (1.0 - ti))
    out[inside] = ea / (ea + eb)
    return out


@dataclass(frozen=True)
class CounterexampleScan:
    """Form values of compressed steps f(n x) and the fitted log-log slope."""

    alpha: float
    n_list: tuple[int, ...]
    values: tuple[float, ...]
    error_estimates: tuple[float, ...]
    slope: float


# Knots of the piecewise-linear counterexample across each transition band:
# 256 cells keep its form within about 1e-5 relative of the smooth step's.
_STEP_KNOTS = 257


def _compressed_step(n: int) -> PiecewiseLinear:
    """Interpolant of smooth_step(n x), knots equally spaced on [1/(4n), 1/(2n)].

    It is exactly 0 left of that band and 1 right of it, and Lipschitz, so
    it is a counterexample in its own right.
    """
    u = np.linspace(0.25, 0.5, _STEP_KNOTS)
    return PiecewiseLinear(u / n, smooth_step(u))


def _require_n_list(n_list, name: str = "n_list") -> tuple[int, ...]:
    """n_list as a tuple of ints; refused unless it holds at least two
    strictly increasing counts, each at least 1."""
    n_arr = tuple(_require_count(n, 1, f"{name} entry") for n in n_list)
    if len(n_arr) < 2 or any(n >= n_next for n, n_next in zip(n_arr, n_arr[1:])):
        raise DomainError(f"{name} must hold at least two strictly increasing "
                          f"positive integers, got {list(n_arr)}")
    return n_arr


def counterexample_scan(alpha: float, n_list=(1, 2, 4, 8, 16, 32)) -> CounterexampleScan:
    """Show the inequality failing for alpha in (0, 1).

    Each f_n = _compressed_step(n) keeps the boundary values 0 and 1, yet
    the unweighted form value over [0, 1]^2 decays like n^(alpha-1) as the
    transition is compressed toward the left endpoint, so no positive
    constant can work. The values are exact up to rounding
    (piecewise_linear_form), and the error estimates are its floating-point
    bounds. Returns the values and the fitted slope of log(value) against
    log(n).
    """
    _require_open(alpha, 0.0, 1.0, "alpha")
    n_arr = _require_n_list(n_list)
    forms = [piecewise_linear_form(_compressed_step(n), alpha, (0.0, 1.0)) for n in n_arr]
    values = tuple(fv.value for fv in forms)
    slope = float(np.polyfit(np.log(n_arr), np.log(values), 1)[0])
    return CounterexampleScan(alpha, n_arr, values,
                              tuple(fv.error_estimate for fv in forms), slope)


def random_piecewise_linear(rng: np.random.Generator,
                            max_segments: int = 32) -> PiecewiseLinear:
    """Random Lipschitz test function with f(0) = 0 and f(1) in [0.2, 1.5].

    It has 3 to max_segments segments, so max_segments must be at least 3.
    Breakpoint gaps are bounded away from zero so the Lipschitz constant
    stays moderate; interior values are free to wander in [-1, 1].
    """
    k = int(rng.integers(3, _require_count(max_segments, 3, "max_segments") + 1))
    gaps = rng.uniform(0.2, 1.0, size=k)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs /= xs[-1]
    ys = rng.uniform(-1.0, 1.0, size=k + 1)
    ys[0] = 0.0
    ys[-1] = rng.uniform(0.2, 1.5)
    return PiecewiseLinear(xs, ys)


def _crossings(f: PiecewiseLinear, level: float, lo: float, hi: float) -> list[float]:
    """All x in the open (lo, hi) with f(x) = level, segment by segment.

    For a flat segment sitting exactly on the level only its extreme
    attainable points are reported; interior ties are irrelevant to
    first/last queries. An endpoint of the window solving the equation is
    excluded (the window is open); when a flat segment extends the solution
    set up to the window edge, the nearest interior float stands in for the
    unattained extremum.
    """
    xs = f.xs
    mask = (xs > lo) & (xs < hi)
    pts = np.concatenate([[lo], xs[mask], [hi]])
    vals = f(pts)
    out: list[float] = []
    for i in range(pts.size - 1):
        u, v = float(pts[i]), float(pts[i + 1])
        p, q = float(vals[i]), float(vals[i + 1])
        if p == level and q == level:
            out.append(u if u > lo else float(np.nextafter(lo, hi)))
            out.append(v if v < hi else float(np.nextafter(hi, lo)))
        elif p == level:
            if u > lo:
                out.append(u)
        elif q == level:
            if v < hi:
                out.append(v)
        elif (p - level) * (q - level) < 0.0:
            out.append(u + (level - p) * (v - u) / (q - p))
    return [x for x in out if lo < x < hi]
