"""Fractional Poincare inequality: checks, certificates, counterexample.

For alpha in (1, 2) and Lipschitz f on [0, 1] with f(0) = 0, the double
integral of (f(x) - f(y))^2 |x-y|^(-1-alpha) dominates C * f(1)^2 with the
universal constant C = (1/9)^((alpha+1)/(alpha-1)). witness_search replays
the constructive proof: it zooms into nested intervals of widths c^n,
c = 9^(-1/(alpha-1)), following level sets of f until it finds a rectangle
on which f is separated by 3^(-n), whose kernel mass alone certifies the
bound. For alpha in (0, 1) the inequality fails, and counterexample_scan
exhibits smoothed steps with constant boundary values whose form values
decay like n^(alpha-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WitnessSearchError
from .numerics import (DEFAULT_1D, DEFAULT_2D, FormValue, QuadConfig,
                       integrate_1d, singular_double_integral)

__all__ = [
    "CAMPAIGN_CFG",
    "PiecewiseLinear",
    "PoincareResult",
    "WitnessStep",
    "WitnessCertificate",
    "WeightedPoincareResult",
    "CounterexampleScan",
    "poincare_constant",
    "step_contraction",
    "poincare_check",
    "witness_search",
    "rescale_unit",
    "weighted_poincare_check",
    "smooth_step",
    "counterexample_scan",
    "random_piecewise_linear",
    "certificate_to_json_dict",
]

_BOUNDARY_TOL = 1e-10
_PASS_SLACK = 1e-12

# Loose settings for bulk campaigns: the inequality passes by orders of
# magnitude, so cheap form values with honest error estimates suffice.
CAMPAIGN_CFG = QuadConfig(abs_tol=1e-6, rel_tol=1e-2, max_panels=512)


def poincare_constant(alpha: float) -> float:
    """The universal constant (1/9)^((alpha+1)/(alpha-1)), alpha in (1, 2)."""
    _require_alpha_12(alpha)
    return (1.0 / 9.0) ** ((alpha + 1.0) / (alpha - 1.0))


def step_contraction(alpha: float) -> float:
    """Interval contraction ratio c = 9^(-1/(alpha-1)) of the witness recursion."""
    _require_alpha_12(alpha)
    return 9.0 ** (-1.0 / (alpha - 1.0))


class PiecewiseLinear:
    """Piecewise-linear function through (xs, ys); xs strictly increasing.

    Evaluation clamps to the boundary values outside [xs[0], xs[-1]]. Level
    sets of these functions are computed exactly segment by segment, which
    the witness recursion exploits.
    """

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size < 2 or self.xs.shape != self.ys.shape:
            raise DomainError("piecewise-linear data must be matching 1d arrays, length >= 2")
        if not np.all(np.diff(self.xs) > 0):
            raise DomainError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise DomainError("piecewise-linear data must be finite")

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)

    def lipschitz(self) -> float:
        return float(np.max(np.abs(np.diff(self.ys) / np.diff(self.xs))))

    def scaled(self, factor: float) -> "PiecewiseLinear":
        return PiecewiseLinear(self.xs, self.ys * factor)


@dataclass(frozen=True)
class PoincareResult:
    """One inequality check: form value (lhs), bound (rhs), and verdict."""

    lhs: float
    lhs_error: float
    rhs: float
    ratio: float
    passed: bool


def poincare_check(f, alpha: float, interval: tuple[float, float] = (0.0, 1.0),
                   cfg: QuadConfig = DEFAULT_2D, mirrored: bool = False) -> PoincareResult:
    """Check the inequality for one function.

    f must vanish at the left endpoint (right endpoint when mirrored=True)
    within 1e-10; the bound then involves the value at the opposite
    endpoint. The ratio lhs/rhs is inf when the bound is vacuous (rhs = 0
    with positive lhs) and nan when both sides vanish.
    """
    _require_alpha_12(alpha)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise DomainError(f"degenerate interval ({a}, {b})")
    fa = float(np.asarray(f(np.array([a])))[0])
    fb = float(np.asarray(f(np.array([b])))[0])
    anchored, free = (fb, fa) if mirrored else (fa, fb)
    scale = max(1.0, abs(free))
    if abs(anchored) > _BOUNDARY_TOL * scale:
        side = "right" if mirrored else "left"
        raise DomainError(
            f"f must vanish at the {side} endpoint; got {anchored!r}")

    lhs = singular_double_integral(f, None, alpha, (a, b), cfg)
    rhs = poincare_constant(alpha) * free ** 2 / (b - a) ** (alpha - 1.0)
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
    steps: tuple[WitnessStep, ...]
    n0: int
    rectangle: tuple[float, float, float, float]
    certified_bound: float
    scale: float


def witness_search(f, alpha: float, root_tol: float = 1e-9) -> WitnessCertificate:
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
    of width c^n and c^n shrinks strictly faster.

    Level sets are located exactly for PiecewiseLinear inputs, otherwise by
    a dense bracket scan refined by bisection to root_tol.
    """
    _require_alpha_12(alpha)
    f0 = float(np.asarray(f(np.array([0.0])))[0])
    f1 = float(np.asarray(f(np.array([1.0])))[0])
    if abs(f0) > _BOUNDARY_TOL * max(1.0, abs(f1)):
        raise DomainError(f"witness_search requires f(0) = 0, got {f0!r}")
    if f1 == 0.0:
        raise DomainError("witness_search requires f(1) != 0")

    if isinstance(f, PiecewiseLinear):
        fn = f.scaled(1.0 / f1)
        lip = fn.lipschitz()
    else:
        fn = _normalized(f, f1)
        lip = _estimate_lipschitz(fn)

    c = step_contraction(alpha)
    n_cap = math.ceil((alpha - 1.0) * math.log(max(lip, 1.0) / root_tol, 3.0)) + 10

    a_n, b_n = 0.0, 1.0
    level_a, level_b = 0.0, 1.0
    steps: list[WitnessStep] = []
    for n in range(1, n_cap + 1):
        shift = c ** n
        x_n = a_n + shift
        y_n = b_n - shift
        level_low = level_a + 3.0 ** (-n)
        level_high = level_b - 3.0 ** (-n)
        first = min(_crossings(fn, level_low, a_n, b_n, root_tol), default=None)
        last = max(_crossings(fn, level_high, a_n, b_n, root_tol), default=None)

        go_left = first is not None and a_n < first < x_n
        go_right = last is not None and y_n < last < b_n
        if go_left:
            steps.append(WitnessStep(n, a_n, b_n, x_n, y_n, level_low,
                                     level_high, first, last, "left"))
            b_n = x_n
            level_b = level_low
        elif go_right:
            steps.append(WitnessStep(n, a_n, b_n, x_n, y_n, level_low,
                                     level_high, first, last, "right"))
            a_n = y_n
            level_a = level_high
        else:
            steps.append(WitnessStep(n, a_n, b_n, x_n, y_n, level_low,
                                     level_high, first, last, "terminal"))
            # Telescoping the per-step contraction leaves (c/3)^2 exactly
            # when 9 c^(alpha-1) = 1, which defines c; kept in product form
            # so any float drift is visible rather than hidden.
            bound = (c / 3.0) ** 2 * (1.0 / (9.0 * c ** (alpha - 1.0))) ** (n - 1)
            return WitnessCertificate(alpha, c, tuple(steps), n,
                                      (a_n, x_n, y_n, b_n), bound, f1)
    raise WitnessSearchError(
        f"witness recursion did not terminate within {n_cap} steps "
        f"(lipschitz ~ {lip:.3g}, root_tol {root_tol:g})")


def rescale_unit(f, interval: tuple[float, float], alpha: float):
    """Affine pullback of f onto [0, 1] and the form scale factor.

    Returns (g, factor) with g(t) = f(a + (b-a) t) and
    factor = (b-a)^(alpha-1), chosen so that the double integral of f over
    the original square equals the one of g over the unit square divided by
    factor.
    """
    _require_alpha_12(alpha)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise DomainError(f"degenerate interval ({a}, {b})")
    length = b - a

    if isinstance(f, PiecewiseLinear):
        g = PiecewiseLinear((f.xs - a) / length, f.ys)
    else:
        def g(t):
            return f(a + length * np.asarray(t, dtype=float))

    return g, length ** (alpha - 1.0)


@dataclass(frozen=True)
class WeightedPoincareResult:
    """Weighted inequality check: lhs with weight g, rhs with f^2 g^2 mass."""

    lhs: float
    lhs_error: float
    rhs: float
    rhs_error: float
    passed: bool


def weighted_poincare_check(f, g, alpha: float,
                            interval: tuple[float, float] = (0.0, 1.0),
                            cfg: QuadConfig = DEFAULT_2D) -> WeightedPoincareResult:
    """Weighted variant: kernel mass with weight g dominates the g^2 mass of f^2.

    Requires f(a) = 0, g positive and nonincreasing on the interval (checked
    on a sample mesh; violations are rejected). The bound constant is the
    same universal one divided by the interval length to the alpha.
    """
    _require_alpha_12(alpha)
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise DomainError(f"degenerate interval ({a}, {b})")
    fa = float(np.asarray(f(np.array([a])))[0])
    if abs(fa) > _BOUNDARY_TOL:
        raise DomainError(f"weighted check requires f(a) = 0, got {fa!r}")

    mesh = np.linspace(a, b, 513)
    gv = np.asarray(g(mesh), dtype=float)
    if not np.all(np.isfinite(gv)):
        raise DomainError("weight must be finite on the interval")
    scale = max(1.0, float(np.max(np.abs(gv))))
    if np.any(gv[:-1] <= 0.0):
        j = int(np.flatnonzero(gv[:-1] <= 0.0)[0])
        raise DomainError(f"weight must be positive on [a, b); g({mesh[j]!r}) = {gv[j]!r}")
    increases = np.diff(gv) > 1e-12 * scale
    if np.any(increases):
        j = int(np.flatnonzero(increases)[0])
        raise DomainError(
            f"weight must be nonincreasing; increases between x={mesh[j]!r} "
            f"and x={mesh[j + 1]!r}")

    lhs = singular_double_integral(f, g, alpha, (a, b), cfg)
    mass = integrate_1d(lambda x: (np.asarray(f(x)) * np.asarray(g(x))) ** 2,
                        a, b, _mass_cfg(cfg))
    const = poincare_constant(alpha) / (b - a) ** alpha
    rhs = const * mass.value
    passed = lhs.value >= rhs - _PASS_SLACK
    return WeightedPoincareResult(lhs.value, lhs.error_estimate,
                                  rhs, const * mass.error_estimate, passed)


def _mass_cfg(cfg: QuadConfig) -> QuadConfig:
    return QuadConfig(abs_tol=min(cfg.abs_tol, DEFAULT_1D.abs_tol),
                      rel_tol=min(cfg.rel_tol, DEFAULT_1D.rel_tol),
                      max_panels=max(cfg.max_panels, DEFAULT_1D.max_panels),
                      grading_exponent=cfg.grading_exponent)


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


def counterexample_scan(alpha: float, n_list=(1, 2, 4, 8, 16, 32),
                        cfg: QuadConfig | None = None) -> CounterexampleScan:
    """Show the inequality failing for alpha in (0, 1).

    Each f_n(x) = smooth_step(n x) keeps the boundary values 0 and 1, yet
    the unweighted form value over [0, 1]^2 decays like n^(alpha-1) as the
    transition is compressed toward the left endpoint, so no positive
    constant can work. Returns the values and the fitted slope of
    log(value) against log(n).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"counterexample requires alpha in (0, 1), got {alpha}")
    n_arr = tuple(int(n) for n in n_list)
    if len(n_arr) < 2 or any(n <= 0 for n in n_arr) or \
            any(n_arr[i] >= n_arr[i + 1] for i in range(len(n_arr) - 1)):
        raise DomainError("n_list must be strictly increasing positive integers")
    if cfg is None:
        # The transition band has width ~ 1/(4n): the inner rule needs
        # panels at that scale before the refinement loop can settle.
        cfg = QuadConfig(abs_tol=1e-6, rel_tol=1e-4, max_panels=2048)

    values = []
    errors = []
    for n in n_arr:
        def f_n(x, n=n):
            return smooth_step(n * np.asarray(x, dtype=float))
        fv = singular_double_integral(f_n, None, alpha, (0.0, 1.0), cfg)
        values.append(fv.value)
        errors.append(fv.error_estimate)
    slope = float(np.polyfit(np.log(n_arr), np.log(values), 1)[0])
    return CounterexampleScan(alpha, n_arr, tuple(values), tuple(errors), slope)


def random_piecewise_linear(rng: np.random.Generator,
                            max_segments: int = 32) -> PiecewiseLinear:
    """Random Lipschitz test function with f(0) = 0 and f(1) in [0.2, 1.5].

    Breakpoint gaps are bounded away from zero so the Lipschitz constant
    stays moderate; interior values are free to wander in [-1, 1].
    """
    k = int(rng.integers(3, max_segments + 1))
    gaps = rng.uniform(0.2, 1.0, size=k)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs /= xs[-1]
    ys = rng.uniform(-1.0, 1.0, size=k + 1)
    ys[0] = 0.0
    ys[-1] = rng.uniform(0.2, 1.5)
    return PiecewiseLinear(xs, ys)


def certificate_to_json_dict(cert: WitnessCertificate) -> dict:
    """Plain-dict form of a certificate for serialization."""
    return {
        "alpha": cert.alpha,
        "c": cert.c,
        "n0": cert.n0,
        "certified_bound": cert.certified_bound,
        "scale": cert.scale,
        "rectangle": list(cert.rectangle),
        "steps": [
            {
                "n": s.n,
                "a": s.a,
                "b": s.b,
                "x": s.x,
                "y": s.y,
                "level_low": s.level_low,
                "level_high": s.level_high,
                "first_cross": s.first_cross,
                "last_cross": s.last_cross,
                "branch": s.branch,
            }
            for s in cert.steps
        ],
    }


def _require_alpha_12(alpha: float) -> None:
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"requires alpha in (1, 2), got {alpha}")


def _normalized(f, f1: float):
    def call(x):
        return np.asarray(f(x), dtype=float) / f1
    return call


def _estimate_lipschitz(f, n_mesh: int = 4097) -> float:
    xs = np.linspace(0.0, 1.0, n_mesh)
    ys = np.asarray(f(xs), dtype=float)
    return float(np.max(np.abs(np.diff(ys))) * (n_mesh - 1))


def _crossings_exact(f: PiecewiseLinear, level: float,
                     lo: float, hi: float) -> list[float]:
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


def _crossings_scan(f, level: float, lo: float, hi: float,
                    root_tol: float, n_scan: int = 4097) -> list[float]:
    xs = np.linspace(lo, hi, n_scan)
    ys = np.asarray(f(xs), dtype=float) - level
    out: list[float] = []
    exact = np.flatnonzero(ys == 0.0)
    for j in exact:
        if lo < xs[j] < hi:
            out.append(float(xs[j]))
    sign_change = np.flatnonzero(ys[:-1] * ys[1:] < 0.0)
    for j in sign_change:
        u, v = xs[j], xs[j + 1]
        fu = ys[j]
        while v - u > root_tol:
            mid = 0.5 * (u + v)
            fm = float(np.asarray(f(np.array([mid])))[0]) - level
            if fm == 0.0:
                u = v = mid
                break
            if fu * fm < 0.0:
                v = mid
            else:
                u, fu = mid, fm
        x_star = 0.5 * (u + v)
        if lo < x_star < hi:
            out.append(x_star)
    return out


def _crossings(f, level: float, lo: float, hi: float,
               root_tol: float) -> list[float]:
    if isinstance(f, PiecewiseLinear):
        return _crossings_exact(f, level, lo, hi)
    return _crossings_scan(f, level, lo, hi, root_tol)
