"""Monte Carlo simulation of the killed, potential-weighted semigroup.

One time step of length dt draws a symmetric alpha-stable increment
directly by the Chambers-Mallows-Stuck method (J. Amer. Statist. Assoc.
1976): with V uniform on (-pi/2, pi/2) and W unit exponential,

    Z = sin(alpha V) / cos(V)^(1/alpha) * (cos((1-alpha) V) / W)^((1-alpha)/alpha),

scaled by dt^(1/alpha), has characteristic function exp(-dt |u|^alpha).
That is the law of Brownian motion at twice standard speed subordinated by
a one-sided (alpha/2)-stable subordinator, whose increments are still
available through Kanter's representation

    S = (A(U) / W)^((1-rho)/rho),
    A(u) = sin(rho u)^(rho/(1-rho)) sin((1-rho) u) / sin(u)^(1/(1-rho)),

with U uniform on (0, pi), which has Laplace transform exp(-lambda^rho).

The killed process from x0 is x0 plus one free process, so all starting
points share the same free paths (common random numbers): each step draws
n_paths increments, whatever the number of points. A path from x0 is killed
on leaving the interval, checked at grid times, which reduces to comparing
x0 with the running minimum and maximum of its free path. The potential is
accumulated by a left-endpoint Riemann sum, so the estimator is the
expected exp(-sum V dt) over surviving paths. It is evaluated at the
position clipped to the interval: killed paths keep moving and their
heavy-tailed jumps land far outside, where V need not be defined or
finite, and their sums are discarded anyway. Survivors never reach the
clip, so their sums are those of an unclipped, per-point loop.

Sharing paths leaves the law of each point's estimate as it is and changes
only the joint law: nearby points are positively correlated, so their
differences have smaller variance than with independent paths, while
far-apart points can be negatively correlated.

All randomness flows through a counter-based Philox generator; for a fixed
seed and configuration the draw order is fixed, so estimates reproduce
bit for bit. The draws stay on the calling thread; the potential sums run
on blocks of paths in one worker thread per CPU, each element through the
same operations whatever its block, so estimates do not depend on the
CPU count either.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "PathConfig",
    "PathEstimate",
    "ChainReport",
    "KernelReport",
    "make_rng",
    "sample_subordinator_increment",
    "sample_stable_increment",
    "estimate_feynman_kac",
    "gaussian_chain",
    "cauchy_kernel_check",
    "estimates_csv_rows",
]


@dataclass(frozen=True)
class PathConfig:
    """Simulation parameters: stability index, horizon, step count, domain, seed."""

    alpha: float
    t_final: float
    n_steps: int
    interval: tuple[float, float]
    seed: int

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not (self.t_final > 0):
            raise DomainError(f"t_final must be positive, got {self.t_final}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b) and b > a):
            raise DomainError(f"interval must be finite with b > a, got {self.interval}")


@dataclass(frozen=True)
class PathEstimate:
    """Monte Carlo mean with its standard error at one starting point."""

    x: float
    mean: float
    stderr: float
    n_paths: int


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; the only RNG constructor used in this package."""
    return np.random.Generator(np.random.Philox(seed))


def sample_subordinator_increment(index: float, dt: float,
                                  rng: np.random.Generator,
                                  size: int | None = None):
    """Increments of the one-sided stable subordinator over time dt.

    index is the subordinator order rho in (0, 1); for the process of
    stability alpha use rho = alpha / 2. The output has Laplace transform
    exp(-dt * u^rho). Returns a float for size=None, else an array.
    """
    rho = float(index)
    if not (0.0 < rho < 1.0):
        raise DomainError(f"subordinator index must lie in (0, 1), got {rho}")
    if not (dt > 0):
        raise DomainError(f"dt must be positive, got {dt}")
    n = 1 if size is None else int(size)
    u = rng.uniform(0.0, math.pi, size=n)
    w = rng.standard_exponential(size=n)
    # log A(u), grouped to stay finite over the whole of (0, pi).
    log_a = (rho * np.log(np.sin(rho * u))
             + (1.0 - rho) * np.log(np.sin((1.0 - rho) * u))
             - np.log(np.sin(u))) / (1.0 - rho)
    s = np.exp(((1.0 - rho) / rho) * (log_a - np.log(w)))
    out = dt ** (1.0 / rho) * s
    return float(out[0]) if size is None else out


def sample_stable_increment(alpha: float, dt: float,
                            rng: np.random.Generator,
                            size: int | None = None):
    """Increments of the symmetric alpha-stable process over time dt.

    Chambers-Mallows-Stuck draw from V uniform on (-pi/2, pi/2) and W unit
    exponential; the output has characteristic function exp(-dt |u|^alpha),
    the law of the twice-speed Brownian motion subordinated by
    sample_subordinator_increment(alpha / 2, ...). Returns a float for
    size=None, else an array.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"alpha must lie in (0, 2), got {alpha}")
    if not (dt > 0):
        raise DomainError(f"dt must be positive, got {dt}")
    n = 1 if size is None else int(size)
    v = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=n)
    w = rng.standard_exponential(size=n)
    # sin(aV) / cos(V)^(1/a) * (cos((1-a)V) / W)^((1-a)/a), the magnitude
    # taken in logs so no intermediate power overflows at small alpha.
    log_m = (((1.0 - alpha) / alpha) * np.log(np.cos((1.0 - alpha) * v) / w)
             - np.log(np.cos(v)) / alpha)
    out = dt ** (1.0 / alpha) * (np.sin(alpha * v) * np.exp(log_m))
    return float(out[0]) if size is None else out


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fk_values(xs: np.ndarray, potential, cfg: PathConfig, n_paths: int,
               rng: np.random.Generator) -> np.ndarray:
    """exp(-sum V dt) per (start point, path) for survivors, 0 if killed.

    Every start point x0 shares the same n_paths free paths: the path from
    x0 is x0 + free. The potential is summed left-endpoint style over grid
    times 0, dt, ..., t_final - dt at the clipped position, and a path
    survives iff x0 + min(free) > a and x0 + max(free) < b over the grid
    times, the same rule as checking exit at every grid time.

    The draws stay on the calling thread, in a fixed order. While it draws
    step s's increments, worker threads (one per CPU) sum the potential at
    step s's positions on 2 blocks of path columns per CPU, in the caller's
    context (so np.errstate holds there too); all blocks finish before the
    paths move. Each element sees the same operations whatever the blocks,
    so the values do not depend on the CPU count, bit for bit. A sum that
    is not finite (a potential that overflows at a visited position)
    raises DomainError.
    """
    # Imported here: at module top it would add to every `import fracgap`.
    from concurrent.futures import ThreadPoolExecutor

    a, b = cfg.interval
    dt = cfg.t_final / cfg.n_steps
    if np.any((xs <= a) | (xs >= b)):
        raise DomainError("all starting points must lie strictly inside the interval")
    x0 = xs[:, None]
    free = np.zeros(n_paths)
    lo = np.zeros(n_paths)
    hi = np.zeros(n_paths)
    v_sum = np.zeros((xs.size, n_paths))
    n_cpu = _cpu_count()
    # Two blocks per CPU, so the workers even out around the CPU that the
    # draws hold.
    edges = [n_paths * k // (2 * n_cpu) for k in range(2 * n_cpu + 1)]
    blocks = [slice(i, j) for i, j in zip(edges, edges[1:]) if j > i]
    # One contiguous position buffer per block, so the potential sees
    # contiguous input, as it does when called on the whole array.
    pos = [np.empty((xs.size, c.stop - c.start)) for c in blocks]

    def add_potential(cols: slice, p: np.ndarray) -> None:
        np.clip(np.add(x0, free[cols], out=p), a, b, out=p)
        v = np.asarray(potential(p), dtype=float)
        v_sum[:, cols] += np.multiply(v, dt, out=v)

    with ThreadPoolExecutor(max_workers=n_cpu) as pool:
        for _ in range(cfg.n_steps):
            sums = [pool.submit(contextvars.copy_context().run, add_potential, cols, p)
                    for cols, p in zip(blocks, pos)]
            step = sample_stable_increment(cfg.alpha, dt, rng, size=n_paths)
            for f in sums:
                f.result()
            free += step
            np.minimum(lo, free, out=lo)
            np.maximum(hi, free, out=hi)
    if not np.all(np.isfinite(v_sum)):
        raise DomainError("the potential summed along some path is not finite")
    alive = (x0 + lo > a) & (x0 + hi < b)
    return np.where(alive, np.exp(-v_sum), 0.0)


def estimate_feynman_kac(x_points, potential, cfg: PathConfig,
                         n_paths: int) -> list[PathEstimate]:
    """Estimate the potential-weighted survival functional at several points.

    One generator seeded from cfg.seed drives n_paths free paths that every
    point shares, so each point's estimate is reproducible bit for bit and
    does not depend on which other points are in x_points. For the free
    case the mean estimates the survival probability; generally it
    estimates the semigroup applied to the constant 1. The potential is
    called from worker threads, concurrently, on 2-d blocks of positions,
    and must act elementwise.
    """
    if n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {n_paths}")
    xs = np.asarray(x_points, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_points must be a nonempty 1d array")
    values = _fk_values(xs, potential, cfg, n_paths, make_rng(cfg.seed))
    out = []
    for i in range(xs.size):
        row = values[i]
        mean = float(np.mean(row))
        stderr = float(np.std(row, ddof=1) / math.sqrt(n_paths))
        out.append(PathEstimate(float(xs[i]), mean, stderr, n_paths))
    return out


# Gauss-Legendre nodes per kernel layer of gaussian_chain.
_CHAIN_NODES = 256


def _gauss_kernel(s, d):
    """Transition density of the twice-speed Brownian motion, N(0, 2s)."""
    s = np.asarray(s, dtype=float)
    return np.exp(-d * d / (4.0 * s)) / np.sqrt(4.0 * math.pi * s)


@dataclass(frozen=True)
class ChainReport:
    """Kernel-chain values on a symmetric point set and their modality."""

    x_points: np.ndarray
    values: np.ndarray
    unimodal: bool
    max_violation: float


def gaussian_chain(x_points, kernel_times, potential_times, potential) -> ChainReport:
    """Iterated Gaussian-kernel average with potential weights, length 1 or 2.

    Computes, per starting point x, the integral over the interval of
    q(s1, y1 - x) e^(-t1 V(y1)) (times a second kernel layer in y2 for
    length 2) by tensor Gauss-Legendre quadrature, then checks discrete
    unimodality of the values over x_points: nondecreasing up to the peak,
    nonincreasing after, with violations measured relative to the peak.
    A potential that is not finite at a Gauss node raises DomainError.
    """
    s_list = [float(s) for s in np.atleast_1d(kernel_times)]
    t_list = [float(t) for t in np.atleast_1d(potential_times)]
    if len(s_list) != len(t_list):
        raise DomainError("kernel_times and potential_times must have equal length")
    if len(s_list) not in (1, 2):
        raise DomainError(f"chain length must be 1 or 2, got {len(s_list)}")
    if any(s <= 0 for s in s_list):
        raise DomainError("kernel times must be positive")
    if any(t < 0 for t in t_list):
        raise DomainError("potential times must be nonnegative")
    a, b = potential.interval
    xs = np.asarray(x_points, dtype=float)

    gx, gw = np.polynomial.legendre.leggauss(_CHAIN_NODES)
    y = 0.5 * (a + b) + 0.5 * (b - a) * gx
    w = 0.5 * (b - a) * gw
    v = np.asarray(potential(y), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = float(y[np.flatnonzero(~np.isfinite(v))[0]])
        raise DomainError(f"potential is not finite at Gauss node x={bad!r}")
    expv = [np.exp(-t * v) for t in t_list]

    if len(s_list) == 1:
        kern = _gauss_kernel(s_list[0], y[None, :] - xs[:, None])
        vals = kern * expv[0][None, :] @ w
    else:
        inner = _gauss_kernel(s_list[1], y[None, :] - y[:, None]) * expv[1][None, :] @ w
        kern = _gauss_kernel(s_list[0], y[None, :] - xs[:, None])
        vals = kern * (expv[0] * inner)[None, :] @ w

    peak = int(np.argmax(vals))
    sup = float(vals[peak])
    rising = np.diff(vals[:peak + 1])
    falling = np.diff(vals[peak:])
    viol = 0.0
    if rising.size:
        viol = max(viol, float(np.max(np.maximum(0.0, -rising))))
    if falling.size:
        viol = max(viol, float(np.max(np.maximum(0.0, falling))))
    rel = viol / sup if sup > 0 else math.inf
    return ChainReport(xs, np.asarray(vals), rel <= 1e-10, rel)


@dataclass(frozen=True)
class KernelReport:
    """Subordination estimate of the free kernel against the exact Cauchy law."""

    t: float
    x_points: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    exact: np.ndarray
    max_deviation_sigmas: float
    envelope_ratio: float
    passed: bool


def cauchy_kernel_check(t: float, x_points, n_samples: int = 200_000,
                        seed: int = 0) -> KernelReport:
    """Check the alpha = 1 transition density against the Cauchy formula.

    Averages the Gaussian kernel over subordinator samples at time t,
    compares pointwise with t / (pi (t^2 + x^2)) within three standard
    errors, and reports how far the estimate strays from the two-sided
    envelope min(t / x^2, 1 / t) as a max ratio (larger of est/envelope
    and envelope/est over the points).
    """
    if not (t > 0):
        raise DomainError(f"t must be positive, got {t}")
    if n_samples < 2:
        raise DomainError(f"n_samples must be >= 2, got {n_samples}")
    xs = np.asarray(x_points, dtype=float)
    rng = make_rng(seed)
    eta = sample_subordinator_increment(0.5, t, rng, size=n_samples)

    kern = _gauss_kernel(eta[None, :], xs[:, None])
    est = np.mean(kern, axis=1)
    stderr = np.std(kern, axis=1, ddof=1) / math.sqrt(n_samples)
    exact = t / (math.pi * (t * t + xs * xs))

    sigmas = np.abs(est - exact) / np.where(stderr > 0, stderr, np.inf)
    envelope = np.minimum(np.divide(t, xs * xs, out=np.full_like(xs, np.inf),
                                    where=xs != 0.0), 1.0 / t)
    ratio = np.maximum(est / envelope, envelope / est)
    return KernelReport(t, xs, est, stderr, exact,
                        float(np.max(sigmas)), float(np.max(ratio)),
                        bool(np.all(sigmas <= 3.0)))


def estimates_csv_rows(estimates: list[PathEstimate]) -> tuple[list[str], list[list[float]]]:
    """Header and rows for CSV output of path estimates."""
    header = ["x", "mean", "stderr", "n_paths"]
    rows = [[e.x, e.mean, e.stderr, e.n_paths] for e in estimates]
    return header, rows
