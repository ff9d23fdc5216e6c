"""Monte Carlo simulation of the killed, potential-weighted semigroup.

The driving process is Brownian motion run at twice standard speed and
subordinated by an independent one-sided stable subordinator, so one time
step of length dt advances the Brownian clock by a stable increment and the
position by a centered Gaussian of variance twice that increment.
Subordinator increments use Kanter's representation

    S = (A(U) / W)^((1-rho)/rho),
    A(u) = sin(rho u)^(rho/(1-rho)) sin((1-rho) u) / sin(u)^(1/(1-rho)),

with U uniform on (0, pi) and W unit exponential, which has Laplace
transform exp(-lambda^rho); scaling by dt^(1/rho) gives the increment over
dt. Paths are killed on leaving the interval, checked at grid times, and
the potential is accumulated by a left-endpoint Riemann sum, so the
estimator is the expected exp(-sum V dt) over surviving paths.

All randomness flows through a counter-based Philox generator; for a fixed
seed and configuration the draw order is fixed, so estimates reproduce
bit for bit.
"""

from __future__ import annotations

import math
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


def _fk_values(x0: np.ndarray, potential, cfg: PathConfig,
               rng: np.random.Generator) -> np.ndarray:
    """exp(-sum V dt) per path for survivors, 0 for killed paths.

    The potential is summed left-endpoint style over grid times
    0, dt, ..., t_final - dt on positions that are still inside; exit is
    checked at every grid time. Draws happen for all paths at every step
    to keep the stream layout independent of kill times.
    """
    a, b = cfg.interval
    dt = cfg.t_final / cfg.n_steps
    rho = cfg.alpha / 2.0
    pos = x0.astype(float).copy()
    if np.any((pos <= a) | (pos >= b)):
        raise DomainError("all starting points must lie strictly inside the interval")
    alive = np.ones(pos.size, dtype=bool)
    v_sum = np.zeros(pos.size)
    for _ in range(cfg.n_steps):
        v_sum[alive] += np.asarray(potential(pos[alive]), dtype=float) * dt
        d_eta = sample_subordinator_increment(rho, dt, rng, size=pos.size)
        pos += np.sqrt(2.0 * d_eta) * rng.standard_normal(pos.size)
        alive &= (pos > a) & (pos < b)
    out = np.zeros(pos.size)
    out[alive] = np.exp(-v_sum[alive])
    return out


def estimate_feynman_kac(x_points, potential, cfg: PathConfig,
                         n_paths: int) -> list[PathEstimate]:
    """Estimate the potential-weighted survival functional at several points.

    All points share one generator seeded from cfg.seed, so the full result
    list is reproducible bit for bit for a fixed configuration. For the
    free case the mean estimates the survival probability; generally it
    estimates the semigroup applied to the constant 1.
    """
    if n_paths < 2:
        raise DomainError(f"n_paths must be >= 2, got {n_paths}")
    xs = np.asarray(x_points, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_points must be a nonempty 1d array")
    rng = make_rng(cfg.seed)
    x0 = np.repeat(xs, n_paths)
    values = _fk_values(x0, potential, cfg, rng).reshape(xs.size, n_paths)
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
    expv = [np.exp(-t * np.asarray(potential(y), dtype=float)) for t in t_list]

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
