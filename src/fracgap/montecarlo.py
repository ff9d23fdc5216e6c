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

The CMS draw takes its sines and cosines from np.tan of half angles,
sin t = 2 tau / (1 + tau^2) with tau = tan(t/2), and each cosine as
cos t = sin(pi/2 - |t|), so that nothing cancels near |V| = pi/2. numpy
runs tan vectorised on float64 where it may not run sin and cos; the draw
agrees with the np.sin / np.cos formula to rounding. A path block draws V
and W for _STEP_GROUP steps, step by step in the order of one
sample_stable_increment call per step (each step's V, then its W), and
forms the group's increments in one elementwise pass: the same stream and
the same increments, bit for bit, with about half the numpy calls per
step, each of which has a fixed cost and takes the interpreter lock.

The killed process from x0 is x0 plus one free process, so all starting
points share the same free paths (common random numbers): each step draws
n_paths increments, whatever the number of points. A path from x0 is killed
on leaving the interval, checked at grid times, which reduces to comparing
x0 with the running minimum and maximum of its free path.

Checked only at grid times, a path that leaves and comes back between two
of them survives, which overstates survival. So for alpha >= 1.5 a path
is killed on leaving (a + delta, b - delta), delta = c(alpha) dt^(1/alpha)
from _kill_shift: a continuity correction measured, not proven, to remove
that bias (on the CLI's default config the mean excess over the FD
semigroup goes from +0.0066 at 256 steps to -0.0000 at 128). Below 1.5,
delta = 0: the plain rule, bit for bit.

The potential is accumulated by a left-endpoint Riemann sum, so the
estimator is the expected exp(-dt sum V) over surviving paths; the sum is
scaled by dt once, at the end. Killed paths keep moving, and their heavy-tailed jumps land
far outside, where V need not be defined or finite; their sums are
discarded. So each step clips the free path once to
[a - max x0, b - min x0], which a survivor from any start point x0 never
reaches: survivors' sums are those of an unclipped, per-point loop, bit
for bit, and V is evaluated outside [a, b] only for killed (point, path)
pairs, less than max x0 - min x0 beyond it. Only the survivors' sums must
be finite.

Sharing paths leaves the law of each point's estimate as it is and changes
only the joint law: nearby points are positively correlated, so their
differences have smaller variance than with independent paths, while
far-apart points can be negatively correlated.

All randomness flows through counter-based Philox generators. The paths
are cut into fixed blocks; block j draws from the seed's generator jumped
j times, and one task runs it through every step. The blocks and their
streams depend only on the seed and the number of paths, so estimates
reproduce bit for bit on any number of CPUs.

Profiles are tested for unimodality by numerics._unimodal_excess, the
rule the ground-state shape check also uses: gaussian_chain gives it no
slack, and the CLI three standard errors per pair of neighbouring
estimates.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require_count, _require_interval, _require_open
from .numerics import _gauss_legendre, _unimodal_excess
from .potentials import _require_on_interval

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
        _require_open(self.alpha, 0.0, 2.0, "alpha")
        _require_open(self.t_final, 0.0, math.inf, "t_final")
        _require_count(self.n_steps, 1, "n_steps")
        _require_interval(*self.interval)
        _require_count(self.seed, 0, "seed")


@dataclass(frozen=True)
class PathEstimate:
    """Monte Carlo mean with its standard error at one starting point."""

    x: float
    mean: float
    stderr: float
    n_paths: int


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox generator for seed."""
    return np.random.Generator(np.random.Philox(_require_count(seed, 0, "seed")))


def _require_points(x_points) -> np.ndarray:
    """Start points as a float array; refused unless nonempty, 1-d and finite."""
    xs = np.asarray(x_points, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("x_points must be a nonempty 1d array")
    if not np.all(np.isfinite(xs)):
        raise DomainError("x_points must be finite")
    return xs


def _require_chain_times(kernel_times, potential_times,
                         prefix: str = "") -> tuple[list[float], list[float]]:
    """A kernel chain's times as two lists of floats; refused unless every
    kernel time lies in (0, inf), the two lists match in length, that
    length is 1 or 2, and every potential time is finite and >= 0. prefix
    starts the names in the texts."""
    s_list = [_require_open(s, 0.0, math.inf, f"{prefix}kernel_times entry")
              for s in np.atleast_1d(kernel_times)]
    t_list = [float(t) for t in np.atleast_1d(potential_times)]
    if len(s_list) != len(t_list):
        raise DomainError(f"{prefix}kernel_times and {prefix}potential_times must match in length")
    if len(s_list) not in (1, 2):
        raise DomainError(f"{prefix}kernel_times must have length 1 or 2, got {len(s_list)}")
    if not all(0.0 <= t < math.inf for t in t_list):
        raise DomainError(f"{prefix}potential_times must be finite and >= 0, got {t_list}")
    return s_list, t_list


def sample_subordinator_increment(index: float, dt: float,
                                  rng: np.random.Generator,
                                  size: int) -> np.ndarray:
    """Increments of the one-sided stable subordinator over time dt.

    index is the subordinator order rho in (0, 1); for the process of
    stability alpha use rho = alpha / 2. The output has Laplace transform
    exp(-dt * u^rho). Returns an array of size draws.
    """
    rho = _require_open(index, 0.0, 1.0, "subordinator index")
    dt = _require_open(dt, 0.0, math.inf, "dt")
    u = rng.uniform(0.0, math.pi, size=size)
    w = rng.standard_exponential(size=size)
    # log A(u), grouped to stay finite over the whole of (0, pi).
    log_a = (rho * np.log(np.sin(rho * u))
             + (1.0 - rho) * np.log(np.sin((1.0 - rho) * u))
             - np.log(np.sin(u))) / (1.0 - rho)
    s = np.exp(((1.0 - rho) / rho) * (log_a - np.log(w)))
    return dt ** (1.0 / rho) * s


def sample_stable_increment(alpha: float, dt: float,
                            rng: np.random.Generator,
                            size: int) -> np.ndarray:
    """Increments of the symmetric alpha-stable process over time dt.

    Chambers-Mallows-Stuck draw from V uniform on (-pi/2, pi/2) and W unit
    exponential, its sines and cosines from np.tan of half angles (see
    _sin_from_half_angle); the output has characteristic function
    exp(-dt |u|^alpha), the law of the twice-speed Brownian motion
    subordinated by sample_subordinator_increment(alpha / 2, ...). Returns
    an array of size draws.
    """
    alpha = _require_open(alpha, 0.0, 2.0, "alpha")
    dt = _require_open(dt, 0.0, math.inf, "dt")
    v = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=size)
    w = rng.standard_exponential(size=size)
    return _stable_transform(alpha, dt, v, w)


def _stable_transform(alpha: float, dt: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Chambers-Mallows-Stuck increments over dt for V = v and W = w.

    Elementwise over arrays of one shape; returns w's buffer, holding the
    increments, and overwrites v. Beside v and w it holds two arrays of
    their shape at a time.
    """
    scratch = np.empty_like(v)
    # Half angle of cos((1-a)V) = sin(pi/2 - |1-a||V|), and below of
    # cos V = sin(pi/2 - |V|), so that nothing cancels near |V| = pi/2.
    cos_1a = np.abs(v)
    cos_1a *= -0.5
    cos_1a *= abs(1.0 - alpha)
    cos_1a += 0.25 * math.pi
    _sin_from_half_angle(cos_1a, scratch)
    ratio = np.divide(cos_1a, w, out=w)
    cos_v = np.abs(v, out=cos_1a)
    cos_v *= -0.5
    cos_v += 0.25 * math.pi
    _sin_from_half_angle(cos_v, scratch)
    # |V| is used; v's buffer takes the half angle of sin(aV).
    sin_av = np.multiply(v, 0.5 * alpha, out=v)
    _sin_from_half_angle(sin_av, scratch)
    # sin(aV) / cos(V)^(1/a) * (cos((1-a)V) / W)^((1-a)/a), the magnitude
    # taken in logs so no intermediate power overflows at small alpha.
    log_m = np.log(ratio, out=ratio)
    log_m *= (1.0 - alpha) / alpha
    log_cos_v = np.log(cos_v, out=cos_v)
    log_cos_v /= alpha
    log_m -= log_cos_v
    z = np.exp(log_m, out=log_m)
    z *= sin_av
    z *= dt ** (1.0 / alpha)
    return z


def _sin_from_half_angle(half: np.ndarray, scratch: np.ndarray) -> None:
    """sin(2 half) = 2 tau / (1 + tau^2) with tau = tan(half), in place of
    half; scratch, of half's shape, is overwritten.

    numpy runs np.tan vectorised on float64, where it may run np.sin and
    np.cos one element at a time; this is then faster than np.sin.
    """
    tau = np.tan(half, out=half)
    denom = np.multiply(tau, tau, out=scratch)
    denom += 1.0
    tau /= denom
    tau *= 2.0


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Smallest alpha whose paths are killed on the shifted interval (see
# _kill_shift). At alpha 1.5 to 1.9, on the zero and (5, 2) wells at t
# 0.25, 128 shifted steps came closer to the FD semigroup than 256
# unshifted ones in every run measured; at 1.45 and below, not in all.
_KILL_SHIFT_ALPHA = 1.5


def _zeta(s: float) -> float:
    """Riemann zeta at real s in (0, 1), from Borwein's alternating series
    for eta(s) = (1 - 2^(1-s)) zeta(s) in n = 30 terms, whose error in eta
    is about 3 (3 + sqrt 8)^(-n): below rounding."""
    n = 30
    d = []
    total = 0.0
    for i in range(n + 1):
        total += n * math.factorial(n + i - 1) * 4**i / (math.factorial(n - i)
                                                          * math.factorial(2 * i))
        d.append(total)
    eta = -sum((-1) ** k * (d[k] - d[n]) / (k + 1) ** s for k in range(n)) / d[n]
    return eta / (1.0 - 2.0 ** (1.0 - s))


def _kill_shift(alpha: float, dt: float) -> float:
    """How far inside each end of the interval a path sampled every dt is
    killed: delta = -zeta(1 - 1/alpha) Gamma(1 - 1/alpha) / pi * dt^(1/alpha)
    for alpha >= _KILL_SHIFT_ALPHA, else 0.

    By Spitzer's identity (Trans. AMS 82, 1956) the maximum of the stable
    walk over grid times falls short of the supremum of the continuous
    path by about delta, the stable analogue of Broadie, Glasserman and
    Kou's barrier shift (Math. Finance 7, 1997), which it meets at alpha
    = 2 as 0.8239 sqrt(dt). Their argument needs a finite mean ladder
    height, which the walk lacks for alpha < 2, so the shift is a measured
    correction, not a theorem. Its constant grows without bound as alpha
    falls to 1 (1.2165 at 1.2, 0.8300 at 1.5), where the shift comes to
    overcorrect by as much as it corrects.
    """
    if alpha < _KILL_SHIFT_ALPHA:
        return 0.0
    s = 1.0 - 1.0 / alpha
    return -_zeta(s) * math.gamma(s) / math.pi * dt ** (1.0 / alpha)


def _kill_delta(cfg: PathConfig) -> float:
    """The kill shift of cfg's paths, _kill_shift(alpha, t_final / n_steps).

    Refused from a quarter of the interval's length on, where the shift
    kills every path from the outer half of the start points at once, and
    nearly all the rest.
    """
    a, b = cfg.interval
    dt = cfg.t_final / cfg.n_steps
    delta = _kill_shift(cfg.alpha, dt)
    if not delta < (b - a) / 4:
        raise DomainError(f"t_final / n_steps = {dt:.6g} moves each kill boundary "
                          f"{delta:.6g} inward, not under a quarter of the interval "
                          f"length {b - a:.6g}; raise n_steps")
    return delta


# Paths per block; block j draws from Philox(seed) jumped j times (0: the seed's own).
_PATH_BLOCK = 4096
# Steps whose increments one _stable_transform call forms, per block.
_STEP_GROUP = 3


def _fk_values(xs: np.ndarray, potential, cfg: PathConfig, n_paths: int) -> np.ndarray:
    """exp(-dt sum V) per (start point, path) for survivors, 0 if killed.

    Every start point x0 shares the same n_paths free paths: the path from
    x0 is x0 + free. The potential is summed left-endpoint style over grid
    times 0, dt, ..., t_final - dt, at x0 plus the free path clipped to
    [a - max(xs), b - min(xs)], and the sum scaled by dt at the end. A path
    survives iff x0 + min(free) > a + delta and x0 + max(free) < b - delta
    over the grid times (0 among them), delta = _kill_delta(cfg), the
    same rule as checking exit from (a + delta, b - delta) at every grid
    time. The clip moves no survivor, so V is evaluated outside (a, b)
    only for killed pairs.

    The paths are cut into blocks of _PATH_BLOCK columns, and one task runs
    a block through every step on the block's own stream, then forms the
    functional in its columns of the result. Neither the blocks nor their
    streams depend on the CPU count, so neither do the values, bit for bit.
    The tasks run in the caller's context (so np.errstate holds there too).
    A survivor's sum that is not finite (a potential that overflows at a
    visited position) raises DomainError; killed pairs are not checked.

    A task draws the increments of _STEP_GROUP steps into two buffers of
    _STEP_GROUP x block rows, V and W row by row in the stream order of one
    sample_stable_increment call per step, forms them with one
    _stable_transform call, then steps the paths through them one by one;
    the last group of a run may be shorter.

    Working set: the sums, formed in the result, are the only n_points x
    n_paths array. A task writes its positions into one buffer that every
    step reuses (fresh arrays at each step cost page faults on the first
    call in a process), and the potential's values live for one step. The
    draw buffers and the transform's two scratch arrays add 4 _STEP_GROUP
    block rows while the increments are formed, and the buffers 2
    _STEP_GROUP while the paths step. One
    thread per two blocks, rounded up and at most one per CPU, keeps about
    half the paths in flight, or all of them when they fit in three
    blocks.
    """
    # Imported here: at module top it would add to every `import fracgap`.
    from concurrent.futures import ThreadPoolExecutor

    a, b = cfg.interval
    dt = cfg.t_final / cfg.n_steps
    if np.any(~((xs > a) & (xs < b))):
        raise DomainError("all starting points must lie strictly inside the interval")
    # A survivor from x0 keeps its free path inside (a - x0, b - x0), so
    # this clip moves no survivor's position.
    free_lo, free_hi = a - float(np.max(xs)), b - float(np.min(xs))
    delta = _kill_delta(cfg)
    kill_lo, kill_hi = a + delta, b - delta
    x0 = xs[:, None]
    values = np.zeros((xs.size, n_paths))

    def run_block(start: int) -> None:
        rng = np.random.Generator(np.random.Philox(cfg.seed).jumped(start // _PATH_BLOCK))
        v_sum = values[:, start:start + _PATH_BLOCK]
        n = v_sum.shape[1]
        free, lo, hi = np.zeros((3, n))
        pos = np.empty_like(v_sum)
        v, w = np.empty((2, _STEP_GROUP, n))
        for first in range(0, cfg.n_steps, _STEP_GROUP):
            k = min(_STEP_GROUP, cfg.n_steps - first)
            # Each step's V, then its W, as sample_stable_increment draws them.
            for j in range(k):
                v[j] = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=n)
                rng.standard_exponential(out=w[j])
            for step in _stable_transform(cfg.alpha, dt, v[:k], w[:k]):
                np.add(x0, np.clip(free, free_lo, free_hi), out=pos)
                v_sum += potential(pos)
                free += step
                np.minimum(lo, free, out=lo)
                np.maximum(hi, free, out=hi)
        # exp(-dt sum) in place, one start point at a time; a killed pair's
        # sum becomes inf, so its value is exp(-inf) = 0.
        for i, x in enumerate(xs):
            row = v_sum[i]
            alive = (x + lo > kill_lo) & (x + hi < kill_hi)
            if not np.all(np.isfinite(row[alive])):
                raise DomainError("the potential summed along some path is not finite")
            row[~alive] = np.inf
            np.exp(np.multiply(row, -dt, out=row), out=row)

    starts = range(0, n_paths, _PATH_BLOCK)
    pool = ThreadPoolExecutor(max_workers=min(_cpu_count(), -(-len(starts) // 2)))
    try:
        for task in [pool.submit(contextvars.copy_context().run, run_block, start)
                     for start in starts]:
            task.result()
    finally:
        # An error drops the blocks not yet started.
        pool.shutdown(cancel_futures=True)
    return values


def estimate_feynman_kac(x_points, potential, cfg: PathConfig,
                         n_paths: int) -> list[PathEstimate]:
    """Estimate the potential-weighted survival functional at several points.

    Every point shares the same n_paths free paths, drawn in fixed blocks
    from Philox streams jumped from cfg.seed, so each point's estimate is
    reproducible bit for bit and depends neither on which other points are
    in x_points nor on the CPU count. For the free case the mean estimates
    the survival probability; generally it estimates the semigroup applied
    to the constant 1. A path is killed at the first grid time it lies
    outside the interval, shrunk at each end by the kill shift for alpha
    >= 1.5 (see the module docstring); a shift of a quarter of the
    interval's length or more raises DomainError (_kill_delta). The
    potential is called from worker threads, concurrently, on 2-d blocks of
    positions, and must act elementwise. It is evaluated outside the
    interval only for paths already killed from that start point, and less
    than max(x_points) - min(x_points) beyond it; only the surviving paths'
    sums must be finite. A Potential must be defined on cfg.interval
    (potentials._require_on_interval); a plain callable has no interval.
    """
    n_paths = _require_count(n_paths, 2, "n_paths")
    xs = _require_points(x_points)
    _require_on_interval(potential, *cfg.interval)
    values = _fk_values(xs, potential, cfg, n_paths)
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
    A potential that is not finite at a Gauss node, or values that all
    underflow to 0, raise DomainError.
    """
    s_list, t_list = _require_chain_times(kernel_times, potential_times)
    a, b = potential.interval
    xs = _require_points(x_points)

    gx, gw = _gauss_legendre(_CHAIN_NODES)
    y = 0.5 * (a + b) + 0.5 * (b - a) * gx
    w = 0.5 * (b - a) * gw
    v = np.asarray(potential(y), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = float(y[np.flatnonzero(~np.isfinite(v))[0]])
        raise DomainError(f"potential is not finite at Gauss node x={bad!r}")
    expv = [np.exp(-t * v) for t in t_list]

    # Innermost layer first: weight(y) = e_k(y) * integral q(s_(k+1), y' - y) weight(y') dy'.
    weight = expv[-1]
    for s, e in zip(s_list[:0:-1], expv[-2::-1]):
        weight = e * (_gauss_kernel(s, y[None, :] - y[:, None]) * weight @ w)
    vals = _gauss_kernel(s_list[0], y[None, :] - xs[:, None]) * weight @ w

    sup = float(np.max(vals))
    if sup == 0.0:
        raise DomainError(f"kernel chain values underflow to 0 on the interval {(a, b)}")
    rel = _unimodal_excess(vals, 0.0) / sup
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
    t = _require_open(t, 0.0, math.inf, "t")
    n_samples = _require_count(n_samples, 2, "n_samples")
    xs = _require_points(x_points)
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

