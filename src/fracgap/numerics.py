"""Special functions and quadrature engines.

Everything downstream rests on three pieces: a gamma function accurate to
roughly machine precision, the jump-kernel normalizing constant built from it,
and two quadrature engines. The one-dimensional engine is an adaptive
Gauss-Legendre pair; since Gauss nodes never touch panel endpoints it handles
integrable endpoint singularities such as x^(-1/2) by plain bisection of the
offending panel. The two-dimensional engine evaluates symmetric double
integrals with an |x-y|^(-1-alpha) kernel by substituting u = y - x, grading
the outer mesh toward u = 0 where the kernel concentrates, and refining outer
and inner resolution in lockstep until two consecutive levels agree.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError

__all__ = [
    "QuadConfig",
    "FormValue",
    "DEFAULT_1D",
    "DEFAULT_2D",
    "gamma_fn",
    "levy_constant",
    "integrate_1d",
    "singular_double_integral",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerance and budget knobs shared by the quadrature engines.

    abs_tol / rel_tol: convergence when the error estimate drops below
    max(abs_tol, rel_tol * |value|).
    max_panels: budget cap; exceeding it raises NonConvergenceError.
    grading_exponent: outer-mesh grading of the double-integral engine,
    u_k proportional to (k/K)**grading_exponent.
    """

    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_panels: int = 2048
    grading_exponent: float = 3.0

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_panels < 4:
            raise DomainError("max_panels must be at least 4")
        if self.grading_exponent < 1:
            raise DomainError("grading_exponent must be at least 1")


@dataclass(frozen=True)
class FormValue:
    """A computed integral together with its a-posteriori error estimate."""

    value: float
    error_estimate: float


DEFAULT_1D = QuadConfig()
DEFAULT_2D = QuadConfig(abs_tol=1e-6, rel_tol=1e-6, max_panels=1024)


def gamma_fn(x: float) -> float:
    """Gamma function on the reals, poles excluded.

    math.gamma with the domain made explicit: raises DomainError at the
    poles (x = 0, -1, -2, ...) and for non-finite input.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn requires a finite argument, got {x}")
    if x <= 0 and x == math.floor(x):
        raise DomainError(f"gamma_fn pole at nonpositive integer {x}")
    return math.gamma(x)


def levy_constant(gamma: float) -> float:
    """Normalizing constant Gamma((1-gamma)/2) / (2^gamma sqrt(pi) |Gamma(gamma/2)|).

    Defined for gamma in (-2, 1) excluding 0. At gamma = -1 the value is
    exactly 1/pi.
    """
    gamma = float(gamma)
    if not (-2.0 < gamma < 1.0) or gamma == 0.0:
        raise DomainError(f"levy_constant requires gamma in (-2,1), nonzero, got {gamma}")
    num = gamma_fn((1.0 - gamma) / 2.0)
    den = 2.0 ** gamma * math.sqrt(math.pi) * abs(gamma_fn(gamma / 2.0))
    return num / den


_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)


def _eval_vectorized(f, x: np.ndarray) -> np.ndarray:
    """Call f on an array, tolerating scalar-returning callables."""
    out = np.asarray(f(x), dtype=float)
    if out.shape != x.shape:
        out = np.broadcast_to(out, x.shape)
    return out


def _panel(f, lo: float, hi: float) -> tuple[float, float]:
    """15-point value and 7-vs-15 error estimate on one panel."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    v15 = half * float(np.dot(_GL15_W, _eval_vectorized(f, mid + half * _GL15_X)))
    v7 = half * float(np.dot(_GL7_W, _eval_vectorized(f, mid + half * _GL7_X)))
    return v15, abs(v15 - v7)


def integrate_1d(f, lo: float, hi: float, cfg: QuadConfig = DEFAULT_1D) -> FormValue:
    """Adaptive integral of f over [lo, hi].

    f must accept numpy arrays (scalar-returning callables are broadcast).
    Panels are bisected worst-error-first until the summed error estimate
    meets cfg tolerances. f is never evaluated at panel endpoints, so
    integrable endpoint singularities are admissible.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration endpoints must be finite")
    if hi < lo:
        raise DomainError(f"empty integration range [{lo}, {hi}]")
    if hi == lo:
        return FormValue(0.0, 0.0)

    n0 = min(8, cfg.max_panels)
    edges = np.linspace(lo, hi, n0 + 1)
    heap: list[tuple[float, int, float, float, float]] = []
    seq = 0
    total = 0.0
    err_total = 0.0
    for i in range(n0):
        v, e = _panel(f, edges[i], edges[i + 1])
        heapq.heappush(heap, (-e, seq, edges[i], edges[i + 1], v))
        seq += 1
        total += v
        err_total += e

    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err_total <= tol:
            return FormValue(total, err_total)
        if len(heap) >= cfg.max_panels:
            raise NonConvergenceError(
                f"integrate_1d: {cfg.max_panels} panels exhausted, "
                f"error {err_total:.3e} above tolerance {tol:.3e}",
                value=total, error_estimate=err_total)
        neg_e, _, plo, phi, pv = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # Panel narrower than float spacing: keep its value, drop its
            # error claim, nothing further can be resolved.
            heapq.heappush(heap, (0.0, seq, plo, phi, pv))
            seq += 1
            err_total -= -neg_e
            continue
        total -= pv
        err_total -= -neg_e
        for qlo, qhi in ((plo, mid), (mid, phi)):
            v, e = _panel(f, qlo, qhi)
            heapq.heappush(heap, (-e, seq, qlo, qhi, v))
            seq += 1
            total += v
            err_total += e


# Difference quotients (f(x+u)-f(x))/u lose their signal to float
# cancellation once u falls below about 1e-8 of the interval; the quotient
# profile is continuous at u = 0, so clamping there is harmless.
_QUOTIENT_FLOOR = 1e-8


def _graded_level(f, w, alpha: float, a: float, b: float,
                  n_outer: int, n_inner: int, grading: float) -> float:
    """One resolution level of the substituted double integral.

    Computes 2 * int_0^L u^(-1-alpha) Inner(u) du with
    Inner(u) = int_a^(b-u) (f(x+u)-f(x))^2 w(x) w(x+u) dx. Writing
    Inner(u) = u^2 R(u) with R the squared-difference-quotient profile and
    substituting u = L t^p turns the outer integral into

        p L^(2-alpha) int_0^1 t^(m-1) R(L t^p) dt,   p = m / (2 - alpha),

    with m the smallest integer making p at least the configured grading
    exponent. The mesh in u is therefore graded like (k/K)^p toward the
    kernel singularity, and the t-integrand is polynomial times R, regular
    for Lipschitz f, so the singular end contributes no leading error term.
    """
    length = b - a
    m_pow = max(1, math.ceil(grading * (2.0 - alpha) - 1e-12))
    p = m_pow / (2.0 - alpha)

    t_edges = np.arange(n_outer + 1) / n_outer
    t_mid = 0.5 * (t_edges[:-1] + t_edges[1:])
    t_half = 0.5 / n_outer
    t_nodes = (t_mid[:, None] + t_half * _GL8_X[None, :]).ravel()
    t_weights = np.tile(t_half * _GL8_W, n_outer)
    u_nodes = length * t_nodes ** p
    u_nodes = np.maximum(u_nodes, _QUOTIENT_FLOOR * length)

    # Inner rule fixed on [0,1] in the scaled variable s, mapped per u.
    s_edges = np.arange(n_inner + 1) / n_inner
    s_mid = 0.5 * (s_edges[:-1] + s_edges[1:])
    s_half = 0.5 / n_inner
    s_nodes = (s_mid[:, None] + s_half * _GL8_X[None, :]).ravel()
    s_weights = np.tile(s_half * _GL8_W, n_inner)

    profile = np.empty_like(u_nodes)
    chunk = max(1, int(4_000_000 // s_nodes.size))
    for i0 in range(0, u_nodes.size, chunk):
        u = u_nodes[i0:i0 + chunk, None]
        width = length - u
        x = a + s_nodes[None, :] * width
        d = (_eval_vectorized(f, x + u) - _eval_vectorized(f, x)) / u
        vals = d * d
        if w is not None:
            vals = vals * _eval_vectorized(w, x) * _eval_vectorized(w, x + u)
        profile[i0:i0 + chunk] = width[:, 0] * (vals @ s_weights)
    poly = t_nodes ** (m_pow - 1) if m_pow > 1 else np.ones_like(t_nodes)
    return 2.0 * p * length ** (2.0 - alpha) * float(
        np.dot(t_weights, poly * profile))


def singular_double_integral(f, w, alpha: float,
                             interval: tuple[float, float],
                             cfg: QuadConfig = DEFAULT_2D) -> FormValue:
    """Double integral of (f(x)-f(y))^2 |x-y|^(-1-alpha) w(x) w(y) over a square.

    w may be None for the unweighted case. The diagonal x = y is excluded
    exactly by the u = y - x substitution; the integrand is assumed symmetric
    under swapping x and y, which holds for this form. Resolution is doubled
    in lockstep until two consecutive levels agree within cfg tolerances;
    the error estimate is the last refinement difference.
    """
    a, b = float(interval[0]), float(interval[1])
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"singular_double_integral requires alpha in (0,2), got {alpha}")
    if not (b > a):
        raise DomainError(f"degenerate interval ({a}, {b})")

    n_outer, n_inner = 16, 16
    prev = None
    while True:
        val = _graded_level(f, w, alpha, a, b, n_outer, n_inner,
                            cfg.grading_exponent)
        if prev is not None:
            err = abs(val - prev)
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(val))
            if err <= tol:
                return FormValue(val, err)
            if 2 * n_outer > cfg.max_panels:
                raise NonConvergenceError(
                    f"singular_double_integral: outer panel budget "
                    f"{cfg.max_panels} exhausted, refinement difference "
                    f"{err:.3e} above tolerance {tol:.3e}",
                    value=val, error_estimate=err)
        prev = val
        n_outer *= 2
        n_inner *= 2
