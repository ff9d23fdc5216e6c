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
Piecewise-linear inputs skip both engines: their unweighted form (alpha in
(0, 1) or (1, 2)), their weighted form (alpha in (0, 2)) and their weighted
L2 mass are evaluated from closed-form and fixed-order cell-pair integrals,
with error bounds in place of refinement differences.
"""

from __future__ import annotations

import functools
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
    "piecewise_linear_form",
    "piecewise_linear_mass",
    "piecewise_linear_weighted_form",
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
    in lockstep until two consecutive levels agree within cfg tolerances.

    The error estimate is the last refinement difference, not a bound. On
    kinked integrands the level sequence can oscillate, and the estimate
    then understates the true error: on the 1000 random piecewise-linear
    functions (3 to 32 segments) of the Poincare acceptance campaign, at its
    settings (rel_tol 1e-2) and alpha in {1.1, 1.5, 1.9}, it fell below the
    error against the closed form in 815 of 3000 cases, by up to 886x.
    Piecewise-linear inputs therefore go through piecewise_linear_form.
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


_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)
_EPS = float(np.finfo(float).eps)


def _pl_form_terms(edges: np.ndarray, slopes: np.ndarray, alpha):
    """d^T W d and the magnitude of its summed terms, for cell slopes d.

    W_ij integrates 2/(alpha(alpha-1)) K(s, t) over cell i x cell j, with
    K(s, t) = |t-s|^(1-alpha) - (max-a)^(1-alpha) - (b-min)^(1-alpha)
    + L^(1-alpha). The derivation holds for alpha in (0, 1) and (1, 2); below
    1 the prefactor is negative, so the magnitude takes its absolute value.
    Works in the dtype of edges, so a test can replay it in extended
    precision.
    """
    a, b = edges[0], edges[-1]
    h = edges[1:] - edges[:-1]
    e2, e3 = 2 - alpha, 3 - alpha
    span = np.abs(edges[None, :] - edges[:, None])
    # G(u) = |u|^(3-alpha)/((2-alpha)(3-alpha)) has G'' = |u|^(1-alpha), so
    # the |t-s| part of d^T W d is -r^T G r, with r the slope jumps at the
    # edges (f is constant outside [a, b]); |r_k| <= c_k.
    g = span ** e3 / (e2 * e3)
    padded = np.concatenate([[0], slopes, [0]])
    r = padded[1:] - padded[:-1]
    c = np.abs(padded[1:]) + np.abs(padded[:-1])
    # (max-a)^(1-alpha) over cells i < j is h_i (P(q_j-a) - P(p_j-a)), with
    # P(u) = u^(2-alpha)/(2-alpha), so summed against d_i d_j it pairs each
    # cell with its rise f(p_j) - f(a); over cell j x cell j it is
    # 2 (h_j P(q_j-a) - G(q_j-a) + G(p_j-a)). (b-min)^(1-alpha) mirrors
    # this with the fall f(b) - f(q_j).
    pa, pb = span[0] ** e2 / e2, span[-1] ** e2 / e2
    ga, gb = g[0], g[-1]
    step = slopes * h
    total = step.cumsum()
    rise, fall = total - step, total[-1] - total
    diag = h * (pa[1:] + pb[:-1])
    sides = 2 * slopes @ ((pa[1:] - pa[:-1]) * rise + (pb[:-1] - pb[1:]) * fall
                          + slopes * (diag - ga[1:] + ga[:-1] + gb[1:] - gb[:-1]))
    mag_d = np.abs(slopes)
    mag_step = mag_d * h
    mag_total = mag_step.cumsum()
    mag_sides = 2 * mag_d @ ((pa[1:] + pa[:-1]) * (mag_total - mag_step)
                             + (pb[:-1] + pb[1:]) * (mag_total[-1] - mag_total)
                             + mag_d * (diag + ga[1:] + ga[:-1] + gb[1:] + gb[:-1]))
    const = (b - a) ** (1 - alpha)
    scale = 2 / (alpha * (alpha - 1))
    value = scale * (const * total[-1] ** 2 - r @ g @ r - sides)
    magnitude = abs(scale) * (const * mag_total[-1] ** 2 + c @ g @ c + mag_sides)
    return value, magnitude


def _pl_data(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values as float arrays, rejected unless well formed."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
        raise DomainError("piecewise-linear data must be matching 1d arrays, length >= 2")
    if not (xs[1:] > xs[:-1]).all():
        raise DomainError("breakpoints must be strictly increasing")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DomainError("piecewise-linear data must be finite")
    return xs, ys


def _cell_edges(xs: np.ndarray, interval: tuple[float, float]) -> np.ndarray:
    """The interval's ends with the breakpoints strictly inside it."""
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise DomainError(f"degenerate interval ({a}, {b})")
    return np.concatenate([[a], xs[(xs > a) & (xs < b)], [b]])


def piecewise_linear_form(xs, ys, alpha: float,
                          interval: tuple[float, float]) -> FormValue:
    """Exact unweighted form of the piecewise-linear interpolant of (xs, ys).

    The interpolant is constant outside [xs[0], xs[-1]], as np.interp makes
    it. For alpha in (0, 1) or (1, 2), writing (f(x)-f(y))^2 as the double
    integral of f'(s) f'(t) over s, t between y and x and integrating the
    kernel |x-y|^(-1-alpha) first gives E = d^T W d, with d the slopes on
    the cells between consecutive breakpoints (clipped to the interval and
    merged with its ends) and W a closed-form matrix of cell-pair
    integrals. No quadrature is involved. At alpha = 1 the kernel integrals
    are logarithms, which this form does not cover.

    The error estimate is a floating-point bound from the magnitudes of the
    summed terms. The terms cancel, the more so the narrower the cells are
    against the interval and the nearer alpha is to 1. On the
    counterexample scan's steps at alpha = 0.5, the n = 32 step (256 cells
    of width 1/32768 and two wide ones) loses about 5e-10 relative against
    an extended-precision replay, and its bound reads about 1.3e-5
    relative.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise DomainError(
            f"piecewise_linear_form requires alpha in (0, 1) or (1, 2), got {alpha}")
    xs, ys = _pl_data(xs, ys)
    edges = _cell_edges(xs, interval)
    vals = np.interp(edges, xs, ys)
    slopes = (vals[1:] - vals[:-1]) / (edges[1:] - edges[:-1])
    value, magnitude = _pl_form_terms(edges, slopes, alpha)
    # Each term takes a few dozen roundings (powers with rounded exponents,
    # differences, products), each slope 3, and the sums over the edges
    # about 2n.
    return FormValue(float(value), float((2 * slopes.size + 64) * _EPS * magnitude))


# Gauss-Legendre orders for the cell-pair kernel moments (_kernel_moments
# picks the lowest one that its Bernstein-ellipse bound allows).
_MOMENT_ORDERS = (4, 6, 8, 12, 16, 24, 32)


@functools.cache
def _gauss01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1) / 2, w / 2


def _gauss_tail(sigma, spread, alpha):
    """Log-prefactor c and log rho of a Gauss-Legendre bound e^c rho^(-2n).

    The bound is on |error|/value of n-point Gauss-Legendre on [0, 1] for
    an integrand x^p D(x)^(-1-alpha), p <= 3, with D affine and vanishing
    sigma interval lengths beyond one end. On the Bernstein ellipse halfway
    to that zero (semi-axis 1 + sigma in [-1, 1] units) |x| is at most
    (2 + sigma)/2 and |D| at least D_min/2, so the Chebyshev coefficients
    are at most 2 M rho^-k and the error at most 4 M rho^(-2n)/(1 - 1/rho)
    (Trefethen, SIAM Rev. 50, 2008). A moment of degree <= 3 in each of two
    variables is at least D_max^(-1-alpha)/16; spread = D_max/D_min.
    """
    semi = 1 + sigma
    log_rho = np.log(semi + np.sqrt(semi * semi - 1))
    return (math.log(64) + 3 * np.log1p(sigma / 2) + (1 + alpha) * np.log(2 * spread)
            - np.log(-np.expm1(-log_rho))), log_rho


def _kernel_moments(gap, hx, hy, alpha):
    """M[p, q] = iint s^p t^q (gap + hx (1 - s) + hy t)^(-1-alpha), p, q <= 3.

    The moments of two cells of widths hx and hy, the second gap to the
    right of the first, by tensor Gauss-Legendre on [0, 1]^2; gap, hx and
    hy are 1-d arrays. Each pair takes the lowest order in _MOMENT_ORDERS
    at which the tail bounds in s and in t (_gauss_tail) are each below
    _EPS/2. Returns the moments (m, 4, 4) and the sum of the two bounds.
    """
    spread = (gap + hx + hy) / gap
    (c_s, r_s), (c_t, r_t) = (_gauss_tail(gap / h, spread, alpha) for h in (hx, hy))
    need = np.maximum((c_s - math.log(_EPS / 2)) / (2 * r_s),
                      (c_t - math.log(_EPS / 2)) / (2 * r_t))
    pick = np.minimum(np.searchsorted(_MOMENT_ORDERS, need), len(_MOMENT_ORDERS) - 1)
    order = np.asarray(_MOMENT_ORDERS)[pick]
    moments = np.empty(gap.shape + (4, 4), dtype=gap.dtype)
    for level in np.unique(pick):
        x, w = (v.astype(gap.dtype) for v in _gauss01(_MOMENT_ORDERS[level]))
        vander = w[:, None] * x[:, None] ** np.arange(4)
        which = np.flatnonzero(pick == level)
        chunk = max(1, _PAIR_BLOCK // x.size ** 2)
        for start in range(0, which.size, chunk):
            sel = which[start:start + chunk]
            kernel = (gap[sel, None, None] + hx[sel, None, None] * (1 - x[:, None])
                      + hy[sel, None, None] * x) ** (-1 - alpha)
            moments[sel] = vander.T @ kernel @ vander
    return moments, np.exp(c_s - 2 * order * r_s) + np.exp(c_t - 2 * order * r_t)


def _edge_moments(hx, hy, alpha):
    """N[p, q] = iint u^p t^q (hx u + hy t)^(-1-alpha) for p + q >= 2, else 0.

    u and t are distances from the edge two cells share, in units of their
    widths. Split at t = u r and u = t r (Duffy, SIAM J. Numer. Anal. 19,
    1982), the radial integral is 1/(p + q + 1 - alpha) and what remains
    is J_q(a, b) = int_0^1 r^q (a + b r)^(-1-alpha) dr, by Gauss-Legendre.
    Returns the moments (m, 4, 4) and their relative truncation bound (m,).
    """
    n = _MOMENT_ORDERS[-1]
    x, w = (v.astype(hx.dtype) for v in _gauss01(n))
    powers = w[:, None] * x[:, None] ** np.arange(4)
    j_x = (hx[:, None] + hy[:, None] * x) ** (-1 - alpha) @ powers
    j_y = (hy[:, None] + hx[:, None] * x) ** (-1 - alpha) @ powers
    deg = np.arange(4)[:, None] + np.arange(4)
    radial = np.where(deg >= 2, 1 / np.maximum(deg + 1 - alpha, 1), 0)
    moments = (j_x[:, None, :] + j_y[:, :, None]) * radial
    spread = (hx + hy) / np.minimum(hx, hy)
    tails = [c - 2 * n * r for c, r in (_gauss_tail(hx / hy, spread, alpha),
                                         _gauss_tail(hy / hx, spread, alpha))]
    return moments, np.exp(np.maximum(*tails))


def _pair_sums(delta, x, y, m, sign):
    """iint (delta + d_x s + sign d_y t)^2 w_x(s) w_y(t) against moments m.

    x and y are (W, g, d) of the two cells, with w = W + g s and
    f = F + d s on a cell in local coordinates; m[..., p, q] holds the
    moments of s^p t^q. sign -1 gives the value; sign +1 on absolute
    inputs, the sum of the magnitudes of its terms.
    """
    wx, gx, dx = x
    wy, gy, dy = y

    def lin(r, s):
        return (wx * (wy * m[..., r, s] + gy * m[..., r, s + 1])
                + gx * (wy * m[..., r + 1, s] + gy * m[..., r + 1, s + 1]))

    return (delta * delta * lin(0, 0) + 2 * delta * (dx * lin(1, 0) + sign * dy * lin(0, 1))
            + dx * dx * lin(2, 0) + 2 * sign * dx * dy * lin(1, 1) + dy * dy * lin(0, 2))


# Array elements per block of the pair sums and of the moment kernels:
# bounds their temporaries whatever the number of cells.
_PAIR_BLOCK = 2**14


def _pl_weighted_terms(edges, fv, wv, alpha):
    """The weighted form, the magnitude of its summed terms and its Gauss tail.

    f and w are linear between consecutive edges, with values fv and wv
    there. Works in the dtype of edges, so a test can replay it in extended
    precision. Each pair of cells is integrated in local coordinates s, t in
    [0, 1], with f = F + d s and w = W + g s on each cell:
    - same cell: (f(x) - f(y))^2 = d^2 (s - t)^2, and the moments of
      s^p t^q |s - t|^(1-alpha), p, q <= 1, are closed forms;
    - adjacent cells: f(x) - f(y) vanishes at the shared edge, see
      _edge_moments;
    - cells further apart: see _kernel_moments. delta = F_x - F_y is kept
      per pair, not expanded into products of values, which would cancel.
      Every moment is at most M[0, 0], which bounds the magnitude. When all
      widths are equal the moments depend on the offset alone and are
      computed once per offset.
    """
    h = edges[1:] - edges[:-1]
    d = fv[1:] - fv[:-1]
    g = wv[1:] - wv[:-1]
    w0 = wv[:-1]
    n = h.size

    beta = 1 - alpha
    d00 = 2 / ((beta + 1) * (beta + 2))
    d11 = ((1 / (beta + 4) + 2 / ((beta + 2) * (beta + 3) * (beta + 4))) / (beta + 1)
           - 1 / ((beta + 3) * (beta + 4)))
    same = h ** beta * d * d
    # D10 = D00/2 by the symmetry s -> 1 - s, t -> 1 - t.
    value = same @ (w0 * w0 * d00 + w0 * g * d00 + g * g * d11)
    magnitude = same @ (w0 * w0 * d00 + np.abs(w0 * g) * d00 + g * g * d11)
    tail = 0 * value
    if n < 2:
        return value, magnitude, tail

    # Adjacent cells, the left one read from the shared edge: u = 1 - s.
    moments, tails = _edge_moments(h[:-1], h[1:], alpha)
    moments = moments * (h[:-1] * h[1:])[:, None, None]
    zero = np.zeros(n - 1, dtype=h.dtype)
    right = (w0[1:], g[1:], d[1:])
    value = value + 2 * _pair_sums(zero, (w0[1:], -g[:-1], -d[:-1]), right, moments, -1).sum()
    adjacent = _pair_sums(zero, tuple(np.abs((w0[1:], g[:-1], d[:-1]))),
                          tuple(np.abs(right)), moments, 1)
    magnitude = magnitude + 2 * adjacent.sum()
    tail = tail + 2 * tails @ adjacent

    # Cells further apart, a block of offsets k at a time: row i pairs cell
    # i with cell i + k. Cells past the end get zero weight, so the pairs
    # they complete add nothing.
    uniform = bool((h == h[0]).all())
    if uniform:
        table, table_tails = _kernel_moments(np.arange(1, n - 1, dtype=h.dtype) * h[0],
                                             h[1:-1], h[1:-1], alpha)
        table = table * h[0] * h[0]

    fv_p, w_p, g_p, d_p, h_p, right_p = (np.concatenate([a, np.zeros(n, dtype=h.dtype)])
                                         for a in (fv[:-1], w0, g, d, h, edges[1:]))
    x = (w0[:, None], g[:, None], d[:, None])
    weight_x = np.abs(w0) + np.abs(g)
    block = max(1, _PAIR_BLOCK // n)
    for k0 in range(2, n, block):
        kb = min(block, n - k0)

        def window(a):
            return np.lib.stride_tricks.sliding_window_view(a[k0:k0 + n + kb - 1], kb)

        y = (window(w_p), window(g_p), window(d_p))
        delta = fv[:-1, None] - window(fv_p)
        if uniform:
            moments, tails = table[k0 - 2:k0 - 2 + kb], table_tails[k0 - 2:k0 - 2 + kb]
        else:
            # Only the pairs that exist: i + k < n.
            real = np.add.outer(np.arange(n), np.arange(k0, k0 + kb)) < n
            hy = window(h_p)[real]
            moments = np.zeros((n, kb, 4, 4), dtype=h.dtype)
            tails = np.zeros((n, kb), dtype=h.dtype)
            hx = np.broadcast_to(h[:, None], real.shape)[real]
            moments[real], tails[real] = _kernel_moments(
                (window(right_p) - edges[1:, None])[real] - hy, hx, hy, alpha)
            moments[real] *= (hx * hy)[:, None, None]
        value = value + 2 * _pair_sums(delta, x, y, moments, -1).sum()
        bound = ((np.abs(delta) + np.abs(d[:, None]) + np.abs(y[2])) ** 2
                 * weight_x[:, None] * (np.abs(y[0]) + np.abs(y[1])) * moments[..., 0, 0])
        magnitude = magnitude + 2 * bound.sum()
        tail = tail + 2 * (tails * bound).sum()
    return value, magnitude, tail


def _balanced(edges: np.ndarray) -> np.ndarray:
    """Halve every cell wider than twice a neighbour until none is.

    Then a cell's gap to any non-adjacent cell is at least half its width,
    which keeps every Gauss order in _MOMENT_ORDERS within reach.
    """
    while True:
        h = np.diff(edges)
        narrower = np.minimum(np.append(h[1:], np.inf), np.insert(h[:-1], 0, np.inf))
        mid = edges[:-1] + h / 2
        wide = (h > 2 * narrower) & (mid > edges[:-1]) & (mid < edges[1:])
        if not wide.any():
            return edges
        edges = np.insert(edges, np.flatnonzero(wide) + 1, mid[wide])


def piecewise_linear_weighted_form(f_xs, f_ys, w_xs, w_ys, alpha: float,
                                   interval: tuple[float, float]) -> FormValue:
    """Exact iint (f(x)-f(y))^2 w(x) w(y) |x-y|^(-1-alpha) for piecewise-linear f, w.

    alpha in (0, 2). f and w are the interpolants of (f_xs, f_ys) and
    (w_xs, w_ys), constant outside their knots as np.interp makes them. The
    two knot sets, clipped to the interval and merged with its ends, cut it
    into cells; cells wider than twice a neighbour are halved until none
    is. On each pair of cells the integrand is a polynomial times the
    kernel, integrated by closed forms (same or adjacent cells) and by
    tensor Gauss-Legendre whose order is chosen from a Bernstein-ellipse
    bound (cells further apart); no adaptive quadrature is involved (see
    _pl_weighted_terms). The cost is O(n^2) in the number of cells n, with
    O(n) moment work when all cells have exactly the same width and
    O(n^2) otherwise. The error estimate bounds the rounding from the
    magnitudes of the summed terms, plus the Gauss truncation bound.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise DomainError(f"piecewise_linear_weighted_form requires alpha in (0, 2), got {alpha}")
    f_xs, f_ys = _pl_data(f_xs, f_ys)
    w_xs, w_ys = _pl_data(w_xs, w_ys)
    edges = _balanced(np.union1d(_cell_edges(f_xs, interval), _cell_edges(w_xs, interval)))
    value, magnitude, tail = _pl_weighted_terms(edges, np.interp(edges, f_xs, f_ys),
                                                np.interp(edges, w_xs, w_ys), alpha)
    # Each pair term takes about a hundred roundings (the Gauss sums of
    # up to 32 x 32 positive terms, the polynomial products), and the sums
    # over pairs about n more.
    return FormValue(float(value), float((edges.size + 128) * _EPS * magnitude + tail))


def piecewise_linear_mass(f_xs, f_ys, w_xs, w_ys,
                          interval: tuple[float, float]) -> FormValue:
    """Exact integral of (f * w)^2 for piecewise-linear f and w.

    Between consecutive breakpoints the integrand is a quartic polynomial,
    so 3-point Gauss per cell is exact. Every summed term is nonnegative,
    so the error estimate is a rounding bound relative to the value.
    """
    f_xs, f_ys = _pl_data(f_xs, f_ys)
    w_xs, w_ys = _pl_data(w_xs, w_ys)
    edges = np.union1d(_cell_edges(f_xs, interval), _cell_edges(w_xs, interval))
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * _GL3_X[None, :]
    vals = (np.interp(pts, f_xs, f_ys) * np.interp(pts, w_xs, w_ys)) ** 2
    value = float(np.sum(half[:, None] * _GL3_W[None, :] * vals))
    return FormValue(value, (pts.size + 16) * _EPS * value)
