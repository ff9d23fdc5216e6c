"""Special functions and closed forms for piecewise-linear functions.

Everything downstream rests on a gamma function accurate to roughly machine
precision, the jump-kernel normalizing constant built from it, and the
forms of piecewise-linear functions, the package's test functions: their
unweighted form (alpha in (0, 1) or (1, 2)), their weighted form (alpha in
(0, 2)) and their weighted L2 mass. These are evaluated from closed-form
and fixed-order cell-pair integrals, each with an error bound; no adaptive
quadrature is involved.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "FormValue",
    "gamma_fn",
    "levy_constant",
    "piecewise_linear_form",
    "piecewise_linear_mass",
    "piecewise_linear_weighted_form",
]


@dataclass(frozen=True)
class QuadConfig:
    """Settings of the retired adaptive quadrature. Nothing reads them.

    Kept only because the benchmark harness builds one when imported; remove
    it with the next change to the benchmark definition.
    """

    abs_tol: float
    rel_tol: float
    max_panels: int


@dataclass(frozen=True)
class FormValue:
    """A computed integral together with a bound on its error."""

    value: float
    error_estimate: float


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
