"""Grid discretization and eigensolves of the fractional Dirichlet operator.

The nonlocal part is discretized by fractional centered differences: on a
uniform grid of n interior nodes the operator becomes the symmetric Toeplitz
matrix h^(-alpha) * g_|i-j| built from the coefficient sequence

    g_k = (-1)^k Gamma(alpha+1) / (Gamma(alpha/2 - k + 1) Gamma(alpha/2 + k + 1)),

truncated at the interval width. Values outside the interval are zero
(killing at exit), which is exactly the Dirichlet exterior condition, so no
boundary rows are modified. The potential enters on the diagonal.

Only the bottom of the spectrum is wanted. Blocks of more than
_DENSE_MAX unknowns are solved for their lowest eigenpairs alone, by block
Lanczos on (H - sigma I)^(-1), with sigma the minimum of V at the nodes;
smaller blocks, and requests for a large share of the spectrum, take every
pair from the dense np.linalg.eigh. The inverse is applied through the
inverse Cholesky factor of H - sigma I, built once per block and stored
as its diagonal blocks and dense lower-left rectangles, so its zero upper
half is neither stored nor multiplied. The Krylov solve of an n x n block
peaks at about 0.9 n^2 float64 values beside H (n = 1024 and 2048), half
of them the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .numerics import gamma_fn
from .potentials import Potential

__all__ = [
    "Grid",
    "FracCoeffs",
    "OperatorMatrix",
    "SpectralResult",
    "ShapeReport",
    "DecayReport",
    "frac_coeffs",
    "assemble_operator",
    "eigensolve",
    "lambda_star",
    "ground_state_shape_check",
    "boundary_decay_check",
    "richardson",
    "result_to_json_dict",
    "eigenvector_rows",
]

# Default extrapolation order when only two grids are available. Free-case
# eigenvalue errors decay close to first order in h across alpha (the
# boundary layer of the eigenfunctions limits the interior second-order
# truncation); fitted rates land in 0.95..1.0 and drift upward with n.
DEFAULT_RICHARDSON_RATE = 1.0

# Blocks of up to this many unknowns go to the dense np.linalg.eigh. Six
# pairs of a power-well parity block on a 2-vCPU guest with OpenBLAS: the
# Krylov solve catches up with eigh at 330 to 384 unknowns for alpha 1.2
# and 1.7 and is 1.5 times faster at 512; for alpha 0.7 (more block steps)
# only at 640, and for alpha 0.3 beyond 768.
_DENSE_MAX = 384
# Philox key of the Krylov start block: a fixed start keeps reruns
# bit-identical.
_KRYLOV_KEY = 0x5EED
# Residual tolerance of the Krylov solve, in units of eps * ||H||_1. A
# converged pair's residual bottoms out at 2 to 5.6 of these units (power,
# notch, tabulated and random wells, blocks of 512 to 2048 unknowns); the
# dense eigh lands at 2 to 10.
_RESIDUAL_ULPS = 8.0


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on (a, b) with n nodes and spacing h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.b > self.a):
            raise DomainError(f"grid interval must be finite with b > a, got ({self.a}, {self.b})")
        if self.n < 2:
            raise DomainError(f"grid needs at least 2 interior nodes, got {self.n}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class FracCoeffs:
    """Centered-difference coefficients g_0..g_k for one alpha."""

    alpha: float
    g: np.ndarray = field(repr=False)


def frac_coeffs(alpha: float, k_max: int) -> FracCoeffs:
    """Coefficient sequence via the stable ratio recurrence.

    g_0 = Gamma(alpha+1) / Gamma(alpha/2+1)^2 and
    g_(k+1) = g_k (k - alpha/2) / (k + 1 + alpha/2). g_0 > 0, all later
    coefficients are <= 0, and the full sequence sums to zero. alpha = 2
    is admitted for classical-limit validation and reproduces the standard
    three-point stencil (2, -1, 0, ...).
    """
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"frac_coeffs requires alpha in (0, 2], got {alpha}")
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    g = np.empty(k_max + 1)
    g[0] = gamma_fn(alpha + 1.0) / gamma_fn(alpha / 2.0 + 1.0) ** 2
    k = np.arange(k_max, dtype=float)
    g[1:] = g[0] * np.cumprod((k - alpha / 2.0) / (k + 1.0 + alpha / 2.0))
    return FracCoeffs(alpha, g)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense symmetric discretization, kept with its provenance."""

    matrix: np.ndarray = field(repr=False)
    grid: Grid
    alpha: float
    potential: Potential


def assemble_operator(grid: Grid, alpha: float, potential: Potential) -> OperatorMatrix:
    """Toeplitz nonlocal part plus diagonal potential.

    The grid must span the potential's interval (to 1e-12), and the
    potential be finite at every node. A symmetric potential is evaluated
    on the left ceil(n/2) nodes and mirrored, so the matrix is
    centrosymmetric bit for bit, as eigensolve's parity split assumes.
    """
    if not isinstance(potential, Potential):
        raise DomainError(f"potential must be a Potential, got {type(potential).__name__}")
    if max(abs(grid.a - potential.interval[0]), abs(grid.b - potential.interval[1])) > 1e-12:
        raise DomainError(f"grid covers ({grid.a!r}, {grid.b!r}), "
                          f"the potential {potential.interval}")
    n = grid.n
    nodes = grid.nodes()
    if potential.symmetric:
        left = potential(nodes[:(n + 1) // 2])
        vals = np.concatenate([left, left[:n // 2][::-1]])
    else:
        vals = potential(nodes)
    if not np.all(np.isfinite(vals)):
        bad = float(nodes[np.flatnonzero(~np.isfinite(vals))[0]])
        raise DomainError(f"potential is not finite at node x={bad!r}")
    g = frac_coeffs(alpha, n).g
    # Row i of the reversed windows over (g_(n-1), ..., g_1, g_0, ..., g_(n-1))
    # is g_|i-j|, without an n x n index array.
    toeplitz = sliding_window_view(np.concatenate([g[n - 1:0:-1], g[:n]]), n)[::-1]
    mat = grid.h ** (-alpha) * toeplitz
    mat[np.diag_indices(n)] += vals
    return OperatorMatrix(mat, grid, alpha, potential)


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Lowest part of the spectrum with parity labels and residuals.

    Eigenvectors are columns, normalized so that h * sum(phi^2) = 1, and
    sign-fixed so the leftmost entry of largest magnitude is positive.
    Residuals are ||H v - lambda v||_2 for the unit-Euclidean eigenvectors.
    star is the 1-based index and value of the lowest antisymmetric level,
    known beyond m; None, with all parities "mixed", if H is asymmetric.
    """

    grid: Grid
    alpha: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    parities: tuple[str, ...]
    residuals: np.ndarray = field(repr=False)
    star: tuple[int, float] | None = None

    @property
    def m(self) -> int:
        return self.eigenvalues.size


def _block_inverse_cholesky(a: np.ndarray, shift: float):
    """Lower-triangular G with G (a - shift I) G^T = I, stored by blocks.

    A block of at most 128 rows is a dense triangle. A larger one splits
    at h = n // 2 into the tuple (G11, G21, G22): G11 and G22 stored the
    same way, G21 a dense (n - h) x h array, so the zero upper half is
    never stored. With a - shift I = L L^T: L21 = a21 G11^T, the Schur
    complement a22 - L21 L21^T is factored the same way, and
    G21 = -G22 L21 G11. That is matrix products only, about 4 n^3 / 3
    flops, and runs faster than numpy's Cholesky followed by a triangular
    inverse (numpy has no triangular solve).
    """
    n = a.shape[0]
    if n <= 128:
        return np.tril(np.linalg.inv(np.linalg.cholesky(a - shift * np.eye(n))))
    h = n // 2
    g11 = _block_inverse_cholesky(a[:h, :h], shift)
    # L21^T = G11 a12, as a is symmetric.
    low12 = _apply_factor(g11, a[:h, h:], np.empty((h, n - h)))
    schur = low12.T @ low12
    np.subtract(a[h:, h:], schur, out=schur)
    g22 = _block_inverse_cholesky(schur, shift)
    del schur
    # (L21 G11)^T = G11^T L21^T
    low_g = _apply_factor_t(g11, low12, np.empty((h, n - h)))
    del low12
    g21 = _apply_factor(g22, low_g.T, np.empty((n - h, h)))
    del low_g
    np.negative(g21, out=g21)
    return g11, g21, g22


def _apply_factor(g, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = G x for a factor from _block_inverse_cholesky; out must not overlap x."""
    if isinstance(g, np.ndarray):
        return np.matmul(g, x, out=out)
    g11, g21, g22 = g
    h = g21.shape[1]
    _apply_factor(g11, x[:h], out[:h])
    _apply_factor(g22, x[h:], out[h:])
    out[h:] += g21 @ x[:h]
    return out


def _apply_factor_t(g, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = G^T y for a factor from _block_inverse_cholesky; out must not overlap y."""
    if isinstance(g, np.ndarray):
        return np.matmul(g.T, y, out=out)
    g11, g21, g22 = g
    h = g21.shape[1]
    _apply_factor_t(g11, y[:h], out[:h])
    _apply_factor_t(g22, y[h:], out[h:])
    out[:h] += g21.T @ y[h:]
    return out


def _lowest_eigh(a: np.ndarray, k: int, shift: float,
                 above: float = -math.inf) -> tuple[np.ndarray, np.ndarray]:
    """At least the k lowest eigenpairs of the symmetric a, ascending.

    While every pair found lies at or below `above`, twice as many are
    found. Blocks of up to _DENSE_MAX unknowns, requests whose Krylov space
    would not stay small, and Krylov solves that do not converge get every
    pair from np.linalg.eigh; otherwise _krylov_lowest gives exactly k, and
    all its solves share one factor of a - shift I. shift must lie below
    the spectrum of a.
    """
    n = a.shape[0]
    factor = None
    # Two guard columns; at least 8 in all, since a narrower block takes
    # many more steps (m = 1 on a notch well: 1.2 s against 0.2 s). The
    # basis must leave room for 7 block steps below its n / 2 cap.
    while n > _DENSE_MAX and 16 * (p := max(k, 6) + 2) <= n:
        if factor is None:
            factor = _block_inverse_cholesky(a, shift)
        pairs = _krylov_lowest(a, factor, k, p)
        if pairs is None:
            break
        if pairs[0][-1] > above:
            return pairs
        k = min(2 * k, n)
    factor = None  # freed before the dense eigh allocates its workspace
    return np.linalg.eigh(a)


def _norm_1(a: np.ndarray) -> float:
    """||a||_1 of the symmetric a, from its rows 128 at a time."""
    return max(float(np.max(np.sum(np.abs(a[i:i + 128]), axis=1)))
               for i in range(0, a.shape[0], 128))


def _krylov_lowest(a: np.ndarray, factor, k: int,
                   p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The k lowest eigenpairs of a by shift-inverted block Lanczos, or None.

    Block Lanczos with full reorthogonalisation runs on (a - shift I)^(-1),
    applied as G^T G through the factor G of a - shift I from
    _block_inverse_cholesky. A block of p Philox columns starts it, and
    every second block step a Rayleigh-Ritz step on a itself stops it once
    each of the k residuals ||a y - theta y|| is at most
    _RESIDUAL_ULPS * eps * ||a||_1. None when the basis would pass n / 2
    columns first, as for a cluster of levels far above the shift.
    """
    n = a.shape[0]
    tol = _RESIDUAL_ULPS * np.finfo(float).eps * _norm_1(a)
    rng = np.random.Generator(np.random.Philox(_KRYLOV_KEY))
    basis = np.linalg.qr(rng.standard_normal((n, p)))[0]
    image = a @ basis
    gx, w = np.empty((n, p)), np.empty((n, p))
    for step in range(1, n // (2 * p)):
        _apply_factor_t(factor, _apply_factor(factor, basis[:, -p:], gx), w)
        for _ in range(2):
            w -= basis @ (basis.T @ w)
        q = np.linalg.qr(w)[0]
        basis = np.hstack([basis, q])
        image = np.hstack([image, a @ q])
        if step % 2:
            continue
        theta, s = np.linalg.eigh(basis.T @ image)
        y = basis @ s[:, :k]
        res = np.linalg.norm(image @ s[:, :k] - y * theta[:k], axis=0)
        if np.all(res <= tol):
            return theta[:k], y
    return None


def eigensolve(op: OperatorMatrix, m: int) -> SpectralResult:
    """Lowest m eigenpairs of the assembled operator; deterministic.

    When op.potential is symmetric, the operator is centrosymmetric (see
    assemble_operator), and the even and odd blocks are solved apart,
    merged by a stable sort (even first on a tie); parities are then exact.
    Otherwise the full matrix is solved and every level is "mixed".

    Each block (or the full matrix) of up to _DENSE_MAX unknowns is solved
    whole by np.linalg.eigh. A larger one is solved for its m lowest pairs
    only, by shift-inverted block Lanczos, to residuals of at most 8 eps
    ||H||_1, or whole by eigh where that does not converge while its basis
    is small (see _lowest_eigh). The star index counts the even levels below
    the lowest odd one, so the even block is solved again for twice as many
    levels, on the factor it was first solved with, while all of its
    computed levels lie below it.

    Residuals use the assembled matrix. A ground state that is not strictly
    positive (for a symmetric operator: not even) raises DomainError.
    """
    n = op.grid.n
    if not (1 <= m <= n):
        raise DomainError(f"m must lie in [1, {n}], got {m}")
    # min V at the nodes: H - shift I is the Toeplitz part, strictly
    # diagonally dominant since g_0 = 2 sum_(k >= 1) |g_k| untruncated
    # (irreducibly so at alpha = 2), plus a nonnegative diagonal, so it is
    # positive definite, as is every parity block.
    shift = (float(np.min(np.diagonal(op.matrix)))
             - op.grid.h ** (-op.alpha) * frac_coeffs(op.alpha, 1).g[0])
    if op.potential.symmetric:
        # On (u, [sqrt 2 u_mid,] +-J u) / sqrt 2, J reversing k = n // 2 nodes,
        # H acts as A11 +- A12 J; an odd n's middle node joins the even block.
        k, ke = n // 2, (n + 1) // 2
        near = op.matrix[:ke, :ke]
        far = op.matrix[:ke, ::-1][:, :ke]
        lam_o, vec_o = _lowest_eigh(near[:k, :k] - far[:k, :k], min(m, k), shift)
        even = near + far
        even[k:] /= math.sqrt(2.0)
        even[:, k:] /= math.sqrt(2.0)
        even[k:, k:] = op.matrix[k:ke, k:ke]
        lam_e, vec_e = _lowest_eigh(even, min(m, ke), shift, above=lam_o[0])
        both = np.concatenate([lam_e, lam_o])
        order = np.argsort(both, kind="stable")[:m]
        lam = both[order]
        odd = order >= lam_e.size
        u = np.zeros((ke, m))
        u[:, ~odd] = vec_e[:, order[~odd]]
        u[:k, odd] = vec_o[:, order[odd] - lam_e.size]
        half = u[:k] / math.sqrt(2.0)
        vec = np.concatenate([half, u[k:], np.where(odd, -half, half)[::-1]])
        labels = tuple("antisymmetric" if o else "symmetric" for o in odd)
        star = (int(np.sum(lam_e <= lam_o[0])) + 1, float(lam_o[0]))
    else:
        lam, vec = _lowest_eigh(op.matrix, m, shift)
        lam, vec = lam[:m], vec[:, :m].copy()
        labels, star = ("mixed",) * m, None

    # Mirrored entries tie bitwise, so the first maximum is the leftmost.
    vec *= np.sign(vec[np.argmax(np.abs(vec), axis=0), np.arange(m)])
    residuals = np.linalg.norm(op.matrix @ vec - vec * lam[None, :], axis=0)

    vec /= math.sqrt(op.grid.h)
    if np.any(vec[:, 0] <= 0):
        # The lowest eigenvector of this class of matrices is strictly
        # positive; hitting this indicates a degenerate assembly.
        raise DomainError("ground state is not strictly positive after sign fix")
    return SpectralResult(op.grid, op.alpha, lam, vec, labels, residuals, star)


def lambda_star(result: SpectralResult) -> tuple[int, float]:
    """Index (1-based) and value of the lowest antisymmetric eigenvalue.

    Known for any m when the operator is mirror-symmetric; LookupError
    otherwise (result.star is None).
    """
    if result.star is None:
        raise LookupError("no antisymmetric eigenvalue: operator is not mirror-symmetric")
    return result.star


@dataclass(frozen=True)
class ShapeReport:
    """Symmetry and unimodality of the ground state, violations relative to its sup."""

    passed: bool
    symmetry_error: float
    unimodality_error: float
    violation_index: int | None


def ground_state_shape_check(result: SpectralResult, tol: float = 1e-6) -> ShapeReport:
    """Check that the ground state is symmetric and rises then falls.

    Monotonicity is tested on consecutive node pairs left of the midpoint
    (nondecreasing) and right of it (nonincreasing); the straddling pair is
    exempt. Violations are measured relative to the sup of the vector.
    """
    v = result.eigenvectors[:, 0]
    sup = float(np.max(np.abs(v)))
    sym_err = float(np.max(np.abs(v - v[::-1]))) / sup

    x = result.grid.nodes()
    mid = 0.5 * (result.grid.a + result.grid.b)
    d = np.diff(v)
    rising = x[1:] <= mid
    falling = x[:-1] >= mid
    viol = np.zeros_like(d)
    viol[rising] = np.maximum(0.0, -d[rising])
    viol[falling] = np.maximum(viol[falling], np.maximum(0.0, d[falling]))
    uni_err = float(np.max(viol)) / sup if d.size else 0.0
    idx = int(np.argmax(viol)) if uni_err > 0 else None

    passed = sym_err <= tol and uni_err <= tol
    return ShapeReport(passed, sym_err, uni_err, idx)


@dataclass(frozen=True)
class DecayReport:
    """Log-log slope of the ground state against distance to the boundary."""

    slope: float
    passed: bool
    n_fit: int


def boundary_decay_check(result: SpectralResult) -> DecayReport:
    """Fit phi_1 ~ dist^s over the 10% of nodes nearest each endpoint.

    Pass when the fitted s is at least alpha/2 - 0.1, i.e. the ground state
    decays no slower than the expected boundary exponent allows.
    """
    n = result.grid.n
    if n < 128:
        raise DomainError(f"boundary fit needs n >= 128, got {n}")
    k = max(3, n // 10)
    v = result.eigenvectors[:, 0]
    x = result.grid.nodes()
    dist = np.concatenate([x[:k] - result.grid.a, result.grid.b - x[-k:]])
    vals = np.concatenate([v[:k], v[-k:]])
    if np.any(vals <= 0):
        raise DomainError("ground state must be positive for the decay fit")
    slope = float(np.polyfit(np.log(dist), np.log(vals), 1)[0])
    return DecayReport(slope, slope >= result.alpha / 2.0 - 0.1, 2 * k)


def richardson(levels: list[tuple[int, np.ndarray]],
               rate: float | None = None) -> np.ndarray:
    """Richardson extrapolation of eigenvalues over grid refinements.

    levels holds (n, eigenvalues) pairs; arrays must share a length. With
    three or more levels at a uniform refinement ratio the rate is fitted
    from the refinement differences; with two levels the default rate is
    used. Returns the extrapolated eigenvalues.
    """
    if not levels:
        raise DomainError("richardson needs at least one level")
    levels = sorted(levels, key=lambda t: t[0])
    sizes = [n for n, _ in levels]
    if len(set(sizes)) != len(sizes):
        raise DomainError("duplicate grid sizes in richardson levels")
    arrays = [np.asarray(v, dtype=float) for _, v in levels]
    if len({a.size for a in arrays}) != 1:
        raise DomainError("eigenvalue arrays must share a length")
    if len(levels) == 1:
        return arrays[0].copy()

    lam_f, lam_m = arrays[-1], arrays[-2]
    # Mesh ratio in h = (b-a)/(n+1).
    r = (sizes[-1] + 1) / (sizes[-2] + 1)
    if rate is None:
        if len(levels) >= 3:
            lam_c = arrays[-3]
            r2 = (sizes[-2] + 1) / (sizes[-3] + 1)
            num = np.abs(lam_c - lam_m)
            den = np.abs(lam_m - lam_f)
            ok = (num > 0) & (den > 0)
            # Doubling n gives nearly, not exactly, uniform ratios in
            # h = (b-a)/(n+1); the geometric mean keeps the fit honest.
            if np.any(ok) and abs(r2 - r) < 1e-2 * r:
                r_fit = math.sqrt(r * r2)
                rate = float(np.median(np.log(num[ok] / den[ok]) / np.log(r_fit)))
            else:
                rate = DEFAULT_RICHARDSON_RATE
        else:
            rate = DEFAULT_RICHARDSON_RATE
    factor = r ** rate - 1.0
    return lam_f + (lam_f - lam_m) / factor


def result_to_json_dict(result: SpectralResult) -> dict:
    """Plain-dict form of a spectral result for serialization."""
    return {
        "alpha": result.alpha,
        "a": result.grid.a,
        "b": result.grid.b,
        "N": result.grid.n,
        "eigenvalues": [float(v) for v in result.eigenvalues],
        "parities": list(result.parities),
        "residuals": [float(v) for v in result.residuals],
    }


def eigenvector_rows(result: SpectralResult) -> tuple[list[str], list[list[float]]]:
    """Header and rows (x, phi_1..phi_m) for CSV output."""
    header = ["x"] + [f"phi_{j + 1}" for j in range(result.m)]
    x = result.grid.nodes()
    rows = [[float(x[i])] + [float(result.eigenvectors[i, j]) for j in range(result.m)]
            for i in range(result.grid.n)]
    return header, rows

