"""Grid discretization and eigensolves of the fractional Dirichlet operator.

The nonlocal part is discretized by fractional centered differences: on a
uniform grid of n interior nodes the operator becomes the symmetric Toeplitz
matrix h^(-alpha) * g_|i-j| built from the coefficient sequence

    g_k = (-1)^k Gamma(alpha+1) / (Gamma(alpha/2 - k + 1) Gamma(alpha/2 + k + 1)),

truncated at the interval width. Values outside the interval are zero
(killing at exit), which is exactly the Dirichlet exterior condition, so no
boundary rows are modified. The potential enters on the diagonal.
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

# Relative eigenvalue spacing below which parity labels are unreliable: the
# solver may return arbitrary rotations inside a near-degenerate cluster.
_CLUSTER_RTOL = 1e-10

# Mirror-difference tolerance, relative to the sup, for a parity label.
_PARITY_TOL = 1e-6

# Entries within this relative distance of an eigenvector's largest
# magnitude count as tied for the sign rule. Mirrored entries of parity
# vectors tie up to rounding, so the leftmost of them decides the sign.
_SIGN_RTOL = 1e-8

# Default extrapolation order when only two grids are available. Free-case
# eigenvalue errors decay close to first order in h across alpha (the
# boundary layer of the eigenfunctions limits the interior second-order
# truncation); fitted rates land in 0.95..1.0 and drift upward with n.
DEFAULT_RICHARDSON_RATE = 1.0


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

    The potential must be finite at every node; families with endpoint
    blow-up are expected to clamp themselves (see inverse boundary wells).
    """
    nodes = grid.nodes()
    vals = np.asarray(potential(nodes), dtype=float)
    if vals.shape != nodes.shape:
        raise DomainError("potential must return one value per node")
    if not np.all(np.isfinite(vals)):
        bad = float(nodes[np.flatnonzero(~np.isfinite(vals))[0]])
        raise DomainError(f"potential is not finite at node x={bad!r}")
    n = grid.n
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
    sign-fixed so the leftmost entry within 1e-8 relative of the largest
    magnitude is positive. Residuals are ||H v - lambda v||_2 for the
    unit-Euclidean eigenvectors.
    """

    grid: Grid
    alpha: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray = field(repr=False)
    parities: tuple[str, ...]
    residuals: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return self.eigenvalues.size


def _parity_label(vec: np.ndarray) -> str:
    sup = float(np.max(np.abs(vec)))
    flipped = vec[::-1]
    if float(np.max(np.abs(vec - flipped))) <= _PARITY_TOL * sup:
        return "symmetric"
    if float(np.max(np.abs(vec + flipped))) <= _PARITY_TOL * sup:
        return "antisymmetric"
    return "mixed"


def eigensolve(op: OperatorMatrix, m: int) -> SpectralResult:
    """Lowest m eigenpairs of the assembled operator.

    Dense symmetric eigensolve; deterministic for fixed input. Parity is
    classified against the grid reflection, and eigenvalues closer than
    1e-10 relative spacing are labeled mixed pairwise since their computed
    eigenvectors are only determined up to rotation.
    """
    n = op.grid.n
    if not (1 <= m <= n):
        raise DomainError(f"m must lie in [1, {n}], got {m}")
    eigvals, eigvecs = np.linalg.eigh(op.matrix)
    lam = eigvals[:m].copy()
    vec = eigvecs[:, :m].copy()

    mag = np.abs(vec)
    lead = np.argmax(mag >= (1.0 - _SIGN_RTOL) * mag.max(axis=0), axis=0)
    vec *= np.sign(vec[lead, np.arange(m)])

    residuals = np.linalg.norm(op.matrix @ vec - vec * lam[None, :], axis=0)

    labels = [_parity_label(vec[:, j]) for j in range(m)]
    for j in range(m - 1):
        if lam[j + 1] - lam[j] < _CLUSTER_RTOL * max(abs(lam[j]), 1.0):
            labels[j] = "mixed"
            labels[j + 1] = "mixed"

    vec /= math.sqrt(op.grid.h)
    if np.any(vec[:, 0] <= 0):
        # The lowest eigenvector of this class of matrices is strictly
        # positive; hitting this indicates a degenerate assembly.
        raise DomainError("ground state is not strictly positive after sign fix")
    return SpectralResult(op.grid, op.alpha, lam, vec, tuple(labels), residuals)


def lambda_star(result: SpectralResult) -> tuple[int, float]:
    """Index (1-based) and value of the lowest antisymmetric eigenvalue.

    Raises LookupError when no antisymmetric pair is among the computed m;
    callers should re-solve with a larger m in that case.
    """
    for j, label in enumerate(result.parities):
        if label == "antisymmetric":
            return j + 1, float(result.eigenvalues[j])
    raise LookupError(
        f"no antisymmetric eigenpair among the lowest {result.m}; "
        "recompute with larger m")


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

