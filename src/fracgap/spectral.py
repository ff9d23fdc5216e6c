"""Grid discretization and eigensolves of the fractional Dirichlet operator.

The nonlocal part is discretized by fractional centered differences: on a
uniform grid of n interior nodes the operator becomes the symmetric Toeplitz
matrix h^(-alpha) * g_|i-j| built from the coefficient sequence

    g_k = (-1)^k Gamma(alpha+1) / (Gamma(alpha/2 - k + 1) Gamma(alpha/2 + k + 1)),

truncated at the interval width. Values outside the interval are zero
(killing at exit), which is exactly the Dirichlet exterior condition, so no
boundary rows are modified. The potential enters on the diagonal. The
matrix is kept as its column and its diagonal only (OperatorMatrix); the
solver forms the blocks it factors from a strided view of its Toeplitz
part, and multiplies by H through one FFT of the circulant of order 2N
that embeds that part.

Only the bottom of the spectrum is wanted. Blocks of more than
_DENSE_MAX unknowns are solved for their lowest eigenpairs alone, by block
Lanczos on (H - sigma I)^(-1), with sigma the minimum of V at the nodes;
smaller blocks, and requests for a large share of the spectrum, take every
pair from the dense np.linalg.eigh. The solver works in the parity basis:
the even and odd blocks of H's centrosymmetric part, whose diagonal is the
mirror average of H's, are each formed by one sum of two views of H's
Toeplitz part, their diagonals set after.
For a symmetric potential they are H's own blocks and are solved apart,
the odd one solved and freed before the even one is built. Otherwise the
rest of the diagonal couples them, and (H - sigma I)^(-1) is applied by
block elimination through the even block and the odd block's Schur
complement, which is formed in the odd block's storage: its lower
triangle by substitutions through the trailing rows of the even block's
factor, then mirrored. Each inverse is a forward and a back substitution
through a Cholesky factor L, built once and stored as its diagonal blocks
(inverted triangles of at most 64 rows at the leaves) and dense lower-left
rectangles, so its zero upper half is neither stored nor multiplied. With
H never stored whole and one parity block alive at a time, assembly and
solve at N = 2048 and m = 6 peak at about 0.55 N^2 float64 values on an
asymmetric well (the Schur complement, the even block's factor and the
first split of the complement's) and 0.47 N^2 on the (5, 2) power well at
alpha 1.2, and at 0.58 and 0.51 N^2 at alpha 0.7.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, _require_count, _require_interval
from .numerics import _unimodal_excess, _unimodal_steps, gamma_fn
from .potentials import Potential, _require_on_interval

__all__ = [
    "Grid",
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
]

# Default extrapolation order when only two grids are available. Free-case
# eigenvalue errors decay close to first order in h across alpha (the
# boundary layer of the eigenfunctions limits the interior second-order
# truncation); fitted rates land in 0.95..1.0 and drift upward with n.
DEFAULT_RICHARDSON_RATE = 1.0

# Blocks of up to this many unknowns go to the dense np.linalg.eigh. Six
# pairs of a (5, 2) power-well parity block on a 2-vCPU Xeon with OpenBLAS,
# median of seven, the range of three runs: the Krylov solve is 1.2 to 1.5
# times faster than eigh at 385 unknowns for alpha 1.2 and 1.7, and 1.7 to
# 2.4 times at 512; for alpha 0.7 (more block steps) it is 1.1 to 1.3 times
# slower at 385, ties at 448 and is 1.1 to 1.5 times faster at 512; for
# alpha 0.3 it is 1.6 to 2.2 times slower at 385, ties at 512 and is 1.25
# to 1.5 times faster at 768. No cut-off above 256 is faster at every alpha.
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
        _require_interval(self.a, self.b)
        _require_count(self.n, 2, "n")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.n + 1)


def frac_coeffs(alpha: float, k_max: int) -> np.ndarray:
    """Centered-difference coefficients g_0..g_k_max via the stable ratio recurrence.

    g_0 = Gamma(alpha+1) / Gamma(alpha/2+1)^2 and
    g_(k+1) = g_k (k - alpha/2) / (k + 1 + alpha/2). g_0 > 0, all later
    coefficients are <= 0, and the full sequence sums to zero. alpha = 2
    is admitted for classical-limit validation and reproduces the standard
    three-point stencil (2, -1, 0, ...).
    """
    if not (0.0 < alpha <= 2.0):
        raise DomainError(f"frac_coeffs requires alpha in (0, 2], got {alpha}")
    k_max = _require_count(k_max, 1, "k_max")
    g = np.empty(k_max + 1)
    g[0] = gamma_fn(alpha + 1.0) / gamma_fn(alpha / 2.0 + 1.0) ** 2
    k = np.arange(k_max, dtype=float)
    g[1:] = g[0] * np.cumprod((k - alpha / 2.0) / (k + 1.0 + alpha / 2.0))
    return g


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """The discretized operator H, kept as the two arrays that define it.

    H has column[|i - j|] off the diagonal and diagonal[i] on it; its N^2
    entries are never stored. op @ x multiplies through the FFT of a
    circulant of order 2N, in O(N log N) per column, and op.matrix (or
    np.asarray(op)) builds the dense H on each access.
    """

    column: np.ndarray = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    grid: Grid
    alpha: float
    potential: Potential

    @property
    def shape(self) -> tuple[int, int]:
        return (self.column.size,) * 2

    @cached_property
    def _toeplitz(self) -> np.ndarray:
        """column[|i - j|] for all i, j: a read-only view of 2N - 1 values."""
        n = self.column.size
        # Row i of the reversed windows over (c_(n-1), ..., c_1, c_0, ..., c_(n-1))
        # is c_|i-j|.
        return sliding_window_view(np.concatenate([self.column[:0:-1], self.column]), n)[::-1]

    @cached_property
    def _circulant_fft(self) -> np.ndarray:
        """The rFFT of the circulant of order 2N whose first column is
        (column, 0, column reversed without c_0); H's Toeplitz part is its
        leading N x N block."""
        return np.fft.rfft(np.concatenate([self.column, [0.0], self.column[:0:-1]]))

    @property
    def matrix(self) -> np.ndarray:
        out = self._toeplitz.copy()
        np.fill_diagonal(out, self.diagonal)
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.matrix

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x: the Toeplitz part through the circulant's FFT, zero-padded
        to 2N rows, plus the diagonal beyond column[0]."""
        n = self.column.size
        tail = (1,) * (x.ndim - 1)
        spectrum = np.fft.rfft(x, 2 * n, axis=0) * self._circulant_fft.reshape((-1,) + tail)
        out = np.fft.irfft(spectrum, 2 * n, axis=0)[:n]
        out += (self.diagonal - self.column[0]).reshape((n,) + tail) * x
        return out


def assemble_operator(grid: Grid, alpha: float, potential: Potential) -> OperatorMatrix:
    """Toeplitz nonlocal part plus diagonal potential.

    The grid must span the potential's interval (to 1e-12), the potential
    be finite at every node, and h^(-alpha) g_0 a normal float whose
    square times n is finite. A symmetric potential is evaluated on the
    left ceil(n/2) nodes and mirrored, so the matrix is centrosymmetric bit
    for bit, as eigensolve's parity split assumes.
    """
    if not isinstance(potential, Potential):
        raise DomainError(f"potential must be a Potential, got {type(potential).__name__}")
    _require_on_interval(potential, grid.a, grid.b)
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
    coeffs = frac_coeffs(alpha, n - 1)
    try:
        scale = grid.h ** (-alpha)
    except OverflowError:
        scale = math.inf
    # g_0 is the largest coefficient in magnitude. The solve's norms square
    # entries of H and sum n of them, so n (h^(-alpha) g_0)^2 must stay finite.
    diag = scale * float(coeffs[0])
    where = f"at h={grid.h!r}, alpha={alpha!r}"
    if not math.isfinite(diag):
        raise DomainError(f"h^(-alpha) g_0 overflows {where}")
    if diag < sys.float_info.min:
        raise DomainError(f"h^(-alpha) g_0 underflows {where}")
    if not math.isfinite(n * diag * diag):
        raise DomainError(f"N (h^(-alpha) g_0)^2 overflows {where}")
    column = scale * coeffs
    return OperatorMatrix(column, column[0] + vals, grid, alpha, potential)


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


def _block_cholesky(a: np.ndarray, shift: float):
    """Lower-triangular L with L L^T = a - shift I, stored by blocks.

    A block of at most 64 rows is kept as the dense triangle L^(-1), from
    np.linalg.cholesky and inv. A larger one splits at h = n // 2 into the
    tuple (L11, L21^T, L22): L11 and L22 stored the same way, L21^T a dense
    h x (n - h) array, so the zero upper half is never stored. L21^T = L11^(-1) a12 by forward
    substitution, and the Schur complement a22 - L21 L21^T is factored the
    same way. That is matrix products only, 1.5 (n/2)^3 multiply-adds per
    split, and runs faster than numpy's Cholesky, which would still need
    triangular solves that numpy does not have.

    a is not needed once its Schur complement is formed, so an array that
    only the call refers to is freed before that complement is factored.
    """
    n = a.shape[0]
    if n <= 64:
        return np.tril(np.linalg.inv(np.linalg.cholesky(a - shift * np.eye(n))))
    h = n // 2
    l11 = _block_cholesky(a[:h, :h], shift)
    l21t = _forward(l11, a[:h, h:], np.empty((h, n - h)))
    schur = l21t.T @ l21t
    np.subtract(a[h:, h:], schur, out=schur)
    del a
    return l11, l21t, _block_cholesky(schur, shift)


def _forward(factor, x: np.ndarray, out: np.ndarray, start: int = 0) -> np.ndarray:
    """out = L[start:, start:]^(-1) x for L from _block_cholesky; out must
    not overlap x. That is rows start.. of L^(-1) x' for x' zero above them."""
    if isinstance(factor, np.ndarray):
        return np.matmul(factor[start:, start:], x, out=out)
    l11, l21t, l22 = factor
    h = l21t.shape[0]
    if start >= h:
        return _forward(l22, x, out, start - h)
    top = h - start
    _forward(l11, x[:top], out[:top], start)
    rest = l21t[start:].T @ out[:top]
    np.subtract(x[top:], rest, out=rest)
    _forward(l22, rest, out[top:])
    return out


def _back(factor, y: np.ndarray, out: np.ndarray, start: int = 0) -> np.ndarray:
    """out = L[start:, start:]^(-T) y for L from _block_cholesky; out must
    not overlap y. That is rows start.. of L^(-T) y' for y' zero above them."""
    if isinstance(factor, np.ndarray):
        return np.matmul(factor[start:, start:].T, y, out=out)
    l11, l21t, l22 = factor
    h = l21t.shape[0]
    if start >= h:
        return _back(l22, y, out, start - h)
    top = h - start
    _back(l22, y[top:], out[top:])
    rest = l21t[start:] @ out[top:]
    np.subtract(y[:top], rest, out=rest)
    _back(l11, rest, out[:top], start)
    return out


def _substitute(factor, x: np.ndarray, out: np.ndarray, start: int = 0) -> np.ndarray:
    """out = (L L^T)^(-1) x for L = L[start:, start:] from _block_cholesky:
    a forward and a back substitution; out may be x."""
    return _back(factor, _forward(factor, x, np.empty(x.shape), start), out, start)


def _cholesky_solver(a: np.ndarray, shift: float):
    """solve(x, out): out = (a - shift I)^(-1) x, through one _block_cholesky factor."""
    factor = _block_cholesky(a, shift)
    return lambda x, out: _substitute(factor, x, out)


def _parity_block(op: OperatorMatrix, sign: int) -> np.ndarray:
    """The even (sign 1) or odd (sign -1) block of op's centrosymmetric part.

    That part has op's Toeplitz column and the diagonal (d + J d) / 2, d
    op's own and J the reversal; for a symmetric potential it is op, bit for
    bit (see assemble_operator). On (u, [sqrt 2 u_mid,] +-J u) / sqrt 2, J
    reversing k = n // 2 nodes, it acts as A11 +- A12 J; an odd n's middle
    node joins the even block. Formed in one sum of two views of op's
    Toeplitz part, then its diagonal set, and an odd n's middle row and
    column scaled and its middle entry set.
    """
    n = op.shape[0]
    k = n // 2
    size = n - k if sign > 0 else k
    t = op._toeplitz
    out = (np.add if sign > 0 else np.subtract)(t[:size, :size], t[:size, ::-1][:, :size])
    mirrored = (op.diagonal + op.diagonal[::-1]) / 2
    idx = np.arange(k)
    out[idx, idx] = mirrored[:k] + sign * op.column[n - 1 - 2 * idx]
    if size > k:
        out[k:] /= math.sqrt(2.0)
        out[:, k:] /= math.sqrt(2.0)
        out[k:, k:] = mirrored[k]
    return out


def _schur_complement(op: OperatorMatrix, even, delta: np.ndarray) -> np.ndarray:
    """O - Delta (E - shift I)^(-1) Delta, formed in the storage of O.

    O is op's odd parity block, `even` the factor L of E - shift I, and
    Delta = diag(delta) maps the first k = delta.size even coordinates to
    the odd ones. One buffer carries 128 columns of Delta at a time through
    E's inverse. The panel starting at column j is zero above row j, so only
    its rows j.. are substituted, through L[j:, j:], and they give S's lower
    triangle in those columns; the upper triangle is then mirrored from it.
    """
    k = delta.size
    schur = _parity_block(op, -1)
    size = op.shape[0] - k
    panel = np.empty((size, min(128, k)))
    for j in range(0, k, 128):
        w = min(128, k - j)
        cols = panel[:size - j, :w]
        cols[...] = 0.0
        cols[np.arange(w), np.arange(w)] = delta[j:j + w]
        _substitute(even, cols, cols, j)
        cols[:k - j] *= delta[j:, None]
        schur[j:, j:j + w] -= cols[:k - j]
        square, upper = schur[j:j + w, j:j + w], np.triu_indices(w, 1)
        square[upper] = square.T[upper]
        schur[j:j + w, j + w:] = schur[j + w:, j:j + w].T
    return schur


def _coupled_solver(op: OperatorMatrix, shift: float):
    """solve(x, out): out = (H - shift I)^(-1) x for H = op, in the parity basis.

    With d the diagonal and J the reversal, H is its centrosymmetric part,
    of diagonal (d + J d) / 2, plus diag((d - J d) / 2). In the parity basis
    the first has the blocks E and O of _parity_block, and the second
    couples them by Delta = diag((d - J d) / 2) on the first k = n // 2
    nodes (an odd n's middle node is not coupled). E - shift I is factored
    and E freed, then the Schur complement S of _schur_complement is
    factored with the same shift and freed. A solve is block elimination:
    E^(-1), S^(-1), E^(-1), in vectors of k and n - k values.
    """
    n = op.shape[0]
    k = n // 2
    delta = (op.diagonal[:k] - op.diagonal[::-1][:k]) / 2
    even = _block_cholesky(_parity_block(op, 1), shift)
    odd = _block_cholesky(_schur_complement(op, even, delta), shift)

    def solve(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        mirror = x[::-1][:k]
        x_e = np.concatenate([(x[:k] + mirror) / math.sqrt(2.0), x[k:n - k]])
        x_o = (x[:k] - mirror) / math.sqrt(2.0)
        x_o -= delta[:, None] * _substitute(even, x_e, np.empty(x_e.shape))[:k]
        y_o = _substitute(odd, x_o, x_o)
        x_e[:k] -= delta[:, None] * y_o
        y_e = _substitute(even, x_e, x_e)
        out[:k] = (y_e[:k] + y_o) / math.sqrt(2.0)
        out[k:n - k] = y_e[k:]
        out[n - k:] = ((y_e[:k] - y_o) / math.sqrt(2.0))[::-1]
        return out

    return solve


def _lowest_eigh(a: np.ndarray, k: int, shift: float, above: float = -math.inf,
                 solver=_cholesky_solver) -> tuple[np.ndarray, np.ndarray]:
    """At least the k lowest eigenpairs of the symmetric a, ascending.

    While every pair found lies at or below `above`, twice as many are
    found. Blocks of up to _DENSE_MAX unknowns, requests whose Krylov space
    would not stay small, and Krylov solves that do not converge get every
    pair from np.linalg.eigh; otherwise _krylov_lowest gives them, on one
    solver(a, shift) for (a - shift I)^(-1) and one basis. shift must lie
    below the spectrum of a.
    """
    n = a.shape[0]
    # Two guard columns; at least 8 in all, since a narrower block takes
    # many more steps (m = 1 on a notch well: 1.2 s against 0.2 s). The
    # basis must leave room for 7 block steps below its n / 2 cap.
    p = max(k, 6) + 2
    if n > _DENSE_MAX and 16 * p <= n:
        # The solver's factors are freed before the dense eigh allocates its workspace.
        pairs = _krylov_lowest(a, solver(a, shift), k, p, above)
        if pairs is not None:
            return pairs
    # An OperatorMatrix is built whole here.
    return np.linalg.eigh(a)


def _norm_1(a: np.ndarray | OperatorMatrix) -> float:
    """||a||_1 of the symmetric a: in O(n) for an OperatorMatrix, whose row
    i sums to |d_i| plus the |column| entries 1..i and 1..n-1-i, else from
    the rows of a 128 at a time."""
    if isinstance(a, OperatorMatrix):
        sums = np.concatenate([[0.0], np.cumsum(np.abs(a.column[1:]))])
        return float(np.max(np.abs(a.diagonal) + sums + sums[::-1]))
    return max(float(np.max(np.sum(np.abs(a[i:i + 128]), axis=1)))
               for i in range(0, a.shape[0], 128))


def _krylov_lowest(a: np.ndarray | OperatorMatrix, solve, k: int, p: int,
                   above: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The k or more lowest eigenpairs of a by shift-inverted block Lanczos, or None.

    Block Lanczos with full reorthogonalisation runs on (a - shift I)^(-1),
    applied by solve(x, out) as _cholesky_solver or _coupled_solver gives
    it. A block of p Philox columns starts it, and every second block step a
    Rayleigh-Ritz step on a itself stops it once each of the k residuals
    ||a y - theta y|| is at most _RESIDUAL_ULPS * eps * ||a||_1. a is
    multiplied only by the columns new since the last such step, and
    Q^T a Q grows by their columns alone. Q and a Q are kept in arrays with
    room to spare, widened 1.5 times when full (_room), so neither is
    copied at every step. While the k pairs lie at or below `above`, k
    doubles on the same basis, and while 2 k exceeds the Ritz values on hand
    the doubling waits for the next such step. None when the basis would
    pass n / 2 columns first, as for a cluster of levels far above the
    shift.
    """
    n = a.shape[0]
    tol = _RESIDUAL_ULPS * np.finfo(float).eps * _norm_1(a)
    rng = np.random.Generator(np.random.Philox(_KRYLOV_KEY))
    # The loop's last step leaves the basis `most` columns wide.
    most = p * (n // (2 * p))
    basis, image = np.empty((n, 4 * p)), np.empty((n, 4 * p))
    basis[:, :p] = np.linalg.qr(rng.standard_normal((n, p)))[0]
    cols, done, proj = p, 0, np.empty((0, 0))
    w = np.empty((n, p))
    for step in range(1, n // (2 * p)):
        solve(basis[:, cols - p:cols], w)
        for _ in range(2):
            w -= basis[:, :cols] @ (basis[:, :cols].T @ w)
        basis = _room(basis, cols, p, most)
        basis[:, cols:cols + p] = np.linalg.qr(w)[0]
        cols += p
        if step % 2:
            continue
        q = basis[:, :cols]
        new = a @ q[:, done:]
        cross = q.T @ new
        image = _room(image, done, cols - done, most)
        image[:, done:cols] = new
        proj = np.block([[proj, cross[:done]], [cross[:done].T, cross[done:]]])
        done = cols
        theta, s = np.linalg.eigh(proj)
        while True:
            y = q @ s[:, :k]
            res = np.linalg.norm(image[:, :cols] @ s[:, :k] - y * theta[:k], axis=0)
            if not np.all(res <= tol):
                break
            if theta[k - 1] > above:
                return theta[:k], y
            if 2 * k > theta.size:
                break
            k *= 2
    return None


def _room(store: np.ndarray, used: int, more: int, most: int) -> np.ndarray:
    """store if `more` columns fit after its first `used`, else those copied
    into 1.5 times as many columns (at least used + more, at most `most`)."""
    if used + more <= store.shape[1]:
        return store
    wider = np.empty((store.shape[0], min(max(3 * store.shape[1] // 2, used + more), most)))
    wider[:, :used] = store[:, :used]
    return wider


def eigensolve(op: OperatorMatrix, m: int) -> SpectralResult:
    """Lowest m eigenpairs of the assembled operator; deterministic.

    When op.potential is symmetric, the operator is centrosymmetric (see
    assemble_operator), and the even and odd blocks are solved apart,
    merged by a stable sort (even first on a tie); parities are then exact.
    Otherwise the whole operator is solved, through the same blocks coupled
    by its asymmetric diagonal (_coupled_solver), and every level is
    "mixed".

    Each block (or the whole operator) of up to _DENSE_MAX unknowns is
    solved whole by np.linalg.eigh. A larger one is solved for its m lowest
    pairs only, by shift-inverted block Lanczos, to residuals of at most
    8 eps ||H||_1, or whole by eigh where that does not converge while its
    basis is small (see _lowest_eigh). The star index counts the even
    levels below the lowest odd one, so the even block is solved for twice
    as many levels, on the factor and the Krylov basis it was first solved
    with, while all of its computed levels lie below it.

    Residuals are formed with op @ vec. A ground state that is not strictly
    positive (for a symmetric operator: not even) raises DomainError.
    """
    n = op.grid.n
    if _require_count(m, 1, "m") > n:
        raise DomainError(f"m must lie in [1, {n}], got {m}")
    # min V at the nodes: H - shift I is the Toeplitz part, strictly
    # diagonally dominant since g_0 = 2 sum_(k >= 1) |g_k| untruncated
    # (irreducibly so at alpha = 2), plus a nonnegative diagonal, so it is
    # positive definite, as are the parity blocks of its centrosymmetric
    # part (whose diagonal is no lower) and _coupled_solver's Schur
    # complement.
    shift = float(np.min(op.diagonal)) - float(op.column[0])
    if op.potential.symmetric:
        # The parity blocks of _parity_block, the odd one solved and freed
        # before the even one is built.
        k, ke = n // 2, (n + 1) // 2
        lam_o, vec_o = _lowest_eigh(_parity_block(op, -1), min(m, k), shift)
        lam_e, vec_e = _lowest_eigh(_parity_block(op, 1), min(m, ke), shift, above=lam_o[0])
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
        lam, vec = _lowest_eigh(op, m, shift, solver=_coupled_solver)
        lam, vec = lam[:m], vec[:, :m].copy()
        labels, star = ("mixed",) * m, None

    # Mirrored entries tie bitwise, so the first maximum is the leftmost.
    vec *= np.sign(vec[np.argmax(np.abs(vec), axis=0), np.arange(m)])
    residuals = np.linalg.norm(op @ vec - vec * lam[None, :], axis=0)

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


# Relative symmetry and unimodality violations that ground_state_shape_check
# allows.
_SHAPE_TOL = 1e-6


@dataclass(frozen=True)
class ShapeReport:
    """Symmetry and unimodality of the ground state, violations relative to its sup."""

    passed: bool
    symmetry_error: float
    unimodality_error: float
    violation_index: int | None


def ground_state_shape_check(result: SpectralResult) -> ShapeReport:
    """Check that the ground state is symmetric and rises then falls.

    Unimodality is numerics._unimodal_excess: the vector rises to its
    first maximum and falls after it. Asymmetry is measured apart, so an
    off-centre peak is no unimodality violation. violation_index is the
    node pair with the largest excess. Violations are measured relative to
    the sup of the vector and pass up to _SHAPE_TOL.
    """
    v = result.eigenvectors[:, 0]
    sup = float(np.max(np.abs(v)))
    sym_err = float(np.max(np.abs(v - v[::-1]))) / sup
    uni_err = _unimodal_excess(v, 0.0) / sup
    idx = int(np.argmax(_unimodal_steps(v))) if uni_err > 0 else None
    passed = sym_err <= _SHAPE_TOL and uni_err <= _SHAPE_TOL
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
    from the refinement differences; with two levels, or when the fitted
    rate is not positive, the default rate is used. Returns the
    extrapolated eigenvalues.
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
        rate = DEFAULT_RICHARDSON_RATE
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
                fitted = float(np.median(np.log(num[ok] / den[ok]) / np.log(r_fit)))
                # Differences that grow under refinement fit no convergence
                # rate; extrapolating with them would move against the trend.
                if fitted > 0:
                    rate = fitted
    factor = r ** rate - 1.0
    return lam_f + (lam_f - lam_m) / factor

