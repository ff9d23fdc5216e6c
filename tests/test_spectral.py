"""Discretization and eigensolver checks, including exact classical oracles."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgap import spectral
from fracgap.errors import DomainError
from fracgap.potentials import (make_inverse_boundary_well, make_power_well,
                                make_tabulated, make_zero)
from fracgap.spectral import (
    Grid,
    OperatorMatrix,
    assemble_operator,
    boundary_decay_check,
    eigensolve,
    eigenvector_rows,
    frac_coeffs,
    ground_state_shape_check,
    lambda_star,
    result_to_json_dict,
    richardson,
)


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(0.0, 4.0, 3)
        assert g.h == pytest.approx(1.0)
        assert np.allclose(g.nodes(), [1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(0.0, 0.0, 8)
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 1)


class TestFracCoeffs:
    def test_classical_limit_is_three_point_stencil(self):
        g = frac_coeffs(2.0, 6).g
        assert g[0] == pytest.approx(2.0, rel=1e-13)
        assert g[1] == pytest.approx(-1.0, rel=1e-13)
        assert np.all(np.abs(g[2:]) < 1e-13)

    def test_alpha_one_leading_coefficient(self):
        # Gamma(2) / Gamma(3/2)^2 = 4 / pi
        g = frac_coeffs(1.0, 4).g
        assert g[0] == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_signs_and_zero_sum(self):
        for alpha in (0.5, 1.0, 1.5, 1.9):
            g = frac_coeffs(alpha, 20000).g
            assert g[0] > 0
            assert np.all(g[1:] <= 0)
            # Two-sided stencil sums to zero; the truncated tail shrinks
            # like k_max^(-alpha), slowest at small alpha.
            assert abs(g[0] + 2.0 * np.sum(g[1:])) < 6e-3 * g[0]

    def test_domain(self):
        with pytest.raises(DomainError):
            frac_coeffs(0.0, 4)
        with pytest.raises(DomainError):
            frac_coeffs(2.1, 4)
        with pytest.raises(DomainError):
            frac_coeffs(1.5, 0)

    @given(st.floats(min_value=0.1, max_value=2.0))
    def test_ratio_recurrence(self, alpha):
        g = frac_coeffs(alpha, 8).g
        for k in range(7):
            want = g[k] * (k - alpha / 2.0) / (k + 1.0 + alpha / 2.0)
            assert g[k + 1] == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestAssembleOperator:
    def test_classical_tridiagonal_exact(self):
        # alpha = 2 on (0, 4) with 3 nodes: h = 1 and the matrix is the
        # standard second-difference stencil.
        op = assemble_operator(Grid(0.0, 4.0, 3), 2.0, make_zero((0.0, 4.0)))
        want = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        assert np.allclose(op.matrix, want, atol=1e-13)

    def test_constant_potential_shifts_diagonal(self):
        grid = Grid(-1.0, 1.0, 16)
        base = assemble_operator(grid, 1.5, make_zero((-1.0, 1.0)))
        shifted = assemble_operator(grid, 1.5, make_zero((-1.0, 1.0), offset=2.5))
        assert np.allclose(shifted.matrix - base.matrix, 2.5 * np.eye(16), atol=1e-13)

    def test_entry_scaling_with_interval_length(self):
        # The nonlocal part scales exactly like h^(-alpha).
        alpha = 1.3
        m1 = assemble_operator(Grid(0.0, 1.0, 32), alpha, make_zero((0.0, 1.0))).matrix
        m2 = assemble_operator(Grid(0.0, 2.0, 32), alpha, make_zero((0.0, 2.0))).matrix
        assert np.allclose(m2, m1 / 2.0**alpha, rtol=1e-13)

    def test_nonfinite_potential_rejected_with_node(self):
        # 9.4^400 overflows to inf at the outermost nodes.
        bad = make_power_well(1.0, 400.0, (-10.0, 10.0))
        with pytest.raises(DomainError, match=r"not finite at node x=-9\.41"), \
                np.errstate(over="ignore"):
            assemble_operator(Grid(-10.0, 10.0, 33), 1.5, bad)

    def test_callable_rejected(self):
        with pytest.raises(DomainError, match="must be a Potential, got function"):
            assemble_operator(Grid(-1.0, 1.0, 33), 1.5, lambda x: 0.0 * x)

    def test_grid_must_cover_potential_interval(self):
        # Mirroring a well about another interval's midpoint would be wrong.
        with pytest.raises(DomainError, match="grid covers"):
            assemble_operator(Grid(0.0, 1.0, 16), 1.5,
                              make_power_well(1.0, 2.0, (-1.0, 1.0)))

    def test_symmetric_diagonal_mirrored_bitwise(self):
        # Far from the origin, a + h i and b - h i round apart, and the
        # endpoint spike amplifies that to 5e-13 of the sup when evaluated
        # node by node.
        pot = make_inverse_boundary_well(0.3, 0.35, (100.0, 101.0))
        d = np.diagonal(assemble_operator(Grid(100.0, 101.0, 4096), 0.35, pot).matrix)
        assert np.array_equal(d, d[::-1])

    def test_symmetry(self):
        pot = make_power_well(3.0, 2.0, (-1.0, 1.0))
        op = assemble_operator(Grid(-1.0, 1.0, 24), 1.7, pot)
        assert np.allclose(op.matrix, op.matrix.T, atol=1e-13)

    def test_matches_indexed_toeplitz_bitwise(self):
        grid = Grid(-1.0, 1.0, 37)
        pot = make_power_well(3.0, 2.0, (-1.0, 1.0))
        op = assemble_operator(grid, 1.3, pot)
        i = np.arange(grid.n)
        want = grid.h ** -1.3 * frac_coeffs(1.3, grid.n).g[np.abs(i[:, None] - i[None, :])]
        left = pot(grid.nodes()[:19])
        want[i, i] += np.concatenate([left, left[:18][::-1]])
        assert np.array_equal(op.matrix, want)


class TestEigensolve:
    def test_classical_eigenvalues_exact_discrete_formula(self):
        # For alpha = 2 the matrix is the classical stencil whose spectrum
        # is (4 / h^2) sin^2(k h / 2) on (0, pi) exactly.
        grid = Grid(0.0, math.pi, 64)
        res = eigensolve(assemble_operator(grid, 2.0, make_zero((0.0, math.pi))), 4)
        h = grid.h
        k = np.arange(1, 5)
        want = (4.0 / h**2) * np.sin(k * h / 2.0) ** 2
        assert np.allclose(res.eigenvalues, want, rtol=1e-11)

    def test_normalization_and_orthogonality(self, free_15_512):
        res = free_15_512
        h = res.grid.h
        gram = h * res.eigenvectors.T @ res.eigenvectors
        assert np.allclose(gram, np.eye(res.m), atol=1e-8)

    def test_residuals_small(self, free_15_512):
        res = free_15_512
        assert np.all(res.residuals < 1e-10 * max(1.0, res.eigenvalues[-1]))

    def test_ground_state_positive(self, well_15_512):
        assert np.all(well_15_512.eigenvectors[:, 0] > 0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_sign_rule_leftmost_of_tied_maxima(self, alpha):
        # Mirrored entries of parity vectors tie in magnitude up to rounding;
        # the leftmost entry within 1e-8 relative of the largest is positive.
        for pot in (make_zero((-1.0, 1.0)), make_power_well(5.0, 2.0, (-1.0, 1.0))):
            for n in (64, 129):
                res = eigensolve(assemble_operator(Grid(-1.0, 1.0, n), alpha, pot), 6)
                for j in range(res.m):
                    mag = np.abs(res.eigenvectors[:, j])
                    lead = np.flatnonzero(mag >= (1.0 - 1e-8) * mag.max())[0]
                    assert res.eigenvectors[lead, j] > 0, (n, j)

    def test_parities_alternate_in_symmetric_wells(self, free_15_512, well_15_512):
        for res in (free_15_512, well_15_512):
            assert res.parities[0] == "symmetric"
            assert res.parities[1] == "antisymmetric"
            assert res.parities[2] == "symmetric"

    def test_golden_free_eigenvalues(self, free_15_512):
        # Frozen regression values for alpha = 1.5 on (-1, 1), N = 512.
        assert free_15_512.eigenvalues[0] == pytest.approx(1.5986657582, abs=1e-9)
        assert free_15_512.eigenvalues[1] == pytest.approx(5.0633958847, abs=1e-9)

    def test_eigenvalue_scaling_with_length(self):
        # lambda_k(L) * L^alpha is length-free, exactly at matrix level.
        alpha = 1.5
        r1 = eigensolve(assemble_operator(Grid(0.0, 1.0, 128), alpha,
                                          make_zero((0.0, 1.0))), 3)
        r2 = eigensolve(assemble_operator(Grid(0.0, 2.0, 128), alpha,
                                          make_zero((0.0, 2.0))), 3)
        assert np.allclose(r1.eigenvalues, r2.eigenvalues * 2.0**alpha, rtol=1e-12)

    def test_shift_covariance(self):
        grid = Grid(-1.0, 1.0, 128)
        r0 = eigensolve(assemble_operator(grid, 1.3, make_zero((-1.0, 1.0))), 4)
        rc = eigensolve(assemble_operator(grid, 1.3,
                                          make_zero((-1.0, 1.0), offset=7.0)), 4)
        assert np.allclose(rc.eigenvalues, r0.eigenvalues + 7.0, rtol=1e-12)

    def test_deeper_well_raises_ground_energy(self):
        grid = Grid(-1.0, 1.0, 128)
        lams = []
        for kappa in (0.0, 5.0, 20.0):
            pot = make_power_well(kappa, 2.0, (-1.0, 1.0))
            lams.append(eigensolve(assemble_operator(grid, 1.5, pot), 1)
                        .eigenvalues[0])
        assert lams[0] < lams[1] < lams[2]

    def test_near_degenerate_pair_gets_exact_parities(self):
        # The blocks separate the pair, however close the two levels are.
        mat = np.array([[1.0, -1e-13], [-1e-13, 1.0]])
        op = OperatorMatrix(mat, Grid(0.0, 3.0, 2), 1.5, make_zero((0.0, 3.0)))
        res = eigensolve(op, 2)
        assert res.parities == ("symmetric", "antisymmetric")

    def test_odd_lowest_level_raises(self):
        # The lowest level of [[1, 1], [1, 1]] is the odd one, at 0.
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        op = OperatorMatrix(mat, Grid(0.0, 3.0, 2), 1.5, make_zero((0.0, 3.0)))
        with pytest.raises(DomainError, match="strictly positive"):
            eigensolve(op, 1)

    def test_m_domain(self):
        op = assemble_operator(Grid(0.0, 1.0, 8), 1.5, make_zero((0.0, 1.0)))
        with pytest.raises(DomainError):
            eigensolve(op, 0)
        with pytest.raises(DomainError):
            eigensolve(op, 9)


class TestLambdaStar:
    def test_free_case_is_second_eigenvalue(self, free_15_512):
        idx, val = lambda_star(free_15_512)
        assert idx == 2
        assert val == pytest.approx(free_15_512.eigenvalues[1])

    def test_known_with_one_level(self):
        op = assemble_operator(Grid(-1.0, 1.0, 64), 1.5, make_zero((-1.0, 1.0)))
        idx, val = lambda_star(eigensolve(op, 1))
        assert idx == 2
        assert val == eigensolve(op, 2).eigenvalues[1]

    def test_asymmetric_well_is_mixed_without_star(self):
        xs = np.linspace(-1.0, 1.0, 17)
        op = assemble_operator(Grid(-1.0, 1.0, 64), 1.5,
                               make_tabulated(xs, 10.0 * np.abs(xs - 0.4) ** 2))
        res = eigensolve(op, 4)
        assert res.parities == ("mixed",) * 4
        assert res.star is None
        with pytest.raises(LookupError):
            lambda_star(res)

    @pytest.mark.parametrize("xs, ys, split", [
        (np.linspace(-1.0, 1.0, 17), 10.0 * np.linspace(-1.0, 1.0, 17) ** 2, True),
        # No node at N = 64 falls on the spike at 0.3, so only the table's
        # knots show the asymmetry.
        ([-1.0, 0.0, 0.295, 0.3, 0.305, 1.0], [1.0, 0.0, 0.295, 5.0, 0.305, 1.0], False),
    ], ids=["symmetric_table", "bump_table"])
    def test_split_follows_the_potential(self, xs, ys, split):
        res = eigensolve(assemble_operator(Grid(-1.0, 1.0, 64), 1.5,
                                           make_tabulated(xs, ys)), 4)
        assert (res.star is not None) == split
        assert ("mixed" in res.parities) != split


class TestParitySplit:
    """The parity blocks against the full solve of the same matrix."""

    @pytest.mark.parametrize("n", [2, 3, 64, 129, 512])
    @pytest.mark.parametrize("pot", [make_power_well(5.0, 2.0, (-1.0, 1.0)),
                                     make_inverse_boundary_well(0.5, 1.5, (-1.0, 1.0))],
                             ids=["power", "inverse_boundary"])
    def test_matches_full_eigh(self, n, pot):
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, pot)
        m = min(n, 6)
        res = eigensolve(op, m)
        lam, vec = np.linalg.eigh(op.matrix)
        assert np.allclose(res.eigenvalues, lam[:m], rtol=1e-11, atol=0.0)
        overlap = np.abs(np.sum(res.eigenvectors * vec[:, :m], axis=0)) * math.sqrt(op.grid.h)
        assert np.allclose(overlap, 1.0, rtol=0.0, atol=1e-8)
        mirrored = res.eigenvectors[::-1]
        for j, parity in enumerate(res.parities):
            sign = 1.0 if parity == "symmetric" else -1.0
            assert np.array_equal(mirrored[:, j], sign * res.eigenvectors[:, j]), j

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_kwasnicki_asymptotics(self, alpha):
        # Kwasnicki (J. Funct. Anal. 2012): on (-1, 1) the free levels are
        # (n pi / 2 - (2 - alpha) pi / 8)^alpha + O(1/n), of alternating parity.
        levels = []
        for n in (256, 512, 1024):
            res = eigensolve(assemble_operator(Grid(-1.0, 1.0, n), alpha,
                                               make_zero((-1.0, 1.0))), 10)
            levels.append((n, res.eigenvalues))
        k = np.arange(1, 11)
        asym = (k * math.pi / 2.0 - (2.0 - alpha) * math.pi / 8.0) ** alpha
        err = np.abs(richardson(levels) / asym - 1.0)
        assert err[9] <= 1e-4
        assert err[9] < err[4]
        assert res.parities == ("symmetric", "antisymmetric") * 5


def random_single_well(seed):
    """Symmetric 9-knot table falling from up to 1000 to its minimum at the centre."""
    half = np.sort(np.random.default_rng(seed).uniform(0.0, 1000.0, 5))[::-1]
    return make_tabulated(np.linspace(-1.0, 1.0, 9), np.concatenate([half, half[-2::-1]]))


def notch_well():
    """The smooth notch 1000 (1 - exp(-x^2 / 1e-4)), tabulated on 4001 knots."""
    xs = np.linspace(-1.0, 1.0, 4001)
    return make_tabulated(xs, 1000.0 * (1.0 - np.exp(-xs**2 / 1e-4)))


class TestKrylovPath:
    """Blocks above _DENSE_MAX unknowns against the dense eigh of the same blocks."""

    CUT = spectral._DENSE_MAX

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 1.95])
    @pytest.mark.parametrize("well", ["power", "inverse_boundary", "random", "off_centre"])
    def test_matches_dense_eigh(self, monkeypatch, alpha, well):
        if well == "off_centre":
            xs = np.linspace(-1.0, 1.0, 17)
            pot = make_tabulated(xs, 20.0 * np.abs(xs - 0.3) ** 2)
            # One full matrix: dense at the cut-off, Krylov above it.
            sizes = (self.CUT, self.CUT + 1, 512)
        else:
            pot = {"power": make_power_well(20.0, 2.0, (-1.0, 1.0)),
                   "inverse_boundary": make_inverse_boundary_well(
                       0.5 * min(alpha, 1.0), alpha, (-1.0, 1.0)),
                   "random": random_single_well(int(10 * alpha))}[well]
            # Parity blocks of (CUT, CUT), (CUT + 1, CUT), (CUT + 1, CUT + 1), (512, 511).
            sizes = (2 * self.CUT, 2 * self.CUT + 1, 2 * self.CUT + 2, 1023)
        for n in sizes:
            op = assemble_operator(Grid(-1.0, 1.0, n), alpha, pot)
            res = eigensolve(op, 6)
            with monkeypatch.context() as mp:
                mp.setattr(spectral, "_DENSE_MAX", n)
                ref = eigensolve(op, 6)
            # 1e-11 relative, or the rounding floor eps ||H||_1 that both
            # solvers share where that is larger (alpha 1.95: 2e-11 of lambda_1).
            floor = np.finfo(float).eps * np.max(np.sum(np.abs(op.matrix), axis=0))
            tol = np.maximum(1e-11 * ref.eigenvalues, floor)
            assert np.all(np.abs(res.eigenvalues - ref.eigenvalues) <= tol), n
            for j in range(6):
                v, w = res.eigenvectors[:, j], ref.eigenvectors[:, j]
                gap = min(np.max(np.abs(v - w)), np.max(np.abs(v + w)))
                assert gap <= 1e-9 * np.max(np.abs(w)), (n, j)
            assert np.all(res.residuals <= 10.0 * ref.residuals), n
            assert res.parities == ref.parities, n
            assert (res.star is None) == (ref.star is None), n
            if res.star is not None:
                assert res.star[0] == ref.star[0], n
                assert res.star[1] == pytest.approx(ref.star[1], rel=1e-11, abs=0.0)

    def test_only_the_wanted_pairs_above_the_cut(self):
        xs = np.linspace(-1.0, 1.0, 17)
        pot = make_tabulated(xs, 20.0 * np.abs(xs - 0.3) ** 2)
        for n, pairs in ((self.CUT, self.CUT), (self.CUT + 1, 6)):
            op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, pot)
            lam, vec = spectral._lowest_eigh(op.matrix, 6, 0.0)
            assert lam.size == pairs and vec.shape == (n, pairs)

    def test_cluster_far_above_the_shift_falls_back_to_dense(self):
        # Shift-inverted, the levels 1000 + 1e-3 j differ by 1e-6 relative:
        # the basis fills half the space before they converge.
        n = self.CUT + 16
        a = np.diag(np.concatenate([[1.0], 1000.0 + 1e-3 * np.arange(n - 1)]))
        lam, vec = spectral._lowest_eigh(a, 6, 0.0)
        assert lam.size == n
        assert np.array_equal(lam, np.linalg.eigh(a)[0])

    def test_reruns_bit_identical(self):
        op = assemble_operator(Grid(-1.0, 1.0, 1023), 1.5, make_power_well(5.0, 2.0, (-1.0, 1.0)))
        first, second = eigensolve(op, 6), eigensolve(op, 6)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)


def dense_factor(g):
    """The n x n lower triangle of a factor stored by _block_inverse_cholesky."""
    if isinstance(g, np.ndarray):
        return g
    g11, g21, g22 = g
    h = g21.shape[1]
    out = np.zeros((h + g21.shape[0],) * 2)
    out[:h, :h] = dense_factor(g11)
    out[h:, :h] = g21
    out[h:, h:] = dense_factor(g22)
    return out


class TestBlockFactor:
    """The inverse Cholesky factor stored by blocks, on uneven splits."""

    @pytest.mark.parametrize("n", [129, 385, 777, 1023, 1024])
    def test_inverts_the_shifted_matrix(self, n):
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, make_power_well(20.0, 2.0, (-1.0, 1.0)))
        shift = float(np.min(np.diagonal(op.matrix))) - op.grid.h ** -1.5 * frac_coeffs(1.5, 1).g[0]
        shifted = op.matrix - shift * np.eye(n)
        factor = spectral._block_inverse_cholesky(op.matrix, shift)
        g = dense_factor(factor)
        assert np.array_equal(g, np.tril(g))
        # Rounding of an inverse Cholesky factor grows with the condition
        # number; measured 0.03 to 0.09 eps kappa here.
        lam = np.linalg.eigvalsh(shifted)
        err = np.linalg.norm(g @ shifted @ g.T - np.eye(n), 2)
        assert err <= np.finfo(float).eps * lam[-1] / lam[0]
        x = np.random.default_rng(n).standard_normal((n, 8))
        for apply, dense in ((spectral._apply_factor, g), (spectral._apply_factor_t, g.T)):
            got = apply(factor, x, np.empty((n, 8)))
            ref = dense @ x
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_eigensolve_peak_memory(self):
        # The factor's blocks hold half of N^2, and no N x N temporary is
        # allocated beside them: 0.95 N^2 measured.
        n = 1024
        xs = np.linspace(-1.0, 1.0, 17)
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.2,
                               make_tabulated(xs, 20.0 * np.abs(xs - 0.3) ** 2))
        tracemalloc.start()
        try:
            eigensolve(op, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n**2


class TestSecondLevelParity:
    def test_notch_well_second_level_is_symmetric(self):
        # At alpha = 1.5 the lowest antisymmetric level is lambda_3, 0.78 above
        # a second symmetric level. With m = 1 every computed even level lies
        # below it, so the even block is solved again for 2 and then 4 levels.
        op = assemble_operator(Grid(-1.0, 1.0, 1023), 1.5, notch_well())
        res = eigensolve(op, 6)
        assert res.parities[:3] == ("symmetric", "symmetric", "antisymmetric")
        assert res.star[0] == 3
        assert res.star[1] - res.eigenvalues[1] == pytest.approx(0.782, abs=1e-3)
        one = eigensolve(op, 1)
        assert one.star[0] == 3
        assert one.star[1] == pytest.approx(res.star[1], rel=1e-12, abs=0.0)

    def test_one_factor_per_block(self, monkeypatch):
        # m = 1 solves the even block for 1, 2 and 4 levels on one factor;
        # factoring it again for each solve gives the same bits.
        op = assemble_operator(Grid(-1.0, 1.0, 1023), 1.5, notch_well())
        built = []
        factor, lowest = spectral._block_inverse_cholesky, spectral._lowest_eigh

        def counting(a, shift):
            built.append(a.shape[0])
            return factor(a, shift)

        def rebuilding(a, k, shift, above=-math.inf):
            lam, vec = lowest(a, k, shift)
            while lam.size < a.shape[0] and lam[-1] <= above:
                lam, vec = lowest(a, min(2 * lam.size, a.shape[0]), shift)
            return lam, vec

        monkeypatch.setattr(spectral, "_block_inverse_cholesky", counting)
        once = eigensolve(op, 1)
        assert [n for n in built if n > spectral._DENSE_MAX] == [511, 512]
        built.clear()
        monkeypatch.setattr(spectral, "_lowest_eigh", rebuilding)
        again = eigensolve(op, 1)
        assert [n for n in built if n > spectral._DENSE_MAX] == [511, 512, 512, 512]
        assert np.array_equal(once.eigenvalues, again.eigenvalues)
        assert once.star == again.star


class TestShapeAndDecay:
    def test_shape_passes_for_wells(self, free_15_512, well_15_512):
        for res in (free_15_512, well_15_512):
            rep = ground_state_shape_check(res)
            assert rep.passed
            assert rep.symmetry_error < 1e-8
            assert rep.unimodality_error < 1e-8

    def test_bumped_ground_state_fails_with_location(self, free_15_512):
        vec = free_15_512.eigenvectors.copy()
        vec[100, 0] += 0.2
        bad = replace(free_15_512, eigenvectors=vec)
        rep = ground_state_shape_check(bad)
        assert not rep.passed
        assert rep.violation_index is not None
        assert abs(rep.violation_index - 100) <= 1

    def test_decay_slope_matches_boundary_exponent(self):
        for alpha in (1.0, 1.5):
            op = assemble_operator(Grid(-1.0, 1.0, 256), alpha,
                                   make_zero((-1.0, 1.0)))
            rep = boundary_decay_check(eigensolve(op, 1))
            assert rep.passed
            assert abs(rep.slope - alpha / 2.0) <= 0.1
            assert rep.n_fit == 2 * (256 // 10)

    def test_decay_needs_fine_grid(self):
        op = assemble_operator(Grid(-1.0, 1.0, 64), 1.5, make_zero((-1.0, 1.0)))
        with pytest.raises(DomainError):
            boundary_decay_check(eigensolve(op, 1))

    def test_classical_slope_near_one(self):
        op = assemble_operator(Grid(0.0, math.pi, 256), 2.0,
                               make_zero((0.0, math.pi)))
        rep = boundary_decay_check(eigensolve(op, 1))
        assert rep.slope == pytest.approx(1.0, abs=0.05)


class TestRichardson:
    def test_exact_first_order_model(self):
        # lambda(h) = 5 + 3 h with exactly halving h is removed exactly.
        lam = lambda n: np.array([5.0 + 3.0 / (n + 1)])
        levels = [(127, lam(127)), (255, lam(255)), (511, lam(511))]
        out = richardson(levels)
        assert out[0] == pytest.approx(5.0, abs=1e-10)

    def test_exact_second_order_model(self):
        lam = lambda n: np.array([5.0 + 3.0 / (n + 1) ** 2])
        levels = [(127, lam(127)), (255, lam(255)), (511, lam(511))]
        out = richardson(levels)
        assert out[0] == pytest.approx(5.0, abs=1e-10)

    def test_two_levels_use_given_rate(self):
        lam = lambda n: np.array([5.0 + 3.0 / (n + 1) ** 2])
        out = richardson([(127, lam(127)), (255, lam(255))], rate=2.0)
        assert out[0] == pytest.approx(5.0, abs=1e-12)

    def test_golden_extrapolated_free_values(self, free_15_512):
        # Frozen regression: alpha = 1.5, (-1, 1), N in {256, 512, 1024}.
        lams = {512: free_15_512.eigenvalues[:2]}
        for n in (256, 1024):
            op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, make_zero((-1.0, 1.0)))
            lams[n] = eigensolve(op, 2).eigenvalues
        out = richardson([(n, lams[n]) for n in (256, 512, 1024)])
        assert out[0] == pytest.approx(1.597484926710, abs=1e-8)
        assert out[1] == pytest.approx(5.059724650539, abs=1e-8)

    def test_reference_values_alpha_one(self):
        # Published high-precision eigenvalues for alpha = 1 on (-1, 1):
        # 1.157773883 and 2.754754742.
        levels = []
        for n in (256, 512, 1024):
            op = assemble_operator(Grid(-1.0, 1.0, n), 1.0, make_zero((-1.0, 1.0)))
            levels.append((n, eigensolve(op, 2).eigenvalues))
        out = richardson(levels)
        assert out[0] == pytest.approx(1.157773883, abs=5e-5)
        assert out[1] == pytest.approx(2.754754742, abs=5e-5)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            richardson([])
        with pytest.raises(DomainError):
            richardson([(128, np.array([1.0])), (128, np.array([2.0]))])
        with pytest.raises(DomainError):
            richardson([(128, np.array([1.0])), (256, np.array([1.0, 2.0]))])

    def test_single_level_passthrough(self):
        out = richardson([(128, np.array([1.5, 2.5]))])
        assert np.allclose(out, [1.5, 2.5])


class TestSerialization:
    def test_json_dict_fields(self, free_15_512):
        d = result_to_json_dict(free_15_512)
        assert d["alpha"] == 1.5
        assert d["N"] == 512
        assert len(d["eigenvalues"]) == free_15_512.m
        assert d["parities"][0] == "symmetric"

    def test_eigenvector_rows(self, free_15_512):
        header, rows = eigenvector_rows(free_15_512)
        assert header[0] == "x"
        assert header[1] == "phi_1"
        assert len(rows) == 512
        assert len(rows[0]) == free_15_512.m + 1
