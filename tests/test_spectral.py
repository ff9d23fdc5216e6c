"""Discretization and eigensolver checks, including exact classical oracles."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import solve_triangular

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
    frac_coeffs,
    ground_state_shape_check,
    lambda_star,
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
        g = frac_coeffs(2.0, 6)
        assert g[0] == pytest.approx(2.0, rel=1e-13)
        assert g[1] == pytest.approx(-1.0, rel=1e-13)
        assert np.all(np.abs(g[2:]) < 1e-13)

    def test_alpha_one_leading_coefficient(self):
        # Gamma(2) / Gamma(3/2)^2 = 4 / pi
        g = frac_coeffs(1.0, 4)
        assert g[0] == pytest.approx(4.0 / math.pi, rel=1e-12)

    def test_signs_and_zero_sum(self):
        for alpha in (0.5, 1.0, 1.5, 1.9):
            g = frac_coeffs(alpha, 20000)
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
        g = frac_coeffs(alpha, 8)
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

    @pytest.mark.parametrize("width", [1e-300, 65 * 3.6e-206])
    def test_overflowing_stencil_scale_rejected(self, width):
        # At h = 1.5e-302, h^(-1.5) overflows; at h = 3.6e-206 it is finite,
        # but h^(-1.5) g_0 with g_0 = 1.57 is not.
        grid = Grid(0.0, width, 64)
        message = f"h^(-alpha) g_0 overflows at h={grid.h!r}, alpha=1.5"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            assemble_operator(grid, 1.5, make_zero((0.0, width)))

    @pytest.mark.parametrize("a, b, message", [
        # h^(-1.5) underflows to 0 at h = 3.1e298.
        (-1e300, 1e300, "h^(-alpha) g_0 underflows"),
        # h^(-1.5) g_0 = 7.9e302 is finite, its square is not.
        (0.0, 1e-200, "N (h^(-alpha) g_0)^2 overflows"),
    ])
    def test_stencil_scale_out_of_solve_range_rejected(self, a, b, message):
        grid = Grid(a, b, 64)
        message = f"{message} at h={grid.h!r}, alpha=1.5"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            assemble_operator(grid, 1.5, make_zero((a, b)))

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
        want = grid.h ** -1.3 * frac_coeffs(1.3, grid.n)[np.abs(i[:, None] - i[None, :])]
        left = pot(grid.nodes()[:19])
        want[i, i] += np.concatenate([left, left[:18][::-1]])
        assert np.array_equal(op.matrix, want)


class TestOperatorBlocks:
    """The OperatorMatrix's parity blocks, product and norm against op.matrix."""

    @pytest.mark.parametrize("n", [37, 38, 385])
    @pytest.mark.parametrize("well", ["power", "off_centre"])
    def test_parity_blocks_match_the_parity_basis(self, n, well):
        # H in the parity basis has E and O on its diagonal, whatever the
        # coupling; an odd n's middle entry of E carries V at the middle node.
        pot = make_power_well(5.0, 2.0, (-1.0, 1.0)) if well == "power" else off_centre_well()
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.3, pot)
        blocks = parity_basis(n).T @ op.matrix @ parity_basis(n)
        ke = n - n // 2
        for sign, want in ((1, blocks[:ke, :ke]), (-1, blocks[ke:, ke:])):
            got = spectral._parity_block(op, sign)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), sign

    @pytest.mark.parametrize("n, well", [(385, "off_centre"), (777, "power")])
    def test_krylov_path_never_builds_h_whole(self, monkeypatch, n, well):
        # Both take the Krylov path: the coupled blocks of (193, 192) and the
        # symmetric well's parity blocks of 389 and 388 unknowns.
        pot = make_power_well(5.0, 2.0, (-1.0, 1.0)) if well == "power" else off_centre_well()
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.3, pot)

        def whole(self):
            raise AssertionError("H built whole")

        monkeypatch.setattr(OperatorMatrix, "matrix", property(whole))
        assert eigensolve(op, 6).eigenvalues.size == 6

    @pytest.mark.parametrize("n", [37, 38, 385])
    @pytest.mark.parametrize("well", ["power", "off_centre"])
    def test_norm_1_in_closed_form(self, n, well):
        pot = make_power_well(3.0, 2.0, (-1.0, 1.0)) if well == "power" else off_centre_well()
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.3, pot)
        want = np.max(np.sum(np.abs(op.matrix), axis=1))
        assert spectral._norm_1(op) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 37, 385, 777, 1023, 1024, 2048])
    def test_product_matches_dense(self, n):
        # The product goes through the FFT of a circulant of order 2n; the
        # inverse boundary well's diagonal spikes at the ends.
        x = np.random.default_rng(n).standard_normal((n, 9))
        for alpha, pot in ((0.7, off_centre_well()), (0.3, off_centre_well()),
                           (1.95, off_centre_well()), (2.0, off_centre_well()),
                           (0.3, make_inverse_boundary_well(0.25, 0.3, (-1.0, 1.0))),
                           (1.95, make_inverse_boundary_well(0.9, 1.95, (-1.0, 1.0)))):
            op = assemble_operator(Grid(-1.0, 1.0, n), alpha, pot)
            dense = op.matrix
            # ||H x||_1 <= ||H||_1 ||x||_1. Against eps times that, a
            # column's error is measured at most 0.31 for n >= 37, and 0.70
            # at n = 2 and 3, where ||x||_1 is close to ||x||_2.
            bound = np.finfo(float).eps * np.max(np.sum(np.abs(dense), axis=0))
            for v in (x[:, 0], x[:, :1], x, x[:, 2:]):
                got, want = op @ v, dense @ v
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
                err = np.linalg.norm((got - want).reshape(n, -1), axis=0)
                assert np.all(err <= bound * np.sum(np.abs(v.reshape(n, -1)), axis=0)), alpha

    def test_holds_the_column_and_the_diagonal(self):
        grid = Grid(-1.0, 1.0, 64)
        pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
        op = assemble_operator(grid, 1.5, pot)
        assert op.shape == (64, 64)
        assert np.array_equal(op.column, grid.h ** -1.5 * frac_coeffs(1.5, 64)[:64])
        assert np.array_equal(op.diagonal, np.diagonal(op.matrix))
        assert np.array_equal(np.asarray(op), op.matrix)


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
        # H = [[1, -1e-13], [-1e-13, 1]].
        op = OperatorMatrix(np.array([1.0, -1e-13]), np.ones(2), Grid(0.0, 3.0, 2), 1.5,
                            make_zero((0.0, 3.0)))
        res = eigensolve(op, 2)
        assert res.parities == ("symmetric", "antisymmetric")

    def test_odd_lowest_level_raises(self):
        # The lowest level of [[1, 1], [1, 1]] is the odd one, at 0.
        op = OperatorMatrix(np.ones(2), np.ones(2), Grid(0.0, 3.0, 2), 1.5,
                            make_zero((0.0, 3.0)))
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


def parity_basis(n):
    """Orthogonal columns (e_i + e_(n-1-i)) / sqrt 2, e_k for an odd n's
    middle node k = n // 2, then (e_i - e_(n-1-i)) / sqrt 2, for i < k."""
    k = n // 2
    i = np.arange(k)
    q = np.zeros((n, n))
    q[i, i] = q[n - 1 - i, i] = q[i, n - k + i] = math.sqrt(0.5)
    q[n - 1 - i, n - k + i] = -math.sqrt(0.5)
    if n % 2:
        q[k, k] = 1.0
    return q


def off_centre_well():
    """The asymmetric table 20 |x - 0.3|^2 on 17 knots: solved whole, never split."""
    xs = np.linspace(-1.0, 1.0, 17)
    return make_tabulated(xs, 20.0 * np.abs(xs - 0.3) ** 2)


class TestKrylovPath:
    """Blocks above _DENSE_MAX unknowns against the dense eigh of the same blocks."""

    CUT = spectral._DENSE_MAX

    @staticmethod
    def assert_matches_dense(monkeypatch, op):
        n = op.grid.n
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

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7, 1.95])
    @pytest.mark.parametrize("well", ["power", "inverse_boundary", "random", "off_centre"])
    def test_matches_dense_eigh(self, monkeypatch, alpha, well):
        if well == "off_centre":
            pot = off_centre_well()
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
            self.assert_matches_dense(monkeypatch, assemble_operator(Grid(-1.0, 1.0, n), alpha, pot))

    @pytest.mark.parametrize("alpha", [0.3, 1.2, 1.9])
    def test_coupled_parity_blocks_match_dense_eigh(self, monkeypatch, alpha):
        # The off-centre well couples its parity blocks; odd and even n give
        # blocks of (193, 192), (389, 388), (512, 511) and (512, 512).
        for n in (385, 777, 1023, 1024):
            self.assert_matches_dense(
                monkeypatch, assemble_operator(Grid(-1.0, 1.0, n), alpha, off_centre_well()))

    def test_asymmetry_near_rounding(self, monkeypatch):
        # One knot of the symmetric table 20 x^2 raised by 1e-10, five times
        # the table's symmetry tolerance: the coupling is about 1e-14 of
        # ||H||_1, and the levels stay those of the symmetric table.
        xs = np.linspace(-1.0, 1.0, 17)
        ys = 20.0 * xs**2
        ys[5] += 1e-10
        pot = make_tabulated(xs, ys)
        assert not pot.symmetric
        for n in (777, 1024):
            op = assemble_operator(Grid(-1.0, 1.0, n), 1.2, pot)
            self.assert_matches_dense(monkeypatch, op)
            sym = eigensolve(assemble_operator(Grid(-1.0, 1.0, n), 1.2,
                                              make_tabulated(xs, 20.0 * xs**2)), 6)
            assert np.all(np.abs(eigensolve(op, 6).eigenvalues - sym.eigenvalues)
                          <= 1e-11 * sym.eigenvalues), n

    @pytest.mark.parametrize("n", [385, 777, 1023, 1024])
    def test_coupled_solve_inverts_the_shifted_operator(self, n):
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.2, off_centre_well())
        shift = float(np.min(op.diagonal)) - float(op.column[0])
        x = np.random.default_rng(n).standard_normal((n, 8))
        y = spectral._coupled_solver(op, shift)(x, np.empty((n, 8)))
        # Measured 5.3e-15 to 7.6e-15; LAPACK's solve of the dense matrix
        # leaves 2.8e-15 to 5.2e-15.
        residual = (op.matrix - shift * np.eye(n)) @ y - x
        assert np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(x)

    @pytest.mark.parametrize("alpha", [0.3, 1.2, 1.9])
    @pytest.mark.parametrize("n", [385, 777, 1023, 1024])
    def test_schur_complement_matches_dense(self, n, alpha):
        op = assemble_operator(Grid(-1.0, 1.0, n), alpha, off_centre_well())
        k = n // 2
        shift = float(np.min(op.diagonal)) - float(op.column[0])
        delta = (op.diagonal[:k] - op.diagonal[::-1][:k]) / 2
        even = spectral._block_cholesky(spectral._parity_block(op, 1), shift)
        got = spectral._schur_complement(op, even, delta)
        assert np.array_equal(got, got.T)
        # H in the parity basis: E, O and the coupling Delta from op.matrix.
        blocks = parity_basis(n).T @ op.matrix @ parity_basis(n)
        e, coupling, o = blocks[:n - k, :n - k], blocks[n - k:, :n - k], blocks[n - k:, n - k:]
        want = o - coupling @ np.linalg.solve(e - shift * np.eye(n - k), coupling.T)
        # Measured 1.7e-16 to 2.3e-16. The subtracted term is 23 to 29% of
        # S at alpha 0.3, and 5e-7 to 5e-6 of it at 1.9.
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_matches_dense_eigh_at_the_sweeps_largest_solve(self, monkeypatch):
        # One matrix of 2048 unknowns: four levels of factor recursion.
        op = assemble_operator(Grid(-1.0, 1.0, 2048), 0.7, off_centre_well())
        self.assert_matches_dense(monkeypatch, op)

    def test_only_the_wanted_pairs_above_the_cut(self):
        pot = off_centre_well()
        for n, pairs in ((self.CUT, self.CUT), (self.CUT + 1, 6)):
            op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, pot)
            lam, vec = spectral._lowest_eigh(op.matrix, 6, 0.0)
            assert lam.size == pairs and vec.shape == (n, pairs)

    def test_widens_past_the_block_width_on_one_basis(self, monkeypatch):
        # k = 1 on a basis of block width 8 doubles to 16 before a pair
        # lies above lambda_10: one factor and one Krylov start.
        op = assemble_operator(Grid(-1.0, 1.0, 512), 1.2, off_centre_well())
        shift = float(np.min(np.diagonal(op.matrix))) - op.grid.h ** -1.2 * frac_coeffs(1.2, 1)[0]
        ref_lam, ref_vec = np.linalg.eigh(op.matrix)
        started = []
        krylov = spectral._krylov_lowest

        def starting(a, *args):
            started.append(a.shape[0])
            return krylov(a, *args)

        monkeypatch.setattr(spectral, "_krylov_lowest", starting)
        lam, vec = spectral._lowest_eigh(op.matrix, 1, shift, above=ref_lam[9])
        assert started == [512]
        assert 11 <= lam.size < 512
        floor = np.finfo(float).eps * np.max(np.sum(np.abs(op.matrix), axis=0))
        ref = ref_lam[:lam.size]
        assert np.all(np.abs(lam - ref) <= np.maximum(1e-11 * ref, floor))
        for j in range(lam.size):
            v, w = vec[:, j], ref_vec[:, j]
            assert min(np.max(np.abs(v - w)), np.max(np.abs(v + w))) <= 1e-9, j

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


def dense_factor(factor):
    """The n x n Cholesky factor L stored by _block_cholesky; a leaf holds L^(-1)."""
    if isinstance(factor, np.ndarray):
        assert np.array_equal(factor, np.tril(factor))
        return solve_triangular(factor, np.eye(factor.shape[0]), lower=True)
    l11, l21t, l22 = factor
    h = l21t.shape[0]
    out = np.zeros((h + l21t.shape[1],) * 2)
    out[:h, :h] = dense_factor(l11)
    out[h:, :h] = l21t.T
    out[h:, h:] = dense_factor(l22)
    return out


class TestBlockFactor:
    """The Cholesky factor stored by blocks, on uneven splits."""

    @pytest.mark.parametrize("n", [129, 385, 777, 1023, 1024])
    def test_inverts_the_shifted_matrix(self, n):
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, make_power_well(20.0, 2.0, (-1.0, 1.0)))
        shift = float(np.min(np.diagonal(op.matrix))) - op.grid.h ** -1.5 * frac_coeffs(1.5, 1)[0]
        shifted = op.matrix - shift * np.eye(n)
        factor = spectral._block_cholesky(op.matrix, shift)
        low = dense_factor(factor)
        assert np.array_equal(low, np.tril(low))
        eps = np.finfo(float).eps
        lam = np.linalg.eigvalsh(shifted)
        # Cholesky's backward error: measured 1.9 to 2.8 eps ||a - shift I||_2.
        assert np.linalg.norm(low @ low.T - shifted, 2) <= 5.0 * eps * lam[-1]
        # L^(-1) (a - shift I) L^(-T) through the two substitutions; its
        # rounding grows with the condition number: 0.03 to 0.08 eps kappa.
        inv_t = spectral._back(factor, np.eye(n), np.empty((n, n)))
        whitened = spectral._forward(factor, shifted @ inv_t, np.empty((n, n)))
        assert np.linalg.norm(whitened - np.eye(n), 2) <= eps * lam[-1] / lam[0]
        # Against LAPACK's triangular solves with the assembled L: measured
        # 2.9e-16 to 7.0e-16 relative.
        x = np.random.default_rng(n).standard_normal((n, 8))
        for solve, trans in ((spectral._forward, "N"), (spectral._back, "T")):
            got = solve(factor, x, np.empty((n, 8)))
            ref = solve_triangular(low, x, trans=trans, lower=True)
            assert np.linalg.norm(got - ref) <= 2e-15 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [385, 1024])
    def test_trailing_substitutions_are_rows_of_the_full_ones(self, n):
        # start at the top split h, inside each of its halves (and past the
        # splits within them), and at the last row; the full substitutions
        # see x zero above start. Measured equal bitwise in 19 of 20 cases,
        # 1.5e-16 in the last.
        op = assemble_operator(Grid(-1.0, 1.0, n), 1.5, make_power_well(20.0, 2.0, (-1.0, 1.0)))
        shift = float(np.min(op.diagonal)) - float(op.column[0])
        factor = spectral._block_cholesky(op.matrix, shift)
        h = n // 2
        for start in (0, h // 2 + 5, h, h + 3 * (n - h) // 4, n - 1):
            x = np.random.default_rng(start).standard_normal((n - start, 5))
            padded = np.zeros((n, 5))
            padded[start:] = x
            for solve in (spectral._forward, spectral._back):
                got = solve(factor, x, np.empty(x.shape), start)
                want = solve(factor, padded, np.empty(padded.shape))
                assert np.linalg.norm(got - want[start:]) <= 1e-15 * np.linalg.norm(want), start
            assert not np.any(spectral._forward(factor, padded, np.empty(padded.shape))[:start])

    def test_eigensolve_peak_memory(self):
        # H is never stored whole, and one parity block is alive at a time.
        # Measured: 0.58 N^2 off centre at alpha 0.7 and 0.547 at 1.2 (the
        # odd block, as its Schur complement, and the even block's factor),
        # and 0.471 N^2 on the power well at 1.2 and 1.5; the docs quote
        # the alpha 1.2 figures, which H built whole (1.0 N^2) or a second
        # parity block kept alive (+0.25 N^2) would take past 0.6. At m = 20
        # and alpha = 0.3 the Krylov basis and its image set the peak:
        # 1.29 N^2, against 1.67 when both were copied at every block step.
        n = 2048
        power = make_power_well(5.0, 2.0, (-1.0, 1.0))
        for alpha, pot, m, bound in ((0.7, off_centre_well(), 6, 0.7),
                                     (1.5, power, 6, 0.7),
                                     (1.2, off_centre_well(), 6, 0.6),
                                     (1.2, power, 6, 0.6),
                                     (0.3, off_centre_well(), 20, 1.4)):
            tracemalloc.start()
            try:
                eigensolve(assemble_operator(Grid(-1.0, 1.0, n), alpha, pot), m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 8 * n**2, (alpha, m)


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
        # m = 1 solves the even block for 1, 2 and 4 levels on one factor and
        # one Krylov basis; a new factor and basis for each gives the same bits.
        op = assemble_operator(Grid(-1.0, 1.0, 1023), 1.5, notch_well())
        built, started = [], []
        factor, lowest = spectral._block_cholesky, spectral._lowest_eigh
        krylov = spectral._krylov_lowest

        def counting(a, shift):
            built.append(a.shape[0])
            return factor(a, shift)

        def starting(a, *args):
            started.append(a.shape[0])
            return krylov(a, *args)

        def rebuilding(a, k, shift, above=-math.inf):
            lam, vec = lowest(a, k, shift)
            while lam.size < a.shape[0] and lam[-1] <= above:
                lam, vec = lowest(a, min(2 * lam.size, a.shape[0]), shift)
            return lam, vec

        monkeypatch.setattr(spectral, "_block_cholesky", counting)
        monkeypatch.setattr(spectral, "_krylov_lowest", starting)
        once = eigensolve(op, 1)
        assert [n for n in built if n > spectral._DENSE_MAX] == [511, 512]
        assert started == [511, 512]
        built.clear()
        started.clear()
        monkeypatch.setattr(spectral, "_lowest_eigh", rebuilding)
        again = eigensolve(op, 1)
        assert [n for n in built if n > spectral._DENSE_MAX] == [511, 512, 512, 512]
        assert started == [511, 512, 512, 512]
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

    def test_off_centre_ground_state_is_unimodal(self):
        # The well's minimum sits at x = 0.5, and phi_1 rises to its peak at
        # node 189 and falls after it: asymmetric, but unimodal.
        xs = np.linspace(-1.0, 1.0, 17)
        pot = make_tabulated(xs, 20.0 * np.abs(xs - 0.5) ** 2)
        res = eigensolve(assemble_operator(Grid(-1.0, 1.0, 256), 1.2, pot), 1)
        rep = ground_state_shape_check(res)
        assert rep.unimodality_error == 0.0
        assert rep.violation_index is None
        assert rep.symmetry_error > 0.5 and not rep.passed

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

    def test_growing_differences_fall_back_to_the_default_rate(self):
        # Differences 0.1 then 0.2 fit a rate of -1, which would extrapolate
        # from 1.3 down to 0.9, against the trend.
        levels = [(127, np.array([1.0])), (255, np.array([1.1])), (511, np.array([1.3]))]
        assert richardson(levels)[0] == richardson(levels[1:])[0] == pytest.approx(1.5)

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


class TestTorsion:
    """FD against the exact solution of (-Laplace)^(alpha/2) u = 1 on (-1, 1).

    The torsion function u = (1 - x^2)^(alpha/2) / Gamma(1 + alpha) (Getoor,
    Trans. AMS 101, 1961). FD's centre error is first order in h, and its
    max error, set by the boundary layer, falls like h^(alpha/2). Measured
    at N = 255 -> 511 -> 1023: the centre error is negative and its ratios
    lie in 1.9986..1.9999; the max-error ratios exceed 2^(alpha/2) by at
    most 0.12% (at alpha 0.6). The margins below are ~1.4x and ~4x those.
    """

    @pytest.mark.parametrize("alpha", [0.6, 1.0, 1.5, 1.9])
    def test_error_rates(self, alpha):
        centre, worst = [], []
        for n in (255, 511, 1023):
            op = assemble_operator(Grid(-1.0, 1.0, n), alpha, make_zero((-1.0, 1.0)))
            u = np.linalg.solve(op.matrix, np.ones(n))
            x = op.grid.nodes()
            err = u - (1.0 - x * x) ** (alpha / 2.0) / math.gamma(1.0 + alpha)
            centre.append(err[n // 2])
            worst.append(float(np.max(np.abs(err))))
        assert all(c < 0.0 for c in centre)
        for coarse, fine in zip(centre, centre[1:]):
            assert abs(coarse / fine - 2.0) <= 2e-3
        for coarse, fine in zip(worst, worst[1:]):
            assert abs(coarse / fine / 2.0 ** (alpha / 2.0) - 1.0) <= 5e-3
