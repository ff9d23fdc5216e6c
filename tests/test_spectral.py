"""Discretization and eigensolver checks, including exact classical oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracgap.errors import DomainError
from fracgap.potentials import make_power_well, make_zero
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
        bad = lambda x: np.where(np.abs(x) < 0.01, np.inf, 0.0)
        with pytest.raises(DomainError, match="not finite at node"):
            assemble_operator(Grid(-1.0, 1.0, 33), 1.5, bad)

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
        want[i, i] += pot(grid.nodes())
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

    def test_near_degenerate_pair_labeled_mixed(self):
        mat = np.array([[1.0, -1e-13], [-1e-13, 1.0]])
        op = OperatorMatrix(mat, Grid(0.0, 3.0, 2), 1.5, make_zero((0.0, 3.0)))
        res = eigensolve(op, 2)
        assert res.parities == ("mixed", "mixed")

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

    def test_missing_antisymmetric_raises(self):
        op = assemble_operator(Grid(-1.0, 1.0, 64), 1.5, make_zero((-1.0, 1.0)))
        res = eigensolve(op, 1)
        with pytest.raises(LookupError):
            lambda_star(res)


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
