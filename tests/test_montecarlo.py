"""Sampler laws, killed-path estimates, and kernel cross-checks."""

import math

import numpy as np
import pytest
from scipy import special, stats

from fracgap.errors import DomainError
from fracgap.montecarlo import (
    PathConfig,
    cauchy_kernel_check,
    estimate_feynman_kac,
    estimates_csv_rows,
    gaussian_chain,
    make_rng,
    sample_subordinator_increment,
)
from fracgap.potentials import make_power_well, make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve

FREE = make_zero((-1.0, 1.0))


def eigen_series(result, x, t, m):
    """Semigroup applied to 1 via the eigenexpansion, evaluated at x."""
    h = result.grid.h
    acc = 0.0
    for k in range(m):
        phi = result.eigenvectors[:, k]
        acc += (math.exp(-result.eigenvalues[k] * t)
                * np.interp(x, result.grid.nodes(), phi) * (h * phi.sum()))
    return acc


class TestSubordinatorSampler:
    def test_laplace_transform(self):
        # E exp(-u S) = exp(-dt u^rho), checked within four standard errors.
        rng = make_rng(7)
        n = 200_000
        for rho in (0.4, 0.5, 0.75):
            s = sample_subordinator_increment(rho, 1.0, rng, size=n)
            for u in (0.5, 1.0, 2.0):
                vals = np.exp(-u * s)
                want = math.exp(-(u**rho))
                se = float(np.std(vals, ddof=1)) / math.sqrt(n)
                assert abs(float(np.mean(vals)) - want) <= 4.0 * se, (rho, u)

    def test_half_index_distribution(self):
        # For rho = 1/2 the law is explicit: P(S <= s) = erfc(1 / (2 sqrt(s))).
        rng = make_rng(11)
        s = sample_subordinator_increment(0.5, 1.0, rng, size=100_000)
        ks = stats.kstest(s, lambda v: special.erfc(1.0 / (2.0 * np.sqrt(v))))
        assert ks.statistic <= 0.01

    def test_dt_scaling_exact_pathwise(self):
        # Increments over dt are dt^(1/rho) times unit-time increments,
        # exactly, for identical generator states.
        for rho in (0.4, 0.6):
            a = sample_subordinator_increment(rho, 2.0, make_rng(3), size=64)
            b = sample_subordinator_increment(rho, 1.0, make_rng(3), size=64)
            assert np.allclose(a, 2.0 ** (1.0 / rho) * b, rtol=1e-13)

    def test_return_types_and_positivity(self):
        rng = make_rng(5)
        one = sample_subordinator_increment(0.5, 1.0, rng)
        assert isinstance(one, float) and one > 0
        arr = sample_subordinator_increment(0.5, 1.0, rng, size=1000)
        assert arr.shape == (1000,)
        assert np.all(arr > 0)

    def test_domain(self):
        rng = make_rng(1)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                sample_subordinator_increment(bad, 1.0, rng)
        with pytest.raises(DomainError):
            sample_subordinator_increment(0.5, 0.0, rng)


class TestPathConfig:
    def test_gating(self):
        with pytest.raises(DomainError):
            PathConfig(2.0, 1.0, 8, (-1.0, 1.0), 0)
        with pytest.raises(DomainError):
            PathConfig(1.0, 0.0, 8, (-1.0, 1.0), 0)
        with pytest.raises(DomainError):
            PathConfig(1.0, 1.0, 0, (-1.0, 1.0), 0)
        with pytest.raises(DomainError):
            PathConfig(1.0, 1.0, 8, (1.0, -1.0), 0)


class TestFeynmanKac:
    def test_deterministic_for_fixed_seed(self):
        cfg = PathConfig(1.5, 0.25, 32, (-1.0, 1.0), seed=123)
        xs = np.array([-0.5, 0.0, 0.5])
        a = estimate_feynman_kac(xs, FREE, cfg, n_paths=500)
        b = estimate_feynman_kac(xs, FREE, cfg, n_paths=500)
        assert all(u == v for u, v in zip(a, b))

    def test_constant_potential_factorizes_exactly(self):
        # V = c multiplies every surviving path weight by exp(-c t) with the
        # same seed, since the kill pattern is shared draw for draw.
        cfg = PathConfig(1.5, 0.5, 64, (-1.0, 1.0), seed=9)
        xs = np.array([0.0, 0.4])
        free = estimate_feynman_kac(xs, FREE, cfg, n_paths=2000)
        shifted = estimate_feynman_kac(
            xs, make_zero((-1.0, 1.0), offset=0.7), cfg, n_paths=2000)
        for u, v in zip(free, shifted):
            assert v.mean == pytest.approx(math.exp(-0.7 * 0.5) * u.mean, rel=1e-12)

    def test_short_horizon_survival_near_one(self):
        cfg = PathConfig(1.5, 1e-4, 4, (-1.0, 1.0), seed=42)
        est = estimate_feynman_kac(np.array([0.0]), FREE, cfg, n_paths=4000)[0]
        assert est.mean >= 0.999

    def test_means_bounded_for_nonnegative_potential(self):
        pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
        cfg = PathConfig(1.2, 0.5, 32, (-1.0, 1.0), seed=4)
        for est in estimate_feynman_kac(np.linspace(-0.8, 0.8, 5), pot, cfg, 2000):
            assert 0.0 <= est.mean <= 1.0
            assert est.stderr >= 0.0
            assert est.n_paths == 2000

    def test_symmetric_points_agree_statistically(self):
        cfg = PathConfig(1.0, 0.5, 64, (-1.0, 1.0), seed=14)
        lo, hi = estimate_feynman_kac(np.array([-0.3, 0.3]), FREE, cfg, 20_000)
        assert abs(lo.mean - hi.mean) <= 3.0 * (lo.stderr + hi.stderr)

    def test_start_must_be_interior(self):
        cfg = PathConfig(1.5, 0.25, 8, (-1.0, 1.0), seed=0)
        with pytest.raises(DomainError):
            estimate_feynman_kac(np.array([1.0]), FREE, cfg, 100)
        with pytest.raises(DomainError):
            estimate_feynman_kac(np.array([0.0]), FREE, cfg, 1)

    def test_survival_matches_eigenexpansion(self):
        # Independent oracle: semigroup series from the matrix eigensolve,
        # extrapolated over N in {512, 1024}. The pad on the standard error
        # covers the oracle's own discretization error.
        t = 0.25
        series_vals = []
        for n in (512, 1024):
            r = eigensolve(assemble_operator(Grid(-1.0, 1.0, n), 1.0, FREE), 20)
            series_vals.append(eigen_series(r, 0.0, t, 20))
        oracle = series_vals[1] + (series_vals[1] - series_vals[0])
        cfg = PathConfig(1.0, t, 512, (-1.0, 1.0), seed=31)
        est = estimate_feynman_kac(np.array([0.0]), FREE, cfg, 200_000)[0]
        assert abs(est.mean - oracle) <= 3.0 * (est.stderr + 1.5e-4)

    def test_kill_bias_small_at_unit_horizon(self):
        # Grid-time killing biases survival upward; at 512 steps the bias
        # stays inside three combined standard deviations.
        series_vals = []
        for n in (512, 1024):
            r = eigensolve(assemble_operator(Grid(-1.0, 1.0, n), 1.0, FREE), 20)
            series_vals.append(eigen_series(r, 0.0, 1.0, 20))
        oracle = series_vals[1] + (series_vals[1] - series_vals[0])
        cfg = PathConfig(1.0, 1.0, 512, (-1.0, 1.0), seed=77)
        est = estimate_feynman_kac(np.array([0.0]), FREE, cfg, 200_000)[0]
        assert est.mean - oracle >= -3.0 * est.stderr
        assert abs(est.mean - oracle) <= 3.0 * (est.stderr + 2e-4)

    def test_long_run_profile_tracks_ground_state(self):
        # At t = 4 / gap the free profile is proportional to the ground
        # state up to Monte Carlo noise and kill bias.
        r = eigensolve(assemble_operator(Grid(-1.0, 1.0, 512), 1.5, FREE), 2)
        gap = r.eigenvalues[1] - r.eigenvalues[0]
        xs = np.linspace(-0.9, 0.9, 21)
        cfg = PathConfig(1.5, 4.0 / gap, 256, (-1.0, 1.0), seed=88)
        ests = estimate_feynman_kac(xs, FREE, cfg, 30_000)
        prof = np.array([e.mean for e in ests])
        phi = np.interp(xs, r.grid.nodes(), r.eigenvectors[:, 0])
        assert np.corrcoef(prof, phi)[0, 1] >= 0.99


class TestGaussianChain:
    def test_free_single_layer_matches_gaussian_mass(self):
        # With V = 0 the chain value is the N(0, 2s) mass of the interval.
        s = 0.13
        xs = np.array([-0.5, 0.0, 0.7])
        rep = gaussian_chain(xs, [s], [0.0], FREE)
        scale = math.sqrt(4.0 * s)
        want = [0.5 * (math.erf((1.0 - x) / scale) - math.erf((-1.0 - x) / scale))
                for x in xs]
        assert np.allclose(rep.values, want, rtol=1e-10)

    def test_two_layer_well_chain_unimodal_and_symmetric(self):
        pot = make_power_well(3.0, 2.0, (-1.0, 1.0))
        xs = np.linspace(-0.95, 0.95, 41)
        rep = gaussian_chain(xs, [0.1, 0.2], [0.3, 0.4], pot)
        assert rep.unimodal
        assert rep.max_violation <= 1e-10
        assert np.allclose(rep.values, rep.values[::-1], rtol=1e-11)

    def test_validation(self):
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.1, 0.2], [0.1], FREE)
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], FREE)
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.0], [0.1], FREE)
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.1], [-0.1], FREE)


class TestCauchyKernel:
    def test_unit_time_against_exact_density(self):
        # p_1(0) = 1/pi and p_1(1) = 1/(2 pi) for the alpha = 1 kernel.
        rep = cauchy_kernel_check(1.0, np.array([0.0, 1.0]))
        assert rep.passed
        assert rep.max_deviation_sigmas <= 3.0
        assert rep.exact[0] == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert rep.exact[1] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
        assert rep.envelope_ratio >= 1.0
        assert rep.envelope_ratio < 10.0

    def test_half_time_grid(self):
        rep = cauchy_kernel_check(0.5, np.array([0.0, 0.25, 0.5, 1.0, 2.0]),
                                  n_samples=400_000, seed=11)
        assert rep.passed

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_kernel_check(0.0, np.array([0.0]))
        with pytest.raises(DomainError):
            cauchy_kernel_check(1.0, np.array([0.0]), n_samples=1)


class TestCsvRows:
    def test_header_and_rows(self):
        cfg = PathConfig(1.5, 0.25, 8, (-1.0, 1.0), seed=2)
        ests = estimate_feynman_kac(np.array([0.0, 0.5]), FREE, cfg, 100)
        header, rows = estimates_csv_rows(ests)
        assert header == ["x", "mean", "stderr", "n_paths"]
        assert len(rows) == 2
        assert rows[0][0] == 0.0
        assert rows[1][3] == 100
