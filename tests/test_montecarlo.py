"""Sampler laws, killed-path estimates, and kernel cross-checks."""

import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special, stats

from fracgap import cli, montecarlo
from fracgap.errors import DomainError
from fracgap.montecarlo import (
    PathConfig,
    cauchy_kernel_check,
    estimate_feynman_kac,
    gaussian_chain,
    make_rng,
    sample_stable_increment,
    sample_subordinator_increment,
)
from fracgap.potentials import (make_inverse_boundary_well, make_power_well,
                                make_tabulated, make_zero)
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
        arr = sample_subordinator_increment(0.5, 1.0, rng, size=1000)
        assert arr.shape == (1000,)
        assert np.all(arr > 0)

    def test_domain(self):
        rng = make_rng(1)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                sample_subordinator_increment(bad, 1.0, rng, size=1)
        with pytest.raises(DomainError):
            sample_subordinator_increment(0.5, 0.0, rng, size=1)


def stacked_cms(alpha, dt, rng, size):
    """The tan-based CMS draw written out in one piece, its three half
    angles stacked in one array: the reference for the bits of
    sample_stable_increment, whose transform the path loop shares."""
    v = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=size)
    w = rng.standard_exponential(size=size)
    half = np.empty((3, size))
    np.abs(v, out=half[0])
    half[0] *= -0.5
    np.multiply(half[0], abs(1.0 - alpha), out=half[1])
    half[:2] += 0.25 * math.pi
    np.multiply(v, 0.5 * alpha, out=half[2])
    tau = np.tan(half)
    sines = 2.0 * (tau / (tau * tau + 1.0))
    cos_v, cos_1a, sin_av = sines
    log_m = ((1.0 - alpha) / alpha) * np.log(cos_1a / w) - np.log(cos_v) / alpha
    return sin_av * np.exp(log_m) * dt ** (1.0 / alpha)


class TestStableSampler:
    def test_characteristic_function(self):
        # E cos(u X) = exp(-|u|^alpha) at unit time, within four standard errors.
        rng = make_rng(13)
        n = 200_000
        for alpha in (0.5, 1.0, 1.5, 1.9):
            x = sample_stable_increment(alpha, 1.0, rng, size=n)
            for u in (0.5, 1.0, 2.0):
                vals = np.cos(u * x)
                want = math.exp(-(u**alpha))
                se = float(np.std(vals, ddof=1)) / math.sqrt(n)
                assert abs(float(np.mean(vals)) - want) <= 4.0 * se, (alpha, u)

    def test_cauchy_at_alpha_one(self):
        x = sample_stable_increment(1.0, 1.0, make_rng(17), size=100_000)
        assert stats.kstest(x, stats.cauchy.cdf).statistic <= 0.01

    def test_dt_scaling_exact_pathwise(self):
        # Increments over dt are dt^(1/alpha) times unit-time increments,
        # exactly, for identical generator states.
        for alpha in (0.7, 1.0, 1.6):
            a = sample_stable_increment(alpha, 2.0, make_rng(3), size=64)
            b = sample_stable_increment(alpha, 1.0, make_rng(3), size=64)
            assert np.allclose(a, 2.0 ** (1.0 / alpha) * b, rtol=1e-13)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.5, 1.9])
    def test_matches_sin_cos_formula(self, alpha):
        # The draw takes its sines and cosines from np.tan of half angles;
        # the CMS formula with np.sin and np.cos, on the same V and W, agrees
        # to rounding. The tail comes from V next to +-pi/2, where
        # sin(pi/2 - |V|) takes pi/2 rounded to a float: a relative error
        # in cos V that grows as cos V shrinks.
        n = 10**6
        got = sample_stable_increment(alpha, 1.0, make_rng(19), size=n)
        rng = make_rng(19)
        v = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, size=n)
        w = rng.standard_exponential(size=n)
        log_m = (((1.0 - alpha) / alpha) * np.log(np.cos((1.0 - alpha) * v) / w)
                 - np.log(np.cos(v)) / alpha)
        want = np.sin(alpha * v) * np.exp(log_m)
        finite = np.isfinite(want)
        assert np.all(np.isfinite(got[finite]))
        nonzero = finite & (want != 0.0)
        rel = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
        assert np.median(rel) <= 1e-15
        assert np.percentile(rel, 99.99) <= 1e-11

    @pytest.mark.parametrize("alpha", [0.1, 0.7, 1.0, 1.5, 1.9])
    def test_matches_stacked_reference_bitwise(self, alpha):
        for size in (1, 7, 4099):
            got = sample_stable_increment(alpha, 0.3, make_rng(23), size=size)
            want = stacked_cms(alpha, 0.3, make_rng(23), size)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), size

    def test_return_types(self):
        rng = make_rng(5)
        arr = sample_stable_increment(1.5, 1.0, rng, size=1000)
        assert arr.shape == (1000,)
        assert np.all(np.isfinite(arr))

    def test_domain(self):
        rng = make_rng(1)
        for bad in (0.0, 2.0, -0.5):
            with pytest.raises(DomainError):
                sample_stable_increment(bad, 1.0, rng, size=1)
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                sample_stable_increment(1.5, bad, rng, size=1)


def masked_loop(x, potential, cfg, n_paths):
    """Per-point killed-path values written out literally, block by block:
    block j holds the next montecarlo._PATH_BLOCK paths and draws from
    Philox(seed) jumped j times. Gather the living paths, add their
    potential, step all paths, kill the ones that left (a + delta, b -
    delta), delta the kill shift; the sums are scaled by dt once, at the
    end."""
    a, b = cfg.interval
    dt = cfg.t_final / cfg.n_steps
    delta = montecarlo._kill_shift(cfg.alpha, dt)
    out = np.zeros(n_paths)
    for j, start in enumerate(range(0, n_paths, montecarlo._PATH_BLOCK)):
        n = min(montecarlo._PATH_BLOCK, n_paths - start)
        rng = np.random.Generator(np.random.Philox(cfg.seed).jumped(j))
        free = np.zeros(n)
        alive = np.full(n, a + delta < x < b - delta)
        v_sum = np.zeros(n)
        for _ in range(cfg.n_steps):
            pos = x + free
            v_sum[alive] += potential(pos[alive])
            free += sample_stable_increment(cfg.alpha, dt, rng, size=n)
            alive &= (x + free > a + delta) & (x + free < b - delta)
        out[start:start + n][alive] = np.exp(-(v_sum[alive] * dt))
    return out


class TestCommonRandomNumbers:
    WELLS = (
        make_power_well(5.0, 2.0, (-1.0, 1.0)),
        make_power_well(2.0, 1.5, (-1.0, 1.0), offset=0.3),
        make_inverse_boundary_well(0.6, 1.2, (-1.0, 1.0)),
        make_tabulated([-1.0, -0.4, 0.0, 0.4, 1.0], [4.0, 1.0, 0.0, 1.0, 4.0]),
    )

    def test_batch_equals_points_run_alone(self):
        cfg = PathConfig(1.3, 0.3, 48, (-1.0, 1.0), seed=21)
        xs = np.array([-0.7, -0.1, 0.0, 0.45, 0.9])
        for pot in self.WELLS:
            batch = estimate_feynman_kac(xs, pot, cfg, 3000)
            for x, est in zip(xs, batch):
                assert estimate_feynman_kac([x], pot, cfg, 3000)[0] == est

    def test_matches_masked_per_point_loop_bitwise(self):
        # One block, and three blocks whose last holds one path; a single
        # point is split across blocks too.
        xs = np.array([-0.8, -0.2, 0.3, 0.85])
        for n in (2000, 2001, 2 * montecarlo._PATH_BLOCK + 1):
            for alpha in (0.7, 1.5):
                cfg = PathConfig(alpha, 0.4, 40, (-1.0, 1.0), seed=8)
                for pot in self.WELLS:
                    ests = estimate_feynman_kac(xs, pot, cfg, n)
                    ests += estimate_feynman_kac(xs[:1], pot, cfg, n)
                    for x, est in zip([*xs, xs[0]], ests):
                        vals = masked_loop(x, pot, cfg, n)
                        assert 0.0 < est.mean < 1.0
                        assert est.mean == float(np.mean(vals)), (n, alpha, pot.kind, x)
                        assert est.stderr == float(np.std(vals, ddof=1) / math.sqrt(n))

    @pytest.mark.parametrize("n_steps", [1, montecarlo._STEP_GROUP - 1,
                                         4 * montecarlo._STEP_GROUP + 1])
    def test_uneven_step_groups_match_masked_loop_bitwise(self, n_steps):
        # The increments are formed _STEP_GROUP steps at a time; these runs
        # end on a shorter group, over two full blocks and one of one path.
        xs = np.array([-0.8, 0.3, 0.85])
        n = 2 * montecarlo._PATH_BLOCK + 1
        for alpha in (0.7, 1.5):
            cfg = PathConfig(alpha, 0.4, n_steps, (-1.0, 1.0), seed=8)
            for pot in self.WELLS:
                for x, est in zip(xs, estimate_feynman_kac(xs, pot, cfg, n)):
                    vals = masked_loop(x, pot, cfg, n)
                    assert est.mean == float(np.mean(vals)), (n_steps, alpha, pot.kind, x)
                    assert est.stderr == float(np.std(vals, ddof=1) / math.sqrt(n))

    @pytest.mark.parametrize("outside", [math.nan, math.inf])
    def test_potential_undefined_outside_matches_masked_loop(self, outside):
        # Only killed (point, path) pairs are evaluated outside the interval,
        # and their sums are discarded.
        well = self.WELLS[0]
        hits = []

        def pot(x):
            inside = np.abs(x) < 1.0
            hits.append(not np.all(inside))
            return np.where(inside, well(x), outside)

        cfg = PathConfig(1.5, 0.4, 40, (-1.0, 1.0), seed=8)
        xs = np.array([-0.8, -0.2, 0.3, 0.85])
        n = 2 * montecarlo._PATH_BLOCK + 1
        ests = estimate_feynman_kac(xs, pot, cfg, n)
        assert any(hits)
        for x, est in zip(xs, ests):
            vals = masked_loop(x, pot, cfg, n)
            assert est.mean == float(np.mean(vals)), x
            assert est.stderr == float(np.std(vals, ddof=1) / math.sqrt(n)), x

    def test_potential_infinite_inside_raises(self):
        # Paths from 0 that survive 8 short steps start inside |x| < 0.5.
        def pot(x):
            return np.where(np.abs(x) < 0.5, math.inf, 0.0)

        cfg = PathConfig(1.5, 0.1, 8, (-1.0, 1.0), seed=3)
        with pytest.raises(DomainError, match="summed along some path is not finite"):
            estimate_feynman_kac([-0.8, 0.0], pot, cfg, 2000)

    def test_small_alpha_finite_without_warnings(self):
        pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
        xs = np.linspace(-0.9, 0.9, 7)
        for alpha in (0.1, 0.3):
            cfg = PathConfig(alpha, 0.25, 64, (-1.0, 1.0), seed=5)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                ests = estimate_feynman_kac(xs, pot, cfg, 5000)
            for est in ests:
                assert math.isfinite(est.mean) and math.isfinite(est.stderr)
                assert 0.0 <= est.mean <= 1.0


# A well of each family, with offsets; the (5, 2) power well is the pipeline's.
FAMILIES = (make_zero((-1.0, 1.0), offset=0.3), *TestCommonRandomNumbers.WELLS)
FAMILY_IDS = ("zero", "power", "power-offset", "inverse", "tabulated")


class TestWorkerThreads:
    """Blocks of paths run start to finish in worker threads."""

    CFG = PathConfig(1.3, 0.3, 24, (-1.0, 1.0), seed=17)
    XS = np.array([-0.6, 0.0, 0.35])

    def test_estimates_independent_of_cpu_count(self, monkeypatch):
        # Three blocks on 1, 2 and 8 workers with frequent thread switches:
        # a lost or misplaced block would change the estimates.
        n_paths = 2 * montecarlo._PATH_BLOCK + 1
        defaults = [estimate_feynman_kac(self.XS, pot, self.CFG, n_paths)
                    for pot in FAMILIES]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_cpu in (1, 2, 8):
                monkeypatch.setattr(montecarlo, "_cpu_count", lambda n=n_cpu: n)
                for pot, default in zip(FAMILIES, defaults):
                    assert estimate_feynman_kac(self.XS, pot, self.CFG, n_paths) == default, \
                        (n_cpu, pot.kind)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("pot", FAMILIES, ids=FAMILY_IDS)
    def test_working_set_within_the_cli_estimate(self, monkeypatch, pot):
        # The sums are the only n_points x n_paths array kept between steps,
        # and the draws add arrays of n_paths that do not grow with n_points:
        # they are the whole working set at one point. In one block every
        # path is in flight, which is where the gate is tightest.
        cfg = PathConfig(1.5, 0.1, 3, (-1.0, 1.0), seed=2)
        # The first call in a process imports the thread pool.
        estimate_feynman_kac([0.0], pot, cfg, 2)
        sizes = (montecarlo._PATH_BLOCK, 20_000)
        for n_paths, n_cpu in itertools.product(sizes, (1, 2, 8)):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda n=n_cpu: n)
            peaks = {}
            for n_points in (1, 3, 21):
                xs = np.linspace(-1.0, 1.0, n_points + 2)[1:-1]
                tracemalloc.start()
                try:
                    estimate_feynman_kac(xs, pot, cfg, n_paths)
                    peaks[n_points] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peaks[n_points] <= cli._mc_working_bytes(n_points, n_paths), \
                    (n_paths, n_points, n_cpu, peaks)
            # With 3 of 5 blocks in flight, a further start point costs
            # about two arrays of n_paths: its sums, and its positions and
            # values on those blocks. In one block it costs about 4.
            if n_paths == 20_000:
                assert peaks[21] - peaks[1] <= 20 * 3 * 8 * n_paths, (n_cpu, peaks)

    def test_fewer_paths_than_blocks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 4)
        pot = TestCommonRandomNumbers.WELLS[0]
        est = estimate_feynman_kac(self.XS[1:2], pot, self.CFG, 2)[0]
        vals = masked_loop(0.0, pot, self.CFG, 2)
        assert est.mean == float(np.mean(vals))
        assert est.stderr == float(np.std(vals, ddof=1) / math.sqrt(2))

    def test_worker_error_reaches_caller_and_threads_end(self):
        baseline = threading.active_count()
        lock = threading.Lock()
        calls = []

        def failing(x):
            with lock:
                calls.append(x.shape)
                if len(calls) == 3:
                    raise ArithmeticError("third call")
            return np.zeros_like(x)

        with pytest.raises(ArithmeticError, match="third call"):
            estimate_feynman_kac(self.XS, failing, self.CFG, 2000)
        assert threading.active_count() == baseline

    def test_error_drops_blocks_not_started(self, monkeypatch):
        # One worker, 16 blocks: once the first block fails, the blocks the
        # worker has not taken yet never call the potential.
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
        calls = []

        def failing(x):
            calls.append(x.shape)
            time.sleep(0.01)
            raise ArithmeticError("always")

        with pytest.raises(ArithmeticError, match="always"):
            estimate_feynman_kac([0.0], failing, self.CFG, 16 * montecarlo._PATH_BLOCK)
        assert len(calls) < 16

    def test_workers_keep_the_callers_errstate(self):
        # x**400 overflows at |x| > 5.9; under over="raise" that must raise
        # in a worker thread as it does on the calling thread.
        pot = make_power_well(1.0, 400.0, (-10.0, 10.0))
        cfg = PathConfig(1.5, 0.1, 4, (-10.0, 10.0), seed=3)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                estimate_feynman_kac(np.array([0.0, 8.0]), pot, cfg, 100)


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
        # Each seed used to construct; -3 then failed in the first block as
        # a bare ValueError from Philox, and 1.5 as a TypeError.
        for seed in (-3, 1.5, True, "7", None):
            with pytest.raises(DomainError, match=r"^seed must be (an integer|>= 0), got "):
                PathConfig(1.5, 0.25, 8, (-1.0, 1.0), seed)
        PathConfig(1.5, 0.25, 8, (-1.0, 1.0), np.int64(3))


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

    def test_nan_start_rejected(self):
        # NaN fails every comparison, so it is not counted as killed at t = 0.
        cfg = PathConfig(1.5, 0.25, 8, (-1.0, 1.0), seed=1)
        with pytest.raises(DomainError, match="strictly inside"):
            estimate_feynman_kac([math.nan, 0.0], FREE, cfg, 100)

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


def fd_semigroup_on_one(alpha, potential, n, t, xs):
    """(e^(-tH) 1)(xs) for the FD operator on (-1, 1) at an even N = n and a
    symmetric potential, linear between the nodes and 0 at the ends.

    1 is even, so only H's even block acts on it: in the orthonormal
    basis (e_i + e_(n-1-i)) / sqrt 2, i < n/2, that block is H[i, j] +
    H[i, n-1-j], and 1 has coefficients sqrt 2, so the left half of
    e^(-tH) 1 is Q e^(-t Lambda) Q^T 1 over the block's eigenpairs.
    """
    h = assemble_operator(Grid(-1.0, 1.0, n), alpha, potential).matrix
    m = n // 2
    lam, q = np.linalg.eigh(h[:m, :m] + h[:m, ::-1][:, :m])
    left = q @ (np.exp(-t * lam) * q.sum(axis=0))
    nodes = Grid(-1.0, 1.0, n).nodes()
    u = np.concatenate([[0.0], left, left[::-1], [0.0]])
    return np.interp(xs, np.concatenate([[-1.0], nodes, [1.0]]), u)


class TestKillShift:
    """Paths are killed on leaving (a + delta, b - delta) at grid times."""

    def test_zeta_matches_scipy(self):
        for s in (1e-9, 0.01, 0.1, 0.2, 1.0 / 3.0, 0.4, 0.45, 0.5):
            assert montecarlo._zeta(s) == pytest.approx(special.zeta(s), rel=1e-14), s

    def test_constant_at_one_and_a_half(self):
        # delta / dt^(1/alpha) = -zeta(1/3) Gamma(1/3) / pi = 0.8300 at alpha 1.5.
        c = montecarlo._kill_shift(1.5, 1.0)
        assert c == pytest.approx(-special.zeta(1.0 / 3.0) * special.gamma(1.0 / 3.0) / math.pi,
                                  rel=1e-13)
        assert round(c, 4) == 0.8300
        assert montecarlo._kill_shift(1.5, 1e-3) == pytest.approx(c * 1e-2, rel=1e-13)

    def test_brownian_limit(self):
        # At alpha = 2, -zeta(1/2) / sqrt(pi) sqrt(dt) = 0.8239 sqrt(dt):
        # Broadie, Glasserman and Kou's shift 0.5826 sigma sqrt(dt) with
        # sigma^2 = 2, the variance of exp(-dt |u|^2).
        for dt in (1e-2, 2.0**-9):
            for alpha in (2.0 - 1e-6, 2.0):
                delta = montecarlo._kill_shift(alpha, dt)
                assert delta == pytest.approx(0.5826 * math.sqrt(2.0 * dt), rel=1e-4)
                assert delta == pytest.approx(0.8239 * math.sqrt(dt), rel=1e-4)

    def test_no_shift_below_the_range(self):
        low = montecarlo._KILL_SHIFT_ALPHA
        for alpha in (0.3, 1.0, 1.2, math.nextafter(low, 0.0)):
            assert montecarlo._kill_shift(alpha, 1e-3) == 0.0, alpha
        assert montecarlo._kill_shift(low, 1e-3) > 0.0

    def test_shift_of_a_quarter_interval_refused(self):
        # One step over t = 10 at alpha 1.9 moves each kill boundary 2.72
        # inward on (-1, 1), past the middle: every path was killed, and the
        # estimates read 0 with standard error 0 at every point.
        cfg = PathConfig(1.9, 10.0, 1, (-1.0, 1.0), 1)
        with pytest.raises(DomainError, match=r"^t_final / n_steps = 10 moves each kill "
                                              r"boundary 2\.72426 inward, not under a quarter"):
            estimate_feynman_kac([-0.5, 0.0, 0.5], FREE, cfg, 100)

    # Means and standard errors as hex floats, from the plain grid-time
    # kill rule before the shift existed.
    PLAIN_BITS = {
        0.7: [("0x1.f131657b46abfp-3", "0x1.92d83ec38f51ep-9"),
              ("0x1.970c95191e8d2p-1", "0x1.56a70021aa1bdp-8"),
              ("0x1.02b800acb633dp-1", "0x1.0435007a10fe2p-8")],
        1.2: [("0x1.5ab2ff59dee79p-3", "0x1.d4dd96671e741p-9"),
              ("0x1.894d824d852acp-1", "0x1.486154b228c93p-8"),
              ("0x1.e1fcd9b773609p-2", "0x1.303bc27cfa03cp-8")],
        1.45: [("0x1.3535b4bdac376p-3", "0x1.e5519dfe1c4c8p-9"),
               ("0x1.7b5393be776c9p-1", "0x1.4a0b0a7f69c6fp-8"),
               ("0x1.c17bc47089172p-2", "0x1.495cd7d98712fp-8")],
    }

    @pytest.mark.parametrize("alpha", list(PLAIN_BITS))
    def test_bits_unchanged_below_the_range(self, alpha):
        assert montecarlo._kill_shift(alpha, 0.25 / 32) == 0.0
        pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
        cfg = PathConfig(alpha, 0.25, 32, (-1.0, 1.0), seed=12345)
        ests = estimate_feynman_kac([-0.9, 0.0, 0.6], pot, cfg, 5000)
        assert [(e.mean.hex(), e.stderr.hex()) for e in ests] == self.PLAIN_BITS[alpha]

    def test_default_config_within_the_fd_oracle(self):
        # The CLI's default simulate run (zero well, alpha 1.5, t 0.25, 21
        # points, 20 000 paths, seed 12345) against e^(-tH) 1 from FD at N
        # = 1024 and 2048, extrapolated linearly in h; the oracle's error
        # is taken as its move between the two. Killed at grid times of
        # 256 steps with no shift, 3 points lay past 3 SE (max |z| 4.19).
        cfg = cli._resolve_config({"command": "simulate"}, None, None)
        path_cfg = cli._path_config(cfg)
        assert montecarlo._kill_shift(path_cfg.alpha, 1.0) > 0.0
        xs = np.linspace(-1.0, 1.0, cfg["mc"]["n_points"] + 2)[1:-1]
        coarse, fine = (fd_semigroup_on_one(path_cfg.alpha, FREE, n, path_cfg.t_final, xs)
                        for n in (1024, 2048))
        oracle = fine + (fine - coarse) * (1025 / 1024)
        oracle_error = np.abs(fine - coarse)
        assert np.max(oracle_error) <= 3e-4
        ests = estimate_feynman_kac(xs, FREE, path_cfg, cfg["mc"]["n_paths"])
        means = np.array([e.mean for e in ests])
        ses = np.array([e.stderr for e in ests])
        assert np.all(np.abs(means - oracle) <= 3.0 * (ses + oracle_error))


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
        for xs in ([], 0.0, [[0.0, 0.1]]):
            with pytest.raises(DomainError, match="x_points must be a nonempty 1d array"):
                gaussian_chain(xs, [0.1], [0.05], FREE)
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.1, 0.2], [0.1], FREE)
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.1, 0.2, 0.3], [0.1, 0.2, 0.3], FREE)
        with pytest.raises(DomainError):
            gaussian_chain([0.0], [0.0], [0.1], FREE)
        # inf and nan potential times used to pass and gave nan values.
        for t in (-0.1, math.inf, math.nan):
            with pytest.raises(DomainError, match="^potential times must be finite and >= 0"):
                gaussian_chain([-0.5, 0.0, 0.5], [0.1], [t], FREE)

    @pytest.mark.parametrize("interval", [(0.0, 1e-300), (-1e300, 1e300)])
    def test_underflow_to_zero_rejected(self, interval):
        # Two layers of weights near 1e-300, or Gaussian kernels over a
        # spacing near 1e298 (whose squares overflow), leave every value 0.
        xs = np.linspace(*interval, 5)[1:-1]
        with pytest.raises(DomainError, match="kernel chain values underflow to 0"), \
                np.errstate(over="ignore"):
            gaussian_chain(xs, [0.1, 0.15], [0.05, 0.08], make_zero(interval))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_start_rejected(self, bad):
        with pytest.raises(DomainError, match="x_points must be finite"):
            gaussian_chain([bad, 0.0], [0.1], [0.05], FREE)


def unimodal_excess_loop(values, slack):
    """The per-pair loop that the CLI's Monte Carlo check used to run."""
    peak = int(np.argmax(values))
    worst = 0.0
    for i in range(len(values) - 1):
        gap = values[i] - values[i + 1] if i < peak else values[i + 1] - values[i]
        worst = max(worst, gap - (slack[i] if np.ndim(slack) else slack))
    return worst


# Few distinct values, so ties (and ties with the maximum) are common.
PROFILES = st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.25, 3.0]), min_size=1, max_size=12)


class TestUnimodalExcess:
    # The examples put the peak at either end.
    @given(PROFILES, st.sampled_from([0.0, 0.25, 1.0]))
    @example([3.0, 1.0, 0.5, 1.0], 0.25)
    @example([0.0, 1.0, 0.5, 3.0], 0.0)
    def test_matches_loop_scalar_slack(self, values, slack):
        got = montecarlo._unimodal_excess(values, slack)
        assert got == unimodal_excess_loop(values, slack)
        assert math.copysign(1.0, got) == 1.0

    @given(PROFILES.flatmap(lambda v: st.tuples(
        st.just(v), st.lists(st.sampled_from([0.0, 0.25, 0.5]),
                             min_size=len(v) - 1, max_size=len(v) - 1))))
    @example(([3.0, 0.0, 1.0], [0.5, 0.25]))
    @example(([0.0, 1.25, 1.0, 3.0], [0.0, 0.5, 0.25]))
    def test_matches_loop_per_pair_slack(self, case):
        values, slack = case
        got = montecarlo._unimodal_excess(values, np.array(slack))
        assert got == unimodal_excess_loop(values, slack)
        assert math.copysign(1.0, got) == 1.0


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

