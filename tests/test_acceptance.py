"""End-to-end acceptance suite.

One test per advertised guarantee, at the advertised tolerances. Each test
prints a PASS line with the measured numbers so a verbose run doubles as a
verification report. Campaign draws are Philox-seeded and fully
deterministic.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fracgap.forms import gap_bounds, rayleigh_gap
from fracgap.montecarlo import (
    PathConfig,
    cauchy_kernel_check,
    estimate_feynman_kac,
    gaussian_chain,
    make_rng,
    sample_subordinator_increment,
)
from fracgap.numerics import levy_constant
from fracgap.poincare import (
    PiecewiseLinear,
    counterexample_scan,
    poincare_check,
    poincare_constant,
    random_piecewise_linear,
    weighted_poincare_check,
    witness_search,
)
from fracgap.potentials import make_power_well, make_zero
from fracgap.spectral import (
    Grid,
    assemble_operator,
    boundary_decay_check,
    eigensolve,
    ground_state_shape_check,
    lambda_star,
    richardson,
)

CAMPAIGN_SEED = 20260115


def report(name, detail):
    # Reached only when every assertion above it held.
    print(f"PASS {name}: {detail}")


def solve(alpha, interval, potential, n, m=6):
    op = assemble_operator(Grid(interval[0], interval[1], n), alpha, potential)
    return eigensolve(op, m)


@pytest.fixture(scope="module")
def random_well_campaign():
    """20 deterministic single-well configurations with extrapolated spectra.

    Shared by the gap-bound, full-gap, and shape criteria.
    """
    rng = make_rng(CAMPAIGN_SEED)
    runs = []
    for i in range(20):
        alpha = float(rng.uniform(0.15, 1.95))
        kappa = float(rng.uniform(0.0, 50.0))
        p = float(rng.uniform(1.0, 3.0))
        length = float(rng.uniform(0.5, 4.0))
        center = float(rng.uniform(-1.0, 1.0))
        interval = (center - length / 2.0, center + length / 2.0)
        pot = make_power_well(kappa, p, interval)
        levels = {}
        stars = {}
        for n in (256, 512):
            res = solve(alpha, interval, pot, n)
            idx, val = lambda_star(res)
            levels[n] = res
            stars[n] = (idx, val)
        lam1 = richardson([(n, levels[n].eigenvalues[:1]) for n in (256, 512)])[0]
        lam2 = richardson([(n, levels[n].eigenvalues[1:2]) for n in (256, 512)])[0]
        lam_s = richardson(
            [(n, np.array([stars[n][1]])) for n in (256, 512)])[0]
        runs.append({
            "id": i, "alpha": alpha, "kappa": kappa, "p": p,
            "interval": interval, "length": length,
            "lam1": float(lam1), "lam2": float(lam2), "lam_star": float(lam_s),
            "star_index": stars[512][0], "result_512": levels[512],
        })
    return runs


def test_criterion_01_constants():
    # Cauchy normalization, then both closed-form bound constants at
    # alpha = 1.5 against an independent gamma-function composition and a
    # frozen high-precision reference.
    assert abs(levy_constant(-1.0) - 1.0 / math.pi) <= 1e-10

    const = levy_constant(-1.5)
    independent = math.gamma(1.25) / (2.0**-1.5 * math.sqrt(math.pi)
                                      * abs(math.gamma(-0.75)))
    assert const == pytest.approx(independent, rel=1e-12)
    assert const == pytest.approx(0.2992067103010746, rel=1e-12)

    c4 = poincare_constant(1.5)
    assert c4 == pytest.approx((1.0 / 9.0) ** 5, rel=1e-12)
    c3 = gap_bounds(1.5, 0.0, 1.0).bound_main
    assert c3 == pytest.approx((independent / 4.0) * (1.0 / 9.0) ** 5, rel=1e-12)
    report("criterion 1", f"constants A(-1)=1/pi, C4={c4:.6e}, C3={c3:.6e} "
                          "all within 1e-12 relative")


def test_criterion_02_classical_limit():
    res = solve(2.0, (0.0, math.pi), make_zero((0.0, math.pi)), 800, m=2)
    dev1 = abs(res.eigenvalues[0] - 1.0)
    dev2 = abs(res.eigenvalues[1] - 4.0)
    assert dev1 <= 5e-4
    assert dev2 <= 2e-3
    report("criterion 2", f"alpha=2 N=800: |lam1-1|={dev1:.2e} (<=5e-4), "
                          f"|lam2-4|={dev2:.2e} (<=2e-3)")


def test_criterion_03_exact_scaling():
    worst = 0.0
    for alpha in (0.8, 1.5):
        base = None
        for length in (1.0, 2.0, 5.0):
            res = solve(alpha, (0.0, length), make_zero((0.0, length)), 256, m=4)
            scaled = res.eigenvalues * length**alpha
            if base is None:
                base = scaled
            else:
                worst = max(worst, float(np.max(np.abs(scaled / base - 1.0))))
    assert worst <= 1e-12
    report("criterion 3", f"lam_k L^alpha across L in {{1,2,5}}: max relative "
                          f"spread {worst:.2e} (<=1e-12)")


def test_criterion_04_star_gap_bound(random_well_campaign):
    margins = []
    for run in random_well_campaign:
        bound = levy_constant(-run["alpha"]) / run["length"] ** run["alpha"]
        gap_star = run["lam_star"] - run["lam1"]
        assert gap_star >= bound, (run["id"], run["alpha"], gap_star, bound)
        margins.append(gap_star / bound)
    report("criterion 4", f"20/20 star gaps above the kernel-constant bound; "
                          f"margin ratios {min(margins):.2f}..{max(margins):.2f}")


def test_criterion_05_full_gap_bound(random_well_campaign):
    checked = 0
    margins = []
    for run in random_well_campaign:
        if run["alpha"] <= 1.0:
            continue
        bound = gap_bounds(run["alpha"], *run["interval"]).bound_main
        gap = run["lam2"] - run["lam1"]
        assert gap >= bound, (run["id"], run["alpha"], gap, bound)
        margins.append(gap / bound)
        checked += 1
    assert checked >= 5
    report("criterion 5", f"{checked}/{checked} full gaps above the universal "
                          f"bound (alpha > 1 draws); min margin {min(margins):.1e}")


def test_criterion_06_rayleigh_consistency():
    cases = []
    for alpha in (1.3, 1.7):
        for pot_name, pot in (
            ("zero", make_zero((-1.0, 1.0))),
            ("well(5,2)", make_power_well(5.0, 2.0, (-1.0, 1.0))),
            ("well(25,1.5)", make_power_well(25.0, 1.5, (-1.0, 1.0))),
        ):
            res = solve(alpha, (-1.0, 1.0), pot, 512, m=2)
            gap = float(res.eigenvalues[1] - res.eigenvalues[0])
            ray = rayleigh_gap(res, 2)
            rel = abs(ray - gap) / gap
            assert rel <= 0.03, (alpha, pot_name, rel)
            cases.append(rel)
    report("criterion 6", f"exact weighted form vs eigensolve gap: 6 cases, "
                          f"max relative deviation {max(cases):.2e} (<=0.03)")


def test_criterion_07_shape_suite(random_well_campaign):
    for run in random_well_campaign:
        rep = ground_state_shape_check(run["result_512"], tol=1e-6)
        assert rep.passed, (run["id"], rep)
    slopes = []
    for alpha in (1.0, 1.5):
        res = solve(alpha, (-1.0, 1.0), make_zero((-1.0, 1.0)), 512, m=1)
        decay = boundary_decay_check(res)
        assert abs(decay.slope - alpha / 2.0) <= 0.1, (alpha, decay.slope)
        slopes.append(decay.slope)
    report("criterion 7", f"20/20 ground states symmetric and unimodal at 1e-6; "
                          f"free decay slopes {slopes[0]:.3f}, {slopes[1]:.3f} "
                          "within 0.1 of alpha/2")


def test_criterion_08_poincare_campaign():
    rng = make_rng(CAMPAIGN_SEED + 1)
    functions = [random_piecewise_linear(rng) for _ in range(1000)]
    checked = 0
    max_depth = 0
    for alpha in (1.1, 1.5, 1.9):
        const = poincare_constant(alpha)
        for f in functions:
            res = poincare_check(f, alpha)
            assert res.passed, (alpha, f.xs, f.ys)
            cert = witness_search(f, alpha)
            assert abs(cert.certified_bound - const) <= 1e-12 * const
            lower = cert.certified_bound * cert.scale**2
            assert lower <= res.lhs + 3.0 * res.lhs_error, (alpha, f.xs, f.ys)
            max_depth = max(max_depth, cert.n0)
            checked += 1
    assert checked == 3000
    report("criterion 8", f"3000/3000 inequality checks passed; all witness "
                          f"certificates sound, max recursion depth {max_depth}")


def test_criterion_09_counterexample():
    scan = counterexample_scan(0.5)
    assert scan.n_list == (1, 2, 4, 8, 16, 32)
    for i in range(len(scan.values) - 1):
        assert scan.values[i + 1] < scan.values[i], scan.values
    assert scan.slope <= -0.35
    report("criterion 9", f"alpha=0.5 form values strictly decreasing, "
                          f"log-log slope {scan.slope:.3f} (<=-0.35)")


def test_criterion_10_weighted_campaign():
    rng = make_rng(CAMPAIGN_SEED + 2)
    alpha = 1.5
    for i in range(100):
        f = random_piecewise_linear(rng)
        k = int(rng.integers(2, 9))
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k)), [1.0]])
        ys = np.sort(rng.uniform(0.1, 2.0, size=k + 2))[::-1]
        g = PiecewiseLinear(xs, ys)
        res = weighted_poincare_check(f, g, alpha)
        assert res.passed, (i, f.xs, f.ys, ys)
    report("criterion 10", "100/100 weighted checks passed with random "
                           "nonincreasing positive weights")


def test_criterion_11_monte_carlo_suite():
    # Subordinator law at one million samples per stability index.
    rng = make_rng(CAMPAIGN_SEED + 3)
    n = 1_000_000
    worst_sigma = 0.0
    for alpha in (0.8, 1.0, 1.5):
        rho = alpha / 2.0
        s = sample_subordinator_increment(rho, 1.0, rng, size=n)
        for u in (0.5, 1.0, 2.0):
            vals = np.exp(-u * s)
            want = math.exp(-(u**rho))
            se = float(np.std(vals, ddof=1)) / math.sqrt(n)
            dev = abs(float(np.mean(vals)) - want) / se
            assert dev <= 4.0, (alpha, u, dev)
            worst_sigma = max(worst_sigma, dev)

    # Exact Cauchy marginals at alpha = 1.
    kernel = cauchy_kernel_check(1.0, np.array([0.0, 1.0]))
    assert kernel.passed
    assert kernel.max_deviation_sigmas <= 3.0

    # Survival-profile unimodality for one power well, 3 combined stderr.
    pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
    cfg = PathConfig(1.5, 0.5, 256, (-1.0, 1.0), seed=CAMPAIGN_SEED)
    xs = np.linspace(-1.0, 1.0, 23)[1:-1]
    ests = estimate_feynman_kac(xs, pot, cfg, 50_000)
    means = np.array([e.mean for e in ests])
    ses = np.array([e.stderr for e in ests])
    peak = int(np.argmax(means))
    for i in range(len(means) - 1):
        slack = 3.0 * (ses[i] + ses[i + 1])
        drop = means[i] - means[i + 1] if i < peak else means[i + 1] - means[i]
        assert drop <= slack, (i, drop, slack)

    # Deterministic kernel chains, lengths one and two.
    chain_x = np.linspace(-1.0, 1.0, 43)[1:-1]
    one = gaussian_chain(chain_x, [0.1], [0.05], pot)
    two = gaussian_chain(chain_x, [0.1, 0.15], [0.05, 0.08], pot)
    assert one.unimodal and two.unimodal

    report("criterion 11", f"Laplace transform worst deviation "
                           f"{worst_sigma:.2f} sigma at 1e6 samples; Cauchy "
                           f"kernel {kernel.max_deviation_sigmas:.2f} sigma; "
                           "survival profile and kernel chains unimodal")


def test_criterion_12_byte_identical_reruns(tmp_path):
    exe = shutil.which("fracspec")
    argv = [exe] if exe else [sys.executable, "-m", "fracgap.cli"]
    cfg_path = tmp_path / "all.json"
    cfg_path.write_text(json.dumps({"command": "all"}))
    out = tmp_path / "run"

    def run_all():
        proc = subprocess.run(
            argv + [str(cfg_path), "--output-dir", str(out), "--quiet"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_all()
    second = run_all()
    assert set(first) == set(second)
    diff = [name for name in first if first[name] != second[name]]
    assert not diff, f"outputs changed between identical runs: {diff}"
    report("criterion 12", f"all-command rerun byte-identical across "
                           f"{len(first)} output files")
