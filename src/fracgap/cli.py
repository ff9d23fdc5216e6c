"""fracspec: run the verification pipeline from a JSON config.

Usage: fracspec <config.json> [--output-dir DIR] [--seed SEED] [--quiet]

The config names a command (spectrum, gap, poincare, counterexample,
simulate, phi, or all) plus the problem parameters; defaults fill every
omitted key and the fully resolved config is echoed to config_echo.json
next to the other outputs for provenance. Each command prints one PASS or
FAIL line per check. Exit codes: 0 all checks passed, 1 a check failed,
2 configuration error, 3 a quadrature or search failed to converge.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, NonConvergenceError, WitnessSearchError
from .forms import check_gaps, gap_report_to_json_dict
from .montecarlo import (PathConfig, cauchy_kernel_check, estimate_feynman_kac,
                         estimates_csv_rows, gaussian_chain, make_rng)
from .numerics import QuadConfig
from .poincare import (CAMPAIGN_CFG, certificate_to_json_dict, counterexample_scan,
                       poincare_check, poincare_constant, random_piecewise_linear,
                       witness_search)
from .potentials import (load_tabulated_csv, make_inverse_boundary_well,
                         make_power_well, make_zero, validate_single_well)
from .serialize import csv_text, dumps_json, write_atomic
from .spectral import (Grid, assemble_operator, boundary_decay_check, eigensolve,
                       eigenvector_rows, ground_state_shape_check, lambda_star,
                       result_to_json_dict)

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3

_COMMANDS = ("spectrum", "gap", "poincare", "counterexample", "simulate",
             "phi", "all")
_POTENTIAL_COMMANDS = ("spectrum", "gap", "simulate", "phi", "all")


class ConfigError(ValueError):
    """Bad or inconsistent configuration; maps to exit code 2."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _take(raw: dict, key: str, default):
    return raw[key] if key in raw else default


def _resolve_config(raw: dict, output_dir: str | None, seed: int | None) -> dict:
    """Validate the raw config and fill defaults; returns the echo dict."""
    _expect(isinstance(raw, dict), "config root must be a JSON object")
    known = {"command", "alpha", "interval", "potential", "N", "m",
             "quadrature", "mc", "poincare", "counterexample", "chain",
             "output_dir"}
    unknown = set(raw) - known
    _expect(not unknown, f"unknown config keys: {sorted(unknown)}")

    command = _take(raw, "command", None)
    _expect(command in _COMMANDS,
            f"command must be one of {list(_COMMANDS)}, got {command!r}")

    alpha = float(_take(raw, "alpha", 1.5))
    _expect(0.0 < alpha < 2.0, f"alpha must lie in (0, 2), got {alpha}")
    if command in ("poincare", "all"):
        _expect(1.0 < alpha < 2.0,
                f"command {command!r} requires alpha in (1, 2), got {alpha}")
    if command == "counterexample":
        _expect(0.0 < alpha < 1.0,
                f"command 'counterexample' requires alpha in (0, 1), got {alpha}")

    interval = _take(raw, "interval", [-1.0, 1.0])
    _expect(isinstance(interval, (list, tuple)) and len(interval) == 2,
            "interval must be [a, b]")
    a, b = float(interval[0]), float(interval[1])
    _expect(math.isfinite(a) and math.isfinite(b) and b > a,
            f"interval must be finite with b > a, got [{a}, {b}]")

    pot = dict(_take(raw, "potential", {"kind": "zero"}))
    kind = pot.get("kind")
    _expect(kind in ("zero", "power_well", "inverse_boundary_well", "tabulated"),
            f"unknown potential kind {kind!r}")

    n_grid = int(_take(raw, "N", 256))
    _expect(n_grid >= 16, f"N must be at least 16, got {n_grid}")
    m = int(_take(raw, "m", 6))
    _expect(1 <= m <= n_grid, f"m must lie in [1, N], got {m}")

    quad = dict(_take(raw, "quadrature", {}))
    quad_resolved = {
        "abs_tol": float(quad.pop("abs_tol", 1e-6)),
        "rel_tol": float(quad.pop("rel_tol", 1e-6)),
        "max_panels": int(quad.pop("max_panels", 1024)),
        "grading_exponent": float(quad.pop("grading_exponent", 3.0)),
    }
    _expect(not quad, f"unknown quadrature keys: {sorted(quad)}")

    mc = dict(_take(raw, "mc", {}))
    mc_resolved = {
        "t_final": float(mc.pop("t_final", 0.25)),
        "n_steps": int(mc.pop("n_steps", 256)),
        "n_paths": int(mc.pop("n_paths", 20_000)),
        "seed": int(mc.pop("seed", 12345)),
        "n_points": int(mc.pop("n_points", 21)),
    }
    _expect(not mc, f"unknown mc keys: {sorted(mc)}")
    _expect(mc_resolved["n_paths"] >= 2, "mc.n_paths must be >= 2")
    _expect(mc_resolved["n_points"] >= 1, "mc.n_points must be >= 1")

    campaign = dict(_take(raw, "poincare", {}))
    campaign_resolved = {
        "n_functions": int(campaign.pop("n_functions", 100)),
        "seed": int(campaign.pop("seed", 7)),
        "max_segments": int(campaign.pop("max_segments", 32)),
    }
    _expect(not campaign, f"unknown poincare keys: {sorted(campaign)}")
    _expect(campaign_resolved["n_functions"] >= 1, "poincare.n_functions must be >= 1")

    counter = dict(_take(raw, "counterexample", {}))
    counter_resolved = {
        "alpha": float(counter.pop("alpha", alpha if 0.0 < alpha < 1.0 else 0.5)),
        "n_list": [int(n) for n in counter.pop("n_list", [1, 2, 4, 8, 16, 32])],
    }
    _expect(not counter, f"unknown counterexample keys: {sorted(counter)}")
    _expect(0.0 < counter_resolved["alpha"] < 1.0,
            f"counterexample.alpha must lie in (0, 1), got {counter_resolved['alpha']}")

    chain = dict(_take(raw, "chain", {}))
    chain_resolved = {
        "kernel_times": [float(s) for s in chain.pop("kernel_times", [0.1, 0.15])],
        "potential_times": [float(t) for t in chain.pop("potential_times", [0.05, 0.08])],
        "n_points": int(chain.pop("n_points", 41)),
    }
    _expect(not chain, f"unknown chain keys: {sorted(chain)}")
    _expect(len(chain_resolved["kernel_times"]) in (1, 2),
            "chain.kernel_times must have length 1 or 2")
    _expect(len(chain_resolved["kernel_times"]) == len(chain_resolved["potential_times"]),
            "chain.kernel_times and chain.potential_times must match in length")

    out_dir = output_dir if output_dir is not None else \
        str(_take(raw, "output_dir", "fracspec_out"))
    if seed is not None:
        mc_resolved["seed"] = int(seed)
        campaign_resolved["seed"] = int(seed)

    return {
        "command": command,
        "alpha": alpha,
        "interval": [a, b],
        "potential": pot,
        "N": n_grid,
        "m": m,
        "quadrature": quad_resolved,
        "mc": mc_resolved,
        "poincare": campaign_resolved,
        "counterexample": counter_resolved,
        "chain": chain_resolved,
        "output_dir": out_dir,
    }


def _build_potential(cfg: dict):
    pot = cfg["potential"]
    interval = tuple(cfg["interval"])
    kind = pot["kind"]
    if kind == "zero":
        return make_zero(interval, float(pot.get("offset", 0.0)))
    if kind == "power_well":
        return make_power_well(float(pot.get("kappa", 1.0)),
                               float(pot.get("p", 2.0)),
                               interval, float(pot.get("offset", 0.0)))
    if kind == "inverse_boundary_well":
        _expect("beta" in pot, "inverse_boundary_well requires 'beta'")
        return make_inverse_boundary_well(float(pot["beta"]), cfg["alpha"],
                                          interval)
    _expect("path" in pot, "tabulated potential requires 'path'")
    potential = load_tabulated_csv(pot["path"])
    pa, pb = potential.interval
    _expect(abs(pa - interval[0]) <= 1e-12 and abs(pb - interval[1]) <= 1e-12,
            f"tabulated potential covers [{pa}, {pb}], config interval is {list(interval)}")
    return potential


def _quad_config(cfg: dict) -> QuadConfig:
    q = cfg["quadrature"]
    try:
        return QuadConfig(q["abs_tol"], q["rel_tol"], q["max_panels"],
                          q["grading_exponent"])
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


class _Reporter:
    def __init__(self, quiet: bool):
        self.quiet = quiet
        self.all_passed = True

    def check(self, passed: bool, name: str, detail: str) -> None:
        self.all_passed = self.all_passed and passed
        self.say(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    def info(self, line: str) -> None:
        self.say(f"INFO {line}")

    def say(self, line: str) -> None:
        if not self.quiet:
            print(line)


def _solve(cfg: dict, potential):
    grid = Grid(cfg["interval"][0], cfg["interval"][1], cfg["N"])
    op = assemble_operator(grid, cfg["alpha"], potential)
    return eigensolve(op, cfg["m"])


def _cmd_spectrum(cfg: dict, out: Path, rep: _Reporter, potential, result) -> None:
    well = validate_single_well(potential)
    rep.check(well.passed, "potential", well.detail)
    write_atomic(out / "spectrum.csv", csv_text(
        ["k", "eigenvalue", "parity", "residual"],
        [[j + 1, float(result.eigenvalues[j]), result.parities[j],
          float(result.residuals[j])] for j in range(result.m)]))
    header, rows = eigenvector_rows(result)
    write_atomic(out / "eigenvectors.csv", csv_text(header, rows))
    write_atomic(out / "spectrum.json", dumps_json(result_to_json_dict(result)))

    shape = ground_state_shape_check(result)
    rep.check(shape.passed, "shape",
              f"ground state symmetry {shape.symmetry_error:.3e}, "
              f"unimodality {shape.unimodality_error:.3e}")
    if cfg["N"] >= 128:
        decay = boundary_decay_check(result)
        rep.check(decay.passed, "decay",
                  f"boundary slope {decay.slope:.4f} vs alpha/2 = {cfg['alpha'] / 2:.4f}")
    else:
        rep.info("decay fit skipped (needs N >= 128)")


def _cmd_gap(cfg: dict, out: Path, rep: _Reporter, potential, result) -> None:
    try:
        lambda_star(result)
    except LookupError:
        bigger = dict(cfg, m=min(cfg["N"], 4 * cfg["m"]))
        result = _solve(bigger, potential)
    report = check_gaps(result, _quad_config(cfg))
    write_atomic(out / "gap_report.json", dumps_json(gap_report_to_json_dict(report)))
    rep.check(report.pass_star, "gap_star",
              f"gap_star {report.gap_star:.8g} >= bound {report.bound_star:.8g} "
              f"(index {report.star_index})")
    if report.pass_main is None:
        rep.info(f"main bound not applicable at alpha = {cfg['alpha']}")
    else:
        rep.check(report.pass_main, "gap_main",
                  f"gap {report.gap:.8g} >= bound {report.bound_main:.8g}")
    rep.info(f"rayleigh consistency |rayleigh - gap| / gap = "
             f"{report.consistency_gap_vs_rayleigh:.3e}")


def _cmd_poincare(cfg: dict, out: Path, rep: _Reporter) -> None:
    alpha = cfg["alpha"]
    pc = cfg["poincare"]
    rng = make_rng(pc["seed"])
    const = poincare_constant(alpha)
    rows = []
    n_pass = n_sound = 0
    max_n0 = 0
    for i in range(pc["n_functions"]):
        f = random_piecewise_linear(rng, pc["max_segments"])
        res = poincare_check(f, alpha, (0.0, 1.0), CAMPAIGN_CFG)
        cert = witness_search(f, alpha)
        write_atomic(out / f"witness_{i:04d}.json",
                     dumps_json(certificate_to_json_dict(cert)))
        sound = (cert.certified_bound * cert.scale ** 2
                 <= res.lhs + 3.0 * res.lhs_error)
        exact = abs(cert.certified_bound - const) <= 1e-12 * const
        n_pass += res.passed
        n_sound += (sound and exact)
        max_n0 = max(max_n0, cert.n0)
        rows.append([i, f.xs.size, f.lipschitz(), float(f.ys[-1]), res.lhs,
                     res.lhs_error, res.rhs, res.ratio, cert.n0,
                     cert.certified_bound, sound, res.passed])
    write_atomic(out / "poincare_campaign.csv", csv_text(
        ["id", "n_breakpoints", "lipschitz", "f1", "lhs", "lhs_error",
         "rhs", "ratio", "n0", "certified_bound", "sound", "passed"], rows))
    n = pc["n_functions"]
    rep.check(n_pass == n, "poincare_inequality", f"{n_pass}/{n} passed")
    rep.check(n_sound == n, "poincare_witness",
              f"{n_sound}/{n} sound certificates, max depth {max_n0}")


def _cmd_counterexample(cfg: dict, out: Path, rep: _Reporter) -> None:
    cc = cfg["counterexample"]
    scan = counterexample_scan(cc["alpha"], cc["n_list"])
    write_atomic(out / "counterexample.csv", csv_text(
        ["n", "value", "error_estimate"],
        [[n, v, e] for n, v, e in zip(scan.n_list, scan.values,
                                      scan.error_estimates)]))
    decreasing = all(scan.values[i + 1] < scan.values[i]
                     for i in range(len(scan.values) - 1))
    rep.check(decreasing, "counterexample_decay",
              f"form values strictly decreasing over n = {list(scan.n_list)}")
    rep.check(scan.slope <= -0.35, "counterexample_slope",
              f"log-log slope {scan.slope:.4f} (expect about alpha - 1 = "
              f"{cc['alpha'] - 1:.2f})")


def _mc_unimodal(means: np.ndarray, ses: np.ndarray) -> tuple[bool, float]:
    """Discrete unimodality allowing 3 combined standard errors of slack."""
    peak = int(np.argmax(means))
    worst = 0.0
    ok = True
    for i in range(len(means) - 1):
        slack = 3.0 * (ses[i] + ses[i + 1])
        if i < peak:
            gap = means[i] - means[i + 1]
        else:
            gap = means[i + 1] - means[i]
        if gap > slack:
            ok = False
        worst = max(worst, gap - slack)
    return ok, worst


def _cmd_simulate(cfg: dict, out: Path, rep: _Reporter, potential) -> None:
    mc = cfg["mc"]
    a, b = cfg["interval"]
    path_cfg = PathConfig(cfg["alpha"], mc["t_final"], mc["n_steps"],
                          (a, b), mc["seed"])
    xs = np.linspace(a, b, mc["n_points"] + 2)[1:-1]
    estimates = estimate_feynman_kac(xs, potential, path_cfg, mc["n_paths"])
    header, rows = estimates_csv_rows(estimates)
    write_atomic(out / "fk_estimates.csv", csv_text(header, rows))

    means = np.array([e.mean for e in estimates])
    ses = np.array([e.stderr for e in estimates])
    sym_ok = True
    worst_sym = 0.0
    for i in range(len(estimates) // 2):
        j = len(estimates) - 1 - i
        dev = abs(means[i] - means[j])
        slack = 3.0 * (ses[i] + ses[j])
        worst_sym = max(worst_sym, dev - slack)
        if dev > slack:
            sym_ok = False
    rep.check(sym_ok, "fk_symmetry",
              f"mirror deviations within 3 stderr (worst slack excess "
              f"{worst_sym:.3e})")
    uni_ok, worst_uni = _mc_unimodal(means, ses)
    rep.check(uni_ok, "fk_unimodality",
              f"profile unimodal within 3 stderr (worst excess {worst_uni:.3e})")


def _cmd_phi(cfg: dict, rep: _Reporter, potential) -> None:
    ch = cfg["chain"]
    a, b = cfg["interval"]
    xs = np.linspace(a, b, ch["n_points"] + 2)[1:-1]
    for length in (1, 2):
        s_list = ch["kernel_times"][:length]
        t_list = ch["potential_times"][:length]
        if len(s_list) < length:
            rep.info(f"chain length {length} skipped (need {length} kernel times)")
            continue
        report = gaussian_chain(xs, s_list, t_list, potential)
        rep.check(report.unimodal, f"chain_{length}",
                  f"kernel chain unimodal on {xs.size} points "
                  f"(max violation {report.max_violation:.3e})")


def run(config_path: str, output_dir: str | None = None,
        seed: int | None = None, quiet: bool = False) -> int:
    """Execute one config; returns the process exit code."""
    rep = _Reporter(quiet)
    try:
        raw = json.loads(Path(config_path).read_text())
        cfg = _resolve_config(raw, output_dir, seed)
        command = cfg["command"]
        potential = (_build_potential(cfg) if command in _POTENTIAL_COMMANDS
                     else None)
    except (OSError, json.JSONDecodeError, ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg["output_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "config_echo.json", dumps_json(cfg))
        if command in ("spectrum", "gap", "all"):
            result = _solve(cfg, potential)
        if command in ("spectrum", "all"):
            _cmd_spectrum(cfg, out, rep, potential, result)
        if command in ("gap", "all"):
            _cmd_gap(cfg, out, rep, potential, result)
        if command in ("poincare", "all"):
            _cmd_poincare(cfg, out, rep)
        if command in ("counterexample", "all"):
            _cmd_counterexample(cfg, out, rep)
        if command in ("simulate", "all"):
            _cmd_simulate(cfg, out, rep, potential)
        if command in ("phi", "all"):
            _cmd_phi(cfg, rep, potential)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, WitnessSearchError) as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK if rep.all_passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracspec",
        description="Verification pipeline for the fractional interval operator.")
    parser.add_argument("config", help="path to a JSON config file")
    parser.add_argument("--output-dir", default=None,
                        help="override the config output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override simulation and campaign seeds")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress PASS/FAIL lines (files are still written)")
    args = parser.parse_args(argv)
    return run(args.config, args.output_dir, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
