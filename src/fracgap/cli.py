"""fracspec: run the verification pipeline from a JSON config.

Usage: fracspec <config.json> [--output-dir DIR] [--seed SEED] [--quiet]

The config names a command (spectrum, gap, poincare, counterexample,
simulate, phi, or all) plus the problem parameters. _DEFAULTS and
_POTENTIAL_DEFAULTS state every key once, with its default: the reader
fills omitted keys from them, refuses any other key, and reads each value
as the type of its default. The resolved config is then checked across
keys, before any output exists, and echoed to config_echo.json next to the
other outputs for provenance. Each command prints one PASS or FAIL line
per check. Exit codes: 0 all checks passed, 1 a check failed, 2
configuration error, 3 the witness search failed to terminate, 4 an
unexpected internal error (a defect; one line on stderr, no traceback).

This is the one module that knows the output formats. The report
dataclasses serialize themselves: gap_report.json and witness_NNNN.json
are their dataclasses.asdict, in field order, and fk_estimates.csv takes
its columns from PathEstimate's fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict, astuple, fields
from pathlib import Path

import numpy as np

from .errors import (DomainError, WitnessSearchError, _require_count, _require_interval,
                     _require_open)
from .forms import check_gaps
from .montecarlo import (PathConfig, PathEstimate, _kill_delta, _kill_shift,
                         _require_chain_times, estimate_feynman_kac, gaussian_chain,
                         make_rng)
from .numerics import _unimodal_excess
from .poincare import (_require_n_list, counterexample_scan, poincare_check,
                       poincare_constant, random_piecewise_linear, witness_search)
from .potentials import (_require_on_interval, load_tabulated_csv,
                         make_inverse_boundary_well, make_power_well, make_zero,
                         validate_single_well)
from .serialize import csv_text, dumps_json, write_atomic
from .spectral import (Grid, assemble_operator, boundary_decay_check, eigensolve,
                       ground_state_shape_check)

__all__ = ["main", "run", "ConfigError"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_INTERNAL = 4

# Largest working set a config may request, in bytes: a larger N or
# mc.n_points x mc.n_paths fails as a configuration error before allocating.
MAX_WORKING_BYTES = 2 * 1024**3
# float64 N x N arrays at the peak of assembly + eigensolve, as resident
# memory grows from a warm start (one solve at N = 512) at N = 2048 (alpha
# 1.2, m = 200 or 6): 4.9 on an asymmetric well solved by the dense eigh,
# which still runs at any N when m is large or the Krylov solve gives up,
# and builds H whole for it; 0.6 when the Krylov solve converges; 1.5 and
# 0.7 on a symmetric well. tracemalloc sees 2.0, 0.56, 0.9 and 0.5;
# LAPACK's workspace is not in it.
_DENSE_ARRAYS = 6
# estimate_feynman_kac's peak, in float64 arrays of n_paths: _MC_ARRAYS per
# start point (the sums, which become the returned values in place, plus
# the positions and potential values of the path blocks in flight) and
# _MC_PATH_ARRAYS shared by all points (the blocks' free paths, running
# extremes, and the draws of a group of steps with their temporaries).
# Under tracemalloc (max of four runs after a warm-up, 16 steps, alpha 0.5
# and 1.5, 1 and 8 CPUs, the zero, power (5, 2) and (5, 2.7), inverse
# boundary and tabulated wells), the peak at 20 000 paths is 11.0 arrays
# at 1 point, 14.2 at 3, 52.5 at 21 and 97.1 at 41 (8 CPUs; 4.4, 6.8,
# 31.6 and 59.8 at 1 CPU). It is highest when every path is in flight, as
# at 4096 paths (one block): 17.3 at 1 point, 21.3 at 3, 72.3 at 21 and
# 252.3 at 81, about 3 per point plus 9.3; at 1 point the peak is where a
# group's increments are formed. 4 per point plus 16 leaves a margin of at
# least 2.7 at every size measured.
_MC_ARRAYS = 4
_MC_PATH_ARRAYS = 16

# The stages `all` runs, in order; any other command is the one stage it names.
_STAGES = ("spectrum", "gap", "poincare", "counterexample", "simulate", "phi")
_COMMANDS = _STAGES + ("all",)
# The config schema: every key with its default, section by section, in the
# order config_echo.json lists them. A value is read as the type of its
# default: a float, an int, a string, or a list of the type of its first
# element. A type in place of a default marks a key that must be given.
_DEFAULTS = {
    "command": str,
    "alpha": 1.5,
    "interval": [-1.0, 1.0],
    "potential": {"kind": "zero"},
    "N": 256,
    "m": 6,
    # n_steps defaults to 128 where alpha is in the range whose paths are
    # killed on the shifted interval (montecarlo._kill_shift).
    "mc": {"t_final": 0.25, "n_steps": 256, "n_paths": 20_000, "seed": 12345,
           "n_points": 21},
    "poincare": {"n_functions": 100, "seed": 7, "max_segments": 32},
    # alpha defaults to the top-level alpha when that lies in (0, 1).
    "counterexample": {"alpha": 0.5, "n_list": [1, 2, 4, 8, 16, 32]},
    "chain": {"kernel_times": [0.1, 0.15], "potential_times": [0.05, 0.08],
              "n_points": 41},
    "output_dir": "fracspec_out",
}
# The keys each potential kind reads besides "kind", with their defaults.
_POTENTIAL_DEFAULTS = {
    "zero": {"offset": 0.0},
    "power_well": {"kappa": 1.0, "p": 2.0, "offset": 0.0},
    "inverse_boundary_well": {"beta": float},
    "tabulated": {"path": str},
}


def _stages(command: str) -> tuple[str, ...]:
    """The stages command runs."""
    return _STAGES if command == "all" else (command,)


class ConfigError(ValueError):
    """Bad or inconsistent configuration; maps to exit code 2."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _read(value, name: str, default):
    """A config value read as the type of default.

    A dict default is a section: value must be an object of no other keys,
    and a key it omits takes its default. A number must be finite and not
    a bool; where the default is an int, a float with no fraction, such as
    2e4, is read as an int.
    """
    if isinstance(default, dict):
        _expect(isinstance(value, dict), f"{name} must be a JSON object, got {value!r}")
        unknown = sorted(set(value) - set(default))
        of_kind = f" for {default['kind']!r}" if "kind" in default else ""
        _expect(not unknown, f"unknown {name or 'config'} keys{of_kind}: {unknown}")
        prefix = f"{name}." if name else ""
        return {key: _read(value.get(key, {} if isinstance(d, dict) else d), prefix + key, d)
                for key, d in default.items()}
    _expect(not isinstance(value, type), f"{name} must be given")
    if isinstance(default, list):
        _expect(isinstance(value, list), f"{name} must be a list, got {value!r}")
        return [_read(v, name, default[0]) for v in value]
    as_type = default if isinstance(default, type) else type(default)
    if as_type is str:
        _expect(isinstance(value, str), f"{name} must be a string, got {value!r}")
        return value
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{name} must be a number, got {value!r}")
    _expect(abs(value) <= sys.float_info.max, f"{name} must be finite, got {value!r}")
    if as_type is int and not isinstance(value, int):
        _expect(value.is_integer(), f"{name} must be an integer, got {value!r}")
    return as_type(value)


def _path_config(cfg: dict) -> PathConfig:
    """The Monte Carlo parameters of a resolved config."""
    mc = cfg["mc"]
    return PathConfig(cfg["alpha"], mc["t_final"], mc["n_steps"],
                      tuple(cfg["interval"]), mc["seed"])


def _mc_working_bytes(n_points: int, n_paths: int) -> float:
    """Estimated peak bytes of estimate_feynman_kac at this size; inf
    where that overflows a float."""
    return 8.0 * n_paths * (_MC_ARRAYS * float(n_points) + _MC_PATH_ARRAYS)


def _resolve_config(raw: dict, output_dir: str | None, seed: int | None) -> dict:
    """Read the raw config against _DEFAULTS and check it; returns the echo dict."""
    _expect(isinstance(raw, dict), "config root must be a JSON object")
    # The potential's kind picks the keys its section reads.
    pot = raw.get("potential", {})
    _expect(isinstance(pot, dict), f"potential must be a JSON object, got {pot!r}")
    kind = pot.get("kind", _DEFAULTS["potential"]["kind"])
    _expect(isinstance(kind, str) and kind in _POTENTIAL_DEFAULTS,
            f"unknown potential kind {kind!r}")
    cfg = _read(raw, "", {**_DEFAULTS,
                          "potential": {"kind": kind, **_POTENTIAL_DEFAULTS[kind]}})

    command = cfg["command"]
    _expect(command in _COMMANDS,
            f"command must be one of {list(_COMMANDS)}, got {command!r}")
    stages = _stages(command)

    alpha = cfg["alpha"]
    _require_open(alpha, 0.0, 2.0, "alpha")
    if "poincare" in stages:
        _expect(1.0 < alpha < 2.0,
                f"command {command!r} requires alpha in (1, 2), got {alpha}")
    if command == "counterexample":
        _expect(0.0 < alpha < 1.0,
                f"command 'counterexample' requires alpha in (0, 1), got {alpha}")

    _expect(len(cfg["interval"]) == 2, "interval must be [a, b]")
    _require_interval(*cfg["interval"])

    n_grid = _require_count(cfg["N"], 16, "N")
    dense_bytes = 8.0 * _DENSE_ARRAYS * n_grid * n_grid
    _expect(dense_bytes <= MAX_WORKING_BYTES,
            f"N = {n_grid} needs about {dense_bytes / 2**30:.3g} GiB, "
            f"over the {MAX_WORKING_BYTES / 2**30:.3g} GiB limit")
    m = _require_count(cfg["m"], 1, "m")
    _expect(m <= n_grid, f"m must lie in [1, N], got {m}")

    mc = cfg["mc"]
    if "n_steps" not in raw.get("mc", {}) and _kill_shift(alpha, 1.0) > 0.0:
        mc["n_steps"] = 128
    _require_count(mc["n_paths"], 2, "mc.n_paths")
    _require_count(mc["n_points"], 1, "mc.n_points")
    mc_bytes = _mc_working_bytes(mc["n_points"], mc["n_paths"])
    _expect(mc_bytes <= MAX_WORKING_BYTES,
            f"mc.n_points x mc.n_paths needs about {mc_bytes / 2**30:.3g} GiB, "
            f"over the {MAX_WORKING_BYTES / 2**30:.3g} GiB limit")

    campaign = cfg["poincare"]
    _require_count(campaign["n_functions"], 1, "poincare.n_functions")
    _require_count(campaign["max_segments"], 3, "poincare.max_segments")

    counter = cfg["counterexample"]
    if "alpha" not in raw.get("counterexample", {}) and alpha < 1.0:
        counter["alpha"] = alpha
    _require_open(counter["alpha"], 0.0, 1.0, "counterexample.alpha")
    _require_n_list(counter["n_list"], "counterexample.n_list")

    chain = cfg["chain"]
    _require_count(chain["n_points"], 1, "chain.n_points")
    _require_chain_times(chain["kernel_times"], chain["potential_times"], "chain.")

    if output_dir is not None:
        cfg["output_dir"] = output_dir
    if seed is not None:
        mc["seed"] = campaign["seed"] = int(seed)
    _require_count(mc["seed"], 0, "mc.seed")
    _require_count(campaign["seed"], 0, "poincare.seed")
    # PathConfig's own checks and the kill shift's bound, before any stage
    # writes output.
    path_cfg = _path_config(cfg)
    if "simulate" in stages:
        _kill_delta(path_cfg)
    return cfg


def _build_potential(cfg: dict):
    pot = cfg["potential"]
    interval = tuple(cfg["interval"])
    kind = pot["kind"]
    if kind == "zero":
        return make_zero(interval, pot["offset"])
    if kind == "power_well":
        return make_power_well(pot["kappa"], pot["p"], interval, pot["offset"])
    if kind == "inverse_boundary_well":
        return make_inverse_boundary_well(pot["beta"], cfg["alpha"], interval)
    potential = load_tabulated_csv(pot["path"])
    _require_on_interval(potential, *interval)
    return potential


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


def _cmd_spectrum(cfg: dict, out: Path, rep: _Reporter, potential, result) -> None:
    well = validate_single_well(potential)
    rep.check(well.passed, "potential", well.detail)
    write_atomic(out / "spectrum.csv", csv_text(
        ["k", "eigenvalue", "parity", "residual"],
        [[j + 1, float(result.eigenvalues[j]), result.parities[j],
          float(result.residuals[j])] for j in range(result.m)]))
    grid = result.grid
    write_atomic(out / "eigenvectors.csv", csv_text(
        ["x"] + [f"phi_{j + 1}" for j in range(result.m)],
        np.column_stack([grid.nodes(), result.eigenvectors]).tolist()))
    write_atomic(out / "spectrum.json", dumps_json({
        "alpha": result.alpha, "a": grid.a, "b": grid.b, "N": grid.n,
        "eigenvalues": result.eigenvalues.tolist(),
        "parities": list(result.parities),
        "residuals": result.residuals.tolist()}))

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


def _cmd_gap(cfg: dict, out: Path, rep: _Reporter, result) -> None:
    report = check_gaps(result)
    write_atomic(out / "gap_report.json", dumps_json(asdict(report)))
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
        res = poincare_check(f, alpha)
        cert = witness_search(f, alpha)
        write_atomic(out / f"witness_{i:04d}.json", dumps_json(asdict(cert)))
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
    # The values decay like n^(alpha - 1) only asymptotically, so the gate
    # reads the slope between the last two n, not the fit over all of them.
    (n1, n2), (v1, v2) = scan.n_list[-2:], scan.values[-2:]
    tail = math.log(v2 / v1) / math.log(n2 / n1)
    gate = 0.75 * (cc["alpha"] - 1.0)
    rep.check(tail <= gate, "counterexample_slope",
              f"tail log-log slope {tail:.4f} <= 0.75 (alpha - 1) = {gate:.4f}")


def _cmd_simulate(cfg: dict, out: Path, rep: _Reporter, potential) -> None:
    """Killed-path estimates on interior points, checked for symmetry and shape.

    All points share the same free paths. That leaves each point's standard
    error as it is, and sd(m_i - m_j) <= se_i + se_j whatever the
    correlation, so the 3 (se_i + se_j) slack of both checks stays valid.
    It is conservative for the unimodality check, whose neighbours are
    positively correlated. Far-apart mirror points are negatively
    correlated (down to -0.6 on the default config: a path drifting right
    kills the right point and spares the left), so there the slack is at
    least 3.4 standard deviations of the difference instead of the 4.2 of
    independent points.
    """
    mc = cfg["mc"]
    a, b = cfg["interval"]
    path_cfg = _path_config(cfg)
    xs = np.linspace(a, b, mc["n_points"] + 2)[1:-1]
    delta = _kill_delta(path_cfg)
    rep.info(f"kill shift delta = {delta:.6g}: paths are killed on leaving "
             f"({a + delta:.8g}, {b - delta:.8g}) at grid times")
    # An overflowing potential fails as one DomainError from the path sums.
    with np.errstate(over="ignore", invalid="ignore"):
        estimates = estimate_feynman_kac(xs, potential, path_cfg, mc["n_paths"])
    write_atomic(out / "fk_estimates.csv", csv_text(
        [f.name for f in fields(PathEstimate)], map(astuple, estimates)))

    means = np.array([e.mean for e in estimates])
    ses = np.array([e.stderr for e in estimates])
    # Each mirror pair once: the first half of the points against the last.
    excess = np.abs(means - means[::-1]) - 3.0 * (ses + ses[::-1])
    worst_sym = float(np.max(excess[:len(estimates) // 2], initial=0.0))
    rep.check(worst_sym == 0.0, "fk_symmetry",
              f"mirror deviations within 3 stderr (worst slack excess "
              f"{worst_sym:.3e})")
    worst_uni = _unimodal_excess(means, 3.0 * (ses[:-1] + ses[1:]))
    rep.check(worst_uni == 0.0, "fk_unimodality",
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
        # An overflowing potential fails as one DomainError from the chain.
        with np.errstate(over="ignore", invalid="ignore"):
            report = gaussian_chain(xs, s_list, t_list, potential)
        rep.check(report.unimodal, f"chain_{length}",
                  f"kernel chain unimodal on {xs.size} points "
                  f"(max violation {report.max_violation:.3e})")


def run(config_path: str, output_dir: str | None = None,
        seed: int | None = None, quiet: bool = False) -> int:
    """Execute one config; returns the process exit code."""
    try:
        return _run(config_path, output_dir, seed, quiet)
    except Exception as exc:
        # A defect, not bad input: one line naming the exception and the
        # innermost frame, in place of a traceback.
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message} "
              f"(at {Path(frame.filename).name}:{frame.lineno} in {frame.name})",
              file=sys.stderr)
        return EXIT_INTERNAL


def _run(config_path: str, output_dir: str | None, seed: int | None,
         quiet: bool) -> int:
    rep = _Reporter(quiet)
    try:
        raw = json.loads(Path(config_path).read_text())
        cfg = _resolve_config(raw, output_dir, seed)
        command = cfg["command"]
        stages = _stages(command)
        # Only the poincare and counterexample stages read no potential.
        potential = (_build_potential(cfg)
                     if set(stages) - {"poincare", "counterexample"} else None)
        # The star gap is defined through the antisymmetric eigenfunction.
        _expect("gap" not in stages or potential.symmetric,
                f"command {command!r} needs a mirror-symmetric potential")
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg["output_dir"])
    try:
        if "spectrum" in stages or "gap" in stages:
            grid = Grid(cfg["interval"][0], cfg["interval"][1], cfg["N"])
            # Before any output exists: a potential that overflows at a
            # node fails assembly's finiteness check, which names the node.
            with np.errstate(over="ignore", invalid="ignore"):
                op = assemble_operator(grid, cfg["alpha"], potential)
            # The gap stage reads lambda_2 and phi_2.
            result = eigensolve(op, max(cfg["m"], 2) if "gap" in stages else cfg["m"])
        out.mkdir(parents=True, exist_ok=True)
        write_atomic(out / "config_echo.json", dumps_json(cfg))
        if "spectrum" in stages:
            _cmd_spectrum(cfg, out, rep, potential, result)
        if "gap" in stages:
            _cmd_gap(cfg, out, rep, result)
        if "poincare" in stages:
            _cmd_poincare(cfg, out, rep)
        if "counterexample" in stages:
            _cmd_counterexample(cfg, out, rep)
        if "simulate" in stages:
            _cmd_simulate(cfg, out, rep, potential)
        if "phi" in stages:
            _cmd_phi(cfg, rep, potential)
    except WitnessSearchError as exc:
        print(f"nonconvergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ConfigError, DomainError) as exc:
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
