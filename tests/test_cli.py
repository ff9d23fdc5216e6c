"""CLI behavior: config resolution, commands, exit codes, output files."""

import csv
import json
import math
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from fracgap import cli, montecarlo
from fracgap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    MAX_WORKING_BYTES,
    run,
)
from fracgap.errors import WitnessSearchError
from fracgap.montecarlo import make_rng
from fracgap.numerics import piecewise_linear_form
from fracgap.poincare import random_piecewise_linear


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_quiet(tmp_path, payload, **kwargs):
    out = tmp_path / "out"
    code = run(write_config(tmp_path, payload), output_dir=str(out),
               quiet=True, **kwargs)
    return code, out


class TestConfigErrors:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(str(bad), quiet=True) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "absent.json"), quiet=True) == EXIT_CONFIG

    def test_unknown_key(self, tmp_path, capsys):
        code, _ = run_quiet(tmp_path, {"command": "gap", "alhpa": 1.5})
        assert code == EXIT_CONFIG
        assert "alhpa" in capsys.readouterr().err

    def test_unknown_potential_key(self, tmp_path, capsys):
        code, out = run_quiet(tmp_path, {
            "command": "spectrum", "N": 64,
            "potential": {"kind": "power_well", "kapa": 5}})
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: unknown potential keys for 'power_well': ['kapa']\n")
        assert not out.exists()

    def test_unknown_command(self, tmp_path):
        code, _ = run_quiet(tmp_path, {"command": "spectra"})
        assert code == EXIT_CONFIG

    def test_poincare_needs_alpha_above_one(self, tmp_path, capsys):
        code, _ = run_quiet(tmp_path, {"command": "poincare", "alpha": 0.9})
        assert code == EXIT_CONFIG
        assert "(1, 2)" in capsys.readouterr().err

    def test_counterexample_needs_alpha_below_one(self, tmp_path):
        code, _ = run_quiet(tmp_path, {"command": "counterexample", "alpha": 1.5})
        assert code == EXIT_CONFIG

    def test_bad_quadrature(self, tmp_path, capsys):
        # The gap form is exact, so a quadrature section is refused, not ignored.
        code, out = run_quiet(tmp_path, {
            "command": "gap",
            "quadrature": {"max_panels": 2},
        })
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown config keys: ['quadrature']\n"
        assert not out.exists()

    def test_tabulated_interval_mismatch(self, tmp_path):
        csv = tmp_path / "pot.csv"
        csv.write_text("x,V\n-0.5,1.0\n0.0,0.0\n0.5,1.0\n")
        code, _ = run_quiet(tmp_path, {
            "command": "spectrum",
            "interval": [-1.0, 1.0],
            "potential": {"kind": "tabulated", "path": str(csv)},
        })
        assert code == EXIT_CONFIG

    def test_inverse_well_beta_violation(self, tmp_path):
        code, _ = run_quiet(tmp_path, {
            "command": "spectrum",
            "alpha": 0.5,
            "potential": {"kind": "inverse_boundary_well", "beta": 0.7},
        })
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("potential", [
        {"kind": "power_well", "kappa": "abc"},
        {"kind": "power_well", "kappa": None},
        {"kind": "inverse_boundary_well", "beta": "x"},
        {"kind": "tabulated", "path": "no_such_potential.csv"},
    ])
    def test_bad_potential_values(self, tmp_path, capsys, potential):
        for command in ("spectrum", "gap", "simulate", "phi", "all"):
            code, _ = run_quiet(tmp_path, {"command": command, "potential": potential})
            assert code == EXIT_CONFIG, command
            err = capsys.readouterr().err
            assert err.startswith("config error:") and err.count("\n") == 1, err


    def test_overflowing_potential_is_one_config_error(self, tmp_path, capsys):
        # |x|^400 overflows at most nodes of (-10, 10): one config error
        # line, no numpy warning, and nothing written.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_quiet(tmp_path, {
                "command": "spectrum", "interval": [-10, 10], "N": 16,
                "potential": {"kind": "power_well", "kappa": 1, "p": 400},
            })
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: potential is not finite"), err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_overflowing_potential_fails_simulate(self, tmp_path, capsys):
        # The path sums of |x|^400 on (-10, 10) are infinite: one config
        # error line and no numpy warning, not an all-zero profile that passes.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_quiet(tmp_path, {
                "command": "simulate", "interval": [-10, 10],
                "potential": {"kind": "power_well", "kappa": 1, "p": 400},
                "mc": {"n_paths": 2000, "n_steps": 16},
            })
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: the potential summed along some path"), err
        assert err.count("\n") == 1, err
        assert not (out / "fk_estimates.csv").exists()

    def test_overflowing_potential_fails_phi(self, tmp_path, capsys):
        # exp(-t inf) = 0 at every Gauss node made both chains pass.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_quiet(tmp_path, {
                "command": "phi", "interval": [-10, 10],
                "potential": {"kind": "power_well", "kappa": 1, "p": 400},
            })
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: potential is not finite at Gauss node"), err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("interval", [[0, 1e-300], [0, 1e-200], [-1e300, 1e300]])
    def test_underflowing_kernel_chain_fails_phi(self, tmp_path, capsys, interval):
        # Every chain value underflowed to 0, which read as a failed check
        # with max violation inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_quiet(tmp_path, {"command": "phi", "interval": interval})
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: kernel chain values underflow to 0"), err
        assert err.count("\n") == 1, err

    def test_oversized_monte_carlo_rejected_before_allocating(self, tmp_path, capsys):
        # The default size sits far below the limit; 10^10 paths far above.
        assert cli._mc_working_bytes(21, 20_000) * 50 <= MAX_WORKING_BYTES
        assert cli._mc_working_bytes(21, 10**10) > MAX_WORKING_BYTES
        tracemalloc.start()
        try:
            code, out = run_quiet(tmp_path, {"command": "simulate",
                                             "mc": {"n_paths": 10**10}})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert peak < 1_000_000
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "GiB" in err

    def test_oversized_grid_rejected_before_allocating(self, tmp_path, capsys):
        tracemalloc.start()
        try:
            code, out = run_quiet(tmp_path, {"command": "spectrum", "N": 10**6})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert peak < 1_000_000
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: N = 1000000 needs about")
        assert err.count("\n") == 1 and "GiB limit" in err, err

    TINY_ALL = {"command": "all", "N": 64,
                "mc": {"n_paths": 200, "n_steps": 4, "n_points": 3},
                "poincare": {"n_functions": 3}}

    @pytest.mark.parametrize("payload, message", [
        ({"command": "phi", "chain": {"n_points": 0}}, "chain.n_points must be >= 1, got 0"),
        ({"command": "poincare", "poincare": {"max_segments": 2}},
         "poincare.max_segments must be >= 3, got 2"),
        ({**TINY_ALL, "mc": {**TINY_ALL["mc"], "t_final": -1}},
         "t_final must lie in (0, inf), got -1.0"),
        ({**TINY_ALL, "mc": {**TINY_ALL["mc"], "n_steps": 0}}, "n_steps must be >= 1, got 0"),
        ({**TINY_ALL, "counterexample": {"n_list": [4, 2]}},
         "counterexample.n_list must hold at least two strictly increasing "
         "positive integers, got [4, 2]"),
        ({**TINY_ALL, "counterexample": {"n_list": [4]}},
         "counterexample.n_list must hold at least two strictly increasing "
         "positive integers, got [4]"),
        ({**TINY_ALL, "chain": {"kernel_times": [-0.1, 0.2]}},
         "chain.kernel_times entry must lie in (0, inf), got -0.1"),
        ({**TINY_ALL, "chain": {"potential_times": [0.05, -0.1]}},
         "chain.potential_times must be finite and >= 0, got [0.05, -0.1]"),
    ])
    def test_empty_sizes_rejected_before_output(self, tmp_path, capsys, payload, message):
        # Each used to fail inside its stage, after config_echo.json (and
        # under `all` the earlier stages' files) was written.
        code, out = run_quiet(tmp_path, payload)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n", err
        assert not out.exists()

    @pytest.mark.parametrize("payload, message", [
        ({"command": "spectrum", "N": 64, "m": True}, "m must be a number, got True"),
        ({"command": "spectrum", "N": 100.7}, "N must be an integer, got 100.7"),
        ({"command": "spectrum", "N": 64, "alpha": True}, "alpha must be a number, got True"),
        ({"command": "simulate", "mc": {"n_paths": 1e3 + 0.5}},
         "mc.n_paths must be an integer, got 1000.5"),
        ({"command": "counterexample", "alpha": 0.5, "counterexample": {"n_list": [1, 2.5]}},
         "counterexample.n_list must be an integer, got 2.5"),
        ({"command": "simulate", "mc": {"seed": -1}}, "mc.seed must be >= 0, got -1"),
        ({"command": "spectrum", "N": "64", "alpha": "1.5"},
         "alpha must be a number, got '1.5'"),
        ({"command": "simulate", "mc": {"t_final": "1e-1", "n_paths": "100"}},
         "mc.t_final must be a number, got '1e-1'"),
        ({"command": "simulate", "mc": {"t_final": math.inf}},
         "mc.t_final must be finite, got inf"),
        ({"command": "spectrum", "N": 64, "interval": [-1e308, 1e308]},
         "interval must be finite with b > a and a finite length, got (-1e+308, 1e+308)"),
        ({"command": "simulate", "interval": [-1e308, 1e308]},
         "interval must be finite with b > a and a finite length, got (-1e+308, 1e+308)"),
        ({"command": "spectrum", "N": 64, "interval": [0, 1e-300]},
         "h^(-alpha) g_0 overflows at h=1.5384615384615385e-302, alpha=1.5"),
        ({"alpha": 1.5}, "command must be given"),
        ({"command": "spectrum", "potential": {"kind": "tabulated"}},
         "potential.path must be given"),
        ({"command": "poincare", "poincare": [100]},
         "poincare must be a JSON object, got [100]"),
        ({"command": "phi", "chain": {"kernel_times": 0.1}},
         "chain.kernel_times must be a list, got 0.1"),
        ({"command": "phi", "chain": {"n_points": [41]}},
         "chain.n_points must be a number, got [41]"),
        ({"command": "phi", "output_dir": 1}, "output_dir must be a string, got 1"),
        ({"command": "spectrum", "N": 10**200},
         f"N = {10**200} needs about inf GiB, over the 2 GiB limit"),
        ({"command": "simulate", "mc": {"n_paths": 10**160, "n_points": 10**160}},
         "mc.n_points x mc.n_paths needs about inf GiB, over the 2 GiB limit"),
        ({"command": "spectrum", "N": 64, "interval": [-1e300, 1e300]},
         "h^(-alpha) g_0 underflows at h=3.076923076923077e+298, alpha=1.5"),
        ({"command": "spectrum", "N": 64, "interval": [0, 1e-200]},
         "N (h^(-alpha) g_0)^2 overflows at h=1.5384615384615385e-202, alpha=1.5"),
    ])
    def test_bools_fractions_and_negative_seeds_refused(self, tmp_path, capsys,
                                                        payload, message):
        # The first five used to be truncated or read as 1; a negative
        # seed failed in the generator as an internal error. Strings ran as
        # numbers. An infinite t_final or interval length, a grid too fine
        # for h^(-alpha) and a size past the float range failed late, with
        # another message, or as an internal error. A grid too coarse for
        # h^(-alpha) failed the ground-state sign check, and one so fine that
        # the solve's norms overflow printed numpy warnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_quiet(tmp_path, payload)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_integral_floats_read_as_ints(self, tmp_path):
        code, out = run_quiet(tmp_path, {"command": "spectrum", "N": 6.4e1, "m": 2.0})
        assert code == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        assert (echo["N"], echo["m"]) == (64, 2)
        assert type(echo["N"]) is int and type(echo["m"]) is int

    @pytest.mark.parametrize("command", ["gap", "all"])
    def test_asymmetric_potential_under_gap(self, tmp_path, capsys, command):
        # lambda_star belongs to mirror-symmetric wells; an off-centre well
        # is bad input for the gap stage, not a defect.
        csv = tmp_path / "off.csv"
        csv.write_text("x,V\n-1.0,8.0\n0.3,0.0\n1.0,4.0\n")
        code, out = run_quiet(tmp_path, {
            "command": command, "N": 64,
            "potential": {"kind": "tabulated", "path": str(csv)},
        })
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert "mirror-symmetric" in err
        # Refused before the solve, so nothing is written.
        assert not out.exists()


class TestExitCodes:
    def test_internal_error_exit(self, tmp_path, capsys, monkeypatch):
        def broken_stage(*args):
            raise RuntimeError("stage broke\nwith a second line")

        monkeypatch.setattr(cli, "_cmd_phi", broken_stage)
        code, _ = run_quiet(tmp_path, {"command": "phi"})
        assert code == EXIT_INTERNAL
        assert EXIT_INTERNAL not in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_CONFIG,
                                     EXIT_NONCONVERGENCE)
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError: stage broke with a "
                              "second line (at test_cli.py:")
        assert err.endswith(" in broken_stage)\n") and err.count("\n") == 1, err

    def test_nonconvergence_exit(self, tmp_path, capsys, monkeypatch):
        def stalled_stage(*args):
            raise WitnessSearchError("depth cap reached")

        monkeypatch.setattr(cli, "_cmd_counterexample", stalled_stage)
        code, _ = run_quiet(tmp_path, {"command": "counterexample", "alpha": 0.5})
        assert code == EXIT_NONCONVERGENCE
        err = capsys.readouterr().err
        assert err == "nonconvergence: depth cap reached\n", err

    def test_failed_check_exit(self, tmp_path, capsys):
        # W-shaped tabulated potential: symmetric but not a single well.
        csv = tmp_path / "w.csv"
        csv.write_text("x,V\n-1.0,0.0\n-0.5,2.0\n0.0,3.0\n0.5,2.0\n1.0,0.0\n")
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "spectrum",
            "N": 64,
            "m": 4,
            "potential": {"kind": "tabulated", "path": str(csv)},
        }), output_dir=str(out))
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr().out
        assert "FAIL potential" in captured
        # pipeline still writes the spectrum files for inspection
        assert (out / "spectrum.csv").exists()


class TestSpectrumCommand:
    def test_free_case_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "spectrum", "N": 64, "m": 4,
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS potential" in captured
        assert "PASS shape" in captured
        assert "INFO decay fit skipped" in captured
        for name in ("config_echo.json", "spectrum.csv", "eigenvectors.csv",
                     "spectrum.json"):
            assert (out / name).exists(), name
        spec = json.loads((out / "spectrum.json").read_text())
        assert spec["N"] == 64
        assert len(spec["eigenvalues"]) == 4
        assert spec["parities"][0] == "symmetric"
        lines = (out / "eigenvectors.csv").read_text().splitlines()
        assert lines[0] == "x,phi_1,phi_2,phi_3,phi_4"
        assert len(lines) == 65

    def test_decay_check_runs_on_fine_grids(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "spectrum", "N": 128, "m": 2,
        }), output_dir=str(out))
        assert code == EXIT_OK
        assert "PASS decay" in capsys.readouterr().out


class TestGapCommand:
    def test_free_case_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "gap", "N": 128, "m": 4,
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS gap_star" in captured
        assert "PASS gap_main" in captured
        assert "rayleigh consistency" in captured
        report = json.loads((out / "gap_report.json").read_text())
        assert report["pass_star"] is True
        assert report["pass_main"] is True
        assert report["star_index"] == 2
        assert report["gap"] > report["bound_main"]

    def test_star_index_with_one_requested_level(self, tmp_path):
        code, out = run_quiet(tmp_path, {"command": "gap", "N": 64, "m": 1})
        assert code == EXIT_OK
        report = json.loads((out / "gap_report.json").read_text())
        assert report["star_index"] == 2

    def test_low_alpha_main_bound_info(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "gap", "alpha": 0.8, "N": 64, "m": 4,
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "main bound not applicable" in captured
        report = json.loads((out / "gap_report.json").read_text())
        assert report["bound_main"] is None


class TestPoincareCommand:
    def test_small_campaign(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "poincare",
            "poincare": {"n_functions": 3, "seed": 5, "max_segments": 8},
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS poincare_inequality: 3/3 passed" in captured
        assert "PASS poincare_witness" in captured
        for i in range(3):
            assert (out / f"witness_{i:04d}.json").exists()
        lines = (out / "poincare_campaign.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "id", "n_breakpoints", "lipschitz", "f1", "lhs", "lhs_error",
            "rhs", "ratio", "n0", "certified_bound", "sound", "passed"]
        assert len(lines) == 4

    def test_lhs_column_is_the_exact_form(self, tmp_path):
        code, out = run_quiet(tmp_path, {
            "command": "poincare", "alpha": 1.3,
            "poincare": {"n_functions": 12, "seed": 11, "max_segments": 32},
        })
        assert code == EXIT_OK
        with open(out / "poincare_campaign.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rng = make_rng(11)
        assert len(rows) == 12
        for row in rows:
            f = random_piecewise_linear(rng, 32)
            exact = piecewise_linear_form(f, 1.3, (0.0, 1.0))
            assert float(row["lhs"]) == exact.value
            assert float(row["lhs_error"]) <= 1e-6 * float(row["lhs"])
            assert row["sound"] == row["passed"] == "true"


class TestCounterexampleCommand:
    def test_default_scan_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "counterexample", "alpha": 0.5,
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS counterexample_decay" in captured
        assert "PASS counterexample_slope" in captured
        lines = (out / "counterexample.csv").read_text().splitlines()
        assert lines[0] == "n,value,error_estimate"
        assert len(lines) == 7

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_tail_slope_gate_across_alpha(self, tmp_path, capsys, alpha):
        # The fit over n = 1..32 read -0.2053 at alpha 0.7, above the old
        # fixed gate of -0.35; the tail slope tracks alpha - 1.
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {"command": "counterexample", "alpha": alpha}),
                   output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS counterexample_decay" in captured
        assert "PASS counterexample_slope" in captured


class TestSimulateAndPhi:
    def test_simulate_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "simulate",
            "mc": {"t_final": 0.2, "n_steps": 32, "n_paths": 4000,
                   "seed": 3, "n_points": 7},
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS fk_symmetry" in captured
        assert "PASS fk_unimodality" in captured
        # 0.8300 (0.2 / 32)^(2/3) at alpha 1.5.
        assert ("INFO kill shift delta = 0.0281626: paths are killed on leaving "
                "(-0.97183737, 0.97183737) at grid times\n") in captured
        lines = (out / "fk_estimates.csv").read_text().splitlines()
        assert lines[0] == "x,mean,stderr,n_paths"
        assert len(lines) == 8

    def test_simulate_fails_on_an_asymmetric_bimodal_profile(self, tmp_path, capsys,
                                                             monkeypatch):
        # Mirror pair (1, 3) differs by 0.3 against a slack of 0.06, and the
        # fall 0.5 -> 0.3 before the peak at 0.8 exceeds its slack by 0.14.
        means = [0.1, 0.5, 0.3, 0.8, 0.2]

        def fake(xs, potential, cfg, n_paths):
            return [montecarlo.PathEstimate(float(x), m, 0.01, n_paths)
                    for x, m in zip(xs, means)]

        monkeypatch.setattr(cli, "estimate_feynman_kac", fake)
        code = run(write_config(tmp_path, {"command": "simulate", "mc": {"n_points": 5}}),
                   output_dir=str(tmp_path / "out"))
        assert code == EXIT_CHECK_FAILED
        captured = capsys.readouterr().out
        assert ("FAIL fk_symmetry: mirror deviations within 3 stderr "
                "(worst slack excess 2.400e-01)\n") in captured
        assert ("FAIL fk_unimodality: profile unimodal within 3 stderr "
                "(worst excess 1.400e-01)\n") in captured

    @pytest.mark.parametrize("command", ["simulate", "all"])
    def test_shift_of_a_quarter_interval_refused_before_output(self, tmp_path, capsys,
                                                                command):
        # One step over t = 10 would move each kill boundary 3.85 inward,
        # past the middle of (-1, 1): every path would be killed.
        code, out = run_quiet(tmp_path, {"command": command,
                                         "mc": {"t_final": 10.0, "n_steps": 1}})
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: t_final / n_steps = 10 moves each kill boundary "
            "3.85259 inward, not under a quarter of the interval length 2; "
            "raise n_steps\n")
        assert not out.exists()

    def test_shift_checked_only_where_paths_run_and_shift(self):
        # Below the shifted alpha range delta is 0, and phi runs no paths.
        for payload in ({"command": "simulate", "alpha": 1.2},
                        {"command": "phi", "alpha": 1.5}):
            cli._resolve_config({**payload, "mc": {"t_final": 10.0, "n_steps": 1}},
                                None, None)

    @pytest.mark.parametrize("alpha, mc, n_steps", [
        (1.5, {}, 128), (1.9, {}, 128), (1.45, {}, 256), (0.7, {}, 256),
        (1.5, {"n_steps": 256}, 256), (1.2, {"n_steps": 128}, 128),
        (1.5, {"n_steps": 5}, 5),
    ])
    def test_n_steps_default_follows_the_shift(self, alpha, mc, n_steps):
        # 128 where the kill shift applies, 256 elsewhere; a given value is kept.
        cfg = cli._resolve_config({"command": "simulate", "alpha": alpha, "mc": mc},
                                  None, None)
        assert cfg["mc"]["n_steps"] == n_steps

    def test_phi_chains(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "phi",
            "potential": {"kind": "power_well", "kappa": 5.0, "p": 2.0},
        }), output_dir=str(out))
        assert code == EXIT_OK
        captured = capsys.readouterr().out
        assert "PASS chain_1" in captured
        assert "PASS chain_2" in captured


class TestOutputSchema:
    """Every file a tiny `all` run writes: JSON keys in order, CSV headers."""

    def test_all_files(self, tmp_path):
        code, out = run_quiet(tmp_path, {
            "command": "all", "N": 64,
            "mc": {"n_paths": 200, "n_steps": 16, "n_points": 3},
            "poincare": {"n_functions": 2},
        })
        assert code == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == [
            "config_echo.json", "counterexample.csv", "eigenvectors.csv",
            "fk_estimates.csv", "gap_report.json", "poincare_campaign.csv",
            "spectrum.csv", "spectrum.json", "witness_0000.json", "witness_0001.json"]

        spec = json.loads((out / "spectrum.json").read_text())
        assert list(spec) == ["alpha", "a", "b", "N", "eigenvalues", "parities", "residuals"]
        assert (spec["alpha"], spec["a"], spec["b"], spec["N"]) == (1.5, -1.0, 1.0, 64)
        assert len(spec["eigenvalues"]) == len(spec["residuals"]) == 6
        assert spec["parities"][:2] == ["symmetric", "antisymmetric"]

        report = json.loads((out / "gap_report.json").read_text())
        assert list(report) == [
            "alpha", "a", "b", "gap", "gap_star", "star_index", "bound_main",
            "bound_star", "rayleigh_value", "consistency_gap_vs_rayleigh",
            "pass_main", "pass_star"]

        cert = json.loads((out / "witness_0000.json").read_text())
        assert list(cert) == ["alpha", "c", "n0", "certified_bound", "scale",
                              "rectangle", "steps"]
        assert len(cert["rectangle"]) == 4
        assert len(cert["steps"]) == cert["n0"]
        for step in cert["steps"]:
            assert list(step) == ["n", "a", "b", "x", "y", "level_low", "level_high",
                                  "first_cross", "last_cross", "branch"]
        assert cert["steps"][-1]["branch"] == "terminal"

        def table(name):
            with open(out / name, newline="") as fh:
                return list(csv.reader(fh))

        assert table("spectrum.csv")[0] == ["k", "eigenvalue", "parity", "residual"]
        vectors = table("eigenvectors.csv")
        assert vectors[0] == ["x"] + [f"phi_{j}" for j in range(1, 7)]
        assert len(vectors) == 65 and {len(row) for row in vectors} == {7}
        assert table("poincare_campaign.csv")[0] == [
            "id", "n_breakpoints", "lipschitz", "f1", "lhs", "lhs_error",
            "rhs", "ratio", "n0", "certified_bound", "sound", "passed"]
        assert table("counterexample.csv")[0] == ["n", "value", "error_estimate"]
        paths = table("fk_estimates.csv")
        assert paths[0] == ["x", "mean", "stderr", "n_paths"]
        assert [row[0] for row in paths[1:]] == ["-0.5", "0.0", "0.5"]
        assert {row[3] for row in paths[1:]} == {"200"}

        # Below alpha = 1 the main bound does not apply: null, not absent.
        low = tmp_path / "low"
        assert run(write_config(tmp_path, {"command": "gap", "alpha": 0.7, "N": 64},
                                "low.json"), output_dir=str(low), quiet=True) == EXIT_OK
        report = json.loads((low / "gap_report.json").read_text())
        assert list(report)[6:] == ["bound_main", "bound_star", "rayleigh_value",
                                    "consistency_gap_vs_rayleigh", "pass_main", "pass_star"]
        assert report["bound_main"] is None and report["pass_main"] is None
        assert report["pass_star"] is True

    def test_all_writes_the_union_of_the_single_commands(self, tmp_path):
        tiny = {"N": 64, "mc": {"n_paths": 200, "n_steps": 4, "n_points": 3},
                "poincare": {"n_functions": 2}}
        code, out = run_quiet(tmp_path, {**tiny, "command": "all"})
        assert code == EXIT_OK
        written = {}
        for command in ("spectrum", "gap", "poincare", "counterexample", "simulate", "phi"):
            # counterexample alone needs alpha below 1; under all it reads
            # counterexample.alpha, which defaults to the same 0.5.
            alpha = 0.5 if command == "counterexample" else 1.5
            single = tmp_path / command
            assert run(write_config(tmp_path, {**tiny, "command": command, "alpha": alpha},
                                    f"{command}.json"),
                       output_dir=str(single), quiet=True) == EXIT_OK, command
            written.update((p.name, p.read_bytes()) for p in single.iterdir()
                           if p.name != "config_echo.json")
        assert (out / "config_echo.json").exists()
        assert {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "config_echo.json"} == written


class TestConfigSchema:
    def test_readme_config_block_is_the_resolved_default(self, tmp_path):
        # The README's jsonc block, comments stripped, is config_echo.json
        # of {"command": "all"}: the documented defaults cannot drift.
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
        documented = json.loads(re.sub(r"//.*", "", block))
        code, out = run_quiet(tmp_path, {"command": "all"})
        assert code == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        del documented["output_dir"], echo["output_dir"]
        assert echo == documented

    def test_potential_echo_lists_resolved_defaults(self, tmp_path):
        code, out = run_quiet(tmp_path, {
            "command": "phi", "potential": {"kind": "power_well", "kappa": 5}})
        assert code == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["potential"] == {"kind": "power_well", "kappa": 5.0, "p": 2.0,
                                     "offset": 0.0}
        assert type(echo["potential"]["kappa"]) is float


class TestOverridesAndDeterminism:
    def test_seed_override_reaches_echo(self, tmp_path):
        out = tmp_path / "out"
        code = run(write_config(tmp_path, {
            "command": "phi",
            "mc": {"seed": 1}, "poincare": {"seed": 2},
        }), output_dir=str(out), seed=999, quiet=True)
        assert code == EXIT_OK
        echo = json.loads((out / "config_echo.json").read_text())
        assert echo["mc"]["seed"] == 999
        assert echo["poincare"]["seed"] == 999

    def test_output_dir_flag_beats_config(self, tmp_path):
        out = tmp_path / "flag_dir"
        code = run(write_config(tmp_path, {
            "command": "phi",
            "output_dir": str(tmp_path / "config_dir"),
        }), output_dir=str(out), quiet=True)
        assert code == EXIT_OK
        assert (out / "config_echo.json").exists()
        assert not (tmp_path / "config_dir").exists()

    def test_simulate_rerun_byte_identical(self, tmp_path):
        payload = {
            "command": "simulate",
            "mc": {"t_final": 0.2, "n_steps": 16, "n_paths": 2000,
                   "seed": 3, "n_points": 5},
        }
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        assert run(cfg, output_dir=str(out), quiet=True) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run(cfg, output_dir=str(out), quiet=True) == EXIT_OK
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


    def test_all_byte_identical_across_cpu_counts(self, tmp_path, monkeypatch):
        # Three path blocks, run one at a time or all at once.
        cfg = write_config(tmp_path, {
            "command": "all", "N": 64,
            "mc": {"n_paths": 2 * montecarlo._PATH_BLOCK + 1, "n_steps": 4, "n_points": 3},
            "poincare": {"n_functions": 2},
        })
        out = tmp_path / "out"
        runs = []
        for n_cpu in (1, 8):
            monkeypatch.setattr(montecarlo, "_cpu_count", lambda n=n_cpu: n)
            shutil.rmtree(out, ignore_errors=True)
            assert run(cfg, output_dir=str(out), quiet=True) == EXIT_OK
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] == runs[1]
        assert len(runs[0]) == 10


class TestEntryPoint:
    def test_runs_without_scipy(self, tmp_path):
        # The runtime is numpy-only: with scipy unimportable, a small run of
        # every stage still passes.
        cfg = write_config(tmp_path, {
            "command": "all", "N": 64,
            "mc": {"n_paths": 200, "n_steps": 16, "n_points": 3},
            "poincare": {"n_functions": 3},
        })
        out = str(tmp_path / "out")
        code = ("import sys; sys.modules['scipy'] = None; from fracgap.cli import main; "
                f"sys.exit(main([{cfg!r}, '--output-dir', {out!r}, '--quiet']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_console_script_runs(self, tmp_path):
        exe = shutil.which("fracspec")
        if exe is None:
            argv = [sys.executable, "-m", "fracgap.cli"]
        else:
            argv = [exe]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"command": "phi"})
        proc = subprocess.run(argv + [cfg, "--output-dir", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "PASS chain_1" in proc.stdout

    def test_quiet_flag(self, tmp_path):
        exe = shutil.which("fracspec") or None
        argv = [exe] if exe else [sys.executable, "-m", "fracgap.cli"]
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"command": "phi"})
        proc = subprocess.run(argv + [cfg, "--output-dir", str(out), "--quiet"],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == ""
