"""CLI behavior: config resolution, commands, exit codes, output files."""

import json
import shutil
import subprocess
import sys

import pytest

from fracgap.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    run,
)


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

    def test_bad_quadrature(self, tmp_path):
        code, _ = run_quiet(tmp_path, {
            "command": "gap",
            "quadrature": {"max_panels": 2},
        })
        assert code == EXIT_CONFIG

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


class TestExitCodes:
    def test_nonconvergence_exit(self, tmp_path):
        code, _ = run_quiet(tmp_path, {
            "command": "gap",
            "N": 64,
            "m": 4,
            "quadrature": {"abs_tol": 1e-14, "rel_tol": 1e-14, "max_panels": 4},
        })
        assert code == EXIT_NONCONVERGENCE

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

    def test_retries_with_larger_m_when_star_missing(self, tmp_path):
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
        lines = (out / "fk_estimates.csv").read_text().splitlines()
        assert lines[0] == "x,mean,stderr,n_paths"
        assert len(lines) == 8

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


class TestEntryPoint:
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
