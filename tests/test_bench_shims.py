"""The benchmark harness in fgbench/ still runs against the library.

fgbench builds numerics.QuadConfig when imported, reads poincare.CAMPAIGN_CFG,
and passes a positional cfg to forms.check_gaps, poincare.poincare_check and
poincare.weighted_poincare_check. Its spectral-sweep checks eigenvalues
against scipy in a separate process, and its tracing probe reads op.matrix.
The library keeps those only for the harness; these tests fail if one goes
before the benchmark definition changes.
"""

import contextlib
import importlib
from pathlib import Path

import pytest

from fracgap import spectral
from fracgap.potentials import make_power_well
from fracgap.spectral import Grid, assemble_operator, eigensolve

FGBENCH = Path(__file__).resolve().parent.parent / "fgbench"


@pytest.fixture
def fgbench(monkeypatch):
    monkeypatch.syspath_prepend(str(FGBENCH))
    return importlib.import_module


def test_forms_campaign_runs(tmp_path, fgbench):
    workloads = fgbench("workloads")
    ops = workloads.generate("forms-campaign", 1, tiny=True)
    ctx = workloads.prepare("forms-campaign", ops, tmp_path, False)
    problems = [workloads.run_op(op, ctx, contextlib.nullcontext())[1] for op in ops]
    assert problems == [None] * len(ops)


def test_spectral_sweep_op_matches_its_reference(tmp_path, fgbench):
    workloads = fgbench("workloads")
    ops = workloads.generate("spectral-sweep", 1, tiny=True)[:1]
    ctx = workloads.prepare("spectral-sweep", ops, tmp_path, False)
    assert workloads.run_op(ops[0], ctx, contextlib.nullcontext())[1] is None


def _seeded_sweep_op_at(workloads, symmetric: bool, n: int):
    seeded = next(op for op in workloads.generate("spectral-sweep", 1, tiny=True)
                  if op.symmetric == symmetric)
    return workloads.SweepOp(0, seeded.alpha, seeded.spec, (n,))


def test_asymmetric_sweep_op_matches_its_reference(tmp_path, fgbench, monkeypatch):
    # At N = 512 the seed's off-centre well takes the Krylov solve through
    # its coupled parity blocks; reference.py's scipy eigh shares no code
    # with it.
    workloads = fgbench("workloads")
    op = _seeded_sweep_op_at(workloads, False, 512)
    ctx = workloads.prepare("spectral-sweep", [op], tmp_path, False)
    coupled, solver = [], spectral._coupled_solver

    def counting(*args):
        coupled.append(args[0].shape[0])
        return solver(*args)

    monkeypatch.setattr(spectral, "_coupled_solver", counting)
    assert workloads.run_op(op, ctx, contextlib.nullcontext())[1] is None
    assert coupled == [512]


@pytest.mark.parametrize("symmetric", [False, True], ids=["asymmetric", "symmetric"])
def test_sweep_op_matches_its_reference_at_1024(tmp_path, fgbench, monkeypatch, symmetric):
    # At N = 1024 the Krylov solve runs on blocks of 512 unknowns, whose
    # factors split three times down to 64-row leaves. On the off-centre
    # well the Schur complement's 128-column panels start inside both
    # halves of E's first split.
    workloads = fgbench("workloads")
    op = _seeded_sweep_op_at(workloads, symmetric, 1024)
    ctx = workloads.prepare("spectral-sweep", [op], tmp_path, False)
    solved, krylov = [], spectral._krylov_lowest

    def counting(a, *args):
        solved.append(a.shape[0])
        return krylov(a, *args)

    monkeypatch.setattr(spectral, "_krylov_lowest", counting)
    assert workloads.run_op(op, ctx, contextlib.nullcontext())[1] is None
    assert solved == ([512, 512] if symmetric else [1024])


def test_tracing_probe_reads_the_operator(fgbench):
    tracing = fgbench("tracing")
    op = assemble_operator(Grid(-1.0, 1.0, 64), 1.5, make_power_well(5.0, 2.0, (-1.0, 1.0)))
    counts = tracing._eigensolve({"op": op}, eigensolve(op, 2))
    assert counts["n3"] == 64 ** 3
    assert counts["symmetric"] is True
    assert 0.0 < counts["residual"] < 1e-10
