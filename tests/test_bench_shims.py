"""The benchmark harness in fgbench/ still runs against the library.

fgbench builds numerics.QuadConfig when imported, reads poincare.CAMPAIGN_CFG,
and passes a positional cfg to forms.check_gaps, poincare.poincare_check and
poincare.weighted_poincare_check. The library keeps those only for the
harness; this test fails if one goes before the benchmark definition changes.
"""

import contextlib
import importlib
from pathlib import Path

FGBENCH = Path(__file__).resolve().parent.parent / "fgbench"


def test_forms_campaign_runs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(FGBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.generate("forms-campaign", 1, tiny=True)
    ctx = workloads.prepare("forms-campaign", ops, tmp_path, False)
    problems = [workloads.run_op(op, ctx, contextlib.nullcontext())[1] for op in ops]
    assert problems == [None] * len(ops)
