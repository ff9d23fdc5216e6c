"""The three fgbench workloads: generation, operations and correctness checks.

A workload is a fixed list of operations generated from the workload seed.
The seed stays in the benchmark: the library receives only the generated
configs, wells and functions. Every operation times its library calls only;
its checks run afterwards, outside the timed region. An operation whose
checks fail, or whose library call raises, counts as failed.

The library is always reached through module attributes (``spectral.eigensolve``
rather than a name imported once), so that a traced run can replace those
attributes with timing wrappers.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from fracgap import cli, forms, numerics, poincare, potentials, spectral

WORKLOADS = ("pipeline", "spectral-sweep", "forms-campaign")

# Every reference value is multiplied by this in --wrong-reference mode, so
# that every operation's check must fail; the self-check relies on it.
WRONG_REFERENCE_FACTOR = 1e12

# pipeline: the default `fracspec all` on a power well; only the two seeds
# come from the workload seed.
PIPELINE_POTENTIAL = {"kind": "power_well", "kappa": 5, "p": 2}
PIPELINE_TINY = {"N": 64, "mc": {"n_paths": 200, "n_steps": 16, "n_points": 3},
                 "poincare": {"n_functions": 3}}

# spectral-sweep: one convergence study per well.
SWEEP_ALPHAS = (0.7, 1.2, 1.7)
SWEEP_LEVELS = (256, 512, 1024, 2048)
SWEEP_LEVELS_TINY = (128, 256)
SWEEP_M = 6
SWEEP_EIG_RTOL = 1e-9
SWEEP_SYMMETRY_TOL = 1e-6

# forms-campaign. The pass cost must not depend much on the seed. Each
# check_gaps well is drawn from an (alpha, kappa, p) box in which the
# rayleigh quadrature settles after the same number of refinement levels
# (six) for every draw. The cost of one Poincare check is heavy-tailed in
# the number of segments, since each extra refinement level costs four
# times the last. Between seeds, the quadrature work of 100 functions with
# up to 32 segments varies by about 25% (quartile spread); that of 200
# functions with up to 4 segments, by about 4%.
GAP_N = 512
GAP_CFG = numerics.QuadConfig(1e-6, 1e-6, 1024)
GAP_BOXES = ((1.2, (0.0, 9.0), (1.5, 3.0)), (1.4, (0.0, 11.0), (1.5, 3.0)))
GAP_CONSISTENCY_MAX = 0.03
POINCARE_ALPHAS = (1.1, 1.5, 1.9)
POINCARE_FUNCTIONS = 200
POINCARE_MAX_SEGMENTS = 4
WEIGHTED_ALPHA = 1.5
WEIGHTED_PAIRS = 10
COUNTEREXAMPLE_ALPHA = 0.5
COUNTEREXAMPLE_SLOPE_MAX = -0.35


class Op:
    """One operation: `call` runs the library, `check` returns a problem or None."""

    kind = "op"

    def reset(self, ctx) -> None:
        """Untimed preparation before each call."""

    def call(self, ctx):
        raise NotImplementedError

    def check(self, out, ctx) -> str | None:
        raise NotImplementedError


class Context:
    """Per-run state shared by the operations of one workload."""

    def __init__(self, workdir: Path, wrong_reference: bool):
        self.workdir = workdir
        self.skew = WRONG_REFERENCE_FACTOR if wrong_reference else 1.0
        self.wrong_reference = wrong_reference
        self.reference = None


def run_op(op: Op, ctx: Context, span) -> tuple[float, str | None]:
    """Time op.call inside `span`, then check it; returns (seconds, problem).

    This is the boundary that keeps a run going: any exception from the
    library marks the operation failed, NonConvergenceError and
    WitnessSearchError included. They are never retried or reseeded.
    """
    op.reset(ctx)
    with span:
        t0 = time.perf_counter()
        try:
            out = op.call(ctx)
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            return time.perf_counter() - t0, f"{op.kind}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return elapsed, op.check(out, ctx)


# ---------------------------------------------------------------- pipeline

def _expected_files(n_functions: int) -> set[str]:
    names = {"config_echo.json", "spectrum.csv", "eigenvectors.csv",
             "spectrum.json", "gap_report.json", "poincare_campaign.csv",
             "counterexample.csv", "fk_estimates.csv"}
    return names | {f"witness_{i:04d}.json" for i in range(n_functions)}


class PipelineOp(Op):
    kind = "pipeline"

    def __init__(self, config: dict):
        self.config = config

    def reset(self, ctx):
        shutil.rmtree(ctx.workdir / "pipeline_out", ignore_errors=True)

    def call(self, ctx):
        return cli.run(str(ctx.config_path), str(ctx.workdir / "pipeline_out"), None, True)

    def check(self, code, ctx):
        out = ctx.workdir / "pipeline_out"
        if code != 0:
            return f"pipeline: exit code {code}"
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        expected = _expected_files(self.config["poincare"].get("n_functions", 100))
        if set(files) != expected:
            return (f"pipeline: missing {sorted(expected - set(files))[:3]}, "
                    f"unexpected {sorted(set(files) - expected)[:3]}")
        if ctx.reference is None:
            ctx.reference = dict(files)
            if ctx.wrong_reference:
                ctx.reference["spectrum.csv"] += b"\n"
        changed = sorted(n for n in files if files[n] != ctx.reference[n])
        if changed:
            return f"pipeline: outputs differ from the first operation: {changed[:3]}"
        return None


def _pipeline(rng, tiny: bool) -> list[Op]:
    config = {"command": "all", "potential": dict(PIPELINE_POTENTIAL),
              "mc": {"seed": int(rng.integers(2**31))},
              "poincare": {"seed": int(rng.integers(2**31))}}
    if tiny:
        config["N"] = PIPELINE_TINY["N"]
        config["mc"].update(PIPELINE_TINY["mc"])
        config["poincare"].update(PIPELINE_TINY["poincare"])
    return [PipelineOp(config)]


# ---------------------------------------------------------- spectral-sweep

class SweepOp(Op):
    kind = "spectral-sweep"

    def __init__(self, index: int, alpha: float, spec: dict, levels):
        self.index = index
        self.alpha = alpha
        self.spec = spec
        self.levels = tuple(levels)
        self.symmetric = spec["kind"] == "power_well"
        if self.symmetric:
            self.well = potentials.make_power_well(spec["kappa"], spec["p"],
                                                   (spec["a"], spec["b"]))
        else:
            self.well = potentials.make_tabulated(spec["xs"], spec["ys"])

    def call(self, ctx):
        a, b = self.spec["a"], self.spec["b"]
        results = []
        for n in self.levels:
            op = spectral.assemble_operator(spectral.Grid(a, b, n), self.alpha, self.well)
            results.append(spectral.eigensolve(op, SWEEP_M))
        extrapolated = spectral.richardson([(r.grid.n, r.eigenvalues) for r in results])
        finest = results[-1]
        shape = spectral.ground_state_shape_check(finest)
        decay = spectral.boundary_decay_check(finest)
        try:
            star = spectral.lambda_star(finest)
        except LookupError:
            star = None
        return ([r.eigenvalues for r in results], extrapolated, shape, decay, star)

    def check(self, out, ctx):
        eigenvalues, extrapolated, shape, decay, star = out
        for n, lam, ref in zip(self.levels, eigenvalues, ctx.reference[self.index]):
            ref = np.asarray(ref) * ctx.skew
            rel = float(np.max(np.abs(lam - ref) / np.abs(ref)))
            if not rel <= SWEEP_EIG_RTOL:
                return f"sweep well {self.index} N={n}: eigenvalues off reference by {rel:.2e}"
        if not np.all(np.isfinite(extrapolated)) or not math.isfinite(decay.slope):
            return f"sweep well {self.index}: non-finite extrapolation or decay fit"
        if self.symmetric:
            if not shape.symmetry_error <= SWEEP_SYMMETRY_TOL:
                return f"sweep well {self.index}: ground state asymmetric {shape.symmetry_error:.2e}"
            if star is None:
                return f"sweep well {self.index}: no antisymmetric level among {SWEEP_M}"
            bound = forms.gap_bounds(self.alpha, self.spec["a"], self.spec["b"]).bound_star
            gap_star = star[1] - float(eigenvalues[-1][0])
            if not gap_star >= bound:
                return f"sweep well {self.index}: star gap {gap_star:.6g} below bound {bound:.6g}"
        return None


def _sweep(rng, tiny: bool) -> list[Op]:
    levels = SWEEP_LEVELS_TINY if tiny else SWEEP_LEVELS
    a, b = -1.0, 1.0
    ops = []
    for alpha in SWEEP_ALPHAS:
        for _ in range(2):
            spec = {"kind": "power_well", "a": a, "b": b,
                    "kappa": float(rng.uniform(0.0, 30.0)),
                    "p": float(rng.uniform(1.5, 3.0))}
            ops.append(SweepOp(len(ops), alpha, spec, levels))
        # Asymmetric: a power well centred off the midpoint, tabulated.
        kappa = float(rng.uniform(5.0, 30.0))
        p = float(rng.uniform(1.5, 3.0))
        centre = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.35) * (b - a))
        xs = np.linspace(a, b, 17)
        spec = {"kind": "tabulated", "a": a, "b": b, "xs": xs.tolist(),
                "ys": (kappa * np.abs(xs - centre) ** p).tolist()}
        ops.append(SweepOp(len(ops), alpha, spec, levels))
    return ops


def sweep_reference(ops: list[SweepOp]) -> list:
    """Reference eigenvalues from reference.py, run as its own process.

    A separate process keeps scipy and its matrices out of the measured
    process, whose peak RSS is an end-to-end metric.
    """
    request = [{"alpha": op.alpha, "levels": list(op.levels), "m": SWEEP_M,
                **op.spec} for op in ops]
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve().parent / "reference.py")],
                          input=json.dumps(request), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"reference.py failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------- forms-campaign

def _levy_constant(alpha: float) -> float:
    """A(-alpha) from math.gamma, independent of fracgap.numerics."""
    return (math.gamma((1.0 + alpha) / 2.0)
            / (2.0 ** -alpha * math.sqrt(math.pi) * abs(math.gamma(-alpha / 2.0))))


def _poincare_constant(alpha: float) -> float:
    return (1.0 / 9.0) ** ((alpha + 1.0) / (alpha - 1.0))


class GapOp(Op):
    kind = "check_gaps"

    def __init__(self, alpha: float, kappa: float, p: float):
        self.alpha = alpha
        self.well = potentials.make_power_well(kappa, p, (-1.0, 1.0))

    def call(self, ctx):
        op = spectral.assemble_operator(spectral.Grid(-1.0, 1.0, GAP_N), self.alpha, self.well)
        return forms.check_gaps(spectral.eigensolve(op, SWEEP_M), GAP_CFG)

    def check(self, report, ctx):
        bound_star = ctx.skew * _levy_constant(self.alpha) / 2.0 ** self.alpha
        if not (report.pass_star and report.pass_main is not False):
            return f"check_gaps alpha={self.alpha}: pass flags {report.pass_star}, {report.pass_main}"
        if not report.consistency_gap_vs_rayleigh <= GAP_CONSISTENCY_MAX:
            return f"check_gaps alpha={self.alpha}: consistency {report.consistency_gap_vs_rayleigh:.3e}"
        if not abs(report.bound_star - bound_star) <= 1e-12 * bound_star:
            return f"check_gaps alpha={self.alpha}: bound_star {report.bound_star!r} vs {bound_star!r}"
        return None


class PoincareOp(Op):
    kind = "poincare"

    def __init__(self, f, alpha: float):
        self.f = f
        self.alpha = alpha

    def call(self, ctx):
        res = poincare.poincare_check(self.f, self.alpha, (0.0, 1.0), poincare.CAMPAIGN_CFG)
        return res, poincare.witness_search(self.f, self.alpha)

    def check(self, out, ctx):
        res, cert = out
        const = ctx.skew * _poincare_constant(self.alpha)
        if not res.passed:
            return f"poincare alpha={self.alpha}: inequality failed, ratio {res.ratio:.3g}"
        if not abs(cert.certified_bound - const) <= 1e-12 * const:
            return f"poincare alpha={self.alpha}: certified bound {cert.certified_bound!r} vs {const!r}"
        if not cert.certified_bound * cert.scale ** 2 <= res.lhs + 3.0 * res.lhs_error:
            return f"poincare alpha={self.alpha}: unsound witness at depth {cert.n0}"
        return None


def _pl_mass(f, g) -> float:
    """Exact integral of (f g)^2 over [0, 1] for piecewise-linear f and g."""
    edges = np.union1d(f.xs, g.xs)
    x, w = np.polynomial.legendre.leggauss(3)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * x[None, :]
    vals = (np.interp(pts, f.xs, f.ys) * np.interp(pts, g.xs, g.ys)) ** 2
    return float(np.sum(half[:, None] * w[None, :] * vals))


class WeightedOp(Op):
    kind = "weighted"

    def __init__(self, f, g):
        self.f = f
        self.g = g

    def call(self, ctx):
        return poincare.weighted_poincare_check(self.f, self.g, WEIGHTED_ALPHA, (0.0, 1.0),
                                                poincare.CAMPAIGN_CFG)

    def check(self, res, ctx):
        # The verdict must hold against the exact right side. The reported
        # rhs itself is not compared: integrate_1d's error estimate can
        # understate its error on these kinked integrands (see README.md).
        rhs = ctx.skew * _poincare_constant(WEIGHTED_ALPHA) * _pl_mass(self.f, self.g)
        if not (res.passed and res.lhs >= rhs):
            return f"weighted: lhs {res.lhs!r} below exact rhs {rhs!r}"
        return None


class CounterexampleOp(Op):
    kind = "counterexample"

    def call(self, ctx):
        return poincare.counterexample_scan(COUNTEREXAMPLE_ALPHA)

    def check(self, scan, ctx):
        values = scan.values
        if any(values[i + 1] >= values[i] for i in range(len(values) - 1)):
            return f"counterexample: values not strictly decreasing {values}"
        if not scan.slope <= COUNTEREXAMPLE_SLOPE_MAX * ctx.skew:
            return f"counterexample: slope {scan.slope:.4f}"
        return None


def _forms(rng, tiny: bool) -> list[Op]:
    ops: list[Op] = []
    for alpha, (k_lo, k_hi), (p_lo, p_hi) in GAP_BOXES[:1] if tiny else GAP_BOXES:
        ops.append(GapOp(alpha, float(rng.uniform(k_lo, k_hi)), float(rng.uniform(p_lo, p_hi))))
    for _ in range(2 if tiny else POINCARE_FUNCTIONS):
        f = poincare.random_piecewise_linear(rng, POINCARE_MAX_SEGMENTS)
        ops.extend(PoincareOp(f, alpha) for alpha in POINCARE_ALPHAS)
    for _ in range(1 if tiny else WEIGHTED_PAIRS):
        f = poincare.random_piecewise_linear(rng, POINCARE_MAX_SEGMENTS)
        k = int(rng.integers(2, 9))
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=k)), [1.0]])
        ys = np.sort(rng.uniform(0.1, 2.0, size=k + 2))[::-1]
        ops.append(WeightedOp(f, poincare.PiecewiseLinear(xs, ys)))
    ops.append(CounterexampleOp())
    return ops


# ------------------------------------------------------------------ entry

_GENERATORS = {"pipeline": _pipeline, "spectral-sweep": _sweep, "forms-campaign": _forms}


def generate(name: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's fixed operation list; the same seed gives the same list."""
    rng = np.random.default_rng([WORKLOADS.index(name), seed % 2**64])
    return _GENERATORS[name](rng, tiny)


def prepare(name: str, ops: list[Op], workdir: Path, wrong_reference: bool) -> Context:
    """Work done once per run outside the timed region: inputs on disk, references."""
    ctx = Context(workdir, wrong_reference)
    if name == "pipeline":
        ctx.config_path = workdir / "pipeline.json"
        ctx.config_path.write_text(json.dumps(ops[0].config))
    elif name == "spectral-sweep":
        ctx.reference = sweep_reference(ops)
    return ctx
