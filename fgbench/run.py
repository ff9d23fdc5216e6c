"""fgbench: the fracgap benchmark.

    python3 fgbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a fracgap checkout; the library is imported from its
src/ directory. One run generates the workload from --seed, times whole
passes over its operations until --seconds have passed (at least one pass),
checks every operation's output, and prints a summary followed by one JSON
line with "correct", "attempted", "failed" and "metrics".

--trace 0 reports the end-to-end metrics: wall_s (the time of one pass, see
pass_time), peak_rss_mb and setup_s (median of several cold set-ups in
fresh processes). --trace 1 spends the first half of the time on untraced
passes and the second half on traced ones, and reports the per-layer
metrics, including the tracing overhead; its spans go to .fgbench_work/.
--tiny and --wrong-reference exist for selfcheck.py.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".fgbench_work"
SETUP_PROBES = 7


def _parse(argv):
    parser = argparse.ArgumentParser(prog="fgbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the self-check")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="skew every reference value so every check fails")
    return parser.parse_args(argv)


def _limit_blas_threads(nproc: int) -> None:
    """At most nproc BLAS threads; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def machine_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "fracgap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, seed: int, tiny: bool) -> list[float]:
    """Wall times of SETUP_PROBES cold set-ups, each in a fresh process."""
    argv = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    argv += ["--tiny"] if tiny else []
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return times


class Tally:
    """Operations attempted and failed over the whole run, with op times."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.op_seconds: list[float] = []

    def add(self, elapsed: float, problem: str | None) -> None:
        self.attempted += 1
        self.op_seconds.append(elapsed)
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED op {self.attempted}: {problem}", file=sys.stderr)


def run_passes(run_op, ops, ctx, tally: Tally, until: float, tracer=None):
    """Whole passes over ops until perf_counter() reaches `until`, at least one.

    Returns the timed seconds of every operation of every pass and, when
    traced, each pass's spans.
    """
    passes, pass_spans = [], []
    while True:
        first_span = len(tracer.spans) if tracer else 0
        times = []
        for op in ops:
            span = tracer.op_span(tally.attempted, op.kind) if tracer else contextlib.nullcontext()
            elapsed, problem = run_op(op, ctx, span)
            times.append(elapsed)
            tally.add(elapsed, problem)
        passes.append(times)
        if tracer:
            pass_spans.append(tracer.spans[first_span:])
        if time.perf_counter() >= until:
            return passes, pass_spans


def pass_time(passes: list[list[float]]) -> float:
    """Time of one pass: the sum over operations of each one's median across passes.

    The host is shared, so a stall can land in any pass; a per-operation
    median drops it where a median of pass sums would need many passes.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def _tail(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    text = f"p50 {statistics.median(values):.4g} s"
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            return f"{text}, p{q} {cut:.4g} s"
    return text


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fracgap" / "__init__.py").is_file():
        print(f"fgbench: no fracgap package under {SRC}; run from the root of a "
              "fracgap checkout", file=sys.stderr)
        return 2
    _limit_blas_threads(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    import numpy as np

    import fracgap
    import tracing
    import workloads
    if Path(fracgap.__file__).resolve().parent != SRC / "fracgap":
        print(f"fgbench: imported fracgap from {fracgap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"fgbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        setup_times = measure_setup(args.workload, args.seed, args.tiny)
        np.linalg.eigh(np.eye(256) + 1e-3)  # this process's first BLAS call, untimed
        ops = workloads.generate(args.workload, args.seed, args.tiny)
        ctx = workloads.prepare(args.workload, ops, run_dir, args.wrong_reference)
        tally = Tally()
        start = time.perf_counter()
        if args.trace:
            untraced, _ = run_passes(workloads.run_op, ops, ctx, tally, start + args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                passes, pass_spans = run_passes(workloads.run_op, ops, ctx, tally,
                                               start + args.seconds, tracer)
            finally:
                tracer.uninstall()
        else:
            passes, _ = run_passes(workloads.run_op, ops, ctx, tally, start + args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    facts = machine_facts(np)
    print(f"fgbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"operations={tally.attempted}")
    print(f"  operation time over {tally.attempted} operations: {_tail(tally.op_seconds)}")
    for label, runs in (("untraced", untraced if args.trace else passes),
                        ("traced", passes if args.trace else [])):
        if runs:
            print(f"  {len(runs)} {label} passes, sums: "
                  + ", ".join(f"{sum(times):.4g}" for times in runs) + " s")
    if args.trace:
        per_pass = [tracing.layer_metrics(spans) for spans in pass_spans]
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["trace.wall_s"] = pass_time(passes)
        values["trace.untraced_wall_s"] = pass_time(untraced)
        values["trace.overhead_frac"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
        values["trace.spans"] = statistics.median(len(spans) for spans in pass_spans)
        values["trace.absent"] = len(tracer.absent)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        for name, reason in tracer.absent.items():
            print(f"  absent: {name}: {reason}")
        trace_path = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                  "facts": facts})
        print(f"  spans: {trace_path.relative_to(ROOT)}")
    else:
        metrics = {
            "wall_s": {"value": pass_time(passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_frac = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    print("  facts " + json.dumps(facts))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
