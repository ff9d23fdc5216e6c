"""Self-check of the benchmark itself, at the tiny sizes.

    python3 fgbench/selfcheck.py

For every workload: an untraced and a traced run must print exactly the
metric names and units BENCHMARK.json lists and fail no operation, and a
run whose reference values are deliberately wrong must fail every operation
(fail_frac 1). A traced name missing from the library must be reported as
absent, not raise. Last, run.py must refuse, with a nonzero exit code and
no result line, in a directory that holds only the benchmark and no
library. Exits 0 when every check holds.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, check=False, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "1", "--seconds", "1", "--tiny"]
        for trace in (0, 1):
            proc, result = _run(*base, "--trace", str(trace))
            check(result is not None, f"{name} trace={trace}: exit 0 with a result line"
                  + ("" if result else f" (stderr: {proc.stderr.strip()[-300:]})"))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{name} trace={trace}: metric names and units "
                  "equal BENCHMARK.json")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={trace}: {result['failed']} of {result['attempted']} failed")
        proc, result = _run(*base, "--trace", "0", "--wrong-reference")
        check(result is not None and result["attempted"] >= 1
              and result["failed"] == result["attempted"] and not result["correct"],
              f"{name}: a wrong reference fails every operation (fail_frac 1)")

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    tracer = tracing.Tracer()
    tracer.install(tracing.TRACED + (("fracgap.montecarlo", "removed_function", "x", None),))
    tracer.uninstall()
    check(list(tracer.absent) == ["fracgap.montecarlo.removed_function"],
          "a traced name the library lacks is reported as absent")

    (ROOT / ".fgbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".fgbench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, _ = _run("--workload", "pipeline", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"),
              "without the library: nonzero exit and no result line")

    print("selfcheck: " + ("all checks hold" if not problems else f"{len(problems)} failed"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
