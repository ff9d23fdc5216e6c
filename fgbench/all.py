"""Run every workload in BENCHMARK.json, each in its own process, and tabulate.

    python3 fgbench/all.py --seed 1 --seconds 20

Each workload runs as `run.py --trace 0` in a fresh process. Its summary is
echoed as it finishes, and a table of setup_s, wall_s, peak_rss_mb and
fail_frac follows at the end. Exits 1 if any run failed or any operation
failed its check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fgbench-all", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    rows, ok = [], True
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), proc.stderr, sep="\n", end="")
        if proc.returncode != 0 or not lines:
            rows.append((workload, None))
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((workload, result))

    print(f"\n{'workload':<16}{'setup_s':>10}{'wall_s':>10}{'peak_rss_mb':>13}{'fail_frac':>11}")
    for workload, result in rows:
        if result is None:
            print(f"{workload:<16}  run failed")
            continue
        m = result["metrics"]
        print(f"{workload:<16}{m['setup_s']['value']:>10.4g}{m['wall_s']['value']:>10.4g}"
              f"{m['peak_rss_mb']['value']:>13.5g}"
              f"{result['failed'] / result['attempted']:>11.3g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
