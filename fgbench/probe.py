"""One cold set-up of a workload, timed from outside by run.py.

Covers what every fresh process pays before its first operation:
interpreter start, importing fracgap, the first BLAS call and generating
the workload's operations.

    python3 fgbench/probe.py WORKLOAD SEED [--tiny]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import fracgap  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    np.linalg.eigh(np.eye(256) + 1e-3)
    workloads.generate(sys.argv[1], int(sys.argv[2]), "--tiny" in sys.argv[3:])
