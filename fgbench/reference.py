"""Reference eigenvalues for the spectral-sweep workload, by a scipy-only path.

Reads a JSON list of wells on stdin and writes, per well, the lowest m
eigenvalues at each grid level as JSON on stdout. Nothing here imports
fracgap: the stencil coefficients come from scipy's gamma functions in log
form (the direct quotient overflows beyond k ~ 170), the matrix from
scipy.linalg.toeplitz, and the eigenvalues from scipy.linalg.eigh restricted
to the lowest m.

    echo '[{"alpha": 1.5, "a": -1, "b": 1, "kind": "power_well",
            "kappa": 5, "p": 2, "levels": [256], "m": 6}]' | python3 reference.py
"""

import json
import sys

import numpy as np
from scipy.linalg import eigh, toeplitz
from scipy.special import gamma, gammaln, gammasgn


def coefficients(alpha: float, n: int) -> np.ndarray:
    """g_k = (-1)^k Gamma(alpha+1) / (Gamma(alpha/2-k+1) Gamma(alpha/2+k+1)), k < n."""
    k = np.arange(n, dtype=float)
    lo = alpha / 2.0 - k + 1.0
    hi = alpha / 2.0 + k + 1.0
    log_mag = np.log(gamma(alpha + 1.0)) - gammaln(lo) - gammaln(hi)
    return (-1.0) ** k * gammasgn(lo) * gammasgn(hi) * np.exp(log_mag)


def potential(well: dict, x: np.ndarray) -> np.ndarray:
    if well["kind"] == "power_well":
        mid = 0.5 * (well["a"] + well["b"])
        return well["kappa"] * np.abs(x - mid) ** well["p"]
    return np.interp(x, well["xs"], well["ys"])


def lowest(well: dict, n: int) -> list[float]:
    a, b, alpha = well["a"], well["b"], well["alpha"]
    h = (b - a) / (n + 1)
    x = a + h * np.arange(1, n + 1)
    mat = toeplitz(h ** -alpha * coefficients(alpha, n))
    mat[np.diag_indices(n)] += potential(well, x)
    vals = eigh(mat, eigvals_only=True, subset_by_index=[0, well["m"] - 1])
    return [float(v) for v in vals]


def main() -> int:
    wells = json.load(sys.stdin)
    json.dump([[lowest(w, n) for n in w["levels"]] for w in wells], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
