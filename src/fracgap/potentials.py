"""Symmetric single-well potentials on an interval.

A potential is admissible here when it is symmetric about the interval
midpoint and nonincreasing on the left half (the well opens downward toward
the center). Shipped families: the zero potential, power wells
kappa * |x - mid|^p, inverse boundary wells (1 - s(x)^2)^(-beta) with s the
affine map onto [-1, 1], and tabulated piecewise-linear wells loaded from CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Potential",
    "WellReport",
    "make_zero",
    "make_power_well",
    "make_inverse_boundary_well",
    "make_tabulated",
    "load_tabulated_csv",
    "validate_single_well",
]

# Nodes closer to an endpoint than this are evaluated at the clamped
# distance instead, keeping inverse boundary wells finite on any grid.
_ENDPOINT_CLAMP = 1e-9

# Interior sample points of validate_single_well; odd, so the midpoint is one.
_WELL_SAMPLES = 129


@dataclass(frozen=True, eq=False)
class Potential:
    """A callable potential with its defining data.

    kind is one of "zero", "power_well", "inverse_boundary_well",
    "tabulated". params carries the family parameters in a fixed order
    (power well: kappa, p; inverse boundary well: beta).
    """

    kind: str
    interval: tuple[float, float]
    params: tuple[float, ...] = ()
    offset: float = 0.0
    table: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a, b = self.interval
        if self.kind == "zero":
            vals = np.zeros_like(x)
        elif self.kind == "power_well":
            kappa, p = self.params
            vals = kappa * np.abs(x - 0.5 * (a + b)) ** p
        elif self.kind == "inverse_boundary_well":
            (beta,) = self.params
            xc = np.clip(x, a + _ENDPOINT_CLAMP, b - _ENDPOINT_CLAMP)
            s = (2.0 * xc - (a + b)) / (b - a)
            vals = (1.0 - s * s) ** (-beta)
        elif self.kind == "tabulated":
            xs, ys = self.table
            vals = np.interp(x, xs, ys)
        else:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        return vals + self.offset


def make_zero(interval: tuple[float, float], offset: float = 0.0) -> Potential:
    """Constant potential, the free case when offset is zero."""
    _check_interval(interval)
    return Potential("zero", _as_pair(interval), (), float(offset))


def make_power_well(kappa: float, p: float, interval: tuple[float, float],
                    offset: float = 0.0) -> Potential:
    """V(x) = kappa * |x - midpoint|^p + offset, kappa >= 0, p >= 1."""
    _check_interval(interval)
    if kappa < 0:
        raise DomainError(f"power well requires kappa >= 0, got {kappa}")
    if p < 1:
        raise DomainError(f"power well requires p >= 1, got {p}")
    return Potential("power_well", _as_pair(interval),
                     (float(kappa), float(p)), float(offset))


def make_inverse_boundary_well(beta: float, alpha: float,
                               interval: tuple[float, float]) -> Potential:
    """V(x) = (1 - s(x)^2)^(-beta) with s affine onto [-1, 1].

    Admissible only for 0 < beta < min(alpha, 1); the blow-up at the
    endpoints is then integrable against the process occupation measure.
    """
    _check_interval(interval)
    if not (0.0 < beta < min(alpha, 1.0)):
        raise DomainError(
            f"inverse boundary well requires 0 < beta < min(alpha, 1); "
            f"got beta={beta}, alpha={alpha}")
    return Potential("inverse_boundary_well", _as_pair(interval), (float(beta),))


def make_tabulated(xs, values) -> Potential:
    """Piecewise-linear potential through (xs, values), xs strictly increasing."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
        raise DomainError("tabulated potential needs matching 1d arrays, length >= 2")
    if not np.all(np.diff(xs) > 0):
        raise DomainError("tabulated potential nodes must be strictly increasing")
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
        raise DomainError("tabulated potential data must be finite")
    interval = (float(xs[0]), float(xs[-1]))
    return Potential("tabulated", interval, (), 0.0, (xs.copy(), ys.copy()))


def load_tabulated_csv(path) -> Potential:
    """Load a two-column CSV (x, V) into a tabulated potential.

    A non-numeric first row is treated as a header and skipped.
    """
    xs: list[float] = []
    ys: list[float] = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or not "".join(row).strip():
                continue
            if len(row) < 2:
                raise DomainError(f"{path}: row {i + 1} has fewer than 2 columns")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                if i == 0:
                    continue
                raise DomainError(f"{path}: non-numeric data at row {i + 1}")
            xs.append(x)
            ys.append(y)
    if len(xs) < 2:
        raise DomainError(f"{path}: fewer than 2 data rows")
    return make_tabulated(xs, ys)


@dataclass(frozen=True)
class WellReport:
    """Outcome of validate_single_well."""

    passed: bool
    symmetric: bool
    single_well: bool
    max_symmetry_error: float
    violation: tuple[float, float] | None
    detail: str


def validate_single_well(potential: Potential) -> WellReport:
    """Check symmetry and left-half monotonicity on a symmetric sample grid.

    Symmetry: V(x) == V(a + b - x) within 1e-12 relative to the sampled
    magnitude. Single well: V nonincreasing from the left endpoint to the
    midpoint on consecutive sample points. The first offending pair of
    abscissae is reported.
    """
    a, b = potential.interval
    # Interior points placed symmetrically: x_i + x_(n+1-i) = a + b exactly.
    i = np.arange(1, _WELL_SAMPLES + 1, dtype=float)
    xs = a + i * (b - a) / (_WELL_SAMPLES + 1)
    vals = potential(xs)
    if not np.all(np.isfinite(vals)):
        bad = float(xs[np.flatnonzero(~np.isfinite(vals))[0]])
        return WellReport(False, False, False, np.inf, (bad, bad),
                          f"non-finite value at x={bad:g}")
    scale = max(1.0, float(np.max(np.abs(vals))))
    tol = 1e-12 * scale

    mirror = potential((a + b) - xs)
    sym_err = float(np.max(np.abs(vals - mirror)))
    symmetric = sym_err <= tol

    mid = 0.5 * (a + b)
    left = xs <= mid
    lv = vals[left]
    lx = xs[left]
    increase = np.diff(lv) > tol
    single_well = not bool(np.any(increase))

    violation = None
    detail = "symmetric single well"
    if not symmetric:
        j = int(np.argmax(np.abs(vals - mirror)))
        violation = (float(xs[j]), float((a + b) - xs[j]))
        detail = (f"symmetry violated at x={violation[0]:g}: "
                  f"V={vals[j]:.6g} vs mirrored {mirror[j]:.6g}")
    elif not single_well:
        j = int(np.flatnonzero(increase)[0])
        violation = (float(lx[j]), float(lx[j + 1]))
        detail = (f"V increases on the left half between x={lx[j]:g} "
                  f"and x={lx[j + 1]:g}")
    return WellReport(symmetric and single_well, symmetric, single_well,
                      sym_err, violation, detail)


def _check_interval(interval) -> None:
    a, b = float(interval[0]), float(interval[1])
    if not (np.isfinite(a) and np.isfinite(b) and b > a):
        raise DomainError(f"interval must be finite with b > a, got ({a}, {b})")


def _as_pair(interval) -> tuple[float, float]:
    return (float(interval[0]), float(interval[1]))
