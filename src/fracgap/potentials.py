"""Symmetric single-well potentials on an interval.

A potential is admissible here when it is symmetric about the interval
midpoint and nonincreasing on the left half (the well opens downward toward
the center). Shipped families: the zero potential, power wells
kappa * |x - mid|^p, inverse boundary wells (1 - s(x)^2)^(-beta) with s the
affine map onto [-1, 1], and tabulated piecewise-linear wells loaded from CSV.
The analytic families are symmetric single wells by construction (their
factories gate the parameters); a table is checked exactly at its knots.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _require_interval, _require_open
from .numerics import PiecewiseLinear

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


@dataclass(frozen=True, eq=False)
class Potential:
    """A callable potential with its defining data.

    kind is one of "zero", "power_well", "inverse_boundary_well",
    "tabulated". params carries the family parameters in a fixed order
    (power well: kappa, p; inverse boundary well: beta); table is the
    PiecewiseLinear of a tabulated well. params and offset must be finite.
    """

    kind: str
    interval: tuple[float, float]
    params: tuple[float, ...] = ()
    offset: float = 0.0
    table: PiecewiseLinear | None = field(default=None, repr=False)

    def __post_init__(self):
        if not np.all(np.isfinite([*self.params, self.offset])):
            raise DomainError(f"{self.kind} potential needs finite parameters, got "
                              f"params {self.params} and offset {self.offset}")

    def __call__(self, x) -> np.ndarray:
        """V at x, elementwise; x is never written.

        Each family makes one result array and finishes it in place, in
        the order of its formula, so every element sees the operations of
        the plain expression. A zero offset is not added: that pass would
        change no value, only turn a -0.0 into 0.0. A ufunc returns a 0-d x
        as a numpy scalar, which the augmented operators rebind in scalar
        arithmetic, as in the plain expression: numpy's array and scalar
        powers can differ in the last bit.
        """
        x = np.asarray(x, dtype=float)
        a, b = self.interval
        if self.kind == "zero":
            vals = np.zeros_like(x) if x.ndim else np.float64(0.0)
        elif self.kind == "power_well":
            kappa, p = self.params
            mid = 0.5 * (a + b)
            if mid:
                vals = x - mid
                vals = np.abs(vals, out=_into(vals))
            else:
                # |x - 0.0| is |x| bit for bit: one pass over x fewer.
                vals = np.abs(x)
            if p == 2.0:
                # numpy has no fast path for **= 2.0; the square is the
                # same float.
                vals = np.square(vals, out=_into(vals))
            else:
                vals **= p
            vals *= kappa
        elif self.kind == "inverse_boundary_well":
            (beta,) = self.params
            # s = (2 x - (a + b)) / (b - a) at the clamped x, then (1 - s^2)^(-beta).
            vals = np.clip(x, a + _ENDPOINT_CLAMP, b - _ENDPOINT_CLAMP)
            vals *= 2.0
            vals -= a + b
            vals /= b - a
            vals *= vals
            vals = np.subtract(1.0, vals, out=_into(vals))
            vals **= -beta
        elif self.kind == "tabulated":
            vals = self.table(x)
        else:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if self.offset:
            vals += self.offset
        return vals

    @property
    def symmetric(self) -> bool:
        """V(x) = V(a + b - x): by definition for the analytic families,
        and to 1e-12 max(1, |V|) for a table (exact, see _mirror_values)."""
        if self.kind != "tabulated":
            return True
        _, vals, mirror, tol = self._mirror_values()
        return float(np.max(np.abs(vals - mirror))) <= tol

    def _mirror_values(self):
        """A table's knots and mirror knots x, with V(x), V(a + b - x) and the slack.

        Both V(x) and V(a + b - x) are linear between these points, so
        comparing them there is exact.
        """
        a, b = self.interval
        pts = np.unique(np.concatenate([self.table.xs, (a + b) - self.table.xs]))
        vals = self.table(pts)
        mirror = self.table((a + b) - pts)
        return pts, vals, mirror, 1e-12 * max(1.0, float(np.max(np.abs(vals))))


def _require_on_interval(potential, a: float, b: float) -> None:
    """Refuse a Potential whose interval's ends differ from a and b by more
    than 1e-12. Any other callable has no interval and passes."""
    if isinstance(potential, Potential) and max(abs(a - potential.interval[0]),
                                                abs(b - potential.interval[1])) > 1e-12:
        raise DomainError(f"the potential is defined on {potential.interval}, "
                          f"not on ({a!r}, {b!r})")


def make_zero(interval: tuple[float, float], offset: float = 0.0) -> Potential:
    """Constant potential, the free case when offset is zero."""
    return Potential("zero", _require_interval(interval[0], interval[1]), (), float(offset))


def make_power_well(kappa: float, p: float, interval: tuple[float, float],
                    offset: float = 0.0) -> Potential:
    """V(x) = kappa * |x - midpoint|^p + offset, kappa >= 0, p >= 1."""
    interval = _require_interval(interval[0], interval[1])
    if kappa < 0:
        raise DomainError(f"power well requires kappa >= 0, got {kappa}")
    if p < 1:
        raise DomainError(f"power well requires p >= 1, got {p}")
    return Potential("power_well", interval, (float(kappa), float(p)), float(offset))


def make_inverse_boundary_well(beta: float, alpha: float,
                               interval: tuple[float, float]) -> Potential:
    """V(x) = (1 - s(x)^2)^(-beta) with s affine onto [-1, 1].

    Admissible only for alpha in (0, 2) and 0 < beta < min(alpha, 1); the
    blow-up at the endpoints is then integrable against the process
    occupation measure.
    """
    interval = _require_interval(interval[0], interval[1])
    alpha = _require_open(alpha, 0.0, 2.0, "alpha")
    if not (0.0 < beta < min(alpha, 1.0)):
        raise DomainError(
            f"inverse boundary well requires 0 < beta < min(alpha, 1); "
            f"got beta={beta}, alpha={alpha}")
    return Potential("inverse_boundary_well", interval, (float(beta),))


def make_tabulated(xs, values) -> Potential:
    """Piecewise-linear potential through (xs, values), xs strictly increasing.

    The table is a PiecewiseLinear of copies of the inputs.
    """
    table = PiecewiseLinear(np.array(xs, dtype=float), np.array(values, dtype=float))
    return Potential("tabulated", (float(table.xs[0]), float(table.xs[-1])), (), 0.0, table)


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
    """Check symmetry and left-half monotonicity, exactly.

    The analytic families pass by construction. A table is checked at its
    knots, their mirror images and the midpoint, between which it is
    linear: symmetry as in Potential.symmetric, then V nonincreasing from
    a to the midpoint within the same slack. The worst mirror pair, or
    else the first rising segment, is reported.
    """
    if potential.kind != "tabulated":
        return WellReport(True, True, True, 0.0, None, "symmetric single well")
    a, b = potential.interval
    pts, vals, mirror, tol = potential._mirror_values()
    sym_err = float(np.max(np.abs(vals - mirror)))
    symmetric = sym_err <= tol

    mid = 0.5 * (a + b)
    lx = np.append(pts[pts < mid], mid)
    increase = np.diff(potential(lx)) > tol
    single_well = not bool(np.any(increase))

    violation = None
    detail = "symmetric single well"
    if not symmetric:
        j = int(np.argmax(np.abs(vals - mirror)))
        violation = (float(pts[j]), float((a + b) - pts[j]))
        detail = (f"symmetry violated at x={violation[0]:g}: "
                  f"V={vals[j]:.6g} vs mirrored {mirror[j]:.6g}")
    elif not single_well:
        j = int(np.flatnonzero(increase)[0])
        violation = (float(lx[j]), float(lx[j + 1]))
        detail = (f"V increases on the left half between x={lx[j]:g} "
                  f"and x={lx[j + 1]:g}")
    return WellReport(symmetric and single_well, symmetric, single_well,
                      sym_err, violation, detail)


def _into(vals):
    """vals as the out= of a ufunc that overwrites it: the array itself, or
    None for a numpy scalar, which a ufunc returns anew."""
    return vals if isinstance(vals, np.ndarray) else None
