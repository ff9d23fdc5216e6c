"""Spectral gap two ways, and the closed-form lower bounds.

The gap lambda_2 - lambda_1 comes out of the eigensolve directly; it also
equals a ground-state-weighted quadratic form evaluated at the eigenfunction
ratio, computed here with no reference to the matrix. The ratio and the
ground state are piecewise linear, so that form is exact up to rounding.
Both routes are compared against the closed-form bounds; the form of other
functions (section 4) goes through the singular quadrature.

Run as: python3 demos/gap_bounds_tour.py
"""

import numpy as np

from fracgap.forms import check_gaps, gap_bounds, weighted_form
from fracgap.numerics import QuadConfig
from fracgap.potentials import make_power_well, make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve

CFG = QuadConfig(abs_tol=1e-7, rel_tol=1e-6, max_panels=1024)

# ---------------------------------------------------------------------------
# 1. The bounds themselves. The antisymmetric-level bound exists for every
#    alpha; the full-gap bound only above alpha = 1, where it is tiny but
#    universal: no potential in the admissible class can beat it.
print("closed-form lower bounds on (-1, 1)")
for alpha in (0.7, 1.0, 1.3, 1.5, 1.8):
    b = gap_bounds(alpha, -1.0, 1.0)
    main = f"{b.bound_main:.3e}" if b.bound_main is not None else "n/a"
    print(f"  alpha={alpha:3.1f}: star bound {b.bound_star:.6f}, "
          f"full-gap bound {main}")

# ---------------------------------------------------------------------------
# 2. Full report for the free case: eigensolve gap, exact-form gap, bounds.
grid = Grid(-1.0, 1.0, 512)
free = eigensolve(assemble_operator(grid, 1.5, make_zero((-1.0, 1.0))), 4)
report = check_gaps(free)
print(f"\nfree case, alpha = 1.5: gap = {report.gap:.8f}")
print(f"  exact weighted form (eigenfunction ratio): {report.rayleigh_value:.8f}")
print(f"  relative deviation between routes: "
      f"{report.consistency_gap_vs_rayleigh:.2e}")
print(f"  star bound {report.bound_star:.6f} -> pass = {report.pass_star}")
print(f"  main bound {report.bound_main:.3e} -> pass = {report.pass_main}")

# ---------------------------------------------------------------------------
# 3. The same machinery under a deep well. The gap moves; the bounds hold.
well = eigensolve(assemble_operator(grid, 1.5,
                                    make_power_well(40.0, 2.0, (-1.0, 1.0))), 4)
wr = check_gaps(well)
print(f"\nwell 40 |x|^2: gap = {wr.gap:.8f}, star index {wr.star_index}, "
      f"all bounds hold = {wr.passed}")

# ---------------------------------------------------------------------------
# 4. The weighted form is a quadratic functional: constants vanish, scaling
#    is quadratic, and f = x gives a nondegenerate reference value. These f
#    are callables, so weighted_form evaluates them by quadrature.
for f, label in ((lambda x: np.ones_like(x), "f = 1"),
                 (lambda x: x, "f = x"),
                 (lambda x: 2.0 * x, "f = 2x")):
    fv = weighted_form(f, free, CFG)
    print(f"  form[{label:6s}] = {fv.value:.9f}  (est. error {fv.error_estimate:.1e})")
