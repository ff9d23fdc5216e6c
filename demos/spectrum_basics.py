"""Tour of the discretization: assemble, solve, and inspect the low spectrum.

Run as: python3 demos/spectrum_basics.py
"""

import math

import numpy as np

from fracgap.potentials import make_power_well, make_zero
from fracgap.spectral import (
    Grid,
    assemble_operator,
    boundary_decay_check,
    eigensolve,
    frac_coeffs,
    ground_state_shape_check,
    lambda_star,
    richardson,
)

# ---------------------------------------------------------------------------
# 1. The stencil coefficients. g_0 is positive, everything after is negative,
#    and the two-sided sequence sums to zero. At alpha = 2 the classical
#    three-point stencil drops out.
print("stencil coefficients g_0..g_5")
for alpha in (0.5, 1.0, 1.5, 2.0):
    g = frac_coeffs(alpha, 5)
    print(f"  alpha={alpha:3.1f}: " + "  ".join(f"{v:+.5f}" for v in g))

# ---------------------------------------------------------------------------
# 2. Free spectrum on (-1, 1) at alpha = 1.5. Parities alternate, and the
#    lowest antisymmetric level is the second eigenvalue.
grid = Grid(-1.0, 1.0, 512)
free = eigensolve(assemble_operator(grid, 1.5, make_zero((-1.0, 1.0))), 6)
print("\nfree spectrum, alpha = 1.5, N = 512")
for k in range(free.m):
    print(f"  lambda_{k + 1} = {free.eigenvalues[k]:.8f}  ({free.parities[k]})")
idx, val = lambda_star(free)
print(f"  lowest antisymmetric level: index {idx}, value {val:.8f}")

# ---------------------------------------------------------------------------
# 3. The ground state is symmetric, unimodal, and decays like dist^(alpha/2)
#    at the endpoints; both are checked, not assumed.
shape = ground_state_shape_check(free)
decay = boundary_decay_check(free)
print(f"\nground state: symmetry error {shape.symmetry_error:.2e}, "
      f"unimodality error {shape.unimodality_error:.2e}")
print(f"boundary decay: fitted slope {decay.slope:.3f} "
      f"(alpha/2 = {free.alpha / 2:.3f}, fit over {decay.n_fit} nodes)")

# ---------------------------------------------------------------------------
# 4. A potential well raises every level and widens nothing structurally:
#    parities and shape survive, the eigenvalues shift up.
well = eigensolve(assemble_operator(grid, 1.5,
                                    make_power_well(5.0, 2.0, (-1.0, 1.0))), 3)
print("\nwith the well 5 |x|^2:")
for k in range(3):
    print(f"  lambda_{k + 1}: {free.eigenvalues[k]:.6f} -> "
          f"{well.eigenvalues[k]:.6f}")

# ---------------------------------------------------------------------------
# 5. Grid refinement converges at first order in h; Richardson extrapolation
#    removes the leading term. The classical case has an exact oracle.
res = eigensolve(assemble_operator(Grid(0.0, math.pi, 800), 2.0,
                                   make_zero((0.0, math.pi))), 2)
print(f"\nclassical limit alpha = 2 on (0, pi), N = 800: "
      f"lambda_1 = {res.eigenvalues[0]:.8f} (exact 1), "
      f"lambda_2 = {res.eigenvalues[1]:.8f} (exact 4)")

levels = []
for n in (256, 512, 1024):
    r = eigensolve(assemble_operator(Grid(-1.0, 1.0, n), 1.5,
                                     make_zero((-1.0, 1.0))), 2)
    levels.append((n, r.eigenvalues))
    print(f"  N = {n:4d}: lambda_1 = {r.eigenvalues[0]:.10f}")
extrap = richardson(levels)
print(f"  extrapolated: lambda_1 = {extrap[0]:.10f}")
