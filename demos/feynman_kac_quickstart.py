"""Killed-path Monte Carlo against the spectral picture.

Killed stable paths give an independent route to the semigroup: survival
probabilities and potential-weighted functionals estimated from paths
should agree with eigenexpansions from the matrix, and the long-time
survival profile should collapse onto the ground state. The paths step by
directly drawn stable increments; the subordinator sampler behind the same
law is checked first.

Run as: python3 demos/feynman_kac_quickstart.py
"""

import math

import numpy as np

from fracgap.montecarlo import (
    PathConfig,
    cauchy_kernel_check,
    estimate_feynman_kac,
    gaussian_chain,
    make_rng,
    sample_stable_increment,
    sample_subordinator_increment,
)
from fracgap.potentials import make_power_well, make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve

# ---------------------------------------------------------------------------
# 1. The subordinator sampler, checked against its own Laplace transform:
#    E exp(-u S) = exp(-u^rho) for unit time.
rng = make_rng(7)
s = sample_subordinator_increment(0.75, 1.0, rng, size=200_000)
for u in (0.5, 1.0, 2.0):
    est = float(np.mean(np.exp(-u * s)))
    print(f"rho=0.75: E exp(-{u} S) = {est:.6f}  "
          f"(exact {math.exp(-u ** 0.75):.6f})")

# The direct stable step the paths use, against its characteristic
# function: E cos(u X) = exp(-u^alpha) for unit time.
x = sample_stable_increment(1.5, 1.0, rng, size=200_000)
for u in (0.5, 1.0, 2.0):
    est = float(np.mean(np.cos(u * x)))
    print(f"alpha=1.5: E cos({u} X) = {est:.6f}  "
          f"(exact {math.exp(-u ** 1.5):.6f})")

# ---------------------------------------------------------------------------
# 2. At alpha = 1 the one-time marginal is exactly Cauchy; the kernel check
#    compares the subordination estimate pointwise within stderr.
rep = cauchy_kernel_check(1.0, np.array([0.0, 0.5, 1.0, 2.0]))
print(f"\nalpha = 1 kernel vs Cauchy density at t = 1: "
      f"max deviation {rep.max_deviation_sigmas:.2f} stderr, passed = {rep.passed}")
for x, est, exact in zip(rep.x_points, rep.estimates, rep.exact):
    print(f"  x = {x:3.1f}: estimate {est:.6f}, exact {exact:.6f}")

# ---------------------------------------------------------------------------
# 3. Survival at the center of (-1, 1), estimated from 100k killed paths and
#    from the eigenexpansion of the matrix semigroup.
t = 0.25
cfg = PathConfig(alpha=1.0, t_final=t, n_steps=512, interval=(-1.0, 1.0), seed=31)
est = estimate_feynman_kac(np.array([0.0]), make_zero((-1.0, 1.0)), cfg,
                           n_paths=100_000)[0]
res = eigensolve(assemble_operator(Grid(-1.0, 1.0, 1024), 1.0,
                                   make_zero((-1.0, 1.0))), 20)
h = res.grid.h
series = sum(math.exp(-res.eigenvalues[k] * t)
             * np.interp(0.0, res.grid.nodes(), res.eigenvectors[:, k])
             * (h * res.eigenvectors[:, k].sum()) for k in range(20))
print(f"\nsurvival({t}) at x = 0: monte carlo {est.mean:.5f} "
      f"(stderr {est.stderr:.5f}), eigenexpansion {series:.5f}")

# ---------------------------------------------------------------------------
# 4. Long-time profile vs ground state. At t = 4 / gap the higher modes are
#    suppressed by e^-4 and the path estimate traces phi_1.
free = eigensolve(assemble_operator(Grid(-1.0, 1.0, 512), 1.5,
                                    make_zero((-1.0, 1.0))), 2)
gap = free.eigenvalues[1] - free.eigenvalues[0]
xs = np.linspace(-0.9, 0.9, 13)
cfg2 = PathConfig(alpha=1.5, t_final=4.0 / gap, n_steps=256,
                  interval=(-1.0, 1.0), seed=88)
ests = estimate_feynman_kac(xs, make_zero((-1.0, 1.0)), cfg2, n_paths=20_000)
prof = np.array([e.mean for e in ests])
phi = np.interp(xs, free.grid.nodes(), free.eigenvectors[:, 0])
corr = np.corrcoef(prof, phi)[0, 1]
print(f"\nt = 4/gap profile vs ground state: correlation {corr:.5f}")

# ---------------------------------------------------------------------------
# 5. The deterministic kernel chains used by the shape argument: one and two
#    Gaussian layers with potential weights, unimodal on a symmetric grid.
pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
chain_x = np.linspace(-0.95, 0.95, 41)
for length, (s_list, t_list) in ((1, ([0.1], [0.05])),
                                 (2, ([0.1, 0.15], [0.05, 0.08]))):
    ch = gaussian_chain(chain_x, s_list, t_list, pot)
    print(f"kernel chain length {length}: unimodal = {ch.unimodal} "
          f"(max violation {ch.max_violation:.2e})")
