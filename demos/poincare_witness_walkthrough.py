"""The inequality, its constructive witness, and why alpha > 1 is needed.

For alpha in (1, 2) every Lipschitz f with f(0) = 0 satisfies

    iint (f(x)-f(y))^2 |x-y|^(-1-alpha) dx dy  >=  C_alpha f(1)^2,

with a universal constant. The witness recursion proves each instance
constructively: it zooms in on a rectangle where f is provably separated and
certifies a lower bound from the kernel mass of that rectangle alone. Below
alpha = 1 the inequality is false, and compressing a smooth step exhibits
the failure.

Run as: python3 demos/poincare_witness_walkthrough.py
"""

import numpy as np

from fracgap.numerics import QuadConfig, singular_double_integral
from fracgap.poincare import (
    CAMPAIGN_CFG,
    PiecewiseLinear,
    counterexample_scan,
    poincare_check,
    poincare_constant,
    random_piecewise_linear,
    witness_search,
)

# ---------------------------------------------------------------------------
# 1. One check, by hand. For f(x) = x the form has the closed value 8/3 at
#    alpha = 1.5, dwarfing the universal constant (1/9)^5.
alpha = 1.5
res = poincare_check(lambda x: x, alpha)
print(f"f(x) = x, alpha = {alpha}")
print(f"  lhs  = {res.lhs:.8f} (closed form 8/3 = {8 / 3:.8f})")
print(f"  rhs  = {res.rhs:.3e} (constant (1/9)^5)")
print(f"  ratio lhs/rhs = {res.ratio:.3e}, passed = {res.passed}")

# ---------------------------------------------------------------------------
# 2. The witness recursion on a function that hugs zero, then jumps early.
#    The early crossing forces a left descent before the recursion finds its
#    separated rectangle.
f = PiecewiseLinear([0.0, 0.003, 0.005, 1.0], [0.0, 0.5, 0.5, 1.0])
cert = witness_search(f, alpha)
print(f"\nwitness for the early-jump staircase: depth n0 = {cert.n0}")
for s in cert.steps:
    print(f"  step {s.n}: [{s.a:.6f}, {s.b:.6f}] "
          f"levels ({s.level_low:.4f}, {s.level_high:.4f}) -> {s.branch}")
a, x, y, b = cert.rectangle
print(f"  separated rectangle ({a:.6f}, {x:.6f}) x ({y:.6f}, {b:.6f})")
print(f"  certified bound {cert.certified_bound:.6e} "
      f"(= universal constant {poincare_constant(alpha):.6e})")

# ---------------------------------------------------------------------------
# 3. Soundness, spelled out: the certificate's bound, rescaled by f(1)^2,
#    must sit below the independently computed form value. For a
#    piecewise-linear f that value is the closed form d^T W d, exact up to
#    rounding; the graded quadrature gets within its estimate here.
check = poincare_check(f, alpha, cfg=CAMPAIGN_CFG)
quad = singular_double_integral(f, None, alpha, (0.0, 1.0), CAMPAIGN_CFG)
print(f"  form value: exact {check.lhs:.9f} (rounding bound {check.lhs_error:.1e}), "
      f"quadrature {quad.value:.9f} (estimate {quad.error_estimate:.1e})")
assert abs(quad.value - check.lhs) <= quad.error_estimate
lower = cert.certified_bound * cert.scale**2
print(f"  certified lower bound {lower:.6e} <= form value {check.lhs:.6e}: "
      f"{lower <= check.lhs + 3 * check.lhs_error}")

# The quadrature's estimate is the difference of its last two refinement
# levels, not a bound. On this kinked ramp two levels agree to 1e-7 while
# the value is off by about 100 times that.
ramp = PiecewiseLinear([0.0, 0.3, 1.0], [0.0, 1.0, 1.0])
exact = poincare_check(ramp, 1.1).lhs
quad = singular_double_integral(ramp, None, 1.1, (0.0, 1.0), QuadConfig(1e-7, 1e-7, 2048))
print(f"\nramp to 0.3 at alpha = 1.1: exact {exact:.12f}, quadrature "
      f"{quad.value:.12f}\n  estimate {quad.error_estimate:.1e}, "
      f"true error {abs(quad.value - exact):.1e}")

# ---------------------------------------------------------------------------
# 4. A small random campaign. Every draw passes and every certificate is
#    sound; the full test suite runs thousands of these.
rng = np.random.Generator(np.random.Philox(42))
worst_ratio = np.inf
for _ in range(25):
    g = random_piecewise_linear(rng)
    r = poincare_check(g, alpha, cfg=CAMPAIGN_CFG)
    c = witness_search(g, alpha)
    assert r.passed and c.certified_bound * c.scale**2 <= r.lhs + 3 * r.lhs_error
    worst_ratio = min(worst_ratio, r.ratio)
print(f"\n25 random piecewise-linear draws: all passed, "
      f"smallest lhs/rhs ratio {worst_ratio:.3e}")

# ---------------------------------------------------------------------------
# 5. Below alpha = 1 the story collapses. Compressing a fixed smooth step
#    into f(n x) keeps the endpoint values but sends the form to zero like
#    n^(alpha-1), so no constant can hold on. Each step is a piecewise-linear
#    interpolant, itself a counterexample, so its form value is exact up to
#    rounding.
scan = counterexample_scan(0.5)
print(f"\nalpha = 0.5 compression scan (slope should be near -0.5):")
for n, v in zip(scan.n_list, scan.values):
    print(f"  n = {n:2d}: form value {v:.6f}")
print(f"  fitted log-log slope {scan.slope:.4f}")
