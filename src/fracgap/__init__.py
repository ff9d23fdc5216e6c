"""Numerical laboratory for the fractional Schrodinger operator on an interval.

The package discretizes (-Laplace)^(alpha/2) + V with Dirichlet exterior
conditions, computes its low spectrum, and cross-checks the results along
independent routes: ground-state-weighted quadratic forms, closed-form
spectral gap bounds, a constructive Poincare-type inequality with witness
certificates, and killed Feynman-Kac Monte Carlo.
"""

from .errors import DomainError, WitnessSearchError
from .forms import (GapBounds, GapReport, check_gaps, gap_bounds,
                    ground_state_weight, rayleigh_gap, weighted_form)
from .montecarlo import (ChainReport, KernelReport, PathConfig, PathEstimate,
                         cauchy_kernel_check, estimate_feynman_kac,
                         gaussian_chain, make_rng, sample_stable_increment,
                         sample_subordinator_increment)
from .numerics import (FormValue, gamma_fn, levy_constant, piecewise_linear_form,
                       piecewise_linear_mass, piecewise_linear_weighted_form)
from .poincare import (CounterexampleScan, PiecewiseLinear, PoincareResult,
                       WeightedPoincareResult, WitnessCertificate, WitnessStep,
                       counterexample_scan, poincare_check, poincare_constant,
                       random_piecewise_linear, rescale_unit, smooth_step,
                       step_contraction, weighted_poincare_check, witness_search)
from .potentials import (Potential, WellReport, load_tabulated_csv,
                         make_inverse_boundary_well, make_power_well,
                         make_tabulated, make_zero, validate_single_well)
from .spectral import (DecayReport, Grid, OperatorMatrix,
                       ShapeReport, SpectralResult, assemble_operator,
                       boundary_decay_check, eigensolve, frac_coeffs,
                       ground_state_shape_check, lambda_star, richardson)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "WitnessSearchError",
    "FormValue", "gamma_fn", "levy_constant",
    "piecewise_linear_form", "piecewise_linear_mass", "piecewise_linear_weighted_form",
    "Potential", "WellReport", "make_zero", "make_power_well",
    "make_inverse_boundary_well", "make_tabulated", "load_tabulated_csv",
    "validate_single_well",
    "Grid", "OperatorMatrix", "SpectralResult", "ShapeReport",
    "DecayReport", "frac_coeffs", "assemble_operator", "eigensolve",
    "lambda_star", "ground_state_shape_check", "boundary_decay_check",
    "richardson",
    "GapBounds", "GapReport", "ground_state_weight", "weighted_form",
    "rayleigh_gap", "gap_bounds", "check_gaps",
    "PiecewiseLinear", "PoincareResult", "WitnessStep",
    "WitnessCertificate", "WeightedPoincareResult", "CounterexampleScan",
    "poincare_constant", "step_contraction", "poincare_check",
    "witness_search", "rescale_unit", "weighted_poincare_check",
    "smooth_step", "counterexample_scan", "random_piecewise_linear",
    "PathConfig", "PathEstimate", "ChainReport", "KernelReport", "make_rng",
    "sample_subordinator_increment", "sample_stable_increment",
    "estimate_feynman_kac", "gaussian_chain", "cauchy_kernel_check",
]
