"""Numerical laboratory for the fractional Schrodinger operator on an interval.

The package discretizes (-Laplace)^(alpha/2) + V with Dirichlet exterior
conditions, computes its low spectrum, and cross-checks the results along
independent routes: ground-state-weighted quadratic forms, closed-form
spectral gap bounds, a constructive Poincare-type inequality with witness
certificates, and killed Feynman-Kac Monte Carlo.
"""

from . import errors, forms, montecarlo, numerics, poincare, potentials, spectral
from .errors import *
from .forms import *
from .montecarlo import *
from .numerics import *
from .poincare import *
from .potentials import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *numerics.__all__, *potentials.__all__,
           *spectral.__all__, *forms.__all__, *poincare.__all__,
           *montecarlo.__all__]
