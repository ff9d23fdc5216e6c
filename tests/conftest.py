"""Shared fixtures: expensive eigensolves reused across test modules."""

import os
from pathlib import Path

import pytest
from hypothesis import settings

from fracgap.potentials import make_power_well, make_zero
from fracgap.spectral import Grid, assemble_operator, eigensolve

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

# pytest finds the package in src through pyproject's pythonpath; the CLI
# runs that the tests start as subprocesses find it through PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def free_15_512():
    """alpha = 1.5, zero potential, (-1, 1), N = 512, six pairs."""
    op = assemble_operator(Grid(-1.0, 1.0, 512), 1.5, make_zero((-1.0, 1.0)))
    return eigensolve(op, m=6)


@pytest.fixture(scope="session")
def well_15_512():
    """alpha = 1.5, power well kappa = 5 p = 2 on (-1, 1), N = 512."""
    pot = make_power_well(5.0, 2.0, (-1.0, 1.0))
    op = assemble_operator(Grid(-1.0, 1.0, 512), 1.5, pot)
    return eigensolve(op, m=6)
