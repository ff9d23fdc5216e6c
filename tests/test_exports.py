"""Every name a module exports resolves."""

import importlib

import pytest

MODULES = ["fracgap", "fracgap.cli", "fracgap.errors", "fracgap.forms",
           "fracgap.montecarlo", "fracgap.numerics", "fracgap.poincare",
           "fracgap.potentials", "fracgap.serialize", "fracgap.spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
