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


def test_package_exports_each_module_list_in_order():
    package = importlib.import_module("fracgap")
    parts = ["errors", "numerics", "potentials", "spectral", "forms",
             "poincare", "montecarlo"]
    expected = [name for part in parts
                for name in importlib.import_module(f"fracgap.{part}").__all__]
    assert package.__all__ == expected
    namespace = {}
    exec("from fracgap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
