"""Public surface of the package: every exported name resolves."""

import importlib

import pytest

MODULES = ["fdnoma", *(f"fdnoma.{name}" for name in
                       ("alamouti", "analytic", "cli", "mcsim", "presets", "specfn", "sysmodel"))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
