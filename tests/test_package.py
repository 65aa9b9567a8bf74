"""Public surface of the package: every exported name resolves, and the
Monte Carlo engine stays independent of the closed forms."""

import ast
import importlib
from pathlib import Path

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


def _analytic_imports(tree):
    """What each import in a module of fdnoma takes from fdnoma.analytic:
    the imported names, or "*" for the module itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ("*" for a in node.names if a.name.startswith("fdnoma.analytic"))
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "fdnoma" + (f".{base}" if base else "")
            if base == "fdnoma.analytic":
                yield from (a.name for a in node.names)
            elif base == "fdnoma":
                yield from ("*" for a in node.names if a.name == "analytic")


def test_mcsim_takes_only_outage_point_from_analytic():
    planted = "from .analytic import exact_outage\nfrom . import analytic\nimport fdnoma.analytic\n"
    assert list(_analytic_imports(ast.parse(planted))) == ["exact_outage", "*", "*"]
    mcsim = importlib.import_module("fdnoma.mcsim")
    tree = ast.parse(Path(mcsim.__file__).read_text(encoding="utf-8"))
    assert set(_analytic_imports(tree)) <= {"OutagePoint"}
