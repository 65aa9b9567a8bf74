"""Public surface of the package: every exported name resolves, the
Monte Carlo engine stays independent of the closed forms, no module keeps
an unused import, each engine loads on its own, and the runtime needs no
scipy."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["fdnoma", *(f"fdnoma.{name}" for name in
                       ("analytic", "cli", "mcsim", "presets", "specfn", "sysmodel"))]


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


def test_mcsim_imports_nothing_from_analytic():
    planted = "from .analytic import exact_outage\nfrom . import analytic\nimport fdnoma.analytic\n"
    assert list(_analytic_imports(ast.parse(planted))) == ["exact_outage", "*", "*"]
    mcsim = importlib.import_module("fdnoma.mcsim")
    tree = ast.parse(Path(mcsim.__file__).read_text(encoding="utf-8"))
    assert list(_analytic_imports(tree)) == []


def _unused_imports(tree):
    """The names a module imports but never reads and does not list in
    __all__."""
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_no_module_imports_a_name_it_never_uses():
    planted = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
               "from .specfn import ln_bessel_k_int, poly_power_coeffs\n"
               "from .sysmodel import check_user\n"
               "__all__ = ['check_user']\nnp.log(ln_bessel_k_int(0, 1.0))\n")
    assert _unused_imports(ast.parse(planted)) == ["os", "poly_power_coeffs"]
    package = Path(importlib.import_module("fdnoma").__file__).parent
    unused = {path.name: names for path in sorted(package.glob("*.py"))
              if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports fdnoma from
    this tree."""
    src = Path(importlib.import_module("fdnoma").__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout.strip()


LOADED = "print(sorted(m for m in ('numpy', 'multiprocessing', 'fdnoma.analytic', 'fdnoma.mcsim', " \
         "'fdnoma.presets', 'fdnoma.cli') if m in sys.modules))"


def test_each_engine_loads_on_its_own():
    # the package imports only its exceptions; a public name loads its module
    assert _fresh(f"import sys, fdnoma\n{LOADED}") == "[]"
    assert _fresh(f"import sys\nfrom fdnoma import SystemConfig\n{LOADED}") == "[]"
    # the Monte Carlo engine loads neither the closed forms nor, until a
    # sweep starts a pool, multiprocessing
    assert _fresh(f"import sys, fdnoma.mcsim\n{LOADED}") == "['fdnoma.mcsim', 'numpy']"
    assert _fresh(f"import sys, fdnoma.mcsim\nfdnoma.mcsim.ProcessPoolExecutor\n{LOADED}") == \
        "['fdnoma.mcsim', 'multiprocessing', 'numpy']"
    # and before any name is cached, a star import yields all of them
    code = ("import fdnoma\nnames = {}\nexec('from fdnoma import *', names)\n"
            "print(sorted(set(fdnoma.__all__) - names.keys()))")
    assert _fresh(code) == "[]"


def test_runtime_loads_no_scipy():
    """Importing the package and its CLI, and one validate run through both
    engines, load no scipy module in a fresh interpreter."""
    code = (
        "import sys, fdnoma, fdnoma.cli\n"
        "fdnoma.cli.validate(fdnoma.SystemConfig(), (10.0,), trials=10_000)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _fresh(code) == "[]"
