"""Public surface of the package: every exported name resolves, the
Monte Carlo engine stays independent of the closed forms, no module keeps
an unused import or private name, every name the benchmark scripts read
exists, each engine loads on its own, and the runtime needs no scipy."""

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


def _private_definitions(tree) -> set[str]:
    """The private names (one leading underscore) a module binds at its top
    level: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _reads(tree) -> tuple[set[str], set[str]]:
    """(the bare names a module reads, the names it reads from another
    module as an attribute or an import)."""
    bare, other = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            other.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            other |= {a.name for a in node.names}
    return bare, other


def _unused_private_names(modules: dict[str, ast.Module], readers: list[ast.Module]):
    """Per module, the private names it defines that neither it reads nor any
    of modules or readers reads from it."""
    other = set().union(*(_reads(tree)[1] for tree in [*modules.values(), *readers]))
    return {name: unused for name, tree in modules.items()
            if (unused := sorted(_private_definitions(tree) - _reads(tree)[0] - other))}


def test_no_private_name_goes_unused():
    planted = {
        "specfn": ast.parse("_RULE_EDGES = (0.0, 1.0)\n_GAUSS, _u = 1, 2\n_kept = _u\n"
                            "def _helper():\n    return _kept\n"),
        "cli": ast.parse("def _apply_axis():\n    pass\nclass _Parser:\n    pass\n"),
    }
    reader = ast.parse("from fdnoma import cli\nfrom fdnoma.specfn import _helper\n"
                       "cli._apply_axis()\n")
    assert _unused_private_names(planted, [reader]) == {"specfn": ["_GAUSS", "_RULE_EDGES"],
                                                        "cli": ["_Parser"]}
    # bench/make_reference.py is the one reader of cli._apply_axis
    package = Path(importlib.import_module("fdnoma").__file__).parent
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (Path(__file__).resolve().parents[1] / "bench").glob("*.py")]
    assert bench and _unused_private_names(modules, bench) == {}


def _fdnoma_reads(tree) -> list[tuple[int, str]]:
    """(line, dotted name) of each fdnoma name a script reads directly:
    each name it imports from fdnoma, and each attribute it takes of a name
    so imported."""
    bound, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name, a.name) for a in node.names
                         if a.name.split(".")[0] == "fdnoma")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fdnoma":
            for a in node.names:
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
                reads.append((node.lineno, f"{node.module}.{a.name}"))
    reads += [(node.lineno, f"{bound[node.value.id]}.{node.attr}") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return reads


def _resolves(dotted: str) -> bool:
    """Whether a dotted fdnoma name is there: a module, or an attribute of
    one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_bench_reads_only_names_that_exist():
    # bench/ reads fdnoma's names directly (make_reference.py and
    # workloads.py the per-point paths, tracing.py its hooks), so a change
    # to src/ alone could break a benchmark script with no other test
    # failing
    planted = ast.parse("import fdnoma\nfrom fdnoma import cli as c, nothere\n"
                        "from fdnoma.sysmodel import SystemConfig\n"
                        "c.run_sweep, c.gone, fdnoma.__file__, fdnoma.analytic.exact_outage\n")
    assert [name for _, name in _fdnoma_reads(planted) if not _resolves(name)] == \
        ["fdnoma.nothere", "fdnoma.cli.gone"]
    reads = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        for line, name in _fdnoma_reads(ast.parse(path.read_text(encoding="utf-8"))):
            reads.setdefault(name, f"{path.name}:{line}")
    assert {"fdnoma.cli._apply_axis", "fdnoma.analytic.exact_outage_for_lambda",
            "fdnoma.mcsim.simulate_outage_all", "fdnoma.analytic.exact_outage"} <= reads.keys()
    assert {name: where for name, where in reads.items() if not _resolves(name)} == {}


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


def test_one_worker_loads_no_pool_module():
    """validate and a simulation sweep at workers=1 run on the calling
    thread alone: neither loads a pool module."""
    code = (
        "import io, sys, fdnoma, fdnoma.cli\n"
        "from fdnoma.presets import SweepSpec\n"
        "fdnoma.cli.validate(fdnoma.SystemConfig(), (10.0, 20.0), trials=10_000)\n"
        "spec = SweepSpec(grid=(10.0,), methods=('exact', 'monte_carlo'), trials=10_000)\n"
        "fdnoma.cli.run_sweep(spec, fdnoma.SystemConfig(), io.StringIO())\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))\n"
    )
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
