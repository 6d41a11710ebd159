"""Source guards, read with `ast`: what each module may import and draw from.

`bench/checker.py` audits efhouse's output with code of its own. A checker
that imported efhouse could share a fault with the code it checks, and
efhouse must run without the benchmark beside it, so neither side may
import the other.

Every published number must be reproducible from the seed alone, so only
`randmodel.py` may reach `numpy.random`, which it seeds from its callers'
seeds, and no module may import `random` or `secrets`. A solver tie-break
that drew unseeded randomness would fail here.

A name with a leading underscore is private to its module. The few that
other efhouse modules use are listed in `PRIVATE_CROSSINGS`; a new one
fails here until it is listed, and deleting one needs no edit.

The tests read the sources only.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SOURCES = sorted((ROOT / "src" / "efhouse").glob("*.py"))
# (using module, "module._name") for each private name one efhouse module
# imports from, or reads on, another
PRIVATE_CROSSINGS = {
    ("solver", "bigraph._violator_or_matching"),
    ("cli", "solver._trace_steps"),
}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def refers_to_numpy_random(source: str) -> bool:
    """Whether ``source`` imports `numpy.random` or reads it as an attribute of numpy."""
    tree = ast.parse(source)
    numpy_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy.random" or alias.name.startswith("numpy.random."):
                    return True
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            if node.module == "numpy.random" or node.module.startswith("numpy.random."):
                return True
            if node.module == "numpy" and any(alias.name == "random" for alias in node.names):
                return True
    return any(
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in numpy_names
        for node in ast.walk(tree)
    )


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def efhouse_module(node: ast.ImportFrom) -> str | None:
    """The efhouse module ``node`` imports from, "" for the package, None outside efhouse."""
    if node.level == 1:
        return node.module or ""
    if not node.level and node.module and node.module.partition(".")[0] == "efhouse":
        return node.module.partition(".")[2]
    return None


def private_crossings(source: str) -> set[str]:
    """The other efhouse modules' private names ``source`` imports or reads, as "module._name"."""
    tree = ast.parse(source)
    modules = {}  # local name -> the efhouse module it is bound to
    crossings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "efhouse" and module and alias.asname:
                    modules[alias.asname] = module
        elif isinstance(node, ast.ImportFrom) and (module := efhouse_module(node)) is not None:
            for alias in node.names:
                if not module:
                    modules[alias.asname or alias.name] = alias.name
                elif is_private(alias.name):
                    crossings.add(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and is_private(node.attr):
            if node.value.id in modules:
                crossings.add(f"{modules[node.value.id]}.{node.attr}")
    return crossings


def test_checker_and_efhouse_import_nothing_of_each_other():
    assert "efhouse" not in imported_modules(BENCH / "checker.py")
    # the benchmark runs with bench/ on the path, so its modules import by file name
    bench_modules = {"bench"} | {path.stem for path in BENCH.glob("*.py")}
    assert SOURCES
    for path in SOURCES:
        assert not imported_modules(path) & bench_modules, path.name


def test_only_randmodel_draws_random_numbers():
    assert "randmodel.py" in {path.name for path in SOURCES}
    for path in SOURCES:
        assert not imported_modules(path) & {"random", "secrets"}, path.name
        draws = refers_to_numpy_random(path.read_text(encoding="utf-8"))
        assert draws == (path.name == "randmodel.py"), path.name


@pytest.mark.parametrize(
    "source, draws",
    [
        ("import numpy as np\nnp.random.default_rng()", True),
        ("import numpy\nnumpy.random.random()", True),
        ("import numpy.random", True),
        ("from numpy import random", True),
        ("from numpy.random import default_rng", True),
        ("import numpy as np\nnp.argsort([])", False),
        ("from . import random\nrandom.shuffle", False),  # a relative module, not numpy's
    ],
)
def test_numpy_random_guard_sees_each_form(source, draws):
    assert refers_to_numpy_random(source) == draws


def test_private_names_cross_modules_only_where_listed():
    crossings = set()
    for path in SOURCES:
        crossings.update((path.stem, name) for name in private_crossings(path.read_text(encoding="utf-8")))
    assert crossings <= PRIVATE_CROSSINGS


@pytest.mark.parametrize(
    "source, crossings",
    [
        ("from .prefs import PreferenceProfile, _stacked_profiles", {"prefs._stacked_profiles"}),
        ("from efhouse.bigraph import _violator_or_matching as find", {"bigraph._violator_or_matching"}),
        ("from . import solver\nsolver._trace_steps(trace)", {"solver._trace_steps"}),
        ("from efhouse import solver as s\ns._trace_steps", {"solver._trace_steps"}),
        ("import efhouse.prefs as p\np._rank_matrix", {"prefs._rank_matrix"}),
        ("from . import solver\nsolver.result_json, solver.__name__", set()),
        ("from __future__ import annotations\nimport numpy as np\nnp._NoValue", set()),
        ("from numpy import _core", set()),
    ],
)
def test_private_name_guard_sees_each_form(source, crossings):
    assert private_crossings(source) == crossings
