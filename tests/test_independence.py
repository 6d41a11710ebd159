"""`bench/checker.py` audits efhouse's output with code of its own.

A checker that imported efhouse could share a fault with the code it
checks, and efhouse must run without the benchmark beside it, so neither
side may import the other. The test reads the sources only.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def imported_modules(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_checker_and_efhouse_import_nothing_of_each_other():
    assert "efhouse" not in imported_modules(BENCH / "checker.py")
    # the benchmark runs with bench/ on the path, so its modules import by file name
    bench_modules = {"bench"} | {path.stem for path in BENCH.glob("*.py")}
    sources = sorted((ROOT / "src" / "efhouse").glob("*.py"))
    assert sources
    for path in sources:
        assert not imported_modules(path) & bench_modules, path.name
