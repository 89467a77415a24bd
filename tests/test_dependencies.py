"""The package depends on numpy alone: every module of src/qmarginal imports
only the standard library, numpy and the package itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qmarginal"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qmarginal"}


def imported_modules(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    outside = [f"{path.name}:{line} imports {name}" for path in sources
               for line, name in imported_modules(path) if name not in ALLOWED]
    assert outside == []
