"""The package imports only the standard library: ``pyproject.toml`` lists
no dependencies."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "unimas"


def _imported_modules(path: Path) -> list[str]:
    """The absolute module names that ``import`` and ``from`` lines of ``path`` name."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return names


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    outside = [
        f"{path.name}: {name}"
        for path in sources
        for name in _imported_modules(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
