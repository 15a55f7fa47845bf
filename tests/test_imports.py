"""Module boundaries inside the package."""

import ast
from pathlib import Path

import newton_forest

PACKAGE = Path(newton_forest.__file__).parent


def _private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that `path` imports from package modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("newton_forest"):
            continue
        source = "." * node.level + (node.module or "")
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {source}")
    return found


def test_no_private_cross_module_imports():
    # a name with a leading underscore belongs to its module; another module
    # that needs it should get it through a public name or a stage result
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []
