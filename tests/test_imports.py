"""Module boundaries inside the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import newton_forest

PACKAGE = Path(newton_forest.__file__).parent

# Imported names that no code of their own module reads.  perfbench's
# tracer reads `cli.json` when it installs, so that one stays.
READ_FROM_OUTSIDE = {("cli.py", "json")}


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


def _unread_imports(path: Path) -> list[str]:
    """Names that `path` imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{line} imports {name} and never reads it"
        for name, line in sorted(imported.items())
        if name not in read and (path.name, name) not in READ_FROM_OUTSIDE
    ]


def test_no_unread_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in _unread_imports(path)]
    assert found == []


def test_cli_import_leaves_out_the_process_pool():
    # `audit --gen` imports the pool when it uses one; every other command
    # would pay its ~30 ms and ~1.5 MB at start-up
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = (
        "import sys, newton_forest.cli\n"
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == "[]\n"
