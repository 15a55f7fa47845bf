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


# The package modules that `import newton_forest.cli` loads.  Without
# cached bytecode each is compiled at every start-up, about half of the
# import's time, so a module added here costs every short run.
CLI_MODULES = [
    "newton_forest",
    "newton_forest.characteristic",
    "newton_forest.classify_audit",
    "newton_forest.cli",
    "newton_forest.errors",
    "newton_forest.local_invariants",
    "newton_forest.multiplicity",
    "newton_forest.oracle_gen",
    "newton_forest.report",
    "newton_forest.structure",
    "newton_forest.tree_io",
    "newton_forest.tree_model",
]


def test_cli_import_leaves_out_the_process_pool():
    # `audit --gen` forks its own workers and talks to them over pipes; the
    # pool modules would cost every process that runs it ~1.3 MB and ~25 ms,
    # and the import of every other command too.  Nor does the import load a
    # package module beyond CLI_MODULES.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = (
        "import os, sys, newton_forest.cli\n"
        "pool = {'multiprocessing', 'concurrent.futures'}\n"
        "print(sorted(pool & set(sys.modules)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'newton_forest'))\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "assert newton_forest.cli._audit_workers(64) == 2\n"
        "print(newton_forest.cli.run(['audit', '--gen', '64', '--max-cells', '20']))\n"
        "print(sorted(pool & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out == f"[]\n{CLI_MODULES}\n64 trees audited, 0 failures\n0\n[]\n"


# Definitions that `src` keeps only because perfbench/workloads.py reads
# them from `oracle_gen`: ROADMAP item 1's benchmark change moves them to
# tests/oracles.py, and then this set is empty.
PERFBENCH_ORACLES = {"oracle_N", "_oracle_x", "_oracle_dicriticals", "oracle_delta_tilde_N"}


def _names_read(node: ast.AST, skip: set) -> set[str]:
    """Every name `node` reads, as a bare name, an attribute or an imported
    name, outside the definitions in `skip`."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        stack.extend(child for child in ast.iter_child_nodes(node) if child not in skip)
    return found


def _shipped_definitions(modules: list[ast.Module]) -> dict[ast.AST, str]:
    """Each module-level function and class of `modules`, and each method of
    `DecoratedRootedTree`, with its name."""
    defs = {}
    for module in modules:
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node] = node.name
            if isinstance(node, ast.ClassDef) and node.name == "DecoratedRootedTree":
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        defs[member] = member.name
    return defs


def test_no_shipped_name_serves_only_the_tests():
    # Every definition is read by the program outside its own body, or is
    # one of the oracles that perfbench reads.  Reads from a definition
    # that nothing reads do not count, so a helper of dead code is dead
    # too.  Names are matched as written: a method counts as read wherever
    # an attribute of its name is.
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    defs = _shipped_definitions(modules)
    # what each definition reads, its methods apart, and what the modules
    # read outside every definition
    reads = {node: _names_read(node, defs.keys() - {node}) for node in defs}
    top = set().union(*(_names_read(m, defs.keys()) for m in modules))
    allowed = {node for node, name in defs.items() if name in PERFBENCH_ORACLES}

    def read_by(name, readers):
        return name in top or any(name in reads[node] for node in readers)

    unread: set = set()
    while True:
        live = defs.keys() - unread
        more = {
            node
            for node, name in defs.items()
            if node in live - allowed and not read_by(name, live - {node})
        }
        if not more:
            break
        unread |= more
    assert sorted(defs[node] for node in unread) == []
    # the allow-list is exact: each name is read by nothing in the program
    # but the other allowed oracles, and perfbench reaches it
    assert {defs[node] for node in allowed} == PERFBENCH_ORACLES
    for node in allowed:
        assert not read_by(defs[node], defs.keys() - allowed), defs[node]
    reached = set()
    for path in sorted((PACKAGE.parent.parent / "perfbench").glob("*.py")):
        reached |= _names_read(ast.parse(path.read_text(encoding="utf-8")), set())
    for _ in allowed:  # through the oracles it reaches, one step at a time
        for node in allowed:
            if defs[node] in reached:
                reached |= reads[node]
    assert PERFBENCH_ORACLES <= reached


# Annotated fields ("Class.field") that `src` may keep without reading them
# as an attribute.  Empty: a field that nothing reads is computed and stored
# for nothing.
UNREAD_FIELDS: set[str] = set()


def test_every_stored_field_is_read():
    # Each annotated field of each class defined in `src` is read somewhere
    # in `src` as an attribute, in its own class's methods or anywhere else.
    # Names are matched as written: a field counts as read wherever an
    # attribute of its name is loaded.
    modules = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    fields = []
    read = set()
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.ClassDef):
                fields += [
                    (node.name, member.target.id)
                    for member in node.body
                    if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(fields) > 50
    unread = {f"{cls}.{name}" for cls, name in fields if name not in read}
    assert unread == UNREAD_FIELDS


def test_perfbench_tracer_targets_resolve():
    # `perfbench/run.py --trace 1` rebinds each (module, function) of the
    # tracer's TARGETS by name, and swaps `cli.json` and
    # `classify_audit.REGISTRY` when it installs; a rename in `src` would
    # break it with no other test failing.  The tracer imports only the
    # standard library, so its source runs here as it is, and no bytecode
    # is written next to it.
    import importlib

    path = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert len(targets) > 10
    for module, function, *_ in targets:
        owner = importlib.import_module(f"newton_forest.{module}")
        assert callable(getattr(owner, function, None)), (module, function)
    from newton_forest import classify_audit, cli

    assert cli.json.dumps
    assert classify_audit.REGISTRY
