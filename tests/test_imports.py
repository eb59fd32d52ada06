"""Every name a module under src/ghw imports is used in that module, and
no module imports a way to start processes or threads.

No linter runs here, so this reads each module's syntax tree: a name bound
by an import counts as used when it is read anywhere in the module, inside
a quoted annotation too, or listed in its __all__. __init__.py is skipped,
since its imports are re-exports, and so is `from __future__ import`.
The census runs in one process: its work sits in one support-size cell,
so spreading cells over processes does not pay for sending entries back.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ghw"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of each import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    """Every name the module reads, its quoted annotations and __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n"
                     "def f(x: 'Path') -> None:\n    return loads(x)\n")
    assert [name for name, _ in _imported(tree)
            if name not in _used(tree)] == ["os", "dumps"]


# Modules that start processes or threads, and their submodules.
CONCURRENCY = ("concurrent", "multiprocessing", "threading")


def _concurrency_imports(tree):
    """(module, line) of each import of a CONCURRENCY module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] in CONCURRENCY:
                yield name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_starts_no_processes_or_threads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{name} (line {line})" for name, line in _concurrency_imports(tree)]
    assert not found, f"{path.name} imports {', '.join(found)}"


def test_check_sees_a_concurrency_import():
    tree = ast.parse("import os\nimport multiprocessing.pool as mp\n"
                     "def f():\n    from concurrent.futures import "
                     "ProcessPoolExecutor\n    import threading\n"
                     "from . import threads\n")
    assert list(_concurrency_imports(tree)) == [
        ("multiprocessing.pool", 2), ("concurrent.futures", 4),
        ("threading", 5)]
