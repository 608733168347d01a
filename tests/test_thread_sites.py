"""Every thread the package starts comes from one runner,
``selection._run_tasks``, which holds the start/join, error-order and
errstate rules.  These tests read the package's source: no other module
imports a threading API, and ``threading.Thread`` is built nowhere else,
so a second hand-written protocol cannot come back unnoticed."""

import ast
from pathlib import Path

import openset_al

SOURCES = sorted(Path(openset_al.__file__).parent.glob("*.py"))
THREAD_MODULES = {"threading", "_thread"}


def parsed():
    return [(path.stem, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def thread_imports(tree):
    """Each import that reaches a thread API, as written."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module in THREAD_MODULES or "ThreadPoolExecutor" in names:
                found.append(f"from {node.module} import {', '.join(sorted(names))}")
    return found


def thread_builders(tree):
    """The enclosing top-level function of each ``threading.Thread(...)``
    call, or None for one at module level."""
    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if (
                isinstance(node, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr == "Thread"
                and isinstance(func.value, ast.Name)
                and func.value.id == "threading"
            ):
                found.append(name)
    return found


def test_sources_found():
    assert {"selection", "harness", "cli"} <= {path.stem for path in SOURCES}


def test_only_selection_imports_threading():
    imports = {module: thread_imports(tree) for module, tree in parsed()}
    assert imports.pop("selection") == ["import threading"]
    assert {module: found for module, found in imports.items() if found} == {}


def test_threads_are_built_only_in_run_tasks():
    builders = {module: thread_builders(tree) for module, tree in parsed()}
    assert builders.pop("selection") == ["_run_tasks"]
    assert {module: found for module, found in builders.items() if found} == {}

