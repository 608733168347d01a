"""A pool pass's per-worker scratch is sized and allocated in one place,
``selection._pool_pass``, on the calling thread before any helper starts.
These tests read the package's source: ``model._scratch_size`` is called
nowhere else, so a second owner of the scratch (a cache kept between
calls, or a reserve step before a pass) cannot come back unnoticed."""

import ast
from pathlib import Path

import openset_al

SOURCES = sorted(Path(openset_al.__file__).parent.glob("*.py"))


def sizing_callers(tree):
    """The enclosing top-level function of each ``_scratch_size(...)``
    call, by name or as an attribute, or None for one at module level."""
    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "_scratch_size":
                found.append(name)
    return found


def test_scratch_is_sized_only_in_pool_pass():
    callers = {
        path.stem: sizing_callers(ast.parse(path.read_text(), str(path))) for path in SOURCES
    }
    assert callers.pop("selection") == ["_pool_pass"]
    assert {module: found for module, found in callers.items() if found} == {}
