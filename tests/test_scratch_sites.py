"""A pool pass's per-worker scratch is sized and allocated in one place,
``selection._pool_pass``, on the calling thread before any helper starts.
These tests read the package's source: ``model._scratch_size`` is called
nowhere else, so a second owner of the scratch (a cache kept between
calls, or a reserve step before a pass) cannot come back unnoticed, and
``model._activations`` nowhere else outside ``model``, so the scratch's
row layout stays behind ``forward`` and the pass's gather."""

import ast
from pathlib import Path

import openset_al

SOURCES = sorted(Path(openset_al.__file__).parent.glob("*.py"))


def callers(tree, callee):
    """The enclosing top-level function of each call of ``callee``, by name
    or as an attribute, or None for one at module level."""
    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == callee:
                found.append(name)
    return found


def callers_by_module(callee):
    return {path.stem: callers(ast.parse(path.read_text(), str(path)), callee) for path in SOURCES}


def test_scratch_is_sized_only_in_pool_pass():
    found = callers_by_module("_scratch_size")
    assert found.pop("selection") == ["_pool_pass"]
    assert {module: calls for module, calls in found.items() if calls} == {}


def test_activation_rows_are_laid_out_only_in_model_and_pool_pass():
    """Outside ``model``, only the pass's gather into the layer -1 row
    reads ``model._activations``' row layout; a block callback that
    reused a row the layers leave free would have to call it too."""
    found = callers_by_module("_activations")
    found.pop("model")
    assert found.pop("selection") == ["_pool_pass"]
    assert {module: calls for module, calls in found.items() if calls} == {}
