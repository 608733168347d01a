"""No module of the package imports a name it never uses.

No linter ships with the test tools, so this reads each module with
``ast``.  A module-level import counts as used when the module names it
anywhere, or lists it in ``__all__``.  The names perfbench's tracer
patches in a module (``perfbench/spans.py``) are used through that
module's attributes, so they count as used there too.
"""

import ast
from pathlib import Path

import pytest
from helpers import load_perfbench

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "openset_al").glob("*.py") if p.name != "__init__.py")


@pytest.fixture(scope="module")
def patched_names():
    """``{module name: names perfbench/spans.py patches in it}``."""
    spans = load_perfbench("spans")
    names = {}
    for site in spans.ALL_SITES:
        module, _, cls = site.owner.partition(":")
        if not cls:
            names.setdefault(module.rpartition(".")[2], set()).add(site.attr)
    return names


def imported_names(tree: ast.Module):
    """``(name, line)`` of each name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path, patched_names):
    tree = ast.parse(path.read_text())
    allowed = used_names(tree) | patched_names.get(path.stem, set())
    unused = [
        f"{name} (line {line})" for name, line in imported_names(tree) if name not in allowed
    ]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['dumps']\n")
    names = [name for name, _ in imported_names(tree)]
    assert [n for n in names if n not in used_names(tree)] == ["os", "loads"]
