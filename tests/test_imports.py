"""Every name a module imports is used in it (`__init__.py` re-exports, so it
is left out), no module imports another's `_`-prefixed names, no module
relies on an `assert`, which `python -O` strips, and every interned class
compares by identity."""
import ast
import importlib
from pathlib import Path

import pytest

import epsolve
from epsolve.finposet import Interned

SOURCES = sorted(Path(epsolve.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_imports(tree: ast.Module) -> list[str]:
    return sorted(
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "epsolve")
        for a in node.names
        if a.name.startswith("_")
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_imported_from_another_module(path):
    assert _private_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_interned_classes_keep_identity_equality():
    # a @dataclass without eq=False would bring back structural == and hash
    classes = {
        obj
        for path in MODULES
        for obj in vars(importlib.import_module(f"epsolve.{path.stem}")).values()
        if isinstance(obj, Interned)
    }
    assert {"FinPoset", "MonotoneMap", "PairHom", "OmegaChain", "Lift"} <= {c.__name__ for c in classes}
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
