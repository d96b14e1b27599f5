"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
from pathlib import Path
import pkgutil

import pytest

import cyberrisk

_MODULES = sorted(info.name for info in pkgutil.iter_modules(cyberrisk.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cyberrisk.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


def test_package_imports_are_exported_by_their_modules():
    tree = ast.parse(Path(cyberrisk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cyberrisk.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(cyberrisk, alias.asname or alias.name) is getattr(module, alias.name)


def test_no_import_inside_a_function():
    """Every import sits at module level, so no import cycle hides behind a
    function call."""
    nested = []
    for path in sorted(Path(cyberrisk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []
