"""Every module-level import in the package is read by its module."""

import ast
import pathlib

import pytest

import sawkit

MODULES = sorted(path for path in pathlib.Path(sawkit.__file__).parent
                 .glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """The names a module's top-level import statements bind that no
    expression of the module reads; __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\n"
                           "x: List = os.sep\n") == ["Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
