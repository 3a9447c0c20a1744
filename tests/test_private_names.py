"""A module of the package imports no underscore-prefixed name from another package module.

A private name is its module's own business; a layer that needs one from
another layer calls that layer's public function instead.
"""

import ast
from pathlib import Path

import nosignal

PACKAGE = Path(nosignal.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _package_imports():
    """``(module:line, imported name)`` of every name a module imports from the package."""
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "nosignal"
            ):
                for alias in node.names:
                    yield f"{path.name}:{node.lineno}", alias.name


def test_no_module_imports_a_private_name_of_another():
    imports = list(_package_imports())
    assert imports, "the walk sees nothing"
    assert [(where, name) for where, name in imports if name.startswith("_")] == []
