"""The tolerance table holds only tolerances that some check still applies."""

import ast
from pathlib import Path

import nosignal

PACKAGE = Path(nosignal.__file__).parent


def _applied(tree: ast.Module) -> set[str]:
    """Names a module imports from ``tolerances`` and then reads."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("tolerances")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported & read


def test_every_tolerance_is_applied_by_another_module():
    table = ast.parse((PACKAGE / "tolerances.py").read_text())
    defined = {
        target.id
        for node in table.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    applied = set()
    for path in PACKAGE.rglob("*.py"):
        if path.name != "tolerances.py":
            applied |= _applied(ast.parse(path.read_text()))
    assert defined, "no constants found in tolerances.py"
    assert defined <= applied, f"tolerances no module applies: {sorted(defined - applied)}"
