"""A value kept on an object is a ``functools.cached_property`` of the type that owns it.

So no module writes a frozen instance outside its own construction, reads an
instance's ``__dict__``, or calls ``vars`` on another module's object.
``AuditReport.to_json_dict`` alone calls ``vars``: it serializes the report's
and the rows' fields, so a value kept on either would leak into every report.
"""

import ast
from pathlib import Path

import nosignal

PACKAGE = Path(nosignal.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def _located(tree: ast.AST, where: str = ""):
    """Every node under ``tree``, with the dotted class and function names it sits in."""
    for node in ast.iter_child_nodes(tree):
        inside = where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = f"{where}.{node.name}" if where else node.name
        yield inside, node
        yield from _located(node, inside)


def _uses(check) -> dict[str, list[str]]:
    """``{where: [module:line, ...]}`` for each node ``check(node)`` accepts, over every module."""
    found: dict[str, list[str]] = {}
    for path in MODULES:
        for where, node in _located(ast.parse(path.read_text())):
            if check(node):
                found.setdefault(where, []).append(f"{path.name}:{node.lineno}")
    return found


def test_frozen_instances_are_written_only_while_they_are_made():
    uses = _uses(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )
    assert any(where.endswith(".__post_init__") for where in uses), "the walk sees nothing"
    assert {where for where in uses if not where.endswith(".__post_init__")} == {"State._adopt"}


def test_no_module_reads_an_instance_dict():
    uses = _uses(
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Constant) and node.value == "__dict__")
    )
    assert uses == {}


def test_vars_is_called_only_to_serialize_a_report():
    uses = _uses(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "vars"
    )
    assert set(uses) == {"AuditReport.to_json_dict"}, uses
