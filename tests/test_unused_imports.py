"""No module imports a name it never reads.

The package in ``src/``, the tests and the demos are scanned.  An import
kept on purpose is allow-listed here, with its reason.  ``perfbench/`` is
the benchmark's own tree and is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(path for tree in ("src", "tests", "demos") for path in (ROOT / tree).rglob("*.py"))

#: ``module.name`` of an import no code in its module reads, and why it stays.
ALLOWED = {
    "audit.trial_uniforms": "the benchmark's tracer and its tests reach the function "
    "through audit's namespace, a frozen pin",
}


def _unused(tree: ast.Module) -> dict[str, int]:
    """``{name: line}`` of each name the module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_the_scan_sees_every_tree():
    assert {path.relative_to(ROOT).parts[0] for path in SCANNED} == {"src", "tests", "demos"}


def test_no_module_imports_a_name_it_never_reads():
    found = {
        f"{path.stem}.{name}": f"{path.relative_to(ROOT)}:{line}"
        for path in SCANNED
        for name, line in _unused(ast.parse(path.read_text())).items()
    }
    assert set(ALLOWED) <= set(found), "an allow-listed import is read now: drop its entry"
    assert {name: where for name, where in found.items() if name not in ALLOWED} == {}
