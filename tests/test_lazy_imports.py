"""The package and the CLI import no layer when they load; a command imports its own.

Every CLI run is a cold start, so ``cli.py`` and ``__init__.py`` import the
layers only inside the functions that use them.  A statement that runs at
module load (at the top level, in an ``if`` or ``try`` there, or in a class
body) must not import a layer, or a name the package re-exports from one.
A run that names no command only lists the commands, and imports no layer.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nosignal

PACKAGE = Path(nosignal.__file__).parent
LAYERS = {"modes", "optics", "wavepacket", "measurement", "audit", "tolerances"}
CHECKED = ["__init__.py", "cli.py"]


def _imports(tree: ast.AST, in_function: bool = False):
    """``(in_function, node)`` for each import statement under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield in_function, node
        inside = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        yield from _imports(node, inside)


def _reached(node) -> set[str]:
    """The layers and re-exported names of ``nosignal`` an import statement loads."""
    if isinstance(node, ast.Import):
        paths = [alias.name for alias in node.names]
    else:
        # both checked files sit at the package's top, so level 1 is ``nosignal``
        base = ("nosignal." if node.level else "") + (node.module or "")
        paths = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
    heads = {path.split(".")[1] for path in paths if path.startswith("nosignal.")}
    return heads & (LAYERS | set(nosignal.__all__))


def _found(in_function: bool) -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for name in CHECKED:
        for inside, node in _imports(ast.parse((PACKAGE / name).read_text())):
            layers = _reached(node)
            if inside == in_function and layers:
                found.setdefault(f"{name}:{node.lineno}", set()).update(layers)
    return found


def test_no_statement_run_at_load_imports_a_layer():
    assert _found(in_function=False) == {}


def test_the_commands_import_their_layers_inside_functions():
    # the walk sees the imports that the commands make when they run
    layers = set().union(*_found(in_function=True).values())
    assert {"audit", "measurement", "optics", "wavepacket"} <= layers


#: Prints the ``nosignal`` modules loaded after ``cli.main(argv)``, as the last stdout line.
_LOADED_AFTER_MAIN = """
import json, sys
from nosignal import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps(sorted(name for name in sys.modules if name.startswith("nosignal."))))
"""


@pytest.mark.parametrize(
    "argv", [["--help"], [], ["bogus"]], ids=["help", "no-command", "unknown-command"]
)
def test_a_run_that_names_no_command_imports_no_layer(argv):
    # a child process: this one has imported every layer for the other tests
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER_MAIN, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout.splitlines()[-1]) == ["nosignal.cli"]
