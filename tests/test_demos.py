"""Each narrative demo runs to completion against the library in ``src``."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout: the demos print fixed-seed results only.
STDOUT_SHA256 = {
    "collapse_and_counters": "3ce87f6a1883a2849a04db2e3130a3f4b64381e30241b91ed0d4e5f8cd05f85c",
    "impossible_recombiner": "18e984168f3c37298832f53fdc7059f4442b8051783737d1e991d091a121f67a",
    "interference_profiles": "8748f396a54bd7811101f86425a62c19946b7568281e68442094bc79b70eacf2",
    "no_signalling_sweep": "9bda01c831b4eb8b9dced8ce60ceaba8af5a5afafcac9548cb0b960738c2c517",
}


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]
