"""Random config files for the CLI: every one ends in an exit code, never a traceback.

The keys are the settings table's names and one-edit misspellings of them;
the values come from a small fixed pool of JSON values of every type.  Each
config runs in process through ``cli.main``.
"""

import contextlib
import io
import json
import math
import string
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nosignal import audit, cli

NAMES = sorted({row[0] for row in cli._SETTINGS})

#: JSON values of every type, small enough that no run allocates much.
VALUES = [
    None, True, False, 0, 1, 2, 3, 64, -1, 2.5, -3.0, "x", "pi", "json",
    "shiekh-density", "mach-zehnder", [1], {}, math.inf, math.nan,
]


@st.composite
def near_misses(draw):
    """A table name with one character deleted, inserted, replaced or swapped."""
    name = draw(st.sampled_from(NAMES))
    i = draw(st.integers(0, len(name) - 1))
    c = draw(st.sampled_from(string.ascii_lowercase + "_"))
    edits = [
        name[:i] + name[i + 1:],
        name[:i] + c + name[i:],
        name[:i] + c + name[i + 1:],
        name[:i] + name[i + 1:i + 2] + name[i] + name[i + 2:],
    ]
    return draw(st.sampled_from(edits))


@st.composite
def runs(draw):
    """``(argv, config)``: mostly the command's own keys, some another's, some misspelt."""
    command = draw(st.sampled_from(["audit", "density", "calibrate"]))
    own = sorted(row[0] for row in cli._SETTINGS if command in row[1])
    keys = st.integers(0, 9).flatmap(
        lambda roll: near_misses() if roll == 0 else st.sampled_from(NAMES if roll == 1 else own)
    )
    config = draw(st.dictionaries(keys, st.sampled_from(VALUES), max_size=3))
    argv = [command]
    if command == "audit":
        argv += ["--phi-sweep", str(draw(st.integers(1, 4)))]
        # a variant in argv lets more audits get past the config to a run
        argv += draw(st.sampled_from([[], *(["--variant", v] for v in audit.VARIANTS)]))
    return argv, config


@settings(derandomize=True, max_examples=400, deadline=None)
@given(runs())
def test_any_config_ends_in_an_exit_code(run):
    argv, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config, allow_nan=True))
        argv = [*argv, "--config", str(path), "--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
        if code == 0:
            assert out.is_file()
