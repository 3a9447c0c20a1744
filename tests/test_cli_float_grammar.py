"""Extreme float flags for ``density`` and ``calibrate``: an exit code, never a traceback.

Each run draws a subset of the command's float flags and gives each a value
from a fixed pool: the edges of the double range (1e308, the square-root
overflow edge 1e154, the smallest subnormal 5e-324, both zeros), each with
both signs, and ordinary lengths.  ``--points`` keeps its default or takes a
small count, so no run allocates much.  Each run goes in process through
``cli.main``; every report it writes must parse and hold only finite numbers.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nosignal import cli

#: Half the values drawn are edges of the double range, half ordinary lengths.
VALUES = st.one_of(
    st.sampled_from([sign * x for x in (1e308, 1e154, 5e-324, 0.0) for sign in (1.0, -1.0)]),
    st.sampled_from([sign * x for x in (0.5, 2.5, 12.0) for sign in (1.0, -1.0)]),
)

#: Each command's float flags.
FLOAT_FLAGS = {
    "density": ["--r-min", "--r-max", "--separation", "--halfwidth", "--phi"],
    "calibrate": ["--r-min", "--r-max"],
}


@st.composite
def runs(draw):
    """An argv: a command, some of its float flags with drawn values, a grid size, a format."""
    command = draw(st.sampled_from(sorted(FLOAT_FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(FLOAT_FLAGS[command]), unique=True, max_size=4)):
        argv.append(f"{flag}={draw(VALUES)!r}")
    argv += draw(st.sampled_from([[], ["--points", "64"], ["--points", "129"]]))
    if command == "density":
        argv += draw(st.sampled_from([[], ["--verify"]]))
        argv += draw(st.sampled_from([[], ["--format", "json"]]))
    return argv


def _finite(value: str) -> float:
    number = float(value)
    assert math.isfinite(number), value
    return number


def _refuse(constant: str):
    raise AssertionError(f"report holds {constant}")


def _check_report(text: str) -> None:
    if text.startswith("{"):
        report = json.loads(text, parse_constant=_refuse)
        numbers = [v for value in report.values() for v in (value if isinstance(value, list) else [value])]
        assert all(math.isfinite(number) for number in numbers)
    else:
        header, *rows = text.splitlines()
        assert rows and header.startswith("r,")
        for row in rows:
            list(map(_finite, row.split(",")))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(runs())
def test_any_float_flag_ends_in_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 1:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert not out.exists()
        if code == 0:
            assert out.is_file()
        if out.exists():
            _check_report(out.read_text())
        for line in stdout.getvalue().splitlines():  # the --verify echo
            echoed = json.loads(line, parse_constant=_refuse)
            assert all(map(math.isfinite, [echoed["phi"], *echoed["sender"].values()]))
