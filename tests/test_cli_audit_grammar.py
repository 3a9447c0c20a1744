"""Random ``audit`` argv: an exit code, never a traceback, and the same bytes on a rerun.

Each integer flag takes a value from a fixed pool: 0, 1, a small count, -1,
one past the flag's cap, 2**63, and the non-integers ``2.5`` and ``1e3``.
``--variant`` and ``--format`` take their own values or a bogus one.  The
counts that run stay small (at most 1000 trials over at most 8 phases), so
every audit runs on one lane and starts no thread; the caps are met only
through refusal.  Each run goes in process through ``cli.main``, twice.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nosignal import audit, cli
from nosignal.measurement import MAX_SEED, MAX_TRIALS


def _pool(cap: int, small: st.SearchStrategy) -> st.SearchStrategy:
    """An integer flag's values, as argv text: one in four from the edges."""
    edges = st.sampled_from(["0", "1", "-1", str(cap + 1), str(2**63), "2.5", "1e3"])
    return st.integers(0, 3).flatmap(lambda roll: edges if roll == 0 else small.map(str))


#: Each integer flag's pool.  ``--trials`` and ``--phi-sweep`` are always
#: given: their defaults (10,000 trials over 64 phases) would start lanes.
INT_FLAGS = {
    "--trials": (True, _pool(MAX_TRIALS, st.integers(2, 1000))),
    "--phi-sweep": (True, _pool(audit.MAX_PHASES, st.integers(2, 8))),
    "--seed": (False, _pool(MAX_SEED, st.integers(2, 99))),
}


@st.composite
def runs(draw):
    """An ``audit`` argv; ``--variant``, ``--seed`` and ``--format`` may be left out."""
    argv = ["audit"]
    variant = draw(st.sampled_from([*audit.VARIANTS, "shiekh", None]))
    if variant is not None:
        argv.append(f"--variant={variant}")
    for flag, (always, values) in INT_FLAGS.items():
        if always or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    fmt = draw(st.sampled_from(["json", "csv", "yaml", None]))
    if fmt is not None:
        argv.append(f"--format={fmt}")
    return argv


def _refuse(constant: str):
    raise AssertionError(f"report holds {constant}")


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _check_report(text: str) -> None:
    if text.startswith("{"):
        numbers = _numbers(json.loads(text, parse_constant=_refuse))
    else:
        header, *rows = text.splitlines()
        assert rows and header.startswith("phi,")
        numbers = [float(cell) for row in rows for cell in row.split(",")]
    assert numbers and all(math.isfinite(number) for number in numbers)


def _run(argv: list[str], out: Path) -> tuple[int, str, bytes | None]:
    stderr = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", str(out)])
    data = out.read_bytes() if out.exists() else None
    return code, stderr.getvalue(), data


@settings(derandomize=True, max_examples=200, deadline=None)
@given(runs())
def test_any_audit_argv_ends_in_an_exit_code_and_reruns_to_the_same_bytes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        first = _run(argv, Path(tmp) / "first")
        code, stderr, data = first
        assert code in (0, 1, 2)
        if code == 1:
            lines = stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert data is None
        else:
            assert data is not None
            _check_report(data.decode())
        assert _run(argv, Path(tmp) / "second") == first
