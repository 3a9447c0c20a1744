"""The density exports' text: each float as its ``repr``, however the columns repeat.

``cli._density_text`` formats each distinct magnitude of a column once and
signs it per value.  Its text must equal, byte for byte, the text of the
direct construction kept here as ``_reference_density_text``: ``repr`` of
every CSV cell, and ``json``'s C encoder for every JSON column.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nosignal import cli

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
TESTS = str(Path(__file__).resolve().parent)


def _reference_density_text(grid, columns, fmt):
    """Every float formatted on its own: what ``cli._density_text`` must equal byte for byte."""
    r = grid.points
    if fmt == "json":
        # the indent=2 layout of _json_text, with each flat column written by
        # the C encoder (json.dumps without indent) and broken one value a line
        fields = [("r", r), *columns]
        body = ",\n".join(
            f'  {json.dumps(name)}: [\n    '
            + json.dumps(np.asarray(col).tolist())[1:-1].replace(", ", ",\n    ")
            + "\n  ]"
            for name, col in fields
        )
        return "{\n" + body + "\n}\n"
    header = "r," + ",".join(name for name, _ in columns)
    rows = np.column_stack([r, *(col for _, col in columns)]).tolist()
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _grid_and_columns(*columns):
    """``(grid, columns)``: the first column is ``r``, the rest are named ``c0``, ``c1``, ..."""
    r, *rest = (np.array(col, dtype=np.float64) for col in columns)
    return SimpleNamespace(points=r), [(f"c{i}", col) for i, col in enumerate(rest)]


#: Magnitudes at the edges of ``repr``'s output: zero, the subnormals, the
#: smallest normal, the switches to exponent notation below 1e-4 and at 1e16.
EDGES = (
    0.0, 5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308,
    9.999999999999999e-06, 1e-05, 0.0001, 9999999999999998.0, 1e16,
    1.7976931348623157e308,
)


@st.composite
def _columns(draw):
    """``r`` and one to three more columns of one length, each value drawn from a
    short pool of magnitudes with its own sign, so magnitudes repeat with mixed signs."""
    n = draw(st.integers(1, 40))
    magnitude = st.one_of(
        st.sampled_from(EDGES),
        st.floats(min_value=0.0, allow_infinity=False),
    )
    pool = draw(st.lists(magnitude, min_size=1, max_size=n))
    value = st.builds(math.copysign, st.sampled_from(pool), st.sampled_from((1.0, -1.0)))
    width = draw(st.integers(2, 4))
    return _grid_and_columns(
        *(draw(st.lists(value, min_size=n, max_size=n)) for _ in range(width))
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=_columns())
@example(case=_grid_and_columns([0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]))
@example(case=_grid_and_columns(
    [5e-324, -5e-324, 1e-323, -2.225073858507201e-308],
    [2.2250738585072014e-308, -5e-324, 5e-324, 1e-323],
))
@example(case=_grid_and_columns(
    [9.999999999999999e-06, -1e-05, 0.0001, -0.0001],
    [9999999999999998.0, -1e16, 1e16, -9999999999999998.0],
))
@example(case=_grid_and_columns([-2.5, 2.5, -2.5, 1.0, -1.0], [0.5, -0.5, 0.5, -0.5, 0.5]))
@example(case=_grid_and_columns([0.1] * 6, [-0.3] * 6, [0.0] * 6))
@example(case=_grid_and_columns(np.linspace(-3.0, 5.0, 17), np.linspace(0.0, 1.0, 17)))
def test_both_formats_equal_the_reference(case):
    grid, columns = case
    for fmt in ("csv", "json"):
        assert cli._density_text(grid, columns, fmt) == _reference_density_text(grid, columns, fmt)
    for name, col in [("r", grid.points), *columns]:
        assert cli._float_texts(name, col) == list(map(repr, col.tolist()))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_mirrored_profile_equals_the_reference(fmt):
    # the default grid is centred at r = 0: r is antisymmetric and the
    # densities are palindromes, so each column has about half as many magnitudes
    from nosignal import wavepacket

    grid = wavepacket.default_grid()
    pair = wavepacket.orthogonal_pair(grid, 2.0)
    columns = [
        (f"density_{phi}", wavepacket.recombine(pair, phi).density)
        for phi in (0.0, math.pi, 1.3)
    ]
    assert np.array_equal(columns[0][1], columns[0][1][::-1])
    assert np.array_equal(grid.points, -grid.points[::-1])
    assert cli._density_text(grid, columns, fmt) == _reference_density_text(grid, columns, fmt)


@pytest.mark.parametrize("bad", [math.nan, -math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_a_value_that_is_not_finite_is_refused_naming_its_column(bad, at):
    col = np.array([0.25, -0.25, 1.0, 0.0, 0.5])
    col[at] = bad
    with pytest.raises(ValueError, match=r"^column 'density_phipi' holds a value that is not finite$"):
        cli._float_texts("density_phipi", col)
    grid, _ = _grid_and_columns(np.zeros(5))
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="'density'"):
            cli._density_text(grid, [("density", col)], fmt)


def test_a_density_that_is_not_finite_ends_in_one_error_line(tmp_path, monkeypatch, capsys):
    from nosignal import wavepacket

    def broken(pair, phi):
        return SimpleNamespace(density=np.full(pair[0].amplitudes.size, math.nan))

    monkeypatch.setattr(wavepacket, "recombine", broken)
    out = tmp_path / "density.json"
    assert cli.main(["density", "--phi", "1.3", "--format", "json", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: column 'density' holds a value that is not finite\n"
    assert list(tmp_path.iterdir()) == []


#: Run with some of numpy's CPU kernels off: the texts of columns computed
#: there, against the reference's, as one JSON line.
_RESTRICTED_PROBE = """
import json, math, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
sys.path.insert(0, sys.argv[1])
from nosignal import cli, wavepacket
from test_density_text import _grid_and_columns, _reference_density_text

cases = []
for grid in (wavepacket.default_grid(), wavepacket.Grid(-10.0, 14.0, 4097),
             wavepacket.Grid(-12.0, 12.0, 1000)):
    pair = wavepacket.orthogonal_pair(grid, 2.0)
    cases.append((grid, [(str(phi), wavepacket.recombine(pair, phi).density)
                         for phi in (0.0, math.pi, 1.3)]))
rng = np.random.default_rng(29)
pool = rng.normal(size=300) * 10.0 ** rng.integers(-320, 300, size=300)
for n in (1, 17, 4097, 20000):
    drawn = [rng.choice(pool, n) * rng.choice((1.0, -1.0), n) for _ in range(3)]
    cases.append(_grid_and_columns(*drawn))
differ = [
    [i, fmt] for i, (grid, columns) in enumerate(cases) for fmt in ("csv", "json")
    if cli._density_text(grid, columns, fmt) != _reference_density_text(grid, columns, fmt)
]
print(json.dumps({"features": __cpu_features__, "cases": len(cases), "differ": differ}))
"""


def test_equal_to_the_reference_with_avx512_kernels_off():
    # np.unique sorts through numpy's dispatched SIMD kernels; the texts must
    # not depend on which one runs.  The setting is made in the child only.
    from numpy._core._multiarray_umath import __cpu_features__

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    result = subprocess.run(
        [sys.executable, "-c", _RESTRICTED_PROBE, TESTS],
        capture_output=True, text=True, env=env, check=True,
    )
    child = json.loads(result.stdout.splitlines()[-1])
    assert child["cases"] == 7
    assert child["differ"] == []
    for feature in ("X86_V4", "AVX512_ICL", "AVX512_SPR"):
        if __cpu_features__.get(feature):
            assert child["features"][feature] is False, feature
