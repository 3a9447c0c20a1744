"""Known answers of the arithmetic the reports rest on, and per-stage digests of the reports.

A pinned report's sha256 says that some byte moved, not which stage moved
it.  The first tests pin the primitives underneath every report: the
Philox words, the word-to-double map, numpy's summation order, complex
``abs`` and ``float.__repr__``.  The stage digests then split each pinned
audit report (``tests/test_cli.py``) into the values it is built from, one
sha256 per stage over the rows: the sender columns, ``receiver_analytic``,
the CDF bound the receiver's draws are compared with, and the receiver's
count.  The grid-path digests split each pinned density export the same
way: the two raw Gaussians (``np.exp``'s output), the orthogonal pair, each
density column and each column's text.  A change re-pins only the stages it
moves.

The values were captured with numpy 2.4.6 on CPython 3.11, x86-64 Linux.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from nosignal.audit import (
    ScenarioConfig,
    build_initial,
    composite_outcomes,
    default_phase_sweep,
    evolve_sender,
    no_signalling_audit,
    sender_projectors,
)
from nosignal import cli, wavepacket
from nosignal.measurement import trial_uniforms
from nosignal.modes import Grid

#: The first 8 raw words of the Philox key ``(stream << 64) | seed`` for seed 5, stream 3.
PHILOX_SEED, PHILOX_STREAM = 5, 3
PHILOX_WORDS = [
    13864069777372183386, 7591028229250530963, 13303101288174429082, 18197207255242370058,
    12748571371293849807, 1281574814685634110, 6528581047575962254, 3945933536126265888,
]


def _raw_words(seed: int, stream: int, n: int) -> list[int]:
    return [int(w) for w in np.random.Philox(key=(stream << 64) | seed).random_raw(n)]


def test_philox_raw_words_are_known():
    assert _raw_words(PHILOX_SEED, PHILOX_STREAM, 8) == PHILOX_WORDS


def test_a_draw_is_the_top_53_bits_of_its_word():
    draws = trial_uniforms(PHILOX_SEED, 8, PHILOX_STREAM).tolist()
    assert draws == [(w >> 11) * 2**-53 for w in PHILOX_WORDS]


def test_add_reduce_sums_pairwise_not_in_sequence():
    # from 8 terms on numpy keeps 8 running sums, adds them pairwise, then the rest
    values = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    r = values[:8]
    pairwise = (((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))) + values[8]
    sequential = 0.0
    for value in values:
        sequential += value
    assert (pairwise, sequential) == (5.0, 6.0)
    assert float(np.add.reduce(np.array(values))) == pairwise


@pytest.mark.parametrize("x", [0.0, -0.0, 0.5, 1 / math.sqrt(2), -3.25, 1e-310, 1e308])
def test_complex_abs_of_a_real_is_its_abs(x):
    assert abs(complex(x, 0.0)) == abs(x)
    assert abs(np.complex128(x)) == abs(x)


def test_an_amplitude_of_one_over_root_two_squares_below_one_half():
    # why the branches carry weights: the amplitude's square misses 1/2 by an ulp
    assert abs(1 / math.sqrt(2)) ** 2 == 0.4999999999999999 != 0.5


def test_float_repr_is_shortest_round_trip():
    cases = {
        0.5: "0.5",
        0.1: "0.1",
        0.4999999999999999: "0.4999999999999999",
        1e16: "1e+16",
        -0.0: "-0.0",
        5e-324: "5e-324",
        0.5 * 0.7365556411410185: "0.36827782057050923",
    }
    assert {value: repr(value) for value in cases} == cases


def _stage_digests(variant: str, seed: int, trials: int) -> dict[str, str]:
    """One sha256 per stage of the 16-phase audit report, over its rows in order."""
    config = ScenarioConfig(variant, default_phase_sweep(16), trials, seed)
    report = no_signalling_audit(config)
    sender_set = sender_projectors(config)
    stages: dict[str, list[str]] = {
        "sender": [], "receiver_analytic": [], "cdf_bound": [], "receiver_count": [],
    }
    for row in report.rows:
        state = evolve_sender(build_initial(config), row.phi, config)
        _, probs = composite_outcomes(state, sender_set)
        # the draws below the sum of the sender outcomes are not the receiver's
        bound = list(itertools.accumulate(probs.tolist()))[-2]
        stages["sender"].append(repr(sorted(row.sender.items())))
        stages["receiver_analytic"].append(repr(row.receiver_analytic))
        stages["cdf_bound"].append(repr(bound))
        stages["receiver_count"].append(repr(round(row.receiver_empirical * trials)))
    return {
        name: hashlib.sha256("\n".join(lines).encode()).hexdigest()
        for name, lines in stages.items()
    }


#: ``(variant, seed, trials)``: the reports ``tests/test_cli.py`` pins by sha256.
STAGE_DIGESTS = {
    ("mach-zehnder", 5, 20000): {
        "sender": "89460459175cfd8c698c4851df179b6eebb84eedc0ea531a127b3fa8868ad386",
        "receiver_analytic": "dbb049bf95aeb94283c3394699cb80348499f85e127df271486a385b0849b76a",
        "cdf_bound": "9676721161986c8012ec99791e4a58aaf7cc030efe0eec47e9877d896485ea86",
        "receiver_count": "5d2cab659859808a2cf0f126c24ec4dfac5726eb3d1d31ba03df3f9882c3f52e",
    },
    ("mach-zehnder", 13, 20000): {
        "sender": "89460459175cfd8c698c4851df179b6eebb84eedc0ea531a127b3fa8868ad386",
        "receiver_analytic": "dbb049bf95aeb94283c3394699cb80348499f85e127df271486a385b0849b76a",
        "cdf_bound": "9676721161986c8012ec99791e4a58aaf7cc030efe0eec47e9877d896485ea86",
        "receiver_count": "a9f6da178a43b9a5dcbf4e2378c5e7b1e67f97c2a5ee883be607db4a444f6a21",
    },
    ("shiekh-density", 5, 2000): {
        "sender": "6e8bd956c926513e14bd787e998421151b9bc355fdcd49a40100ca2dd746172b",
        "receiver_analytic": "dbb049bf95aeb94283c3394699cb80348499f85e127df271486a385b0849b76a",
        "cdf_bound": "b9a32fa6b69024cb2d7406d9d7311ed4b6fe4120d7b3876a80211f49c47d71d1",
        "receiver_count": "22209cc7ac821c6d94b679944736f8cabeee59293938018cc8e8aae4038faa50",
    },
}


@pytest.mark.parametrize("report", sorted(STAGE_DIGESTS), ids=lambda r: f"{r[0]}-{r[1]}")
def test_stage_digests_are_pinned(report):
    assert _stage_digests(*report) == STAGE_DIGESTS[report]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: ``(r_min, r_max, n_points, phi, format)`` of the density exports
#: ``tests/test_cli.py`` pins by sha256, at the frozen separation.  ``phi``
#: None exports both profiles, as ``density`` does without ``--phi``.
GRID_EXPORTS = {
    "density-csv": (-12.0, 12.0, 4097, None, "csv"),
    "density-phi-json": (-12.0, 12.0, 4097, 1.3, "json"),
    "density-off-centre-csv": (-10.0, 14.0, 4097, None, "csv"),
    "density-even-phi-json": (-12.0, 12.0, 1000, 1.3, "json"),
}


def _grid_stage_digests(r_min, r_max, n_points, phi, fmt) -> dict[str, str]:
    """One sha256 per stage of a density export, and one of the export's bytes."""
    grid = Grid(r_min, r_max, n_points)
    d = wavepacket.default_calibration().separation
    pair = wavepacket.orthogonal_pair(grid, d)
    phases = {"density_phi0": 0.0, "density_phipi": math.pi} if phi is None else {"density": phi}
    columns = [(name, wavepacket.recombine(pair, angle).density) for name, angle in phases.items()]
    digests = {
        "gaussian_upper": _sha(wavepacket._gaussian_samples(grid, +d / 2).tobytes()),
        "gaussian_lower": _sha(wavepacket._gaussian_samples(grid, -d / 2).tobytes()),
        "pair": _sha(b"".join(state.amplitudes.tobytes() for state in pair)),
    }
    for name, density in columns:
        digests[name] = _sha(density.tobytes())
        digests[f"{name}_text"] = _sha("\n".join(cli._float_texts(name, density)).encode())
    digests["export"] = _sha(cli._density_text(grid, columns, fmt).encode())
    return digests


GRID_STAGE_DIGESTS = {
    "density-csv": {
        "gaussian_upper": "52871baf31c1cefec3dc5a2da447439b8ef9f4c356b2e86afca707a59a312fd6",
        "gaussian_lower": "a7b5c2d0da437e27d29747c4f3e9d53d6f36a718421a0f01ff945dc5143ac35f",
        "pair": "94480e1c5c3eebc39f7754fbd8b87c72b92db375aa849b1587a7d3eca0a02130",
        "density_phi0": "a504115ea21483cb3564b7c3425f2c0905ac55d6640baba8950d86741deb77b4",
        "density_phi0_text": "b58ba11a2e7924005df7c56d5c58d18f41737adbc5e432da8feff03a8ce421c3",
        "density_phipi": "6d759ce50974d336b03d5f79de10ef8f1734fed7798e524bdf633136ce3ebc39",
        "density_phipi_text": "f73c66e64cc45c7f5462a662ab5d57b0c7bb44fd0be09e4b88b2218dbfc31386",
        "export": "ce888845a8d64b6b656ab69a46c944413b4e161167ff857553d451ba55f03693",
    },
    "density-phi-json": {
        "gaussian_upper": "52871baf31c1cefec3dc5a2da447439b8ef9f4c356b2e86afca707a59a312fd6",
        "gaussian_lower": "a7b5c2d0da437e27d29747c4f3e9d53d6f36a718421a0f01ff945dc5143ac35f",
        "pair": "94480e1c5c3eebc39f7754fbd8b87c72b92db375aa849b1587a7d3eca0a02130",
        "density": "0b296a54870cf49cb72a9f23a45feb3eac2fb4a548881deb082479d6bc320b37",
        "density_text": "345d9f3a587cdc6189b0f56abbdc7e2bf7abfdaa81584960b2387974a52b3318",
        "export": "0a1e46ba736cc758d887b410e17f63fe98ea97e1d0926706bb08d6106640c558",
    },
    "density-off-centre-csv": {
        "gaussian_upper": "c71db3ad5816189334c35e027d71f94ff4948b4d1f8d7497dd321dad6d19bed4",
        "gaussian_lower": "eab0dbadb9579c9ac1693acc9ef2523f9b145a30c71929d0ff76a50153ab6a3d",
        "pair": "f1dc5904af8df7ad6348b278ea1800fc80f127b30845425251765cdc600b60b8",
        "density_phi0": "5cb057e4c99ea3eb20230dda464cc22bdc4d445d96a03c92dc2fa4eacfe85fae",
        "density_phi0_text": "2a5e88b9dceab94d2eacb1acdaef8bc76528e0c34ccf0fbf309b949ce768ada9",
        "density_phipi": "7902d76c0db29eeb386ef4c0b85266f02965ae12e594c5279ca8d69b1fd4ffbe",
        "density_phipi_text": "e221baadacf5ad04da1504676e9e4b64c4282fb24a21a1cc8b69aab6a992329a",
        "export": "1541274376943948daac63ae3c78b4a80f3b533ebbdafe65d00a78cf192df2b7",
    },
    "density-even-phi-json": {
        "gaussian_upper": "459faab6506e1c0262c2a0a0d84727d6701ddd0dff227eb49c6bc8929e64b737",
        "gaussian_lower": "9d1a24683653a1e1c7a7c31e15f458ce287baa3bcf2502bff9d6965edfc114d2",
        "pair": "67554aca67ab3ba794fe82a6cc9f00236dc5cc842c04075f45e28a2c2ba4909e",
        "density": "b7e2f5e061f23457251d878a3a3d9757069c5a7d3aa756f0be1eaa44866ecc3b",
        "density_text": "31662be0ee058b13e995647c741a0eeec159e4a2635927a014b2411f026264a4",
        "export": "b910e01b054794814141f29d6e67f3941d5e949c2b0a4be9fa3636ad2665d6e3",
    },
}


@pytest.mark.parametrize("export", sorted(GRID_EXPORTS))
def test_grid_stage_digests_are_pinned(export):
    assert _grid_stage_digests(*GRID_EXPORTS[export]) == GRID_STAGE_DIGESTS[export]
