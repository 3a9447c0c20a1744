"""Known answers of the arithmetic the reports rest on, and per-stage digests of the reports.

A pinned report's sha256 says that some byte moved, not which stage moved
it.  The first tests pin the primitives underneath every report: the
Philox words, the word-to-double map, numpy's summation order, complex
``abs`` and ``float.__repr__``.  The stage digests then split each pinned
audit report (``tests/test_cli.py``) into the values it is built from, one
sha256 per stage over the rows: the sender columns, ``receiver_analytic``,
the CDF bound the receiver's draws are compared with, and the receiver's
count.  A change to the audit re-pins only the stages it moves.

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
from nosignal.measurement import trial_uniforms

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
