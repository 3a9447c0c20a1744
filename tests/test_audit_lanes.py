"""The audit's sampling lanes against a serial reference.

The reference is the audit as one loop on the calling thread: each row
draws its whole stream in one batch, and a row outside its band redraws
the whole of the next stream.  The lanes take rows on threads as they
come free and fill each stream in chunks; the reports must be equal
field for field.
"""

import math
import threading
import time

import numpy as np
import pytest

from nosignal import audit, measurement
from nosignal.audit import (
    _CHUNK,
    RECEIVER_LABEL,
    AuditReport,
    AuditRow,
    ScenarioConfig,
    binomial_band,
    build_initial,
    default_phase_sweep,
    evolve_sender,
    no_signalling_audit,
    receiver_probability,
    sender_projectors,
)
from nosignal.measurement import count_outcomes, trial_uniforms
from nosignal.tolerances import ANALYTIC_TOL


def serial_audit(config: ScenarioConfig) -> tuple[AuditReport, list[int]]:
    """The audit in one serial loop of single batches; also the rows it resampled."""
    sender_set = sender_projectors(config)
    band = binomial_band(config.trials)
    rows, resampled, all_in_band = [], [], True
    for index, phi in enumerate(config.phases):
        state = evolve_sender(build_initial(config), phi, config)
        weight = abs(state.sender_amplitude) ** 2
        branch_probs = sender_set.probabilities(state.sender_state)
        sender = {label: float(weight * p) for label, p in zip(sender_set.labels, branch_probs)}
        labels, probs = audit.composite_outcomes(state, sender_set)
        receiver = labels.index(RECEIVER_LABEL)
        for stream in (2 * index, 2 * index + 1):
            draws = trial_uniforms(config.seed, config.trials, stream)
            empirical = count_outcomes(probs, draws)[receiver] / config.trials
            if abs(empirical - 0.5) <= band:
                break
        else:
            all_in_band = False
        if stream % 2:
            resampled.append(index)
        rows.append(AuditRow(phi, sender, receiver_probability(state), empirical, config.trials))
    max_deviation = max(abs(row.receiver_analytic - 0.5) for row in rows)
    passed = max_deviation <= ANALYTIC_TOL and all_in_band
    report = AuditReport(
        config.variant, config.seed, tuple(rows), max_deviation, "pass" if passed else "fail"
    )
    return report, resampled


def _mz(phases, trials, seed):
    return ScenarioConfig(variant="mach-zehnder", phases=phases, trials=trials, seed=seed)


#: Seed 13 at 16 phases x 20000 trials resamples row 7; 65537 and 100003
#: trials are multiples of neither the chunk nor the Philox block.
CONFIGS = {
    "seed13-resamples-row-7": (_mz(default_phase_sweep(16), 20000, 13), [7]),
    "trials-65537": (_mz(default_phase_sweep(5), 65537, 2), None),
    "trials-100003": (_mz((0.0, 0.4, 1.7, math.pi), 100003, 8), None),
}


@pytest.fixture(scope="module")
def references():
    return {name: serial_audit(config) for name, (config, _) in CONFIGS.items()}


@pytest.fixture
def draw_threads(monkeypatch):
    """``(thread identity, row)`` of every ``trial_uniforms`` call."""
    idents = []

    def recording(seed, n, stream=0, start=0, out=None):
        idents.append((threading.get_ident(), stream // 2))
        return trial_uniforms(seed, n, stream, start, out=out)

    monkeypatch.setattr(audit, "trial_uniforms", recording)
    return idents


def _hold_first_draws(monkeypatch, lanes):
    """Hold each thread's first draw until ``lanes`` threads have drawn.

    Rows are dealt on demand, so a lane that starts late could find none
    left; held like this, each lane takes a row before any lane takes two.
    """
    barrier = threading.Barrier(lanes)
    seen = set()
    draw = audit.trial_uniforms

    def held(*args, **kwargs):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait(timeout=30)
        return draw(*args, **kwargs)

    monkeypatch.setattr(audit, "trial_uniforms", held)


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_lanes_match_the_serial_reference(monkeypatch, draw_threads, references, name, cpus):
    config, expected_resampled = CONFIGS[name]
    reference, resampled = references[name]
    if expected_resampled is not None:
        assert resampled == expected_resampled
    monkeypatch.setattr(audit, "_usable_cpus", lambda: cpus)
    _hold_first_draws(monkeypatch, cpus)
    before = threading.active_count()
    assert no_signalling_audit(config) == reference
    assert threading.active_count() == before
    # every config here has more rows and chunks than lanes: each row draws
    # both its streams on one thread, `cpus` threads draw, and the calling
    # thread is one of them
    row_threads = {}
    for ident, row in draw_threads:
        assert row_threads.setdefault(row, ident) == ident
    assert sorted(row_threads) == list(range(len(config.phases)))
    assert len(set(row_threads.values())) == cpus
    assert threading.get_ident() in row_threads.values()


def test_a_slow_row_holds_up_only_its_own_lane(monkeypatch, draw_threads, references):
    # rows are dealt as lanes come free: while row 0's first draw sleeps,
    # the other lane takes every other row
    draw = audit.trial_uniforms

    def row_0_sleeps(seed, n, stream=0, start=0, out=None):
        if stream == 0 and start == 0:
            time.sleep(0.2)
        return draw(seed, n, stream, start, out=out)

    monkeypatch.setattr(audit, "trial_uniforms", row_0_sleeps)
    monkeypatch.setattr(audit, "_usable_cpus", lambda: 2)
    name = "seed13-resamples-row-7"
    before = threading.active_count()
    assert no_signalling_audit(CONFIGS[name][0]) == references[name][0]
    assert threading.active_count() == before
    slow = {ident for ident, row in draw_threads if row == 0}
    assert len(slow) == 1
    assert {row for ident, row in draw_threads if ident in slow} == {0}


@pytest.mark.parametrize("trials", [1, _CHUNK, _CHUNK + 1, 100003])
@pytest.mark.parametrize(
    "probs",
    # 0.7 + 0.2 + 0.1 sums to 1 - 2**-53 in doubles
    [[0.25, 0.0, 0.75], [0.7, 0.2, 0.1]],
    ids=["zero-outcome", "cdf-below-1"],
)
def test_lane_counting_equals_count_outcomes(probs, trials):
    config = _mz((0.0,), trials, 21)
    size = min(_CHUNK, trials)
    draws, below = np.empty(size), np.empty(size, dtype=bool)
    edges = measurement._cdf_edges(probs)
    for stream in (0, 5):
        expected = count_outcomes(probs, trial_uniforms(21, trials, stream))
        for k in (0, 1, 2):  # first, middle, last
            count = audit._count_between(config, stream, *edges[k : k + 2], draws, below)
            assert type(count) is int and count == expected[k]


@pytest.mark.parametrize("nan_rows", [{1}, {1, 2}, {2, 5}])
@pytest.mark.parametrize("cpus", [2, 3])
def test_a_lanes_error_surfaces_as_the_serial_one(monkeypatch, cpus, nan_rows):
    # row 1 is dealt to a worker lane; with NaNs in several rows, the lowest
    # row's error is raised, whichever lane meets its row first
    real = audit.composite_outcomes

    def nan_rows_outcomes(state, sender_set):
        calls.append(None)
        labels, probs = real(state, sender_set)
        if len(calls) - 1 in nan_rows:
            probs = probs.copy()
            probs[0] = math.nan
        return labels, probs

    monkeypatch.setattr(audit, "composite_outcomes", nan_rows_outcomes)
    config = _mz(default_phase_sweep(16), 20000, 13)
    calls = []
    with pytest.raises(ValueError) as serial:
        serial_audit(config)
    monkeypatch.setattr(audit, "_usable_cpus", lambda: cpus)
    calls = []
    before = threading.active_count()
    with pytest.raises(ValueError) as lanes:
        no_signalling_audit(config)
    assert threading.active_count() == before
    assert str(lanes.value) == str(serial.value)
    assert "must be finite" in str(lanes.value)


def test_a_small_audit_runs_on_the_calling_thread(monkeypatch, draw_threads):
    # 2 rows x 1 trial is one chunk of work: one lane, however many CPUs
    monkeypatch.setattr(audit, "_usable_cpus", lambda: 8)
    config = ScenarioConfig(variant="shiekh-density", phases=(0.0, math.pi), trials=1, seed=3)
    no_signalling_audit(config)
    assert draw_threads == [(threading.get_ident(), 0), (threading.get_ident(), 1)]
