"""The no-signalling audit: sender-side operations cannot steer the receiver.

The particle starts in an equal superposition of two branches flying
apart: the *sender* branch enters an interferometer whose phase shifter
the sender controls, the *receiver* branch travels the other way toward a
far detector.  Everything the sender does -- choosing the phase, inserting
detectors, collapsing the state -- acts only on the sender branch.

The audit makes that quantitative three ways for each phase:

* analytically: the receiver-branch weight is untouched by the sender's
  unitary, so the receiver detection probability is exactly 1/2;
* through collapse: summing over the sender's measurement outcomes
  (law of total probability) returns the same receiver probability, for
  any complete sender-side detector partition;
* empirically: seeded Born-rule sampling of the global outcome partition
  reproduces the 1/2 within binomial error.

The phase visibly steers the sender's own detector rates the whole time,
which is exactly why the scheme looks like a transmitter and is not one.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .modes import Grid, State, make_state
from .optics import mz_output
from .measurement import (
    CHUNK,
    MAX_SEED,
    MAX_TRIALS,
    ProjectorSet,
    ZeroNormReductionError,
    count_outcomes,
    mode_projector,
    pair_partition,
    probability,
    reduce,
    trial_uniforms,  # bound here for the frozen perfbench pin on audit.trial_uniforms
)
from .tolerances import ANALYTIC_TOL, NORM_TOL, REDUCTION_EPS
from .wavepacket import (
    DetectorWindow,
    default_calibration,
    default_grid,
    orthogonal_pair,
    recombine,
)

VARIANT_DENSITY = "shiekh-density"
VARIANT_MACH_ZEHNDER = "mach-zehnder"
VARIANTS = (VARIANT_DENSITY, VARIANT_MACH_ZEHNDER)

RECEIVER_LABEL = "receiver"

#: Most phases :func:`default_phase_sweep` spreads over the circle.
MAX_PHASES = 2**16


@dataclass(frozen=True)
class CompositeState:
    """Two-branch global state: a receiver amplitude and a sender-branch state.

    The branches have disjoint support (opposite propagation directions),
    so the global norm is ``|receiver_amplitude|^2 + |sender_amplitude|^2``
    with the sender branch kept internally normalized.
    """

    receiver_amplitude: complex
    sender_amplitude: complex
    sender_state: State

    def __post_init__(self) -> None:
        norm = math.hypot(abs(self.receiver_amplitude), abs(self.sender_amplitude))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"composite state is not normalized (norm {norm:.9f})")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one audit scenario deterministically."""

    variant: str
    phases: tuple[float, ...]
    trials: int = 10_000
    seed: int = 0
    sigma: float = 1.0
    # the density variant's frozen calibration, scaled by sigma; not settable
    grid: Grid | None = field(init=False, default=None)
    separation: float | None = field(init=False, default=None)
    window: DetectorWindow | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.phases:
            raise ValueError("phase list cannot be empty")
        if not (type(self.trials) is int and 1 <= self.trials <= MAX_TRIALS):
            raise ValueError(f"trials must be an int in [1, {MAX_TRIALS}], got {self.trials!r}")
        if not (type(self.seed) is int and 0 <= self.seed < MAX_SEED):
            raise ValueError(f"seed must be an int in [0, 2**63), got {self.seed!r}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite number, got {self.sigma}")
        phases = tuple(float(p) for p in self.phases)
        if not all(math.isfinite(p) for p in phases):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)
        if self.variant == VARIANT_DENSITY:
            cal = default_calibration(self.sigma)
            object.__setattr__(self, "grid", default_grid(self.sigma))
            object.__setattr__(self, "separation", cal.separation)
            object.__setattr__(self, "window", cal.window)


def default_phase_sweep(n: int = 64) -> tuple[float, ...]:
    """``n`` equally spaced phases in [0, 2 pi) plus the exact points 0 and pi."""
    if not (type(n) is int and 1 <= n <= MAX_PHASES):
        raise ValueError(f"a phase sweep needs at least 1 phase, at most {MAX_PHASES}; got {n!r}")
    values = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return tuple(sorted(set(values.tolist()) | {0.0, math.pi}))


#: The initial state is the same for every config; it is immutable, so one serves all.
_INITIAL = CompositeState(
    receiver_amplitude=1 / math.sqrt(2),
    sender_amplitude=1 / math.sqrt(2),
    sender_state=make_state([("in", 1.0)]),
)


def build_initial(config: ScenarioConfig) -> CompositeState:
    """Equal-weight superposition of the receiver branch and the inbound packet.

    The same immutable state for every config, built once at import.
    """
    return _INITIAL


def evolve_sender(
    state: CompositeState, phi: float, config: ScenarioConfig
) -> CompositeState:
    """Apply the sender's interferometer at phase ``phi`` to the sender branch.

    Locality made explicit: the receiver amplitude is carried over bitwise
    unchanged.  Evolution maps the inbound packet to the variant's final
    state, so applying it twice at the same phase is the same as once.
    """
    if config.variant == VARIANT_MACH_ZEHNDER:
        branch = mz_output(phi)
    else:
        pair = orthogonal_pair(config.grid, config.separation, config.sigma)
        branch = recombine(pair, phi)
    return CompositeState(
        receiver_amplitude=state.receiver_amplitude,
        sender_amplitude=state.sender_amplitude,
        sender_state=branch,
    )


def receiver_probability(state: CompositeState) -> float:
    """Probability that the receiver's counter fires: the receiver-branch weight."""
    return abs(state.receiver_amplitude) ** 2


def sender_projectors(config: ScenarioConfig) -> ProjectorSet:
    """The sender's canonical complete detector partition for the variant."""
    if config.variant == VARIANT_MACH_ZEHNDER:
        basis = ("H", "V")
        return ProjectorSet((mode_projector("H", basis, "H"), mode_projector("V", basis, "V")))
    return pair_partition(config.window, config.grid)


def composite_outcomes(
    state: CompositeState, sender_set: ProjectorSet
) -> tuple[tuple[str, ...], np.ndarray]:
    """Global outcome labels and probabilities: sender outcomes, then receiver.

    The sender set tiles the sender branch and the composite's branch
    weights sum to 1, so the global outcomes are complete by construction.
    """
    if RECEIVER_LABEL in sender_set.labels:
        raise ValueError(f"sender outcomes may not use the label {RECEIVER_LABEL!r}")
    weight = abs(state.sender_amplitude) ** 2
    branch_probs = sender_set.probabilities(state.sender_state)
    probs = np.empty(len(branch_probs) + 1)
    np.multiply(weight, branch_probs, out=probs[:-1])
    probs[-1] = receiver_probability(state)
    return sender_set.labels + (RECEIVER_LABEL,), probs


def reduce_composite(
    state: CompositeState, outcome: str, sender_set: ProjectorSet
) -> CompositeState:
    """Collapse the global state on one outcome of the global partition.

    Raises :class:`ZeroNormReductionError` when the outcome's global
    probability is below ``REDUCTION_EPS``, as :func:`reduce` does.
    """
    if outcome == RECEIVER_LABEL:
        amplitude = state.receiver_amplitude
        p = abs(amplitude) ** 2
    else:
        projector = sender_set.projectors[sender_set.labels.index(outcome)]
        amplitude = state.sender_amplitude
        p = abs(amplitude) ** 2 * probability(state.sender_state, projector)
    if p < REDUCTION_EPS:
        raise ZeroNormReductionError(
            f"outcome {outcome!r} has global probability {p:.3e} < {REDUCTION_EPS}"
        )
    phase = amplitude / abs(amplitude)
    if outcome == RECEIVER_LABEL:
        return CompositeState(phase, 0j, state.sender_state)
    return CompositeState(0j, phase, reduce(state.sender_state, projector))


def receiver_probability_after_sender_measurement(
    state: CompositeState, sender_set: ProjectorSet
) -> float:
    """Receiver probability averaged over the sender's measurement outcomes.

    Law of total probability over the global partition; collapse included.
    Equal to :func:`receiver_probability` for every complete sender
    partition -- whether the sender measures at all is invisible here.
    """
    labels, probs = composite_outcomes(state, sender_set)
    total = 0.0
    for label, p in zip(labels, probs):
        if p < REDUCTION_EPS:  # cannot condition on it
            continue
        total += p * receiver_probability(reduce_composite(state, label, sender_set))
    return total


@dataclass(frozen=True)
class AuditRow:
    phi: float
    sender: dict[str, float]
    receiver_analytic: float
    receiver_empirical: float
    trials: int


@dataclass(frozen=True)
class AuditReport:
    """Per-phase sender/receiver probabilities and the invariance verdict.

    The verdict's exact part is carried by the analytic column alone; the
    empirical column only has to sit inside its binomial band.
    """

    variant: str
    seed: int
    rows: tuple[AuditRow, ...]
    max_deviation: float
    verdict: str

    def to_json_dict(self) -> dict:
        """The report as ``dataclasses.asdict`` gives it, built without its deep copy."""
        rows = tuple({**vars(row), "sender": dict(row.sender)} for row in self.rows)
        return {**vars(self), "rows": rows}


def binomial_band(trials: int, p: float = 0.5) -> float:
    """Three binomial standard deviations of a frequency estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sample_row(config: ScenarioConfig, index: int, probs, receiver: int) -> tuple[float, bool]:
    """Row ``index``'s empirical receiver frequency, and whether it is in band.

    A frequency outside its band is redrawn once, from stream ``2 * index + 1``.
    """
    band = binomial_band(config.trials)
    for stream in (2 * index, 2 * index + 1):
        (count,) = count_outcomes(probs, config.seed, config.trials, stream, outcome=receiver)
        empirical = count / config.trials
        if abs(empirical - 0.5) <= band:
            return empirical, True
    return empirical, False


def _sample_rows(config: ScenarioConfig, outcomes) -> list[tuple[float, bool]]:
    """:func:`_sample_row` for every ``(probs, receiver)`` row, in row order.

    Lanes run one per usable CPU, but no more than there are rows or
    ``CHUNK``-draw chunks of work.  The calling thread runs one lane; the
    others run on threads joined before this returns, and each counts into
    its own thread's buffers.  A lane takes the next row from one shared
    counter as it finishes the last, so no lane idles while rows are left.
    Each row's streams are its own, so the lanes share nothing else but
    the list they write each row's result into.  Once any row has failed
    no lane takes another, and the failure of the lowest row is raised, as
    a serial loop would raise it: every lower row was already taken, and
    runs to its end.
    """
    n = len(outcomes)
    lanes = min(_usable_cpus(), n, -(-n * config.trials // CHUNK))
    rows = itertools.count()  # next() on it is one C call: atomic under the GIL
    sampled: list = [None] * n
    errors: dict[int, BaseException] = {}

    def lane() -> None:
        for i in rows:
            if i >= n or errors:
                return
            try:
                sampled[i] = _sample_row(config, i, *outcomes[i])
            except BaseException as exc:  # raised on the calling thread below
                errors[i] = exc
                return

    workers = [threading.Thread(target=lane) for _ in range(1, lanes)]
    try:
        for worker in workers:
            worker.start()
        lane()
    finally:
        for worker in workers:
            if worker.ident is not None:
                worker.join()
    if errors:
        raise errors[min(errors)]
    return sampled


def no_signalling_audit(config: ScenarioConfig) -> AuditReport:
    """Run the full audit over the configured phases.

    Each row evolves only the sender branch, records the sender's detector
    probabilities (which swing with the phase) and the receiver's analytic
    probability (which cannot), then samples ``trials`` global outcomes.
    An empirical frequency landing outside its three-sigma band is resampled
    once from the next sub-stream; the retry is itself deterministic, so
    reports are bit-reproducible.  The probabilities are computed first, in
    row order; the sampling then runs on every usable CPU.
    """
    sender_set = sender_projectors(config)
    exact, outcomes = [], []
    for phi in config.phases:
        state = evolve_sender(build_initial(config), phi, config)
        weight = abs(state.sender_amplitude) ** 2
        branch_probs = sender_set.probabilities(state.sender_state)
        sender = {
            label: float(weight * p)
            for label, p in zip(sender_set.labels, branch_probs)
        }
        exact.append((phi, sender, receiver_probability(state)))
        labels, probs = composite_outcomes(state, sender_set)
        outcomes.append((probs, labels.index(RECEIVER_LABEL)))
    sampled = _sample_rows(config, outcomes)
    all_in_band = all(in_band for _, in_band in sampled)
    rows = tuple(
        AuditRow(
            phi=phi,
            sender=sender,
            receiver_analytic=analytic,
            receiver_empirical=empirical,
            trials=config.trials,
        )
        for (phi, sender, analytic), (empirical, _) in zip(exact, sampled)
    )
    max_deviation = max(abs(row.receiver_analytic - 0.5) for row in rows)
    passed = max_deviation <= ANALYTIC_TOL and all_in_band
    return AuditReport(
        variant=config.variant,
        seed=config.seed,
        rows=rows,
        max_deviation=max_deviation,
        verdict="pass" if passed else "fail",
    )
