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

import math
from dataclasses import dataclass

import numpy as np

from .modes import ModeState, make_state
from .optics import mz_output
from .measurement import (
    IncompleteProjectorSetError,
    ProjectorSet,
    count_outcomes,
    mode_projector,
    pair_partition,
    reduce,
    trial_uniforms,
)
from .tolerances import ANALYTIC_TOL, COMPLETENESS_TOL, REDUCTION_EPS
from .wavepacket import (
    DetectorWindow,
    Grid,
    WaveFunction,
    default_calibration,
    default_grid,
    orthogonal_pair,
    recombine,
)

VARIANT_DENSITY = "shiekh-density"
VARIANT_MACH_ZEHNDER = "mach-zehnder"
VARIANTS = (VARIANT_DENSITY, VARIANT_MACH_ZEHNDER)

RECEIVER_LABEL = "receiver"


@dataclass(frozen=True)
class CompositeState:
    """Two-branch global state: a receiver amplitude and a sender-branch state.

    The branches have disjoint support (opposite propagation directions),
    so the global norm is ``|receiver_amplitude|^2 + |sender_amplitude|^2``
    with the sender branch kept internally normalized.
    """

    receiver_amplitude: complex
    sender_amplitude: complex
    sender_state: ModeState | WaveFunction

    @property
    def total_norm(self) -> float:
        r, s = abs(self.receiver_amplitude), abs(self.sender_amplitude)
        return math.sqrt(r * r + s * s)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one audit scenario deterministically."""

    variant: str
    phases: tuple[float, ...]
    trials: int = 10_000
    seed: int = 0
    sigma: float = 1.0
    grid: Grid | None = None
    separation: float | None = None
    window: DetectorWindow | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.phases:
            raise ValueError("phase list cannot be empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite number, got {self.sigma}")
        phases = tuple(float(p) for p in self.phases)
        if not all(math.isfinite(p) for p in phases):
            raise ValueError("phases must be finite")
        object.__setattr__(self, "phases", phases)
        if self.variant == VARIANT_DENSITY:
            cal = default_calibration(self.sigma)
            if self.grid is None:
                object.__setattr__(self, "grid", default_grid(self.sigma))
            if self.separation is None:
                object.__setattr__(self, "separation", cal.separation)
            if self.window is None:
                object.__setattr__(self, "window", cal.window)


def default_phase_sweep(n: int = 64) -> tuple[float, ...]:
    """``n`` equally spaced phases in [0, 2 pi) plus the exact points 0 and pi."""
    values = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return tuple(sorted(set(values.tolist()) | {0.0, math.pi}))


def build_initial(config: ScenarioConfig) -> CompositeState:
    """Equal-weight superposition of the receiver branch and the inbound packet."""
    amp = 1 / math.sqrt(2)
    return CompositeState(
        receiver_amplitude=amp,
        sender_amplitude=amp,
        sender_state=make_state([("in", 1.0)]),
    )


def evolve_sender(
    state: CompositeState, phi: float, config: ScenarioConfig
) -> CompositeState:
    """Apply the sender's interferometer at phase ``phi`` to the sender branch.

    Locality made explicit: the receiver amplitude is carried over bitwise
    unchanged.  Evolution maps the inbound packet to the variant's final
    state, so applying it twice at the same phase is the same as once.
    """
    if config.variant == VARIANT_MACH_ZEHNDER:
        branch: ModeState | WaveFunction = mz_output(phi)
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
        return ProjectorSet((mode_projector("H", "H"), mode_projector("V", "V")))
    return pair_partition(config.window, config.grid)


def composite_outcomes(
    state: CompositeState, sender_set: ProjectorSet
) -> tuple[tuple[str, ...], np.ndarray]:
    """Global outcome labels and probabilities: sender outcomes, then receiver.

    Raises :class:`IncompleteProjectorSetError` when the sender partition
    plus the receiver region fail to cover the state.
    """
    if RECEIVER_LABEL in sender_set.labels:
        raise ValueError(f"sender outcomes may not use the label {RECEIVER_LABEL!r}")
    weight = abs(state.sender_amplitude) ** 2
    branch_probs = sender_set.probabilities(state.sender_state)
    probs = np.append(weight * branch_probs, receiver_probability(state))
    if not probs.sum() >= 1.0 - COMPLETENESS_TOL:
        raise IncompleteProjectorSetError(
            f"global outcome probabilities sum to {probs.sum():.9f} < 1"
        )
    return sender_set.labels + (RECEIVER_LABEL,), probs


def reduce_composite(
    state: CompositeState, outcome: str, sender_set: ProjectorSet
) -> CompositeState:
    """Collapse the global state on one outcome of the global partition."""
    if outcome == RECEIVER_LABEL:
        phase = state.receiver_amplitude / abs(state.receiver_amplitude)
        return CompositeState(phase, 0j, state.sender_state)
    index = sender_set.labels.index(outcome)
    reduced_branch = reduce(state.sender_state, sender_set.projectors[index])
    phase = state.sender_amplitude / abs(state.sender_amplitude)
    return CompositeState(0j, phase, reduced_branch)


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

    def to_json_dict(self) -> dict:
        return {
            "phi": self.phi,
            "sender": dict(self.sender),
            "receiver_analytic": self.receiver_analytic,
            "receiver_empirical": self.receiver_empirical,
            "trials": self.trials,
        }


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
        return {
            "variant": self.variant,
            "seed": self.seed,
            "rows": [row.to_json_dict() for row in self.rows],
            "max_deviation": self.max_deviation,
            "verdict": self.verdict,
        }


def binomial_band(trials: int, p: float = 0.5) -> float:
    """Three binomial standard deviations of a frequency estimate."""
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def no_signalling_audit(config: ScenarioConfig) -> AuditReport:
    """Run the full audit over the configured phases.

    Each row evolves only the sender branch, records the sender's detector
    probabilities (which swing with the phase) and the receiver's analytic
    probability (which cannot), then samples ``trials`` global outcomes.
    An empirical frequency landing outside its three-sigma band is resampled
    once from the next sub-stream; the retry is itself deterministic, so
    reports are bit-reproducible.
    """
    sender_set = sender_projectors(config)
    rows = []
    band = binomial_band(config.trials)
    all_in_band = True
    for index, phi in enumerate(config.phases):
        state = evolve_sender(build_initial(config), phi, config)
        weight = abs(state.sender_amplitude) ** 2
        branch_probs = sender_set.probabilities(state.sender_state)
        sender = {
            label: float(weight * p)
            for label, p in zip(sender_set.labels, branch_probs)
        }
        analytic = receiver_probability(state)
        labels, probs = composite_outcomes(state, sender_set)
        receiver = labels.index(RECEIVER_LABEL)
        for stream in (2 * index, 2 * index + 1):
            draws = trial_uniforms(config.seed, config.trials, stream)
            empirical = count_outcomes(probs, draws)[receiver] / config.trials
            if abs(empirical - 0.5) <= band:
                break
        else:
            all_in_band = False
        rows.append(
            AuditRow(
                phi=phi,
                sender=sender,
                receiver_analytic=analytic,
                receiver_empirical=empirical,
                trials=config.trials,
            )
        )
    max_deviation = max(abs(row.receiver_analytic - 0.5) for row in rows)
    passed = max_deviation <= ANALYTIC_TOL and all_in_band
    return AuditReport(
        variant=config.variant,
        seed=config.seed,
        rows=tuple(rows),
        max_deviation=max_deviation,
        verdict="pass" if passed else "fail",
    )
