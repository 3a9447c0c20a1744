"""Projective measurement with state reduction and seeded outcome sampling.

Projectors target either detector windows on a grid (resolved to exact
cell ranges, so the Born rule over a partition is exactly additive) or
subsets of mode labels.  Either way the state is a complex vector with a
weight per index (1 per mode, the cell width per grid cell), and the
projector keeps some index ranges of it; :func:`_resolve` is the one place
the two kinds of state are told apart.  Measuring collapses the state onto
the observed projector's range and renormalizes; an outcome whose
probability is below ``REDUCTION_EPS`` cannot be conditioned on and raises
instead.

Sampling is inverse-CDF with one uniform draw per trial.  The uniforms
come from a counter-based generator keyed by ``(seed, stream)``: trial
``i`` always consumes draw ``i`` of that stream, so batches can be split
or parallelized without changing any outcome.  A batch is counted, not
indexed: with ``K`` outcomes there are only ``K - 1`` interior thresholds
of the cumulative distribution, so :func:`count_outcomes` counts how many
draws fall below each one instead of locating every draw.  Trial ``i``
still takes the outcome draw ``i`` selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .modes import ModeState
from .tolerances import COMPLETENESS_TOL, NORM_TOL, REDUCTION_EPS
from .wavepacket import DetectorWindow, Grid, WaveFunction, window_cells


class ProjectorDomainError(ValueError):
    """Projector and state disagree (window vs mode target, or foreign grid)."""


class ZeroNormReductionError(ValueError):
    """Attempt to reduce onto an outcome of (numerically) zero probability.

    The branch where a counter does not fire must be reduced with the
    complementary projector instead.
    """


class IncompleteProjectorSetError(ValueError):
    """The projectors do not cover the state (probabilities sum below 1)."""


@dataclass(frozen=True)
class Projector:
    """Projection onto detector windows or onto a subset of modes.

    Window projectors may carry several pairwise-disjoint windows, which is
    how the complement of an interval ("everything left and right of the
    counter") is expressed.
    """

    label: str
    windows: tuple[DetectorWindow, ...] | None = None
    modes: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if (self.windows is None) == (self.modes is None):
            raise ValueError("projector targets either windows or modes")
        if not self.label:
            raise ValueError("projector needs a nonempty outcome label")
        if self.windows is not None:
            spans = sorted(self.windows, key=lambda w: w.lo)
            for left, right in zip(spans, spans[1:]):
                if right.lo < left.hi:
                    raise ValueError("projector windows must be disjoint")
            object.__setattr__(self, "windows", tuple(spans))


def window_projector(label: str, *windows: DetectorWindow) -> Projector:
    return Projector(label, windows=tuple(windows))


def mode_projector(label: str, *modes: str) -> Projector:
    return Projector(label, modes=frozenset(modes))


def _resolve(state: ModeState | WaveFunction, projector: Projector):
    """``(amplitudes, weight, ranges, rebuild)`` of a state under a projector.

    ``amplitudes`` is the state's vector and ``weight`` the measure of one of
    its indices: 1 per mode, the spacing ``h`` per grid cell.  ``ranges`` are
    the ``[lo, hi)`` index ranges the projector keeps, one per mode in label
    order or one per window in window order; Born sums run in that order.
    ``rebuild`` makes a state of the same kind from a new vector.
    """
    if isinstance(state, WaveFunction) and projector.windows is not None:
        ranges = [window_cells(state.grid, w) for w in projector.windows]
        rebuild = partial(WaveFunction, state.grid)
        return state.samples, state.grid.spacing, ranges, rebuild
    if isinstance(state, ModeState) and projector.modes is not None:
        labels = state.labels
        ranges = [(i, i + 1) for i, label in enumerate(labels) if label in projector.modes]
        return state.amplitudes, 1.0, ranges, partial(ModeState, labels)
    kind = "mode" if projector.windows is None else "window"
    raise ProjectorDomainError(f"{kind} projector applied to a {type(state).__name__}")


def _born(state: ModeState | WaveFunction, resolved: list) -> list[float]:
    """Born probability per :func:`_resolve` result for ``state``; one density, one gate."""
    weight = resolved[0][1]
    # each kind squares its amplitudes its own way (per mode in Python, per
    # cell in numpy); one shared formula would move the last bit of reports
    density = state.density()
    norm = math.sqrt(weight * float(np.sum(density)))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized (norm {norm:.9f})")
    return [
        float(sum(weight * np.sum(density[lo:hi]) for lo, hi in ranges))
        for _, _, ranges, _ in resolved
    ]


def probability(state: ModeState | WaveFunction, projector: Projector) -> float:
    """Born probability ``<psi|P|psi>`` of the projector's outcome.

    Rejects a state whose norm is more than ``NORM_TOL`` away from 1.
    """
    return _born(state, [_resolve(state, projector)])[0]


def reduce(state: ModeState | WaveFunction, projector: Projector):
    """Collapse: ``P|psi> / ||P|psi>||``, an eigenstate of ``P`` afterwards."""
    resolved = _resolve(state, projector)
    p = _born(state, [resolved])[0]
    if p < REDUCTION_EPS:
        raise ZeroNormReductionError(
            f"outcome {projector.label!r} has probability {p:.3e} < {REDUCTION_EPS}"
        )
    amplitudes, _, ranges, rebuild = resolved
    scale = 1.0 / math.sqrt(p)
    collapsed = np.zeros_like(amplitudes)
    for lo, hi in ranges:
        collapsed[lo:hi] = amplitudes[lo:hi] * scale
    return rebuild(collapsed)


@dataclass(frozen=True)
class ProjectorSet:
    """Ordered, pairwise-orthogonal projectors meant to cover the whole state."""

    projectors: tuple[Projector, ...]

    def __post_init__(self) -> None:
        projectors = tuple(self.projectors)
        if not projectors:
            raise ValueError("projector set cannot be empty")
        labels = [p.label for p in projectors]
        if len(set(labels)) != len(labels):
            raise ValueError("projector outcome labels must be distinct")
        kinds = {p.windows is None for p in projectors}
        if len(kinds) != 1:
            raise ValueError("cannot mix window and mode projectors in one set")
        object.__setattr__(self, "projectors", projectors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.projectors)

    def probabilities(self, state) -> np.ndarray:
        """Per-outcome Born probabilities; raises if outcomes overlap or miss."""
        resolved = [_resolve(state, p) for p in self.projectors]
        ranges = [r for _, _, kept, _ in resolved for r in kept]
        spans = sorted((lo, hi) for lo, hi in ranges if lo < hi)
        if any(lo < hi for (_, hi), (lo, _) in zip(spans, spans[1:])):
            raise ValueError("projectors overlap between outcomes")
        probs = np.array(_born(state, resolved))
        if not probs.sum() >= 1.0 - COMPLETENESS_TOL:
            raise IncompleteProjectorSetError(
                f"outcome probabilities sum to {probs.sum():.9f} < 1; "
                "the projector set does not cover the state"
            )
        return probs


@dataclass(frozen=True)
class OutcomeRecord:
    """One row of a measurement's outcome table.

    ``reduced`` is the post-collapse state, or ``None`` when the outcome's
    probability sits below ``REDUCTION_EPS`` and cannot be conditioned on.
    """

    label: str
    probability: float
    reduced: ModeState | WaveFunction | None


def outcome_records(state, projector_set: ProjectorSet) -> list[OutcomeRecord]:
    """Full Born-rule table for a complete projector set."""
    probs = projector_set.probabilities(state)
    records = []
    for projector, p in zip(projector_set.projectors, probs):
        reduced = reduce(state, projector) if p >= REDUCTION_EPS else None
        records.append(OutcomeRecord(projector.label, float(p), reduced))
    return records


def three_counter_partition(window: DetectorWindow, grid: Grid) -> ProjectorSet:
    """Partition of the whole axis: left of the counter, the counter, right of it.

    Complete and orthogonal by construction, so exactly one of the three
    counters fires whenever the particle is on this axis at all.
    """
    i_lo, i_hi = window_cells(grid, window)
    if i_lo == 0 or i_hi == grid.n_points:
        raise ValueError("window must leave room for side counters")
    left = DetectorWindow(grid.edge_value(0), grid.edge_value(i_lo))
    middle = DetectorWindow(grid.edge_value(i_lo), grid.edge_value(i_hi))
    right = DetectorWindow(grid.edge_value(i_hi), grid.edge_value(grid.n_points))
    return ProjectorSet(
        (
            window_projector("left", left),
            window_projector("in", middle),
            window_projector("right", right),
        )
    )


def pair_partition(window: DetectorWindow, grid: Grid) -> ProjectorSet:
    """{counter, complement} partition: P_in and P_out."""
    i_lo, i_hi = window_cells(grid, window)
    middle = DetectorWindow(grid.edge_value(i_lo), grid.edge_value(i_hi))
    outside = []
    if i_lo > 0:
        outside.append(DetectorWindow(grid.edge_value(0), grid.edge_value(i_lo)))
    if i_hi < grid.n_points:
        outside.append(
            DetectorWindow(grid.edge_value(i_hi), grid.edge_value(grid.n_points))
        )
    return ProjectorSet(
        (window_projector("in", middle), window_projector("out", *outside))
    )


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

_MAX_SEED = 2**63


def _philox(seed: int, stream: int) -> np.random.Generator:
    if not (0 <= seed < _MAX_SEED):
        raise ValueError("seed must be a non-negative 63-bit integer")
    if not (0 <= stream < 2**63):
        raise ValueError("stream index out of range")
    return np.random.Generator(np.random.Philox(key=(stream << 64) | seed))


def trial_uniforms(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """Uniform draws for trials ``0..n-1`` of the given stream.

    Counter-based: draw ``i`` depends only on ``(seed, stream, i)``.
    """
    return _philox(seed, stream).random(n)


def trial_uniform(seed: int, trial: int, stream: int = 0) -> float:
    """The single uniform draw for one trial, without generating the batch.

    Random access into the stream: Philox advances by blocks of four
    64-bit words, so jump to the trial's block and read its word.
    """
    gen = _philox(seed, stream)
    gen.bit_generator.advance(trial // 4)
    return float(gen.random(trial % 4 + 1)[-1])


def count_outcomes(probs, draws) -> list[int]:
    """Inverse-CDF sampling: how many of the uniform ``draws`` pick each outcome.

    Draw ``u`` picks the first outcome whose cumulative probability exceeds
    ``u``.  So the draws that pick one of outcomes ``0..k`` are exactly those
    below ``cdf[k]``; outcome ``k`` gets ``below_k - below_{k-1}``, and the
    last outcome takes every draw not below ``cdf[K-2]``, including those
    that rounding leaves above the last CDF entry.  Non-negative
    probabilities keep the CDF non-decreasing, so these are the comparisons
    a ``side="right"`` binary search of the CDF makes per draw: the counts
    equal its choices, clamped to the last outcome, for every valid vector.

    Raises ``ValueError`` unless there is at least one probability and each
    is finite and non-negative: a NaN compares false with every draw and
    would otherwise hand all of them to the last outcome.
    """
    probs = np.asarray(probs, dtype=float)
    if not (probs.size and np.all(np.isfinite(probs) & (probs >= 0.0))):
        raise ValueError(f"outcome probabilities must be finite and >= 0, got {probs}")
    draws = np.asarray(draws)
    below = [int(np.count_nonzero(draws < c)) for c in np.cumsum(probs)[:-1]]
    bounds = [0, *below, len(draws)]
    return [hi - lo for lo, hi in zip(bounds, bounds[1:])]


def measure(
    state, projector_set: ProjectorSet, seed: int, trial: int = 0
) -> tuple[str, ModeState | WaveFunction]:
    """Sample one outcome by the Born rule and return the reduced state.

    Deterministic: the outcome is a pure function of
    ``(state, projector_set, seed, trial)``.
    """
    probs = projector_set.probabilities(state)
    counts = count_outcomes(probs, [trial_uniform(seed, trial)])
    chosen = projector_set.projectors[counts.index(1)]
    return chosen.label, reduce(state, chosen)


def sample_outcomes(
    state, projector_set: ProjectorSet, seed: int, n_trials: int, stream: int = 0
) -> dict[str, int]:
    """Outcome counts over ``n_trials`` Born-rule samples (vectorized).

    Trial ``i`` uses the same draw :func:`measure` would use for
    ``trial=i``, so batched and one-at-a-time sampling agree exactly.
    """
    probs = projector_set.probabilities(state)
    counts = count_outcomes(probs, trial_uniforms(seed, n_trials, stream))
    return dict(zip(projector_set.labels, counts))


def sampling_record(
    phi: float, counts: dict[str, int], trials: int, seed: int
) -> dict:
    """Monte Carlo result in the standard export shape."""
    return {"phi": phi, "counts": dict(counts), "trials": trials, "seed": seed}
