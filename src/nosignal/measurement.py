"""Projective measurement with state reduction and seeded outcome sampling.

A projector keeps ``[lo, hi)`` index ranges of one basis, the basis a
:class:`~nosignal.modes.State` lives on.  A detector window resolves once,
at construction, to the grid cells it covers, so the Born rule over a
partition is exactly additive; a set of mode labels resolves to their
indices; a :class:`ProjectorSet`'s outcomes tile the basis.  Measuring
collapses the state onto the observed projector's ranges and renormalizes;
an outcome whose probability is below ``REDUCTION_EPS`` cannot be
conditioned on and raises instead.

Sampling is inverse-CDF with one uniform draw per trial.  The uniforms
come from a counter-based generator keyed by ``(seed, stream)``: trial
``i`` always consumes draw ``i`` of that stream, so batches can be split
or parallelized without changing any outcome.  A batch is counted, not
indexed: with ``K`` outcomes there are only ``K - 1`` interior thresholds
of the cumulative distribution, so :func:`count_outcomes` counts how many
draws fall below each one instead of locating every draw.  It draws and
counts ``CHUNK`` trials at a time into buffers each thread keeps, so
memory stays bounded for any count up to ``MAX_TRIALS``.  Trial ``i``
still takes the outcome draw ``i`` selects.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .modes import Grid, State, check_basis, check_labels
from .tolerances import NORM_TOL, REDUCTION_EPS
from .wavepacket import DetectorWindow, window_cells


class ZeroNormReductionError(ValueError):
    """Attempt to reduce onto an outcome of (numerically) zero probability.

    The branch where a counter does not fire must be reduced with the
    complementary projector instead.
    """


class IncompleteProjectorSetError(ValueError):
    """The outcomes leave part of the basis in no outcome: ``sum_k P_k != I``."""


def _between(ranges, size: int) -> list[tuple[int, int]]:
    """``(end, start)`` of each stretch between sorted nonempty ranges, over ``[0, size)``.

    ``end > start`` where two ranges overlap; ``end < start`` is a span none covers.
    """
    edges = [0, *(edge for span in sorted(ranges) for edge in span), size]
    return list(zip(edges[::2], edges[1::2]))


@dataclass(frozen=True)
class Projector:
    """Projection onto pairwise-disjoint ``[lo, hi)`` index ranges of one basis.

    ``basis`` is a mode-label tuple or a :class:`Grid`, as on a state.  Several
    ranges express the complement of an interval ("everything left and right
    of the counter").  They are kept in index order, the order Born sums run;
    empty ones are dropped.
    """

    label: str
    basis: tuple[str, ...] | Grid
    ranges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("projector needs a nonempty outcome label")
        basis, size = check_basis(self.basis)
        ranges = tuple(sorted((operator.index(lo), operator.index(hi)) for lo, hi in self.ranges))
        if not all(0 <= lo <= hi <= size for lo, hi in ranges):
            raise ValueError(f"projector {self.label!r} ranges {ranges} leave [0, {size})")
        ranges = tuple((lo, hi) for lo, hi in ranges if lo < hi)
        if any(end > start for end, start in _between(ranges, size)):
            raise ValueError(f"projector {self.label!r} ranges overlap")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ranges", ranges)


def window_projector(label: str, grid: Grid, *windows: DetectorWindow) -> Projector:
    """Projector onto the grid cells the windows cover."""
    return Projector(label, grid, tuple(window_cells(grid, w) for w in windows))


def mode_projector(label: str, basis: Sequence[str], *modes: str) -> Projector:
    """Projector onto the named modes of a label basis; each must be in it."""
    basis = check_labels(basis)
    missing = sorted(set(modes) - set(basis))
    if missing:
        raise ValueError(f"modes {missing} are not in the basis {basis}")
    return Projector(label, basis, tuple((i, i + 1) for i, m in enumerate(basis) if m in modes))


def _born(state: State, projectors) -> list[float]:
    """Born probability of each projector on ``state``, after one norm gate.

    Each probability is the state's :meth:`~nosignal.modes.State.range_sum`
    over the projector's ranges, summed once per state and kept with it, like
    the density and the norm.  The basis check, by identity before equality,
    and the norm gate still run on every call.
    """
    basis = state.basis
    for projector in projectors:
        if projector.basis is not basis and projector.basis != basis:
            raise ValueError(f"projector {projector.label!r} is not on the state's basis")
    norm = state.norm
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized (norm {norm:.9f})")
    return [state.range_sum(projector.ranges) for projector in projectors]


def probability(state: State, projector: Projector) -> float:
    """Born probability ``<psi|P|psi>`` of the projector's outcome.

    Rejects a state whose norm is more than ``NORM_TOL`` away from 1.
    """
    return _born(state, [projector])[0]


def reduce(state: State, projector: Projector) -> State:
    """Collapse: ``P|psi> / ||P|psi>||``, an eigenstate of ``P`` afterwards."""
    p = probability(state, projector)
    if p < REDUCTION_EPS:
        raise ZeroNormReductionError(
            f"outcome {projector.label!r} has probability {p:.3e} < {REDUCTION_EPS}"
        )
    scale = 1.0 / math.sqrt(p)
    collapsed = np.zeros(len(state.amplitudes), dtype=np.complex128)
    for lo, hi in projector.ranges:
        np.multiply(state.amplitudes[lo:hi], scale, out=collapsed[lo:hi])
    return State._adopt(state.basis, collapsed)


@dataclass(frozen=True)
class ProjectorSet:
    """A complete measurement: ordered, disjoint projectors tiling one basis (``sum P_k = I``)."""

    projectors: tuple[Projector, ...]

    def __post_init__(self) -> None:
        projectors = tuple(self.projectors)
        if not projectors:
            raise ValueError("projector set cannot be empty")
        labels = [p.label for p in projectors]
        if len(set(labels)) != len(labels):
            raise ValueError("projector outcome labels must be distinct")
        if any(p.basis != projectors[0].basis for p in projectors):
            raise ValueError("projectors in one set must share one basis")
        basis, size = check_basis(projectors[0].basis)
        between = _between([r for p in projectors for r in p.ranges], size)
        if any(end > start for end, start in between):
            raise ValueError("projectors overlap between outcomes")
        gaps = [(end, start) for end, start in between if end < start]
        if gaps:
            lo, hi = gaps[0]
            where = f"cells [{lo}, {hi})" if isinstance(basis, Grid) else f"modes {basis[lo:hi]}"
            raise IncompleteProjectorSetError(f"projector set leaves {where} in no outcome")
        object.__setattr__(self, "projectors", projectors)

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Outcome labels in outcome order, computed once and kept with the set."""
        return tuple(p.label for p in self.projectors)

    def probabilities(self, state: State) -> np.ndarray:
        """Per-outcome Born probabilities, in outcome order."""
        return np.array(_born(state, self.projectors))


@dataclass(frozen=True)
class OutcomeRecord:
    """One row of an outcome table: label and Born probability; :func:`reduce` collapses."""

    label: str
    probability: float


def outcome_records(state: State, projector_set: ProjectorSet) -> list[OutcomeRecord]:
    """Full Born-rule table for a complete projector set, in outcome order."""
    probs = projector_set.probabilities(state)
    return [OutcomeRecord(label, float(p)) for label, p in zip(projector_set.labels, probs)]


def three_counter_partition(window: DetectorWindow, grid: Grid) -> ProjectorSet:
    """Partition of the whole axis: left of the counter, the counter, right of it.

    Complete and orthogonal by construction, so exactly one of the three
    counters fires whenever the particle is on this axis at all.
    """
    i_lo, i_hi = window_cells(grid, window)
    if i_lo == 0 or i_hi == grid.n_points:
        raise ValueError("window must leave room for side counters")
    return ProjectorSet(
        (
            Projector("left", grid, ((0, i_lo),)),
            Projector("in", grid, ((i_lo, i_hi),)),
            Projector("right", grid, ((i_hi, grid.n_points),)),
        )
    )


def pair_partition(window: DetectorWindow, grid: Grid) -> ProjectorSet:
    """{counter, complement} partition: P_in and P_out."""
    i_lo, i_hi = window_cells(grid, window)
    return ProjectorSet(
        (
            Projector("in", grid, ((i_lo, i_hi),)),
            Projector("out", grid, ((0, i_lo), (i_hi, grid.n_points))),
        )
    )


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

#: Seeds are non-negative 63-bit integers.
MAX_SEED = 2**63

#: Most trials one count may sample.  Memory is bounded by ``CHUNK`` draws
#: per thread whatever the count, so this cap bounds the time a count takes.
MAX_TRIALS = 2**24
#: Draws a thread fills and counts at a time: 512 KiB of doubles.
CHUNK = 2**16

#: Each thread's generator, re-keyed on every call, and its draw and
#: comparison buffers, made on its first count; so lanes never share one.
_per_thread = threading.local()

#: The counter and the buffer of a fresh key.  The state setter copies each
#: word into the generator, so every call and every thread passes this array.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.setflags(write=False)


def _as_int(value) -> int | None:
    """``value`` as a Python int, or ``None`` for a bool or a non-integer.

    Numpy integers convert through ``__index__``; a plain int returns at once.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _integer(name: str, value) -> int:
    """``value`` as a Python int; a bool or a non-integer raises ``ValueError`` naming it."""
    number = _as_int(value)
    if number is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def _philox(seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, at counter 0 of the key ``(stream << 64) | seed``.

    Setting the state gives the draws of ``Philox(key=...)`` without the
    OS-entropy ``SeedSequence`` that building a Philox makes and discards.
    The setter reads the words one by one, so the key goes in as a tuple of
    ints and the re-key makes no array.
    """
    seed, stream = _integer("seed", seed), _integer("stream", stream)
    if not (0 <= seed < MAX_SEED):
        raise ValueError("seed must be a non-negative 63-bit integer")
    if not (0 <= stream < 2**63):
        raise ValueError("stream index out of range")
    gen = getattr(_per_thread, "gen", None)
    if gen is None:
        gen = _per_thread.gen = np.random.Generator(np.random.Philox(0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": _ZERO_WORDS,
            "key": (seed, stream),
        },
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def trial_uniforms(
    seed: int, n: int, stream: int = 0, start: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform draws for trials ``start..start+n-1`` of the given stream.

    Counter-based: draw ``i`` depends only on ``(seed, stream, i)``.  Philox
    makes four 64-bit words a block, so the generator jumps ``start // 4``
    blocks and discards the first ``start % 4`` words of the next.  Given a
    float64 array ``out`` of at least ``n`` entries, the draws fill
    ``out[:n]`` in place and that view is returned; the bits are the same.
    """
    start = _integer("start", start)
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    count = _as_int(n)
    if count is None or count < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    n = count
    if out is not None and len(out) < n:
        raise ValueError(f"out holds {len(out)} draws, fewer than n = {n}")
    gen = _philox(seed, stream)
    if start >= 4:  # a fresh key is already at block 0
        gen.bit_generator.advance(start // 4)
    skip = start % 4
    if out is None:
        return gen.random(skip + n)[skip:]
    if skip:
        gen.random(skip)  # the words before draw ``start``
    return gen.random(out=out[:n])


def count_outcomes(
    probs, seed: int, n: int, stream: int = 0, outcome: int | None = None
) -> list[int]:
    """Inverse-CDF sampling: how many of draws ``0..n-1`` of a stream pick each outcome.

    Draw ``u`` picks the first outcome whose cumulative probability exceeds
    ``u``; the last outcome also takes the draws that rounding leaves above
    the last CDF entry.  Non-negative probabilities keep the CDF sorted, so
    that is a ``side="right"`` search of it clamped to the last outcome, and
    the draws picking one of outcomes ``0..k`` are those below ``cdf[k]``:
    each interior CDF entry is compared with the draws once.  The draws come
    ``CHUNK`` at a time into this thread's buffers.
    With ``outcome=k`` only that outcome's bounds are compared: ``[count_k]``.

    Raises ``ValueError`` unless ``probs`` is 1-D with at least one entry,
    each finite and non-negative (a NaN compares false with every draw); for
    an ``n`` outside ``[0, MAX_TRIALS]``; for an ``outcome`` out of range;
    and, naming the argument, for a ``seed``, ``stream``, ``n`` or
    ``outcome`` that is a bool or not an integer.  Numpy integers are
    accepted, and the counts are Python ints.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError(f"probs must be a 1-D sequence of probabilities, got shape {probs.shape}")
    values = probs.tolist()
    # a NaN fails both comparisons and an infinity the second
    if not (values and all(0.0 <= p < math.inf for p in values)):
        raise ValueError(f"outcome probabilities must be finite and >= 0, got {probs}")
    trials = _as_int(n)
    if trials is None or not 0 <= trials <= MAX_TRIALS:
        raise ValueError(f"n must be an integer in [0, {MAX_TRIALS}], got {n!r}")
    n, k = trials, len(values)
    first = 0 if outcome is None else _integer("outcome", outcome)
    last = k if outcome is None else first + 1
    if not 0 <= first < last <= k:
        raise ValueError(f"outcome {outcome!r} is not one of the {k} outcomes")
    # accumulate adds in index order, as np.cumsum does: the same bits
    bounds = list(itertools.accumulate(values))[max(first, 1) - 1 : min(last, k - 1)]
    try:
        draws, flags = _per_thread.buffers
    except AttributeError:
        draws, flags = _per_thread.buffers = np.empty(CHUNK), np.empty(CHUNK, dtype=bool)
    below = [0] * len(bounds)
    for at in range(0, n, CHUNK) or (0,):  # n = 0 still checks the key
        size = min(CHUNK, n - at)
        chunk = trial_uniforms(seed, size, stream, at, out=draws)
        for j, bound in enumerate(bounds):
            below[j] += int(np.count_nonzero(np.less(chunk, bound, out=flags[:size])))
    below = [0] * (first == 0) + below + [n] * (last == k)
    return [hi - lo for lo, hi in zip(below, below[1:])]


def sample_outcomes(
    state: State, projector_set: ProjectorSet, seed: int, n_trials: int, stream: int = 0
) -> dict[str, int]:
    """Outcome counts over ``n_trials`` Born-rule samples.

    Trial ``i`` takes draw ``i`` of the stream; one seeded shot is the
    label that ``n_trials=1`` counts once.
    """
    probs = projector_set.probabilities(state)
    counts = count_outcomes(probs, seed, n_trials, stream)
    return dict(zip(projector_set.labels, counts))

