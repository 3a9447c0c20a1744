"""States: complex amplitudes over a basis of mode labels or grid cells.

A :class:`State` is a finite complex vector over a basis.  The basis is
either a tuple of short mode labels ("u", "l", "H", ...) or a
:class:`Grid` of cells on the transverse axis.  Each index carries a
weight, the measure of one basis element: 1 per mode, the cell width per
grid cell.  The norm, the inner product and the Born rule are weighted
sums over the indices, so one type serves both the discrete optics and the
spatial wave packets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


#: Most cells a grid may have: 16 MiB per complex amplitude vector.
MAX_GRID_POINTS = 2**20


class DuplicateModeError(ValueError):
    """A mode label appears more than once on a single state or matrix axis."""


def check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """Validate a label list: nonempty strings, pairwise distinct."""
    out = tuple(labels)
    for label in out:
        if not (isinstance(label, str) and label):
            raise ValueError(f"mode labels must be nonempty strings, got {label!r}")
    if len(set(out)) != len(out):
        seen: set[str] = set()
        dupes = sorted({label for label in out if label in seen or seen.add(label)})
        raise DuplicateModeError(f"duplicate mode labels: {dupes}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid: ``n_points`` cell-centered samples on ``[r_min, r_max]``."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        # a non-finite bound, or finite bounds whose span overflows
        if not math.isfinite(self.r_max - self.r_min):
            raise ValueError(f"grid bounds must be finite, got [{self.r_min}, {self.r_max}]")
        if not self.r_min < self.r_max:
            raise ValueError("grid requires r_min < r_max")
        n = self.n_points
        if not (type(n) is int and 64 <= n <= MAX_GRID_POINTS):
            raise ValueError(
                f"grid n_points must be an integer in [64, {MAX_GRID_POINTS}], got {n!r}"
            )
        if not self.spacing > 0:  # a span of a few subnormals, cut into n cells
            raise ValueError(
                f"grid [{self.r_min}, {self.r_max}] is too narrow for {n} cells: "
                "the spacing underflows to 0"
            )

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / self.n_points

    @property
    def center(self) -> float:
        return 0.5 * (self.r_min + self.r_max)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Sample positions, built symmetrically about the grid center.

        The symmetric form keeps mirror pairs exact in floating point and
        places a sample exactly at the center when ``n_points`` is odd.
        Computed on first use and kept, read-only, with the grid; equality
        and hashing still see only the three fields.
        """
        n = self.n_points
        points = (np.arange(n) - (n - 1) / 2) * self.spacing + self.center
        points.setflags(write=False)
        return points

    def edge_value(self, index: int) -> float:
        """Position of cell edge ``index`` (0 .. n_points)."""
        return (index - self.n_points / 2) * self.spacing + self.center

    def edge_index(self, r: float) -> int:
        """Nearest cell-edge index to position ``r``, clipped to the grid."""
        raw = (r - self.center) / self.spacing + self.n_points / 2
        return int(min(max(round(raw), 0), self.n_points))


def check_basis(basis) -> tuple[tuple[str, ...] | Grid, int]:
    """A basis and its size: a grid as it is, or validated mode labels."""
    if isinstance(basis, Grid):
        return basis, basis.n_points
    labels = check_labels(basis)
    return labels, len(labels)


@dataclass(frozen=True, eq=False)
class State:
    """Amplitudes over a basis: distinct mode labels, or the cells of a grid.

    Instances are immutable value snapshots; every operation returns a new
    state.  The amplitude array is stored read-only in double precision.
    On a grid the amplitudes are samples of the wavefunction (units
    ``length^(-1/2)``), and sums over cells are midpoint quadratures.
    Two states are equal when they share a basis and their amplitudes are
    the same bits; equal states hash alike.  The density, the norm and the
    range sums are cached properties: computed on first read and kept in
    the instance, where equality, hashing and ``repr`` do not look.
    """

    basis: tuple[str, ...] | Grid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        basis, size = check_basis(self.basis)
        object.__setattr__(self, "basis", basis)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (size,):
            raise ValueError(f"expected {size} amplitudes, got shape {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _adopt(cls, basis, amplitudes: np.ndarray) -> State:
        """A state on a checked basis that keeps ``amplitudes`` itself, with no copy.

        For a complex128 array its caller has just made and hands over;
        anything else goes through the copying constructor.
        """
        if amplitudes.dtype != np.complex128:
            return cls(basis, amplitudes)
        state = object.__new__(cls)
        object.__setattr__(state, "basis", basis)
        amplitudes.setflags(write=False)
        object.__setattr__(state, "amplitudes", amplitudes)
        return state

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.basis == other.basis and self.amplitudes.tobytes() == other.amplitudes.tobytes()

    def __hash__(self) -> int:
        return hash((self.basis, self.amplitudes.tobytes()))

    @property
    def weight(self) -> float:
        """Measure of one index: 1 per mode, the cell width per grid cell."""
        return self.basis.spacing if isinstance(self.basis, Grid) else 1.0

    def amplitude(self, label: str) -> complex:
        """Amplitude on mode ``label``; zero when the label is absent."""
        if isinstance(self.basis, Grid):
            raise ValueError("a grid state has no mode labels")
        try:
            return complex(self.amplitudes[self.basis.index(label)])
        except ValueError:
            return 0j

    @functools.cached_property
    def density(self) -> np.ndarray:
        """``|a_i|^2`` per index: detection probability per mode, density per cell.

        Modes are squared one by one in Python and cells in one numpy call;
        the two round differently in the last bit, and reports keep each.
        Computed on first read and kept, read-only, with the state.
        """
        if isinstance(self.basis, Grid):
            density = np.abs(self.amplitudes) ** 2
        else:
            density = np.array([abs(a) ** 2 for a in self.amplitudes])
        density.setflags(write=False)
        return density

    @functools.cached_property
    def norm(self) -> float:
        """Weighted Euclidean norm ``sqrt(w * sum |a_i|^2)``, kept with the state.

        The root of :meth:`range_sum` over the whole basis, so a projector
        onto every index reads the same kept sum.
        """
        return math.sqrt(self.range_sum(((0, len(self.amplitudes)),)))

    @functools.cached_property
    def _range_sums(self) -> dict[tuple[tuple[int, int], ...], float]:
        """The sums :meth:`range_sum` has made, keyed by their ranges."""
        return {}

    def range_sum(self, ranges: tuple[tuple[int, int], ...]) -> float:
        """``w * sum density[lo:hi]`` over the ``[lo, hi)`` index ranges, in range order.

        Each range is summed by ``np.add.reduce``, the ufunc behind ``np.sum``,
        so the bits are ``np.sum``'s.  Summed on first use for each ``ranges``
        and kept with the state; ``ranges`` must lie in ``[0, len(amplitudes)]``.
        """
        sums = self._range_sums
        total = sums.get(ranges)
        if total is None:
            weight, density = self.weight, self.density
            total = sums[ranges] = float(
                sum(weight * np.add.reduce(density[lo:hi]) for lo, hi in ranges)
            )
        return total


def make_state(entries: Iterable[tuple[str, complex]]) -> State:
    """Build a mode state from ``(label, amplitude)`` pairs, in the given order."""
    pairs = list(entries)
    labels = tuple(label for label, _ in pairs)
    amps = np.array([amplitude for _, amplitude in pairs], dtype=np.complex128)
    return State(labels, amps)


def _same_basis(a: State, b: State) -> None:
    if a.basis != b.basis:
        raise ValueError("states live on different bases")


def inner(a: State, b: State) -> complex:
    """Inner product ``w * sum conj(a_i) b_i`` of two states on one basis."""
    _same_basis(a, b)
    return complex(a.weight * np.add.reduce(np.conj(a.amplitudes) * b.amplitudes))


def combine(a: State, b: State, ca: complex, cb: complex) -> State:
    """Superposition ``ca*a + cb*b`` of two states on one basis."""
    _same_basis(a, b)
    amplitudes = ca * a.amplitudes
    amplitudes += cb * b.amplitudes
    return State._adopt(a.basis, amplitudes)
