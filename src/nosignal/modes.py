"""Discrete-mode states: complex amplitudes over labelled optical modes.

A :class:`ModeState` is a finite complex vector indexed by short string
labels ("u", "l", "H", ...).  Labels that do not appear in a state carry
amplitude zero, so states supported on disjoint mode sets combine into
superpositions without any padding or bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tolerances import NORMALIZATION_TOL


class DuplicateModeError(ValueError):
    """A mode label appears more than once on a single state or matrix axis."""


def check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """Validate a label list: nonempty strings, pairwise distinct."""
    out = tuple(str(label) for label in labels)
    for label in out:
        if not label:
            raise ValueError("mode labels must be nonempty strings")
    if len(set(out)) != len(out):
        seen: set[str] = set()
        dupes = sorted({label for label in out if label in seen or seen.add(label)})
        raise DuplicateModeError(f"duplicate mode labels: {dupes}")
    return out


@dataclass(frozen=True)
class ModeState:
    """Amplitudes over an ordered tuple of distinct mode labels.

    Instances are immutable value snapshots; every operation returns a new
    state.  The amplitude array is stored read-only in double precision.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        labels = check_labels(self.labels)
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (len(labels),):
            raise ValueError(
                f"expected {len(labels)} amplitudes, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def is_normalized(self) -> bool:
        """True when the norm is within ``NORMALIZATION_TOL`` of 1."""
        return abs(norm(self) - 1.0) <= NORMALIZATION_TOL

    def amplitude(self, label: str) -> complex:
        """Amplitude on ``label``; zero when the label is absent."""
        try:
            return complex(self.amplitudes[self.labels.index(label)])
        except ValueError:
            return 0j

    def density(self) -> np.ndarray:
        """Detection probability ``|a_m|^2`` of each mode, in label order."""
        return np.array([abs(a) ** 2 for a in self.amplitudes])

    def to_json_dict(self) -> dict:
        """Serialize as ``{"modes": [{"label", "re", "im"}, ...]}``."""
        return {
            "modes": [
                {"label": label, "re": float(a.real), "im": float(a.imag)}
                for label, a in zip(self.labels, self.amplitudes)
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModeState":
        entries = [
            (mode["label"], complex(mode["re"], mode["im"])) for mode in data["modes"]
        ]
        return make_state(entries)


def make_state(entries: Iterable[tuple[str, complex]]) -> ModeState:
    """Build a state from ``(label, amplitude)`` pairs, in the given order."""
    pairs = list(entries)
    labels = tuple(label for label, _ in pairs)
    amps = np.array([amplitude for _, amplitude in pairs], dtype=np.complex128)
    return ModeState(labels, amps)


def norm(state: ModeState) -> float:
    """Euclidean norm ``sqrt(sum |a_m|^2)``."""
    return float(np.linalg.norm(state.amplitudes))


def inner(a: ModeState, b: ModeState) -> complex:
    """Inner product ``sum conj(a_m) b_m``; absent labels contribute zero."""
    b_map = dict(zip(b.labels, b.amplitudes))
    total = 0j
    for label, amp in zip(a.labels, a.amplitudes):
        other = b_map.get(label)
        if other is not None:
            total += np.conj(amp) * other
    return complex(total)


def superpose(a: ModeState, b: ModeState, ca: complex, cb: complex) -> ModeState:
    """Amplitude-wise ``ca*a + cb*b`` with labels merged.

    Labels keep ``a``'s order first, then ``b``'s labels that are new.
    """
    merged: dict[str, complex] = {
        label: ca * amp for label, amp in zip(a.labels, a.amplitudes)
    }
    for label, amp in zip(b.labels, b.amplitudes):
        merged[label] = merged.get(label, 0j) + cb * amp
    return make_state(list(merged.items()))
