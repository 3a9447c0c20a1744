"""Optical elements as complex transfer matrices, circuits, and isometry checks.

Every lossless passive device maps input-mode amplitudes to output-mode
amplitudes through a matrix ``M`` with ``M^dag M = I``.  This module builds
those matrices for beam splitters, mirrors, phase shifters and deflectors,
composes them into feed-forward circuits, and validates the isometry
property numerically.

It also provides the one deliberately *impossible* device, the
"hypothetical canceller": a two-in/one-out element that would superimpose
two packets onto a single mode.  It is constructible here precisely so that
its failure can be demonstrated: it never passes :func:`is_isometry`, and
when applied anyway it can map a normalized superposition to the zero
vector.

Conventions: the balanced beam splitter is the real Hadamard
``[[1, 1], [1, -1]]/sqrt(2)``; mirrors and deflectors only redirect
propagation, acting as the identity on their mode.  Any fixed phase a real
device would add on reflection is unobservable in every probability
computed in this package.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

import numpy as np

from .modes import Grid, State, check_labels, make_state
from .tolerances import ISOMETRY_TOL

_BALANCED_ANGLE = math.pi / 4


class WiringError(ValueError):
    """Circuit elements reference modes that are not live where they appear."""


class NonPhysicalCircuitError(RuntimeError):
    """Refusal to apply a circuit that fails isometry validation.

    Pass ``allow_nonphysical=True`` to :func:`apply` to run the circuit
    anyway, e.g. to demonstrate what the impossible canceller would do.
    """

    def __init__(self, report: dict):
        self.report = report
        failures = ", ".join(
            f"element {f['element_index']}: {f['reason']} (deviation {f['deviation']:.3g})"
            for f in report["failures"]
        )
        super().__init__(f"circuit is not physical: {failures}")


def _finite(name: str, value) -> float:
    """A setting's value as a float; anything but a finite number is rejected."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (numeric and abs(value) <= sys.float_info.max):
        raise ValueError(f"setting {name!r} must be a finite number, got {value!r}")
    return float(value)


def _splitter(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def _custom(rows) -> np.ndarray:
    try:
        pairs = np.array(rows)
    except ValueError:  # ragged rows
        pairs = np.empty(0, dtype=object)
    real = np.issubdtype(pairs.dtype, np.integer) or np.issubdtype(pairs.dtype, np.floating)
    if not (real and pairs.ndim == 3 and pairs.shape[2] == 2 and np.all(np.isfinite(pairs))):
        raise ValueError("setting 'matrix' must be rows of finite [re, im] pairs")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


#: Device kinds: ``(params, number of inputs) -> matrix entries``.  A wiring
#: of the wrong arity gives a shape that ``Element`` rejects.
_DEVICES = {
    "beam_splitter": lambda p, n: _splitter(_finite("theta", p.get("theta", _BALANCED_ANGLE))),
    "mirror": lambda p, n: np.eye(n, dtype=np.complex128),
    "deflector": lambda p, n: np.eye(n, dtype=np.complex128),
    "phase_shifter": lambda p, n: np.array([[np.exp(1j * _finite("phi", p.get("phi")))]]),
    "canceller": lambda p, n: (
        np.array([[1.0, np.exp(1j * _finite("phi", p.get("phi", 0.0)))]]) / math.sqrt(2)
    ),
    "custom": lambda p, n: _custom(p.get("matrix")),
}


@dataclass(frozen=True)
class Element:
    """One optical device with its wiring.

    ``kind`` is one of ``beam_splitter`` (setting ``theta``, default pi/4),
    ``mirror``, ``deflector``, ``phase_shifter`` (``phi``), ``canceller``
    (``phi``, default 0) or ``custom`` (``matrix``, rows of ``[re, im]``
    pairs).  ``params`` holds those settings as a circuit file's ``params``
    object does, copied at construction.  ``matrix`` (outputs x inputs, read-only)
    is built once, here, so a bad kind, setting or wiring arity fails on creation.
    """

    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    params: dict = field(default_factory=dict)
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        build = _DEVICES.get(self.kind) if isinstance(self.kind, str) else None
        if build is None:
            raise ValueError(f"unknown element kind: {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"{self.kind} params must be an object, got {self.params!r}")
        object.__setattr__(self, "inputs", check_labels(self.inputs))
        object.__setattr__(self, "outputs", check_labels(self.outputs))
        object.__setattr__(self, "params", copy.deepcopy(self.params))
        matrix = np.array(build(self.params, len(self.inputs)), dtype=np.complex128)
        if matrix.shape != (len(self.outputs), len(self.inputs)):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match "
                f"{len(self.outputs)} outputs x {len(self.inputs)} inputs"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def beam_splitter(
    inputs: tuple[str, str], outputs: tuple[str, str], theta: float = _BALANCED_ANGLE
) -> Element:
    """Two-port splitter with mixing angle ``theta``; pi/4 gives the balanced one."""
    return Element("beam_splitter", tuple(inputs), tuple(outputs), {"theta": float(theta)})


def mirror(mode: str) -> Element:
    """Direction change only: identity on the mode amplitude."""
    return Element("mirror", (mode,), (mode,))


def deflector(mode: str) -> Element:
    """Same mode-level action as a mirror; redirects a beam toward a detector."""
    return Element("deflector", (mode,), (mode,))


def phase_shifter(mode: str, phi: float) -> Element:
    """Multiplies one mode amplitude by ``exp(i*phi)``."""
    return Element("phase_shifter", (mode,), (mode,), {"phi": float(phi)})


def hypothetical_canceller(
    inputs: tuple[str, str], output: str, phi: float = 0.0
) -> Element:
    """The impossible two-in/one-out recombiner ``(1, e^{i phi})/sqrt(2)``.

    It would superimpose two parallel packets onto one mode so that a phase
    choice could make them vanish.  No lossless device can do this; the
    element exists so tests can exhibit the contradiction.
    """
    return Element("canceller", tuple(inputs), (output,), {"phi": float(phi)})


def custom_element(
    matrix: Sequence[Sequence[complex]],
    inputs: Sequence[str],
    outputs: Sequence[str],
) -> Element:
    """Element with explicit matrix entries (used for diagnostics)."""
    rows = [[[z.real, z.imag] for z in map(complex, row)] for row in matrix]
    return Element("custom", tuple(inputs), tuple(outputs), {"matrix": rows})


def is_isometry(matrix: np.ndarray) -> tuple[bool, float]:
    """Check ``M^dag M = I`` on the input modes.

    Returns ``(flag, deviation)`` where ``deviation`` is the max-entry
    magnitude of ``M^dag M - I`` and ``flag`` is ``deviation <= ISOMETRY_TOL``.
    """
    gram = matrix.conj().T @ matrix
    deviation = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    return deviation <= ISOMETRY_TOL, deviation


@dataclass(frozen=True)
class Circuit:
    """Feed-forward sequence of elements over a declared set of input modes."""

    elements: tuple[Element, ...]
    input_modes: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "input_modes", check_labels(self.input_modes))


def _walk(circuit: Circuit):
    """``(index, element, live, next_live)`` per element; raises WiringError on mismatch."""
    live = circuit.input_modes
    for index, element in enumerate(circuit.elements):
        missing = [m for m in element.inputs if m not in live]
        if missing:
            raise WiringError(
                f"element {index} ({element.kind}) consumes {missing} which the "
                f"preceding elements do not provide (live modes: {list(live)})"
            )
        consumed = set(element.inputs)
        passthrough = set(live) - consumed
        clash = [m for m in element.outputs if m in passthrough]
        if clash:
            raise WiringError(
                f"element {index} ({element.kind}) emits {clash} which would "
                "collide with modes passing through it"
            )
        out: list[str] = []
        emitted = False
        for mode in live:
            if mode in consumed:
                if not emitted:
                    out.extend(element.outputs)
                    emitted = True
            else:
                out.append(mode)
        yield index, element, live, tuple(out)
        live = tuple(out)


def _embedded_matrix(
    live: tuple[str, ...], nxt: tuple[str, ...], element: Element
) -> np.ndarray:
    """Element matrix extended by the identity on untouched live modes."""
    emb = np.zeros((len(nxt), len(live)), dtype=np.complex128)
    wired = set(element.outputs)
    for row, mode in enumerate(nxt):
        if mode not in wired:
            emb[row, live.index(mode)] = 1.0
    for row_local, out_mode in enumerate(element.outputs):
        row = nxt.index(out_mode)
        for col_local, in_mode in enumerate(element.inputs):
            emb[row, live.index(in_mode)] = element.matrix[row_local, col_local]
    return emb


def _report(steps) -> dict:
    """Isometry check of each element that :func:`_walk` yielded."""
    failures = []
    for index, element, _, _ in steps:
        ok, deviation = is_isometry(element.matrix)
        if ok:
            continue
        singulars = np.linalg.svd(element.matrix, compute_uv=False)
        if np.all(singulars <= 1.0 + ISOMETRY_TOL) and np.min(singulars) < 1.0 - ISOMETRY_TOL:
            reason = "partial attenuation"
        else:
            reason = "not an isometry"
        failures.append({"element_index": index, "deviation": deviation, "reason": reason})
    return {"physical": not failures, "failures": failures}


def validate_circuit(circuit: Circuit) -> dict:
    """Check wiring and per-element isometry at ``ISOMETRY_TOL``.

    The report is the JSON object ``validate`` writes: ``physical``, and one
    ``failures`` entry (``element_index``, ``deviation``, ``reason``) per failing element.

    Isometry failures are classified: an element whose singular values are
    all at most 1, some strictly below, only attenuates amplitudes -- still
    forbidden, since a lossless device must move probability to the
    complement of a region, never swallow it.
    """
    return _report(_walk(circuit))


def circuit_matrix(circuit: Circuit) -> tuple[tuple[str, ...], np.ndarray]:
    """``(output_modes, matrix)``: product of the embedded element matrices, in wiring order."""
    total = np.eye(len(circuit.input_modes), dtype=np.complex128)
    live = circuit.input_modes
    for _, element, before, live in _walk(circuit):
        total = _embedded_matrix(before, live, element) @ total
    return live, total


def apply(circuit: Circuit, state: State, allow_nonphysical: bool = False) -> State:
    """Run ``state`` through the circuit, element by element.

    Refuses non-physical circuits unless ``allow_nonphysical`` is set; the
    opt-in exists so the canceller's absurd consequence (a vanishing state)
    can be produced on purpose.  Circuits act on mode states only; a state
    on a grid basis is refused.
    """
    if isinstance(state.basis, Grid):
        raise ValueError("circuits act on mode states, not on a grid basis")
    steps = list(_walk(circuit))
    report = _report(steps)
    if not report["physical"] and not allow_nonphysical:
        raise NonPhysicalCircuitError(report)
    unknown = [m for m in state.basis if m not in circuit.input_modes]
    if unknown:
        raise WiringError(f"state uses modes {unknown} outside the circuit inputs")
    live = circuit.input_modes
    vec = np.array([state.amplitude(m) for m in live], dtype=np.complex128)
    for _, element, before, live in steps:
        vec = _embedded_matrix(before, live, element) @ vec
    return State(live, vec)


# ---------------------------------------------------------------------------
# Canonical devices
# ---------------------------------------------------------------------------

def interferometer_output(phi: float) -> State:
    """Final state of the split-and-deflect device: ``(|u> + e^{i phi}|l>)/sqrt(2)``.

    The two packets leave the final deflectors travelling parallel on the
    upper ("u") and lower ("l") routes; ``phi`` is the shifter setting on
    the lower route.
    """
    return make_state([("u", 1 / math.sqrt(2)), ("l", np.exp(1j * phi) / math.sqrt(2))])


def mz_output(phi: float) -> State:
    """Output of a full Mach-Zehnder: a second balanced splitter recombines.

    Amplitudes are ``(1 + e^{i phi})/2`` on the horizontal port "H" and
    ``(1 - e^{i phi})/2`` on the vertical port "V", i.e. the detection
    probabilities are ``cos^2(phi/2)`` and ``sin^2(phi/2)``.  This closed
    form is the audit's source of truth; :func:`mach_zehnder_circuit` is
    tested to reproduce it within 1e-12.
    """
    z = np.exp(1j * phi)
    return make_state([("H", (1 + z) / 2), ("V", (1 - z) / 2)])


def splitter_circuit(phi: float = 0.0) -> Circuit:
    """The split-shift-deflect device: splitter, two mirrors, shifter, deflectors."""
    return Circuit(
        elements=(
            beam_splitter(("in", "vac"), ("u", "l")),
            mirror("u"),
            mirror("l"),
            phase_shifter("l", phi),
            deflector("u"),
            deflector("l"),
        ),
        input_modes=("in", "vac"),
    )


def mach_zehnder_circuit(phi: float = 0.0) -> Circuit:
    """Standard Mach-Zehnder: the splitter circuit plus a recombining splitter."""
    base = splitter_circuit(phi)
    return Circuit(
        elements=base.elements + (beam_splitter(("u", "l"), ("H", "V")),),
        input_modes=base.input_modes,
    )


# ---------------------------------------------------------------------------
# Circuit description files
# ---------------------------------------------------------------------------

def circuit_from_json(text: str) -> Circuit:
    """Parse a JSON element list; input modes are those consumed before produced."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("circuit file must contain a JSON list of elements")
    elements: list[Element] = []
    produced: set[str] = set()
    inputs: list[str] = []
    for item in data:
        ok = isinstance(item, dict) and all(isinstance(item.get(k), list) for k in ("in", "out"))
        if not ok:
            raise ValueError(f"element must be an object with 'in' and 'out' lists, got {item!r}")
        params = item.get("params", {})
        element = Element(item.get("kind"), tuple(item["in"]), tuple(item["out"]), params)
        for mode in element.inputs:
            if mode not in produced and mode not in inputs:
                inputs.append(mode)
        produced.update(element.outputs)
        elements.append(element)
    return Circuit(elements, tuple(inputs))


def bundled_circuit_path(name: str):
    """Filesystem path of a circuit description shipped with the package."""
    if not name.endswith(".json"):
        name = f"{name}.circuit.json"
    return resources.files(__package__) / "circuits" / name


def load_bundled_circuit(name: str) -> Circuit:
    return circuit_from_json(bundled_circuit_path(name).read_text())
