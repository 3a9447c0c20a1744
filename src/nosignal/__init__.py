"""Single-photon interferometry with projective collapse, done honestly.

A particle split between a far-flying branch and an interferometer branch
lets one observer (the sender) flip a phase shifter while another (the
receiver) watches the far branch.  This package evolves that state with
exactly unitary optics, collapses it with exact projectors, and verifies
numerically that nothing the sender does moves the receiver's statistics:
local interference contrast, global invariance.

Layers:

* :mod:`nosignal.modes` -- the one state type: amplitudes over mode labels
  or grid cells, with its norm, inner product and superposition
* :mod:`nosignal.optics` -- optical elements, circuits, isometry checks
* :mod:`nosignal.wavepacket` -- Gaussian packets, interference profiles,
  detector windows, geometry calibration
* :mod:`nosignal.measurement` -- projectors, Born rule, collapse, sampling
* :mod:`nosignal.audit` -- the end-to-end no-signalling audit
* :mod:`nosignal.cli` -- ``nosignal audit|density|validate|calibrate``
* :mod:`nosignal.tolerances` -- every numerical tolerance, in one table

``import nosignal`` loads none of the layers.  Each name in ``__all__`` is
looked up in its layer on every access (PEP 562), and the first access
imports that layer.  Nothing is copied into this namespace, so a name read
here is always the layer's current binding, also while a test or a tracer
has replaced it.
"""

import importlib

__version__ = "0.1.0"

#: Each re-exported name, with the layer module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "modes": "DuplicateModeError Grid State combine inner make_state",
        "optics": (
            "Circuit Element NonPhysicalCircuitError WiringError apply beam_splitter"
            " circuit_from_json circuit_matrix custom_element deflector"
            " hypothetical_canceller interferometer_output is_isometry load_bundled_circuit"
            " mach_zehnder_circuit mirror mz_output phase_shifter splitter_circuit"
            " validate_circuit"
        ),
        "wavepacket": (
            "CalibrationError CalibrationResult ConditioningError DetectorWindow"
            " TruncationError WindowDomainError calibrate default_calibration default_grid"
            " gaussian orthogonal_pair recombine symmetric_window"
        ),
        "measurement": (
            "IncompleteProjectorSetError OutcomeRecord Projector ProjectorSet"
            " ZeroNormReductionError mode_projector outcome_records"
            " pair_partition probability reduce sample_outcomes"
            " three_counter_partition window_projector"
        ),
        "audit": (
            "AuditReport AuditRow CompositeState ScenarioConfig build_initial"
            " default_phase_sweep evolve_sender no_signalling_audit"
            " receiver_probability receiver_probability_after_sender_measurement"
            " sender_projectors"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
