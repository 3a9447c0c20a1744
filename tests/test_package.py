"""The package re-exports its layers' public names without importing the layers.

Each name is looked up in its layer on every access, so a name replaced on
its layer (by ``monkeypatch`` here, by the benchmark's tracer there) reads
the same through the package, and reads the original again once restored.
"""

import importlib

import pytest

import nosignal
from nosignal import measurement

#: The names the package re-exports, by the layer that defines each one.
EXPORTS = {
    "modes": ["DuplicateModeError", "Grid", "State", "combine", "inner", "make_state"],
    "optics": [
        "Circuit", "Element", "NonPhysicalCircuitError", "WiringError", "apply",
        "beam_splitter", "circuit_from_json", "circuit_matrix", "custom_element",
        "deflector", "hypothetical_canceller", "interferometer_output", "is_isometry",
        "load_bundled_circuit", "mach_zehnder_circuit", "mirror", "mz_output",
        "phase_shifter", "splitter_circuit", "validate_circuit",
    ],
    "wavepacket": [
        "CalibrationError", "CalibrationResult", "ConditioningError", "DetectorWindow",
        "TruncationError", "WindowDomainError", "calibrate",
        "default_calibration", "default_grid", "gaussian", "orthogonal_pair",
        "recombine", "symmetric_window",
    ],
    "measurement": [
        "IncompleteProjectorSetError", "OutcomeRecord", "Projector", "ProjectorSet",
        "ZeroNormReductionError", "mode_projector", "outcome_records",
        "pair_partition", "probability", "reduce", "sample_outcomes",
        "three_counter_partition", "window_projector",
    ],
    "audit": [
        "AuditReport", "AuditRow", "CompositeState", "ScenarioConfig", "build_initial",
        "default_phase_sweep", "evolve_sender", "no_signalling_audit",
        "receiver_probability", "receiver_probability_after_sender_measurement",
        "sender_projectors",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
OWNER = {name: layer for layer, names in EXPORTS.items() for name in names}


def test_all_lists_every_exported_name():
    assert len(NAMES) == 63
    assert sorted(nosignal.__all__) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_a_name_is_its_layers_object(name):
    layer = importlib.import_module(f"nosignal.{OWNER[name]}")
    assert getattr(nosignal, name) is getattr(layer, name)


def test_dir_lists_every_name_and_the_version():
    listed = dir(nosignal)
    assert set(NAMES) <= set(listed)
    assert "__version__" in listed


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError) as raised:
        nosignal.nope
    assert str(raised.value) == "module 'nosignal' has no attribute 'nope'"
    assert not hasattr(nosignal, "nope")


def test_a_replaced_name_reads_through_and_back(monkeypatch):
    original = measurement.reduce

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(measurement, "reduce", replacement)
    assert nosignal.reduce is replacement
    monkeypatch.undo()
    assert nosignal.reduce is original


def test_submodules_import_through_the_package():
    from nosignal import audit, cli, measurement as layer

    assert layer is measurement
    assert audit.__name__ == "nosignal.audit"
    assert cli.__name__ == "nosignal.cli"
