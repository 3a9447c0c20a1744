import json
import math

import numpy as np
import pytest

from nosignal.audit import default_phase_sweep
from nosignal.modes import Grid, make_state
from nosignal.optics import (
    Circuit,
    Element,
    NonPhysicalCircuitError,
    WiringError,
    apply,
    beam_splitter,
    bundled_circuit_path,
    circuit_from_json,
    circuit_matrix,
    custom_element,
    deflector,
    hypothetical_canceller,
    interferometer_output,
    is_isometry,
    load_bundled_circuit,
    mach_zehnder_circuit,
    mirror,
    mz_output,
    phase_shifter,
    splitter_circuit,
    validate_circuit,
)
from nosignal.wavepacket import gaussian

INV_SQRT2 = 1 / math.sqrt(2)
SWEEP = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)


class TestElementMatrices:
    def test_balanced_splitter_halves_an_input(self):
        matrix = beam_splitter(("a", "b"), ("c", "d")).matrix
        out = matrix @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_balanced_splitter_is_hadamard(self):
        matrix = beam_splitter(("a", "b"), ("c", "d")).matrix
        np.testing.assert_allclose(
            matrix, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15
        )

    def test_phase_shifter_pi_flips_sign(self):
        matrix = phase_shifter("a", math.pi).matrix
        np.testing.assert_allclose(matrix @ [1.0], [-1.0], atol=1e-15)

    def test_mirror_and_deflector_are_identity(self):
        for element in (mirror("a"), deflector("a")):
            np.testing.assert_allclose(element.matrix, [[1.0]], atol=0)

    def test_canceller_pi_annihilates_equal_pair(self):
        matrix = hypothetical_canceller(("a", "b"), "out", math.pi).matrix
        out = matrix @ np.array([INV_SQRT2, INV_SQRT2])
        assert abs(out[0]) <= 1e-15

    def test_wiring_of_the_wrong_arity_is_refused(self):
        with pytest.raises(ValueError, match=r"matrix shape \(2, 2\) does not match"):
            Element("beam_splitter", ("a",), ("b", "c"))

    def test_matrix_is_read_only(self):
        element = beam_splitter(("a", "b"), ("c", "d"))
        with pytest.raises(ValueError, match="read-only"):
            element.matrix[0, 0] = 0.0


class TestIsIsometry:
    def test_balanced_splitter(self):
        ok, dev = is_isometry(beam_splitter(("a", "b"), ("c", "d")).matrix)
        assert ok and dev <= 1e-15

    @pytest.mark.parametrize("phi", SWEEP)
    def test_canceller_fails_at_every_phase(self, phi):
        ok, dev = is_isometry(hypothetical_canceller(("a", "b"), "o", phi).matrix)
        assert not ok
        assert dev == pytest.approx(0.5, abs=1e-12)

    def test_phase_shifter_exact(self):
        ok, dev = is_isometry(phase_shifter("a", 1.234).matrix)
        assert ok and dev <= 1e-15

    def test_general_splitter_angles(self):
        for theta in np.linspace(0, math.pi, 17):
            ok, _ = is_isometry(beam_splitter(("a", "b"), ("c", "d"), theta).matrix)
            assert ok


class TestValidateCircuit:
    def test_splitter_device_is_physical(self):
        report = validate_circuit(splitter_circuit(math.pi))
        assert report["physical"]
        assert report["failures"] == []

    def test_canceller_circuit_fails_with_half_deviation(self):
        report = validate_circuit(load_bundled_circuit("canceller"))
        assert not report["physical"]
        assert len(report["failures"]) == 1
        failure = report["failures"][0]
        assert failure["deviation"] == pytest.approx(0.5, abs=1e-12)
        assert failure["reason"] == "not an isometry"

    def test_attenuating_element_flagged(self):
        circuit = Circuit(
            (custom_element([[0.9]], ("a",), ("a",)),), input_modes=("a",)
        )
        report = validate_circuit(circuit)
        assert not report["physical"]
        assert report["failures"][0]["reason"] == "partial attenuation"
        # a loss of 1e-6 is far past ISOMETRY_TOL, and still an attenuation
        barely = Circuit(
            (custom_element([[math.sqrt(1 - 1e-6)]], ("a",), ("a",)),), input_modes=("a",)
        )
        assert validate_circuit(barely)["failures"][0]["reason"] == "partial attenuation"

    def test_wiring_mismatch_names_offender(self):
        circuit = Circuit(
            (
                beam_splitter(("in", "vac"), ("u", "l")),
                phase_shifter("nope", 0.1),
            ),
            input_modes=("in", "vac"),
        )
        with pytest.raises(WiringError, match="element 1.*nope"):
            validate_circuit(circuit)

    def test_report_json_schema(self):
        data = validate_circuit(load_bundled_circuit("canceller"))
        assert data["physical"] is False
        assert list(data) == ["physical", "failures"]
        assert list(data["failures"][0]) == ["element_index", "deviation", "reason"]


class TestApply:
    def test_splitter_device_output_matches_closed_form(self):
        state = apply(splitter_circuit(0.0), make_state([("in", 1.0)]))
        expected = interferometer_output(0.0)
        for label in ("u", "l"):
            assert state.amplitude(label) == pytest.approx(
                expected.amplitude(label), abs=1e-12
            )

    def test_identity_circuit(self):
        circuit = Circuit((mirror("a"), mirror("b")), input_modes=("a", "b"))
        state = make_state([("a", 0.6), ("b", 0.8j)])
        out = apply(circuit, state)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=0)

    def test_nonphysical_circuit_refused_without_opt_in(self):
        with pytest.raises(NonPhysicalCircuitError, match="not an isometry"):
            apply(load_bundled_circuit("canceller"), make_state([("in", 1.0)]))

    def test_opted_in_canceller_vanishes_the_state(self):
        out = apply(
            load_bundled_circuit("canceller"), make_state([("in", 1.0)]),
            allow_nonphysical=True,
        )
        assert out.norm <= 1e-12

    def test_norm_preserved_through_physical_circuits(self):
        for phi in SWEEP[::8]:
            out = apply(mach_zehnder_circuit(phi), make_state([("in", 1.0)]))
            assert out.norm == pytest.approx(1.0, abs=1e-10)

    def test_foreign_mode_rejected(self):
        with pytest.raises(WiringError):
            apply(splitter_circuit(0.0), make_state([("elsewhere", 1.0)]))

    def test_grid_state_refused(self):
        packet = gaussian(Grid(-8.0, 8.0, 64), 0.0)
        with pytest.raises(ValueError, match="mode states"):
            apply(splitter_circuit(0.0), packet)


class TestClosedForms:
    def test_interferometer_output_phi_zero(self):
        state = interferometer_output(0.0)
        np.testing.assert_allclose(
            [state.amplitude("u"), state.amplitude("l")],
            [INV_SQRT2, INV_SQRT2],
            atol=1e-15,
        )

    def test_interferometer_output_phi_pi(self):
        state = interferometer_output(math.pi)
        assert state.amplitude("u") == pytest.approx(INV_SQRT2, abs=1e-15)
        assert state.amplitude("l") == pytest.approx(-INV_SQRT2, abs=1e-15)

    def test_interferometer_output_quarter_phase(self):
        state = interferometer_output(math.pi / 2)
        assert state.amplitude("l") == pytest.approx(1j * INV_SQRT2, abs=1e-15)
        assert state.norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("phi", SWEEP)
    def test_output_norm_and_mz_completeness(self, phi):
        assert interferometer_output(phi).norm == pytest.approx(1.0, abs=1e-12)
        mz = mz_output(phi)
        total = abs(mz.amplitude("H")) ** 2 + abs(mz.amplitude("V")) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mz_certainty_points(self):
        bright = mz_output(0.0)
        assert abs(bright.amplitude("H")) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(bright.amplitude("V")) ** 2 <= 1e-12
        dark = mz_output(math.pi)
        assert abs(dark.amplitude("H")) ** 2 <= 1e-12
        assert abs(dark.amplitude("V")) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_mz_quarter_phase_balanced(self):
        # (1 +- i)/2 on each port: both probabilities exactly one half
        state = mz_output(math.pi / 2)
        assert abs(state.amplitude("H")) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(state.amplitude("V")) ** 2 == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("phi", default_phase_sweep(64))
    def test_mz_output_equals_two_splitter_circuit(self, phi):
        # mz_output is the audit's source of truth; at every audit phase the
        # circuit must give the same modes and amplitudes
        direct = mz_output(phi)
        circuit = apply(mach_zehnder_circuit(phi), make_state([("in", 1.0)]))
        assert circuit.basis == direct.basis
        np.testing.assert_allclose(
            circuit.amplitudes, direct.amplitudes, rtol=0, atol=1e-12
        )


def _random_physical_circuit(rng):
    labels = ("a", "b", "c")
    elements = []
    for _ in range(rng.integers(1, 7)):
        kind = rng.integers(0, 3)
        if kind == 0:
            i, j = rng.choice(3, size=2, replace=False)
            pair = (labels[i], labels[j])
            elements.append(beam_splitter(pair, pair, theta=rng.uniform(0, math.pi)))
        elif kind == 1:
            elements.append(phase_shifter(labels[rng.integers(0, 3)], rng.uniform(0, 2 * math.pi)))
        else:
            elements.append(mirror(labels[rng.integers(0, 3)]))
    return Circuit(tuple(elements), input_modes=labels)


class TestComposition:
    def test_stepwise_apply_equals_matrix_product(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            circuit = _random_physical_circuit(rng)
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps /= np.linalg.norm(amps)
            state = make_state(list(zip(circuit.input_modes, amps)))
            stepped = apply(circuit, state)
            outputs, matrix = circuit_matrix(circuit)
            vec = matrix @ amps
            for label, value in zip(outputs, vec):
                assert stepped.amplitude(label) == pytest.approx(value, abs=1e-12)

    def test_composed_physical_circuit_matrix_is_isometry(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            ok, _ = is_isometry(circuit_matrix(_random_physical_circuit(rng))[1])
            assert ok


def _element_dicts(circuit) -> list[dict]:
    """Each element's ``kind``, ``params``, ``in`` and ``out``, as a circuit file lists them."""
    return [
        {"kind": e.kind, "params": e.params, "in": list(e.inputs), "out": list(e.outputs)}
        for e in circuit.elements
    ]


class TestCircuitJson:
    def test_round_trip(self):
        circuit = mach_zehnder_circuit(1.25)
        back = circuit_from_json(json.dumps(_element_dicts(circuit)))
        assert back.input_modes == circuit.input_modes
        assert [e.kind for e in back.elements] == [e.kind for e in circuit.elements]
        assert [e.params for e in back.elements] == [e.params for e in circuit.elements]
        assert back.elements == circuit.elements
        np.testing.assert_allclose(
            circuit_matrix(back)[1], circuit_matrix(circuit)[1], atol=1e-15
        )

    @pytest.mark.parametrize(
        "name", ["shiekh", "canceller", "attenuator-0.9", "mach-zehnder-1.25"]
    )
    def test_file_survives_read_and_write(self, name, tmp_path):
        path = bundled_circuit_path(name)
        if name == "mach-zehnder-1.25":
            path = tmp_path / "mz.circuit.json"
            path.write_text(json.dumps(_element_dicts(mach_zehnder_circuit(1.25)), indent=2))
        text = path.read_text()
        assert _element_dicts(circuit_from_json(text)) == json.loads(text)

    def test_elements_differing_only_in_a_setting_are_unequal(self):
        ports = ("p", "q")
        assert beam_splitter(ports, ports, 0.3) != beam_splitter(ports, ports, 0.4)
        assert phase_shifter("a", 0.3) == phase_shifter("a", 0.3)

    def test_params_are_copied_at_construction(self):
        rows = [[[1.0, 0.0]]]
        element = Element("custom", ("a",), ("a",), {"matrix": rows})
        rows[0][0][0] = 0.5
        assert element.params == {"matrix": [[[1.0, 0.0]]]}
        assert element.matrix[0, 0] == 1.0

    def test_top_level_must_be_list(self):
        with pytest.raises(ValueError):
            circuit_from_json(json.dumps({"kind": "mirror"}))

    @pytest.mark.parametrize(
        "item",
        [1, {"kind": "mirror", "out": ["b"]}, {"kind": "mirror", "in": "a", "out": ["b"]}],
        ids=["not-an-object", "no-in", "in-not-a-list"],
    )
    def test_a_malformed_element_is_named_in_the_error(self, item):
        good = {"kind": "mirror", "in": ["a"], "out": ["b"]}
        with pytest.raises(ValueError, match="element must be an object with 'in' and 'out'"):
            circuit_from_json(json.dumps([good, item]))

    def test_bundled_splitter_device_is_physical(self):
        bundled = load_bundled_circuit("shiekh")
        assert validate_circuit(bundled)["physical"]
        # the file and its builder describe one device, down to the matrix bits
        built = splitter_circuit(0.0)
        assert bundled == built
        assert [e.matrix.tobytes() for e in bundled.elements] == [
            e.matrix.tobytes() for e in built.elements
        ]

    def test_bundled_canceller_is_splitter_shifter_canceller(self):
        bundled = load_bundled_circuit("canceller")
        built = Circuit(
            (
                beam_splitter(("in", "vac"), ("u", "l")),
                phase_shifter("l", math.pi),
                hypothetical_canceller(("u", "l"), "merged", 0.0),
            ),
            input_modes=("in", "vac"),
        )
        assert bundled == built
        assert [e.matrix.tobytes() for e in bundled.elements] == [
            e.matrix.tobytes() for e in built.elements
        ]

    def test_bundled_canceller_fails(self):
        report = validate_circuit(load_bundled_circuit("canceller"))
        assert not report["physical"]
        assert report["failures"][0]["deviation"] == pytest.approx(0.5, abs=1e-12)

    def test_bundled_attenuator_flagged(self):
        report = validate_circuit(load_bundled_circuit("attenuator-0.9"))
        assert not report["physical"]
        assert report["failures"][0]["reason"] == "partial attenuation"
