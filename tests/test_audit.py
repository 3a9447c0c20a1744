import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nosignal import audit
from nosignal.audit import (
    MAX_PHASES,
    MAX_TRIALS,
    AuditReport,
    CompositeState,
    ScenarioConfig,
    VARIANT_DENSITY,
    VARIANT_MACH_ZEHNDER,
    VARIANTS,
    binomial_band,
    build_initial,
    composite_outcomes,
    default_phase_sweep,
    evolve_sender,
    no_signalling_audit,
    receiver_probability,
    receiver_probability_after_sender_measurement,
    reduce_composite,
    sender_projectors,
)
from nosignal.measurement import (
    IncompleteProjectorSetError,
    ProjectorSet,
    ZeroNormReductionError,
    count_outcomes,
    mode_projector,
    pair_partition,
    reduce,
    three_counter_partition,
    window_projector,
)
from nosignal.modes import State, make_state
from nosignal.optics import (
    Circuit,
    apply,
    beam_splitter,
    custom_element,
    hypothetical_canceller,
    phase_shifter,
)
from nosignal.tolerances import REDUCTION_EPS
from nosignal.wavepacket import DetectorWindow, default_calibration, default_grid

FROZEN_P_IN_CONSTRUCTIVE = 0.7365556411410185
FROZEN_P_IN_DESTRUCTIVE = 0.2708232155524241


def _config(variant, phases=(0.0, math.pi), trials=2000, seed=3):
    return ScenarioConfig(variant=variant, phases=phases, trials=trials, seed=seed)


@pytest.fixture(scope="module")
def density_config():
    return _config(VARIANT_DENSITY)


@pytest.fixture(scope="module")
def mz_config():
    return _config(VARIANT_MACH_ZEHNDER)


class TestBuildInitial:
    def test_equal_branch_weights(self, mz_config):
        state = build_initial(mz_config)
        assert abs(state.receiver_amplitude) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(state.sender_amplitude) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_sender_branch_internally_normalized(self, mz_config):
        state = build_initial(mz_config)
        assert float(np.linalg.norm(state.sender_state.amplitudes)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_total_norm_one(self, mz_config):
        state = build_initial(mz_config)
        total = abs(state.receiver_amplitude) ** 2 + abs(state.sender_amplitude) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_one_read_only_state_for_every_config(self, mz_config, density_config):
        state = build_initial(mz_config)
        other = ScenarioConfig(VARIANT_DENSITY, (0.5,), trials=7, seed=11)
        for config in (mz_config, density_config, other):
            assert build_initial(config) is state
        assert state == CompositeState(1 / math.sqrt(2), 1 / math.sqrt(2), make_state([("in", 1.0)]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.receiver_amplitude = 1.0
        with pytest.raises(ValueError):
            state.sender_state.amplitudes[0] = 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_evolving_it_equals_evolving_a_fresh_state(self, variant):
        config = _config(variant, phases=(0.0, 1.1, math.pi))
        fresh = CompositeState(1 / math.sqrt(2), 1 / math.sqrt(2), make_state([("in", 1.0)]))
        pset = sender_projectors(config)
        for phi in config.phases:
            kept = evolve_sender(build_initial(config), phi, config)
            built = evolve_sender(fresh, phi, config)
            assert kept == built
            assert kept.sender_state.amplitudes.tobytes() == built.sender_state.amplitudes.tobytes()
            assert composite_outcomes(kept, pset)[1].tobytes() == (
                composite_outcomes(built, pset)[1].tobytes()
            )


class TestEvolveSender:
    def test_receiver_amplitude_bitwise_unchanged(self, density_config):
        initial = build_initial(density_config)
        evolved = evolve_sender(initial, math.pi, density_config)
        assert evolved.receiver_amplitude == initial.receiver_amplitude
        assert evolved.sender_amplitude == initial.sender_amplitude

    def test_total_norm_preserved(self, density_config):
        evolved = evolve_sender(build_initial(density_config), 1.1, density_config)
        sender = abs(evolved.sender_amplitude) ** 2 * evolved.sender_state.norm ** 2
        total = abs(evolved.receiver_amplitude) ** 2 + sender
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_evolving_twice_at_same_phase_is_idempotent(self, density_config):
        state = build_initial(density_config)
        once = evolve_sender(state, 0.0, density_config)
        twice = evolve_sender(once, 0.0, density_config)
        np.testing.assert_array_equal(
            once.sender_state.amplitudes, twice.sender_state.amplitudes
        )

    def test_mz_constructive_all_horizontal(self, mz_config):
        evolved = evolve_sender(build_initial(mz_config), 0.0, mz_config)
        assert abs(evolved.sender_state.amplitude("H")) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )
        assert abs(evolved.sender_state.amplitude("V")) ** 2 <= 1e-12


class TestReceiverProbability:
    @pytest.mark.parametrize("variant", [VARIANT_DENSITY, VARIANT_MACH_ZEHNDER])
    def test_half_for_every_phase(self, variant):
        config = _config(variant, phases=default_phase_sweep(64))
        for phi in config.phases:
            evolved = evolve_sender(build_initial(config), phi, config)
            assert abs(receiver_probability(evolved) - 0.5) <= 1e-12

    def test_sender_interference_is_fully_visible(self, mz_config):
        # the sender's own detector rate swings with the phase, full
        # contrast, while the receiver's stays pinned at one half
        pset = sender_projectors(mz_config)
        for phi in default_phase_sweep(64):
            evolved = evolve_sender(build_initial(mz_config), phi, mz_config)
            h_prob = 0.5 * pset.probabilities(evolved.sender_state)[0]
            assert h_prob == pytest.approx(
                math.cos(phi / 2) ** 2 / 2, abs=1e-10
            )

    def test_density_variant_sender_probabilities(self, density_config):
        pset = sender_projectors(density_config)
        for phi, expected in ((0.0, FROZEN_P_IN_CONSTRUCTIVE), (math.pi, FROZEN_P_IN_DESTRUCTIVE)):
            evolved = evolve_sender(build_initial(density_config), phi, density_config)
            p_in = 0.5 * pset.probabilities(evolved.sender_state)[0]
            assert p_in == pytest.approx(0.5 * expected, abs=1e-12)

    def test_mode_and_packet_realizations_agree(self):
        # both variants report the same branch totals and the same receiver
        # probability; the sender-side detector layout is the only difference
        for phi in (0.0, 0.7, math.pi):
            values = []
            for variant in (VARIANT_DENSITY, VARIANT_MACH_ZEHNDER):
                config = _config(variant)
                evolved = evolve_sender(build_initial(config), phi, config)
                pset = sender_projectors(config)
                sender_total = 0.5 * float(
                    pset.probabilities(evolved.sender_state).sum()
                )
                values.append((receiver_probability(evolved), sender_total))
            (recv_a, send_a), (recv_b, send_b) = values
            assert recv_a == pytest.approx(recv_b, abs=1e-6)
            assert send_a == pytest.approx(send_b, abs=1e-6)


@st.composite
def _haar_measurements(draw):
    """A Haar-random k x k unitary wired as one custom element, a random normalized
    input, and its outputs grouped into a random complete partition:
    ``(state, partition)``, with the equal-weight receiver branch."""
    k = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauss = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
    q, r = np.linalg.qr(gauss[0])
    unitary = q * (np.diag(r) / np.abs(np.diag(r)))
    psi = gauss[1][:, 0] / np.linalg.norm(gauss[1][:, 0])
    inputs = tuple(f"i{j}" for j in range(k))
    outputs = tuple(f"o{j}" for j in range(k))
    circuit = Circuit((custom_element(unitary, inputs, outputs),), input_modes=inputs)
    branch = apply(circuit, State(inputs, psi))
    owner = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    order = draw(st.permutations(sorted(set(owner))))
    pset = ProjectorSet(
        tuple(
            mode_projector(f"g{g}", outputs, *(m for m, o in zip(outputs, owner) if o == g))
            for g in order
        )
    )
    return CompositeState(1 / math.sqrt(2), 1 / math.sqrt(2), branch), pset


def _collapse_every_outcome(state, sender_set):
    """Reference: the law of total probability with every outcome collapsed."""
    labels, probs = composite_outcomes(state, sender_set)
    total = 0.0
    for label, p in zip(labels, probs):
        if p < REDUCTION_EPS:  # cannot condition on it
            continue
        total += p * receiver_probability(reduce_composite(state, label, sender_set))
    return total


def _same_bits(value, reference) -> bool:
    return value == reference and float(value).hex() == float(reference).hex()


class TestSenderMeasurement:
    def test_nan_receiver_amplitude_is_not_normalized(self):
        config = _config(VARIANT_MACH_ZEHNDER)
        evolved = evolve_sender(build_initial(config), 0.0, config)
        for receiver in (math.nan, 1.0):
            with pytest.raises(ValueError, match="not normalized"):
                CompositeState(receiver, evolved.sender_amplitude, evolved.sender_state)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(measured=_haar_measurements())
    def test_random_unitary_and_partition_leave_receiver_at_half(self, measured):
        after = receiver_probability_after_sender_measurement(*measured)
        assert after == pytest.approx(0.5, abs=1e-12)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(measured=_haar_measurements())
    def test_random_partitions_equal_collapsing_every_outcome(self, measured):
        after = receiver_probability_after_sender_measurement(*measured)
        assert _same_bits(after, _collapse_every_outcome(*measured))

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_sweep_equals_collapsing_every_outcome(self, variant):
        config = _config(variant, phases=default_phase_sweep(64))
        partitions = [sender_projectors(config)]
        if variant == VARIANT_DENSITY:
            partitions.append(three_counter_partition(config.window, config.grid))
        for pset in partitions:
            for phi in config.phases:
                state = evolve_sender(build_initial(config), phi, config)
                after = receiver_probability_after_sender_measurement(state, pset)
                assert _same_bits(after, _collapse_every_outcome(state, pset)), phi

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_outcome_and_zero_weight_branches_equal_collapsing_every_outcome(
        self, variant
    ):
        config = _config(variant)
        state = evolve_sender(build_initial(config), 0.3, config)
        pset = sender_projectors(config)
        if variant == VARIANT_DENSITY:
            grid = config.grid
            whole = window_projector("all", grid, DetectorWindow(grid.r_min, grid.r_max))
        else:
            whole = mode_projector("all", ("H", "V"), "H", "V")
        clicked = reduce_composite(state, pset.labels[0], pset)  # receiver weight 0
        collapsed = reduce_composite(state, "receiver", pset)  # sender weight 0
        for case, partition, expected in (
            (state, ProjectorSet((whole,)), None),
            (clicked, pset, 0.0),
            (collapsed, pset, 1.0),
        ):
            after = receiver_probability_after_sender_measurement(case, partition)
            assert _same_bits(after, _collapse_every_outcome(case, partition))
            assert expected is None or after == expected

    def test_bad_inputs_raise_as_collapsing_every_outcome_does(self, mz_config):
        pset = sender_projectors(mz_config)
        unnormalised = CompositeState(
            1 / math.sqrt(2), 1 / math.sqrt(2), State(("H", "V"), np.array([0.6, 0.6]))
        )
        clash = ProjectorSet(
            (mode_projector("H", ("H", "V"), "H"), mode_projector("receiver", ("H", "V"), "V"))
        )
        evolved = evolve_sender(build_initial(mz_config), 0.0, mz_config)
        for state, partition, match in (
            (unnormalised, pset, "not normalized"),
            (evolved, clash, "may not use the label"),
        ):
            for function in (receiver_probability_after_sender_measurement, _collapse_every_outcome):
                with pytest.raises(ValueError, match=match):
                    function(state, partition)

    def test_no_sender_outcome_is_collapsed(self, monkeypatch, density_config):
        calls = []

        def counted(state, projector):
            calls.append(projector.label)
            return reduce(state, projector)

        monkeypatch.setattr(audit, "reduce", counted)
        partitions = (
            sender_projectors(density_config),
            three_counter_partition(density_config.window, density_config.grid),
        )
        state = evolve_sender(build_initial(density_config), 1.1, density_config)
        for pset in partitions:
            receiver_probability_after_sender_measurement(state, pset)
        assert calls == []
        for pset in partitions:  # the counter sees the reference's collapses
            _collapse_every_outcome(state, pset)
        assert calls == ["in", "out", "left", "in", "right"]

    def test_a_sender_outcome_lifted_over_the_floor_by_its_weight_is_not_collapsed(self):
        # Within the norm gate the sender weight can exceed 1.  A sender outcome
        # whose global probability clears REDUCTION_EPS only through that weight
        # cannot be collapsed inside the branch; it adds exactly 0 all the same.
        weight, floor = 1.0 + 5e-9, REDUCTION_EPS * (1.0 - 1e-9)
        branch = State(("H", "V"), np.sqrt([1.0 - floor, floor]))
        state = CompositeState(1e-5, math.sqrt(weight), branch)
        pset = ProjectorSet(
            (mode_projector("H", ("H", "V"), "H"), mode_projector("V", ("H", "V"), "V"))
        )
        branch_v = pset.probabilities(branch)[1]
        assert branch_v < REDUCTION_EPS <= composite_outcomes(state, pset)[1][1]
        with pytest.raises(ZeroNormReductionError):
            _collapse_every_outcome(state, pset)
        after = receiver_probability_after_sender_measurement(state, pset)
        assert after == receiver_probability(state) * 1.0

    def test_pair_partition_leaves_receiver_at_half(self, density_config):
        evolved = evolve_sender(build_initial(density_config), 0.0, density_config)
        pset = sender_projectors(density_config)
        after = receiver_probability_after_sender_measurement(evolved, pset)
        assert after == pytest.approx(receiver_probability(evolved), abs=1e-8)

    def test_three_counter_partition_leaves_receiver_at_half(self, density_config):
        grid = default_grid()
        cal = default_calibration()
        evolved = evolve_sender(build_initial(density_config), math.pi, density_config)
        pset = three_counter_partition(cal.window, grid)
        after = receiver_probability_after_sender_measurement(evolved, pset)
        assert after == pytest.approx(0.5, abs=1e-8)

    def test_trivial_partition_changes_nothing(self, density_config):
        grid = default_grid()
        evolved = evolve_sender(build_initial(density_config), 0.3, density_config)
        whole = ProjectorSet(
            (window_projector("all", grid, DetectorWindow(grid.r_min, grid.r_max)),)
        )
        after = receiver_probability_after_sender_measurement(evolved, whole)
        assert after == pytest.approx(receiver_probability(evolved), abs=1e-8)

    def test_random_window_partitions(self, density_config):
        grid = default_grid()
        rng = np.random.default_rng(53)
        evolved = evolve_sender(build_initial(density_config), math.pi, density_config)
        for _ in range(20):
            n_cuts = int(rng.integers(1, 5))
            cuts = np.sort(
                rng.choice(np.arange(1, grid.n_points), size=n_cuts, replace=False)
            )
            edges = [0, *cuts.tolist(), grid.n_points]
            pset = ProjectorSet(
                tuple(
                    window_projector(
                        f"w{i}",
                        grid,
                        DetectorWindow(grid.edge_value(a), grid.edge_value(b)),
                    )
                    for i, (a, b) in enumerate(zip(edges, edges[1:]))
                )
            )
            after = receiver_probability_after_sender_measurement(evolved, pset)
            assert after == pytest.approx(0.5, abs=1e-8)

    def test_mz_outcome_reduction(self, mz_config):
        evolved = evolve_sender(build_initial(mz_config), 0.0, mz_config)
        pset = sender_projectors(mz_config)
        labels, probs = composite_outcomes(evolved, pset)
        assert labels == ("H", "V", "receiver")
        np.testing.assert_allclose(probs, [0.5, 0.0, 0.5], atol=1e-12)
        collapsed = reduce_composite(evolved, "receiver", pset)
        assert receiver_probability(collapsed) == pytest.approx(1.0, abs=1e-12)
        clicked = reduce_composite(evolved, "H", pset)
        assert receiver_probability(clicked) == 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_outcome_vector_equals_an_append_reference(self, variant):
        config = _config(variant, phases=default_phase_sweep(16))
        partitions = [sender_projectors(config)]
        if variant == VARIANT_DENSITY:
            partitions.append(three_counter_partition(config.window, config.grid))
        for pset in partitions:
            for phi in config.phases:
                state = evolve_sender(build_initial(config), phi, config)
                labels, probs = composite_outcomes(state, pset)
                weight = abs(state.sender_amplitude) ** 2
                reference = np.append(
                    weight * pset.probabilities(state.sender_state),
                    abs(state.receiver_amplitude) ** 2,
                )
                assert labels == (*pset.labels, "receiver")
                assert probs.dtype == reference.dtype
                assert probs.tobytes() == reference.tobytes()

    def test_collapse_onto_an_outcome_of_zero_global_weight_refused(self, mz_config):
        # after a click the other branch has global probability 0, in both directions
        evolved = evolve_sender(build_initial(mz_config), 0.0, mz_config)
        pset = sender_projectors(mz_config)
        clicked = reduce_composite(evolved, "H", pset)
        with pytest.raises(
            ZeroNormReductionError, match=r"'receiver' has global probability 0\.000e\+00"
        ):
            reduce_composite(clicked, "receiver", pset)
        collapsed = reduce_composite(evolved, "receiver", pset)
        for label in pset.labels:
            with pytest.raises(
                ZeroNormReductionError, match=rf"'{label}' has global probability 0\.000e\+00"
            ):
                reduce_composite(collapsed, label, pset)

    def test_incomplete_sender_partition_rejected(self):
        cal = default_calibration()
        with pytest.raises(IncompleteProjectorSetError):
            ProjectorSet((window_projector("in", default_grid(), cal.window),))


class TestAuditReport:
    def test_mz_audit_passes_with_exact_invariance(self):
        config = _config(VARIANT_MACH_ZEHNDER, phases=default_phase_sweep(16))
        report = no_signalling_audit(config)
        assert report.verdict == "pass"
        assert report.max_deviation <= 1e-12

    def test_renormalising_after_the_canceller_fails_the_audit(self, monkeypatch):
        # The positive control: the step the scheme needs and quantum mechanics
        # forbids, run through the audit's own rows.  The sender branch meets the
        # non-isometric canceller, and the global state is renormalised after it.
        def cancel_and_renormalise(state, phi, config):
            canceller = Circuit(
                (
                    beam_splitter(("in", "vac"), ("u", "l")),
                    phase_shifter("l", phi),
                    hypothetical_canceller(("u", "l"), "merged"),
                ),
                input_modes=("in", "vac"),
            )
            out = apply(canceller, state.sender_state, allow_nonphysical=True)
            merged = out.amplitude("merged")
            # At phi = pi the merged amplitude is about 1e-16 in doubles, not 0
            # (the splitter's and e^{i pi}'s rounding), so the branch keeps a phase
            # and both divisions below stay finite; its weight is then ~1e-32 and
            # the receiver reads 1.0.
            sender = state.sender_amplitude * abs(merged)
            total = math.hypot(abs(state.receiver_amplitude), abs(sender))
            return CompositeState(
                state.receiver_amplitude / total,
                sender / total,
                make_state([("merged", merged / abs(merged))]),
            )

        merged_only = ProjectorSet((mode_projector("merged", ("merged",), "merged"),))
        monkeypatch.setattr(audit, "evolve_sender", cancel_and_renormalise)
        monkeypatch.setattr(audit, "sender_projectors", lambda config: merged_only)
        phases = (0.0, math.pi / 2, math.pi)
        report = no_signalling_audit(
            _config(VARIANT_MACH_ZEHNDER, phases=phases, trials=20000, seed=3)
        )
        assert report.verdict == "fail"
        for phi, row in zip(phases, report.rows):
            # The canceller leaves the sender branch (1 + e^{i phi})/2 of its
            # amplitude, a weight cos^2(phi/2).  Renormalising branch weights 1/2
            # and cos^2(phi/2)/2 gives the receiver 1/(1 + cos^2(phi/2)).
            expected = 1.0 / (1.0 + math.cos(phi / 2) ** 2)
            assert row.receiver_analytic == pytest.approx(expected, abs=1e-12)

    def test_density_audit_passes(self, density_config):
        report = no_signalling_audit(density_config)
        assert report.verdict == "pass"
        assert report.max_deviation <= 1e-12

    def test_sender_rows_show_interference(self):
        config = _config(VARIANT_MACH_ZEHNDER)
        report = no_signalling_audit(config)
        by_phi = {round(row.phi, 6): row.sender for row in report.rows}
        np.testing.assert_allclose(
            [by_phi[0.0]["H"], by_phi[0.0]["V"]], [0.5, 0.0], atol=1e-12
        )
        np.testing.assert_allclose(
            [by_phi[round(math.pi, 6)]["H"], by_phi[round(math.pi, 6)]["V"]],
            [0.0, 0.5],
            atol=1e-12,
        )

    def test_empirical_frequencies_within_band(self, density_config):
        report = no_signalling_audit(density_config)
        band = binomial_band(density_config.trials)
        for row in report.rows:
            assert abs(row.receiver_empirical - 0.5) <= band

    def test_report_is_reproducible(self, mz_config):
        a = no_signalling_audit(mz_config).to_json_dict()
        b = no_signalling_audit(mz_config).to_json_dict()
        assert json.dumps(a) == json.dumps(b)

    @pytest.mark.parametrize("variant", [VARIANT_MACH_ZEHNDER, VARIANT_DENSITY])
    def test_report_dict_is_asdict_without_the_deep_copy(self, variant):
        report = no_signalling_audit(_config(variant, trials=50))
        data = report.to_json_dict()
        assert data == dataclasses.asdict(report)
        assert list(data) == list(dataclasses.asdict(report))
        assert list(data["rows"][0]) == list(dataclasses.asdict(report.rows[0]))
        before = dataclasses.asdict(report)
        data["rows"][0]["sender"]["injected"] = 1.0
        data["rows"][0]["phi"] = -1.0
        data["verdict"] = "changed"
        assert dataclasses.asdict(report) == before

    def test_report_json_schema(self, mz_config):
        data = no_signalling_audit(mz_config).to_json_dict()
        assert set(data) == {"variant", "seed", "rows", "max_deviation", "verdict"}
        assert set(data["rows"][0]) == {
            "phi",
            "sender",
            "receiver_analytic",
            "receiver_empirical",
            "trials",
        }

    def test_sampling_counts_sum_to_trials(self, density_config):
        evolved = evolve_sender(
            build_initial(density_config), 0.0, density_config
        )
        pset = sender_projectors(density_config)
        labels, probs = composite_outcomes(evolved, pset)
        counts = count_outcomes(probs, 9, 5000)
        assert sum(counts) == 5000
        assert len(counts) == len(labels)
        assert set(labels) == {"in", "out", "receiver"}


class TestScenarioConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(variant="teleport", phases=(0.0,))

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(variant=VARIANT_MACH_ZEHNDER, phases=())

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            ScenarioConfig(variant=VARIANT_MACH_ZEHNDER, phases=(0.0,), trials=0)

    @pytest.mark.parametrize("trials", [2.5, True, MAX_TRIALS + 1, 10**12])
    def test_trials_must_be_an_integer_up_to_the_cap(self, trials):
        # validation only: nothing is drawn
        with pytest.raises(ValueError, match="trials must be an int in"):
            ScenarioConfig(variant=VARIANT_MACH_ZEHNDER, phases=(0.0,), trials=trials)

    @pytest.mark.parametrize("seed", [True, 2.5, -1, 2**63])
    def test_seed_must_be_a_63_bit_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int in"):
            ScenarioConfig(variant=VARIANT_MACH_ZEHNDER, phases=(0.0,), seed=seed)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phi):
        with pytest.raises(ValueError, match="phases must be finite"):
            ScenarioConfig(variant=VARIANT_MACH_ZEHNDER, phases=(0.0, phi))

    def test_default_sweep_contains_exact_endpoints(self):
        phases = default_phase_sweep(64)
        assert 0.0 in phases
        assert math.pi in phases
        assert len(phases) == 64

    @pytest.mark.parametrize("n", [0, -3])
    def test_sweep_needs_at_least_one_phase(self, n):
        with pytest.raises(ValueError, match="at least 1 phase"):
            default_phase_sweep(n)

    @pytest.mark.parametrize("n", [MAX_PHASES + 1, 10**12, 16.0, True])
    def test_sweep_past_the_cap_or_not_an_integer_refused(self, n):
        with pytest.raises(ValueError, match=f"at most {MAX_PHASES}"):
            default_phase_sweep(n)
        assert len(default_phase_sweep(MAX_PHASES)) == MAX_PHASES

    def test_density_defaults_loaded_from_calibration(self):
        config = _config(VARIANT_DENSITY)
        cal = default_calibration()
        assert config.separation == cal.separation
        assert config.window == cal.window
        assert config.grid == default_grid()
