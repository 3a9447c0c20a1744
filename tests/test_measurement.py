import math

import numpy as np
import pytest

from nosignal.measurement import (
    IncompleteProjectorSetError,
    Projector,
    ProjectorDomainError,
    ProjectorSet,
    ZeroNormReductionError,
    count_outcomes,
    measure,
    mode_projector,
    outcome_records,
    pair_partition,
    probability,
    reduce,
    sample_outcomes,
    sampling_record,
    three_counter_partition,
    trial_uniform,
    trial_uniforms,
    window_projector,
)
from nosignal.modes import make_state
from nosignal.wavepacket import (
    DetectorWindow,
    WaveFunction,
    default_calibration,
    default_grid,
    gaussian,
    orthogonal_pair,
    recombine,
    window_probability,
)

INV_SQRT2 = 1 / math.sqrt(2)

FROZEN_P_IN_DESTRUCTIVE = 0.2708232155524241


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module")
def calibration():
    return default_calibration()


@pytest.fixture(scope="module")
def states(grid, calibration):
    pair = orthogonal_pair(grid, calibration.separation, 1.0)
    return {
        "constructive": recombine(pair, 0.0),
        "destructive": recombine(pair, math.pi),
    }


class TestProbability:
    def test_window_projector_equals_window_probability(self, states, calibration):
        p = window_projector("in", calibration.window)
        for psi in states.values():
            assert probability(psi, p) == window_probability(psi, calibration.window)

    def test_mode_projector_on_equal_superposition(self):
        state = make_state([("in", INV_SQRT2), ("far", INV_SQRT2)])
        assert probability(state, mode_projector("in", "in")) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_full_domain_projector(self, grid, states):
        whole = window_projector("all", DetectorWindow(grid.r_min, grid.r_max))
        assert probability(states["constructive"], whole) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_destructive_profile_in_calibrated_window(self, states, calibration):
        p = window_projector("in", calibration.window)
        assert probability(states["destructive"], p) == pytest.approx(
            FROZEN_P_IN_DESTRUCTIVE, abs=1e-12
        )

    def test_domain_mismatch_raises(self, states):
        with pytest.raises(ProjectorDomainError):
            probability(states["constructive"], mode_projector("m", "u"))
        with pytest.raises(ProjectorDomainError):
            probability(
                make_state([("u", 1.0)]),
                window_projector("w", DetectorWindow(-1.0, 1.0)),
            )

    def test_input_gate_holds_both_kinds_to_one_tolerance(self, grid):
        # a wavefunction whose norm is off by 2e-8 and a mode state off by
        # 2e-7 are both rejected; states well inside the gate are accepted
        psi = gaussian(grid, 0.0, 1.0)
        window = window_projector("in", DetectorWindow(-1.0, 1.0))
        modes = [("u", INV_SQRT2), ("l", INV_SQRT2)]
        u = mode_projector("u", "u")
        for scale, accepted in ((1 + 2e-8, False), (1 + 2e-7, False), (1 + 1e-9, True)):
            stretched = WaveFunction(grid, psi.samples * scale)
            state = make_state([(label, a * scale) for label, a in modes])
            for candidate, projector in ((stretched, window), (state, u)):
                if accepted:
                    probability(candidate, projector)
                else:
                    with pytest.raises(ValueError, match="not normalized"):
                        probability(candidate, projector)

    def test_input_gate_rejects_nan_states(self, grid):
        nan_wave = WaveFunction(grid, np.full(grid.n_points, math.nan))
        window = window_projector("in", DetectorWindow(-1.0, 1.0))
        nan_modes = make_state([("u", math.nan), ("l", INV_SQRT2)])
        for state, projector in ((nan_wave, window), (nan_modes, mode_projector("u", "u"))):
            with pytest.raises(ValueError, match="not normalized"):
                probability(state, projector)

    def test_projector_needs_exactly_one_target(self):
        with pytest.raises(ValueError):
            Projector("both", windows=(DetectorWindow(-1, 1),), modes=frozenset("u"))


class TestReduce:
    def test_reduction_is_eigenstate(self, states, calibration):
        p = window_projector("in", calibration.window)
        reduced = reduce(states["constructive"], p)
        assert probability(reduced, p) == pytest.approx(1.0, abs=1e-12)

    def test_reduction_idempotent(self, states, calibration):
        p = window_projector("in", calibration.window)
        once = reduce(states["constructive"], p)
        twice = reduce(once, p)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)

    def test_mode_reduction_keeps_phase(self):
        state = make_state([("u", 0.6j), ("l", 0.8)])
        reduced = reduce(state, mode_projector("u", "u"))
        assert reduced.amplitude("u") == pytest.approx(1j, abs=1e-12)

    def test_zero_norm_reduction_rejected(self, grid):
        # a packet fully outside the counter: conditioning on a click is
        # meaningless, the no-fire branch must use the complement instead
        psi = gaussian(grid, 5.0, 1.0)
        far_window = window_projector("in", DetectorWindow(-12.0, -6.0))
        with pytest.raises(ZeroNormReductionError):
            reduce(psi, far_window)


class TestProjectorSets:
    def test_three_counters_partition_probabilities(self, states, calibration, grid):
        pset = three_counter_partition(calibration.window, grid)
        for psi in states.values():
            probs = pset.probabilities(psi)
            assert probs.sum() == pytest.approx(1.0, abs=1e-8)
        destructive = pset.probabilities(states["destructive"])
        assert destructive[1] == pytest.approx(FROZEN_P_IN_DESTRUCTIVE, abs=1e-12)

    def test_pair_partition_completeness(self, states, calibration, grid):
        pset = pair_partition(calibration.window, grid)
        probs = pset.probabilities(states["constructive"])
        assert probs.sum() == pytest.approx(1.0, abs=1e-8)
        assert pset.labels == ("in", "out")

    def test_outcome_records_table(self, states, calibration, grid):
        pset = three_counter_partition(calibration.window, grid)
        records = outcome_records(states["destructive"], pset)
        assert [r.label for r in records] == ["left", "in", "right"]
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-8)
        for record in records:
            assert probability(record.reduced, pset.projectors[
                [r.label for r in records].index(record.label)
            ]) == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_set_raises(self, states, calibration):
        lonely = ProjectorSet((window_projector("in", calibration.window),))
        with pytest.raises(IncompleteProjectorSetError):
            lonely.probabilities(states["constructive"])

    def test_overlapping_windows_rejected(self, states, grid):
        clashing = ProjectorSet(
            (
                window_projector("a", DetectorWindow(-2.0, 1.0)),
                window_projector("b", DetectorWindow(-1.0, 2.0)),
                window_projector("rest", DetectorWindow(2.0, grid.r_max),
                                 DetectorWindow(grid.r_min, -2.0)),
            )
        )
        with pytest.raises(ValueError, match="overlap"):
            clashing.probabilities(states["constructive"])

    def test_law_of_total_probability(self, states, calibration, grid):
        pset = three_counter_partition(calibration.window, grid)
        # coarse observable: union of the left counter and the middle counter
        union = window_projector(
            "left+in", DetectorWindow(grid.r_min, calibration.window.hi)
        )
        for psi in states.values():
            direct = probability(psi, union)
            total = 0.0
            for proj in pset.projectors:
                p_k = probability(psi, proj)
                if p_k < 1e-15:
                    continue
                total += p_k * probability(reduce(psi, proj), union)
            assert total == pytest.approx(direct, abs=1e-8)

    def test_law_of_total_probability_random_partitions(self, states, grid):
        rng = np.random.default_rng(41)
        psi = states["destructive"]
        for _ in range(10):
            cuts = np.sort(rng.choice(np.arange(1, grid.n_points), size=3, replace=False))
            edges = [0, *cuts.tolist(), grid.n_points]
            windows = [
                DetectorWindow(grid.edge_value(a), grid.edge_value(b))
                for a, b in zip(edges, edges[1:])
            ]
            pset = ProjectorSet(
                tuple(window_projector(f"w{i}", w) for i, w in enumerate(windows))
            )
            keep = rng.random(len(windows)) < 0.5
            if not keep.any():
                keep[0] = True
            union = window_projector(
                "union", *[w for w, k in zip(windows, keep) if k]
            )
            direct = probability(psi, union)
            total = sum(
                probability(psi, proj) * probability(reduce(psi, proj), union)
                for proj in pset.projectors
                if probability(psi, proj) >= 1e-12
            )
            assert total == pytest.approx(direct, abs=1e-8)


class TestSampling:
    def test_uniforms_are_counter_addressable(self):
        batch = trial_uniforms(99, 40)
        singles = [trial_uniform(99, i) for i in range(40)]
        assert list(batch) == singles

    def test_measure_is_deterministic(self, states, calibration, grid):
        pset = pair_partition(calibration.window, grid)
        psi = states["constructive"]
        first = measure(psi, pset, seed=5)
        again = measure(psi, pset, seed=5)
        assert first[0] == again[0]
        np.testing.assert_array_equal(first[1].samples, again[1].samples)

    def test_certain_outcome(self, grid):
        psi = gaussian(grid, 0.0, 1.0)
        pset = pair_partition(DetectorWindow(-6.0, 6.0), grid)
        for seed in range(25):
            label, _ = measure(psi, pset, seed=seed)
            assert label == "in"

    def test_measure_matches_batched_sampling(self, states, calibration, grid):
        pset = three_counter_partition(calibration.window, grid)
        psi = states["destructive"]
        counts = sample_outcomes(psi, pset, seed=7, n_trials=500)
        replayed = {label: 0 for label in pset.labels}
        for trial in range(500):
            label, _ = measure(psi, pset, seed=7, trial=trial)
            replayed[label] += 1
        assert counts == replayed

    def test_frequencies_converge_binomially(self, states, calibration, grid):
        pset = pair_partition(calibration.window, grid)
        psi = states["constructive"]
        n = 100_000
        counts = sample_outcomes(psi, pset, seed=12, n_trials=n)
        p = window_probability(psi, calibration.window)
        band = 3 * math.sqrt(p * (1 - p) / n)
        assert counts["in"] / n == pytest.approx(p, abs=band)

    def test_outcome_frequencies_across_seeds(self, states, calibration, grid):
        # one-shot measurements with fresh seeds: same binomial statistics
        pset = pair_partition(calibration.window, grid)
        psi = states["constructive"]
        n = 2000
        hits = sum(measure(psi, pset, seed=seed)[0] == "in" for seed in range(n))
        p = window_probability(psi, calibration.window)
        band = 3 * math.sqrt(p * (1 - p) / n)
        assert hits / n == pytest.approx(p, abs=band)

    def test_equal_weight_composite_frequencies(self):
        # a branch entirely inside its counter: the two global outcomes
        # split 1/2 / 1/2, and sampled frequencies sit in the binomial band
        state = make_state([("in", INV_SQRT2), ("recv", INV_SQRT2)])
        pset = ProjectorSet(
            (mode_projector("in", "in"), mode_projector("recv", "recv"))
        )
        n = 100_000
        counts = sample_outcomes(state, pset, seed=3, n_trials=n)
        band = 3 * math.sqrt(0.25 / n)
        assert counts["in"] / n == pytest.approx(0.5, abs=band)
        assert counts["recv"] / n == pytest.approx(0.5, abs=band)

    def test_sampling_record_schema(self):
        record = sampling_record(math.pi, {"in": 10, "out": 20}, 30, 7)
        assert record == {
            "phi": math.pi,
            "counts": {"in": 10, "out": 20},
            "trials": 30,
            "seed": 7,
        }


def _searchsorted_counts(probs, draws) -> list[int]:
    """Reference counter: locate each draw in the CDF, clamp to the last outcome."""
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    indices = np.minimum(np.searchsorted(cdf, draws, side="right"), len(cdf) - 1)
    return np.bincount(indices, minlength=len(cdf)).tolist()


def _random_probabilities(rng) -> np.ndarray:
    """1-5 outcomes, some impossible, summing to 1, 1 - 1e-12 or 1 + 1e-12."""
    k = int(rng.integers(1, 6))
    probs = rng.random(k) * (rng.random(k) > 0.3)
    if not probs.any():
        probs[rng.integers(k)] = 1.0
    return probs / probs.sum() * (1.0 + rng.choice([0.0, 1e-12, -1e-12]))


class TestCountOutcomes:
    def test_matches_searchsorted_on_cdf_edges(self):
        rng = np.random.default_rng(20240805)
        for _ in range(2000):
            probs = _random_probabilities(rng)
            cdf = np.cumsum(probs)
            edges = np.concatenate(
                [cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)]
            )
            draws = np.concatenate(
                [edges, [0.0, np.nextafter(1.0, 0.0)], rng.random(int(rng.integers(0, 20)))]
            )
            expected = _searchsorted_counts(probs, draws)
            for args in ((probs, draws), (probs.tolist(), draws.tolist())):
                counts = count_outcomes(*args)
                assert counts == expected
                assert all(type(c) is int for c in counts)

    def test_single_draw_from_a_list(self):
        assert count_outcomes([0.25, 0.0, 0.75], [0.25]) == [0, 0, 1]
        assert count_outcomes([0.25, 0.0, 0.75], [np.nextafter(0.25, 0.0)]) == [1, 0, 0]
        assert count_outcomes([1.0], [0.5]) == [1]

    @pytest.mark.parametrize(
        "probs",
        [[math.nan, 1.0], [0.5, math.nan, 0.5], [-0.25, 1.25], [math.inf, 0.0], []],
        ids=["nan-first", "nan-middle", "negative", "infinite", "empty"],
    )
    def test_invalid_probabilities_rejected(self, probs):
        with pytest.raises(ValueError, match="finite and >= 0"):
            count_outcomes(probs, np.array([0.1, 0.9]))
