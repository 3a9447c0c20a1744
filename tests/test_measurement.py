import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nosignal import measurement
from nosignal.measurement import (
    CHUNK,
    MAX_TRIALS,
    IncompleteProjectorSetError,
    Projector,
    ProjectorSet,
    ZeroNormReductionError,
    _born,
    count_outcomes,
    measure,
    mode_projector,
    outcome_records,
    pair_partition,
    probability,
    reduce,
    sample_outcomes,
    three_counter_partition,
    trial_uniforms,
    window_projector,
)
from nosignal.modes import Grid, State, combine, make_state
from nosignal.tolerances import REDUCTION_EPS
from nosignal.wavepacket import (
    DetectorWindow,
    default_calibration,
    default_grid,
    gaussian,
    orthogonal_pair,
    recombine,
    window_cells,
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
def pair(grid, calibration):
    return orthogonal_pair(grid, calibration.separation, 1.0)


@pytest.fixture(scope="module")
def states(pair):
    return {
        "constructive": recombine(pair, 0.0),
        "destructive": recombine(pair, math.pi),
    }


class TestProbability:
    def test_window_projector_equals_midpoint_sum(self, grid, states, calibration):
        # bit for bit: h * sum |psi|^2 over the window's cells, squared in numpy
        p = window_projector("in", grid, calibration.window)
        lo, hi = window_cells(grid, calibration.window)
        for psi in states.values():
            expected = float(grid.spacing * np.sum(np.abs(psi.amplitudes)[lo:hi] ** 2))
            assert probability(psi, p) == expected

    def test_mode_projector_on_equal_superposition(self):
        state = make_state([("in", INV_SQRT2), ("far", INV_SQRT2)])
        assert probability(state, mode_projector("in", state.basis, "in")) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_full_domain_projector(self, grid, states):
        whole = window_projector("all", grid, DetectorWindow(grid.r_min, grid.r_max))
        assert probability(states["constructive"], whole) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_destructive_profile_in_calibrated_window(self, grid, states, calibration):
        p = window_projector("in", grid, calibration.window)
        assert probability(states["destructive"], p) == pytest.approx(
            FROZEN_P_IN_DESTRUCTIVE, abs=1e-12
        )

    def test_domain_mismatch_raises(self, grid, states):
        psi = states["constructive"]
        modes = make_state([("u", 0.6), ("l", 0.8)])
        fine = Grid(grid.r_min, grid.r_max, 2 * grid.n_points)
        cases = [
            (psi, mode_projector("m", ("u", "l"), "u")),
            (modes, window_projector("m", grid, DetectorWindow(-1.0, 1.0))),
            (psi, window_projector("m", fine, DetectorWindow(-1.0, 1.0))),
            (modes, mode_projector("m", ("l", "u"), "u")),
        ]
        for state, projector in cases:
            with pytest.raises(ValueError, match="'m' is not on the state's basis"):
                probability(state, projector)
            with pytest.raises(ValueError, match="'m' is not on the state's basis"):
                reduce(state, projector)

    def test_input_gate_holds_both_kinds_to_one_tolerance(self, grid):
        # a wavefunction whose norm is off by 2e-8 and a mode state off by
        # 2e-7 are both rejected; states well inside the gate are accepted
        psi = gaussian(grid, 0.0, 1.0)
        window = window_projector("in", grid, DetectorWindow(-1.0, 1.0))
        modes = [("u", INV_SQRT2), ("l", INV_SQRT2)]
        u = mode_projector("u", ("u", "l"), "u")
        for scale, accepted in ((1 + 2e-8, False), (1 + 2e-7, False), (1 + 1e-9, True)):
            stretched = State(grid, psi.amplitudes * scale)
            state = make_state([(label, a * scale) for label, a in modes])
            for candidate, projector in ((stretched, window), (state, u)):
                if accepted:
                    probability(candidate, projector)
                else:
                    with pytest.raises(ValueError, match="not normalized"):
                        probability(candidate, projector)

    def test_input_gate_holds_on_every_call(self, grid):
        # the norm is kept with the state; the gate still reads it each time
        psi = gaussian(grid, 0.0, 1.0)
        window = window_projector("in", grid, DetectorWindow(-1.0, 1.0))
        stretched = State(grid, psi.amplitudes * 1.01)
        modes = make_state([("u", 1.0), ("l", 1.0)])
        u = mode_projector("u", modes.basis, "u")
        for state, projector in ((stretched, window), (modes, u)):
            for _ in range(2):
                with pytest.raises(ValueError, match="not normalized"):
                    probability(state, projector)

    def test_input_gate_rejects_nan_states(self, grid):
        nan_wave = State(grid, np.full(grid.n_points, math.nan))
        window = window_projector("in", grid, DetectorWindow(-1.0, 1.0))
        nan_modes = make_state([("u", math.nan), ("l", INV_SQRT2)])
        u = mode_projector("u", nan_modes.basis, "u")
        for state, projector in ((nan_wave, window), (nan_modes, u)):
            with pytest.raises(ValueError, match="not normalized"):
                probability(state, projector)



def _unit_state(basis, amplitudes) -> State:
    state = State(basis, amplitudes)
    return State(basis, amplitudes / state.norm)


class TestBornSums:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        on_grid=st.booleans(),
        size=st.integers(64, 300),
        data=st.data(),
    )
    def test_equal_to_np_sum_bit_for_bit(self, seed, on_grid, size, data):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=size) + 1j * rng.normal(size=size)
        raw *= np.exp(rng.uniform(-30.0, 0.0, size=size))  # densities over many scales
        basis = Grid(-3.0, 5.0, size) if on_grid else tuple(f"m{i}" for i in range(size))
        state = _unit_state(basis, raw)
        a = state.amplitudes
        # the density each basis keeps: one numpy call on cells, Python squares on modes
        density = np.abs(a) ** 2 if on_grid else np.array([abs(x) ** 2 for x in a.tolist()])
        weight = basis.spacing if on_grid else 1.0
        projectors = []
        for k in range(data.draw(st.integers(1, 4))):
            cuts = data.draw(st.lists(st.integers(0, size), max_size=8, unique=True))
            edges = sorted(cuts)
            ranges = tuple(zip(edges[::2], edges[1::2]))
            projectors.append(Projector(f"p{k}", basis, ranges))
        expected = [
            float(sum(weight * np.sum(density[lo:hi]) for lo, hi in p.ranges)) for p in projectors
        ]
        for _ in range(2):  # the summing call, then the kept values
            assert _born(state, projectors) == expected
            assert [probability(state, p) for p in projectors] == expected
        # a complete set over the same cuts, through ProjectorSet.probabilities
        bounds = sorted({0, size, *cuts})
        spans = list(zip(bounds, bounds[1:]))
        tiling = ProjectorSet(
            tuple(Projector(f"t{i}", basis, (span,)) for i, span in enumerate(spans))
        )
        expected = [float(weight * np.sum(density[lo:hi])) for lo, hi in spans]
        for _ in range(2):
            assert tiling.probabilities(state).tolist() == expected

    def test_kept_sums_do_not_bypass_the_basis_check(self, grid, states):
        # a projector with the same ranges on another basis is still refused
        psi = states["constructive"]
        cells = ((100, 200),)
        assert probability(psi, Projector("a", grid, cells)) > 0
        other = Grid(grid.r_min, grid.r_max + 1.0, grid.n_points)
        with pytest.raises(ValueError, match="'b' is not on the state's basis"):
            probability(psi, Projector("b", other, cells))


class TestOneAllocation:
    """States built by the library own a fresh read-only array, equal to the copying path."""

    def _built(self, grid, pair, states, calibration):
        """``(state, its input states, its amplitudes computed here)`` per builder."""
        up, lo = pair
        psi = states["constructive"]
        c = np.exp(0.7j) * INV_SQRT2
        window = window_projector("in", grid, calibration.window)
        i_lo, i_hi = window_cells(grid, calibration.window)
        scaled = np.zeros_like(psi.amplitudes)
        scaled[i_lo:i_hi] = psi.amplitudes[i_lo:i_hi] * (1.0 / math.sqrt(probability(psi, window)))
        modes = make_state([("u", 0.6j), ("l", 0.8)])
        h = grid.spacing
        d = calibration.separation
        g_up, g_lo = (gaussian(grid, x, 1.0).amplitudes for x in (d / 2, -d / 2))
        even, odd = 1.0 * g_up + 1.0 * g_lo, 1.0 * g_up + -1.0 * g_lo
        even = even / math.sqrt(h * float(np.sum(np.abs(even) ** 2)))
        odd = odd / math.sqrt(h * float(np.sum(np.abs(odd) ** 2)))
        raw = np.exp(-((grid.points - 0.25) ** 2) / 4)
        return [
            (combine(up, lo, 0.3, c), [up, lo], 0.3 * up.amplitudes + c * lo.amplitudes),
            (recombine(pair, 0.7), [up, lo], INV_SQRT2 * up.amplitudes + c * lo.amplitudes),
            (reduce(psi, window), [psi], scaled),
            (reduce(modes, mode_projector("u", modes.basis, "u")), [modes], [1j, 0.0]),
            (gaussian(grid, 0.25, 1.0), [], raw / math.sqrt(h * float(np.sum(raw * raw)))),
            (up, [lo], INV_SQRT2 * even + INV_SQRT2 * odd),
            (lo, [up], INV_SQRT2 * even + -INV_SQRT2 * odd),
        ]

    def test_read_only_unshared_and_equal_to_the_public_constructor(
        self, grid, pair, states, calibration
    ):
        for state, inputs, reference in self._built(grid, pair, states, calibration):
            a = state.amplitudes
            assert a.dtype == np.complex128 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
            for other in inputs:
                assert not np.shares_memory(a, other.amplitudes)
            # bit for bit: the same array through the copying constructor, and
            # the arithmetic of each builder written here
            assert State(state.basis, a) == state
            assert State(state.basis, reference) == state

    def test_public_constructor_keeps_its_own_copy(self, grid):
        cases = ((grid, np.full(grid.n_points, 0.5 + 0.5j)), (("u", "l"), np.array([0.6j, 0.8])))
        for basis, values in cases:
            state = State(basis, values)
            before = state.amplitudes.tobytes()
            assert not np.shares_memory(state.amplitudes, values)
            values[0] = 7.0
            assert state.amplitudes.tobytes() == before


class TestProjectorConstruction:
    def test_window_resolves_to_its_cells(self, grid, calibration):
        p = window_projector("in", grid, calibration.window)
        assert p.basis == grid
        assert p.ranges == (window_cells(grid, calibration.window),)

    def test_modes_resolve_in_label_order(self):
        p = mode_projector("x", ["a", "b", "c"], "c", "a", "c")
        assert p.basis == ("a", "b", "c")
        assert p.ranges == ((0, 1), (2, 3))

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match=r"\['q'\] are not in the basis"):
            mode_projector("x", ("u", "l"), "u", "q")

    def test_ranges_outside_the_basis_refused(self, grid):
        n = grid.n_points
        cases = [
            (grid, ((0, n + 1),)),
            (grid, ((n, n + 1),)),
            (grid, ((-1, 3),)),
            (grid, ((5, 3),)),
            (("u", "l"), ((1, 3),)),
        ]
        for basis, ranges in cases:
            with pytest.raises(ValueError, match="leave"):
                Projector("x", basis, ranges)

    def test_overlapping_ranges_refused(self, grid):
        with pytest.raises(ValueError, match="'x' ranges overlap"):
            Projector("x", grid, ((10, 20), (0, 11)))
        with pytest.raises(ValueError, match="'x' ranges overlap"):
            window_projector("x", grid, DetectorWindow(-2.0, 1.0), DetectorWindow(-1.0, 2.0))

    def test_windows_snapping_to_disjoint_cells_accepted(self, grid):
        # the windows overlap by a fifth of a cell, which both snap away
        h = grid.spacing
        a = DetectorWindow(grid.edge_value(10), grid.edge_value(20) + 0.1 * h)
        b = DetectorWindow(grid.edge_value(20) - 0.1 * h, grid.edge_value(30))
        assert window_projector("x", grid, b, a).ranges == ((10, 20), (20, 30))

    def test_empty_label_refused(self, grid):
        with pytest.raises(ValueError, match="nonempty outcome label"):
            Projector("", grid, ())


class TestReduce:
    def test_reduction_is_eigenstate(self, grid, states, calibration):
        p = window_projector("in", grid, calibration.window)
        reduced = reduce(states["constructive"], p)
        assert probability(reduced, p) == pytest.approx(1.0, abs=1e-12)

    def test_reduction_idempotent(self, grid, states, calibration):
        p = window_projector("in", grid, calibration.window)
        once = reduce(states["constructive"], p)
        twice = reduce(once, p)
        np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-12)

    def test_mode_reduction_keeps_phase(self):
        state = make_state([("u", 0.6j), ("l", 0.8)])
        reduced = reduce(state, mode_projector("u", state.basis, "u"))
        assert reduced.amplitude("u") == pytest.approx(1j, abs=1e-12)

    def test_zero_norm_reduction_rejected(self, grid):
        # a packet fully outside the counter: conditioning on a click is
        # meaningless, the no-fire branch must use the complement instead
        psi = gaussian(grid, 5.0, 1.0)
        far_window = window_projector("in", grid, DetectorWindow(-12.0, -6.0))
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

    def test_labels_kept_without_changing_equality_or_hash(self, calibration, grid):
        a = three_counter_partition(calibration.window, grid)
        b = three_counter_partition(calibration.window, grid)
        before = hash(a)
        labels = a.labels
        assert labels == ("left", "in", "right")
        assert a.labels is labels
        assert a == b and b == a
        assert hash(a) == hash(b) == before
        assert repr(a) == repr(b)

    def test_outcome_records_table(self, states, calibration, grid):
        pset = three_counter_partition(calibration.window, grid)
        records = outcome_records(states["destructive"], pset)
        assert [r.label for r in records] == ["left", "in", "right"]
        assert sum(r.probability for r in records) == pytest.approx(1.0, abs=1e-8)
        for record in records:
            assert probability(record.reduced, pset.projectors[
                [r.label for r in records].index(record.label)
            ]) == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_set_raises(self, grid, calibration):
        # completeness belongs to the apparatus, so it is refused whatever the
        # state: {H} alone holds all of mz_output(0) but not of other phases,
        # and the in/out pair's 1200 missing cells hold at most 3e-15 of the
        # calibrated states
        i_lo, i_hi = window_cells(grid, calibration.window)
        last = grid.n_points - 600
        incomplete = {
            r"cells \[0, ": (window_projector("in", grid, calibration.window),),
            r"modes \('V',\)": (mode_projector("H", ("H", "V"), "H"),),
            r"cells \[0, 600\)": (
                Projector("in", grid, ((i_lo, i_hi),)),
                Projector("out", grid, ((600, i_lo), (i_hi, last))),
            ),
        }
        for message, projectors in incomplete.items():
            with pytest.raises(IncompleteProjectorSetError, match=message):
                ProjectorSet(projectors)

    def test_overlapping_windows_rejected(self, grid):
        with pytest.raises(ValueError, match="overlap between outcomes"):
            ProjectorSet(
                (
                    window_projector("a", grid, DetectorWindow(-2.0, 1.0)),
                    window_projector("b", grid, DetectorWindow(-1.0, 2.0)),
                    window_projector("rest", grid, DetectorWindow(2.0, grid.r_max),
                                     DetectorWindow(grid.r_min, -2.0)),
                )
            )

    def test_set_needs_one_basis(self, grid):
        fine = Grid(grid.r_min, grid.r_max, 2 * grid.n_points)
        mixed = [
            (mode_projector("u", ("u", "l"), "u"), mode_projector("l", ("l", "u"), "l")),
            (mode_projector("u", ("u", "l"), "u"), window_projector("w", grid)),
            (window_projector("v", fine), window_projector("w", grid)),
        ]
        for projectors in mixed:
            with pytest.raises(ValueError, match="share one basis"):
                ProjectorSet(projectors)

    def test_law_of_total_probability(self, states, calibration, grid):
        pset = three_counter_partition(calibration.window, grid)
        # coarse observable: union of the left counter and the middle counter
        union = window_projector(
            "left+in", grid, DetectorWindow(grid.r_min, calibration.window.hi)
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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_law_of_total_probability_random_partitions(self, pair, grid, data):
        # random phase; random cells cut into 2-7 spans, dealt in any order to
        # outcomes that come in any order, so one outcome may hold several
        # spans; a random coarse union
        psi = recombine(pair, data.draw(st.floats(0.0, 2 * math.pi)))
        cuts = data.draw(
            st.lists(st.integers(1, grid.n_points - 1), min_size=1, max_size=6, unique=True)
        )
        edges = [0, *sorted(cuts), grid.n_points]
        spans = list(zip(edges, edges[1:]))
        n = len(spans)
        owner = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        dealt = data.draw(st.permutations(range(n)))
        order = data.draw(st.permutations(sorted(set(owner))))

        def outcomes(dropped=None):
            return tuple(
                Projector(
                    f"w{k}", grid, tuple(spans[i] for i in dealt if owner[i] == k and i != dropped)
                )
                for k in order
            )

        pset = ProjectorSet(outcomes())
        # the same draw with one span in no outcome is not a measurement
        dropped = data.draw(st.integers(0, n - 1))
        lo, hi = spans[dropped]
        with pytest.raises(IncompleteProjectorSetError, match=rf"cells \[{lo}, {hi}\)"):
            ProjectorSet(outcomes(dropped))
        keep = data.draw(st.lists(st.booleans(), min_size=len(spans), max_size=len(spans)))
        union = Projector("union", grid, tuple(s for s, k in zip(spans, keep) if k))
        probs = pset.probabilities(psi)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        total = sum(
            p * probability(reduce(psi, proj), union)
            for proj, p in zip(pset.projectors, probs)
            if p >= REDUCTION_EPS
        )
        assert total == pytest.approx(probability(psi, union), abs=1e-8)
        # each reduction is an eigenstate of its projector, and reducing again changes nothing
        for proj in (*pset.projectors, union):
            if probability(psi, proj) < REDUCTION_EPS:
                continue
            reduced = reduce(psi, proj)
            assert probability(reduced, proj) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(
                reduce(reduced, proj).amplitudes, reduced.amplitudes, rtol=0, atol=1e-12
            )


def _one_draw_at_each_of_the_first_40_trials(test):
    """Add the examples ``n = 1``, ``start = i`` for ``i < 40``: a draw a trial, as ``measure``."""
    for i in range(40):
        test = example(seed=99, stream=0, start=i, n=1)(test)
    return test


class TestSampling:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        stream=st.integers(0, 2**63 - 1),
        trial=st.integers(0, 2**20 - 1),
    )
    def test_random_access_matches_the_batch(self, seed, stream, trial):
        # the jump to draw i is Philox block arithmetic: four 64-bit words a block
        single = trial_uniforms(seed, 1, stream, trial)  # the one draw measure reads
        assert single.tolist() == [trial_uniforms(seed, trial + 1, stream)[trial]]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        stream=st.integers(0, 2**63 - 1),
        start=st.integers(0, 2**18),
        n=st.integers(0, 600),
    )
    # starts off the four-word block boundary: the words before them are dropped
    @example(seed=4, stream=6, start=1, n=9)
    @example(seed=4, stream=6, start=3, n=1)
    @example(seed=4, stream=6, start=65537, n=9)
    @_one_draw_at_each_of_the_first_40_trials
    def test_a_slice_from_any_start_matches_the_batch(self, seed, stream, start, n):
        part = trial_uniforms(seed, n, stream, start)
        assert part.tolist() == trial_uniforms(seed, start + n, stream)[start:].tolist()

    def test_threads_drawing_at_once_match_the_serial_draws(self):
        # every thread re-keys its own generator; a shared one would mix the streams
        calls = [
            (seed, 1 + 400 * (k % 4), stream, 3 * k)
            for k in range(200)
            for seed, stream in ((7, 2), (8, 3))
        ]
        serial = [trial_uniforms(*call).tolist() for call in calls]
        results = {}
        barrier = threading.Barrier(2)

        def draw(part):
            barrier.wait()
            results[part] = [trial_uniforms(*call).tolist() for call in calls[part::2]]

        threads = [threading.Thread(target=draw, args=(part,)) for part in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results[0] == serial[0::2] and results[1] == serial[1::2]
        # every re-key passes the module's zero counter and buffer; none writes them
        assert measurement._ZERO_WORDS.tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 65537])
    @pytest.mark.parametrize("seed, stream", [(0, 0), (12345, 7), (2**63 - 1, 2**63 - 1)])
    def test_draws_equal_a_freshly_keyed_philox(self, seed, stream, start):
        n = 9
        fresh = np.random.Generator(np.random.Philox(key=(stream << 64) | seed))
        expected = fresh.random(start + n)[start:]
        trial_uniforms(seed ^ 1, 3, stream ^ 1, 5)  # leave this thread's generator mid-block
        assert trial_uniforms(seed, n, stream, start).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("start", [-1, 2.0])
    def test_a_start_must_be_a_non_negative_integer(self, start):
        with pytest.raises((ValueError, TypeError)):
            trial_uniforms(1, 4, 0, start)

    @pytest.mark.parametrize("n", [-1, 2.5, "3", None])
    def test_a_count_must_be_a_non_negative_integer(self, n):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            trial_uniforms(1, n)

    @pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 65537])
    @pytest.mark.parametrize("seed, stream", [(0, 0), (12345, 7), (2**63 - 1, 2**63 - 1)])
    def test_draws_into_out_equal_a_new_array(self, seed, stream, start):
        n = 9
        expected = trial_uniforms(seed, n, stream, start)
        out = np.full(n + 3, 2.0)
        trial_uniforms(seed ^ 1, 3, stream ^ 1, 5)  # leave this thread's generator mid-block
        drawn = trial_uniforms(seed, n, stream, start, out=out)
        assert drawn.tobytes() == expected.tobytes()
        assert np.shares_memory(drawn, out) and drawn.base is out
        assert out[n:].tolist() == [2.0] * 3

    def test_out_shorter_than_n_is_refused(self):
        with pytest.raises(ValueError, match="fewer than n"):
            trial_uniforms(1, 5, out=np.empty(4))

    def test_measure_is_deterministic(self, states, calibration, grid):
        pset = pair_partition(calibration.window, grid)
        psi = states["constructive"]
        first = measure(psi, pset, seed=5)
        again = measure(psi, pset, seed=5)
        assert first[0] == again[0]
        np.testing.assert_array_equal(first[1].amplitudes, again[1].amplitudes)

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
        p = probability(psi, window_projector("in", grid, calibration.window))
        band = 3 * math.sqrt(p * (1 - p) / n)
        assert counts["in"] / n == pytest.approx(p, abs=band)

    def test_outcome_frequencies_across_seeds(self, states, calibration, grid):
        # one-shot measurements with fresh seeds: same binomial statistics
        pset = pair_partition(calibration.window, grid)
        psi = states["constructive"]
        n = 2000
        hits = sum(measure(psi, pset, seed=seed)[0] == "in" for seed in range(n))
        p = probability(psi, window_projector("in", grid, calibration.window))
        band = 3 * math.sqrt(p * (1 - p) / n)
        assert hits / n == pytest.approx(p, abs=band)

    def test_equal_weight_composite_frequencies(self):
        # a branch entirely inside its counter: the two global outcomes
        # split 1/2 / 1/2, and sampled frequencies sit in the binomial band
        state = make_state([("in", INV_SQRT2), ("recv", INV_SQRT2)])
        pset = ProjectorSet(
            (mode_projector("in", state.basis, "in"), mode_projector("recv", state.basis, "recv"))
        )
        n = 100_000
        counts = sample_outcomes(state, pset, seed=3, n_trials=n)
        band = 3 * math.sqrt(0.25 / n)
        assert counts["in"] / n == pytest.approx(0.5, abs=band)
        assert counts["recv"] / n == pytest.approx(0.5, abs=band)

    @staticmethod
    def _halves():
        state = make_state([("in", INV_SQRT2), ("recv", INV_SQRT2)])
        modes = ("in", "recv")
        return state, ProjectorSet(tuple(mode_projector(m, state.basis, m) for m in modes))

    def test_a_large_sample_holds_one_chunk_of_draws(self):
        # the draws go a chunk at a time into buffers this thread keeps, made
        # on its first count: 2**22 trials as one array would be 32 MiB
        state, pset = self._halves()
        sample_outcomes(state, pset, seed=3, n_trials=10)
        tracemalloc.start()
        try:
            counts = sample_outcomes(state, pset, seed=3, n_trials=2**22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(counts.values()) == 2**22
        assert peak < 2 * 2**20

    def test_past_the_cap_refused_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("uniforms were drawn for a refused count")

        monkeypatch.setattr(measurement, "trial_uniforms", no_draws)
        state, pset = self._halves()
        with pytest.raises(ValueError, match=r"n must be an integer in \[0, 16777216\]"):
            sample_outcomes(state, pset, seed=3, n_trials=MAX_TRIALS + 1)


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


def _feed(monkeypatch, draws) -> int:
    """Make ``measurement.trial_uniforms`` write ``draws[start:start + n]`` into ``out[:n]``."""
    draws = np.asarray(draws, dtype=float)

    def fed(seed, n, stream=0, start=0, out=None):
        out[:n] = draws[start : start + n]
        return out[:n]

    monkeypatch.setattr(measurement, "trial_uniforms", fed)
    return len(draws)


class TestCountOutcomes:
    def test_matches_searchsorted_on_cdf_edges(self, monkeypatch):
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
            # a uniform lies in [0, 1); the edges next to 0 and 1 outside it are left out
            draws = draws[(draws >= 0.0) & (draws < 1.0)]
            expected = _searchsorted_counts(probs, draws)
            n = _feed(monkeypatch, draws)
            for args in ((probs, 0, n), (probs.tolist(), 0, n)):
                counts = count_outcomes(*args)
                assert counts == expected
                assert all(type(c) is int for c in counts)

    def test_single_draw_from_a_list(self, monkeypatch):
        assert count_outcomes([0.25, 0.0, 0.75], 0, _feed(monkeypatch, [0.25])) == [0, 0, 1]
        n = _feed(monkeypatch, [np.nextafter(0.25, 0.0)])
        assert count_outcomes([0.25, 0.0, 0.75], 0, n) == [1, 0, 0]
        assert count_outcomes([1.0], 0, _feed(monkeypatch, [0.5])) == [1]

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 100003])
    @pytest.mark.parametrize(
        "probs",
        # 0.7 + 0.2 + 0.1 sums to 1 - 2**-53 in doubles
        [[0.25, 0.0, 0.75], [0.7, 0.2, 0.1]],
        ids=["zero-outcome", "cdf-below-1"],
    )
    def test_chunked_counts_match_one_searched_batch(self, probs, n):
        for stream in (0, 5):
            expected = _searchsorted_counts(probs, trial_uniforms(21, n, stream))
            assert count_outcomes(probs, 21, n, stream) == expected
            for k in (0, 1, 2):  # first, middle, last
                (count,) = count_outcomes(probs, 21, n, stream, outcome=k)
                assert type(count) is int and count == expected[k]
            # counts from any start add up: trial i keeps draw i
            head = count_outcomes(probs, 21, n // 2, stream)
            tail = count_outcomes(probs, 21, n - n // 2, stream, n // 2)
            assert [a + b for a, b in zip(head, tail)] == expected

    @pytest.mark.parametrize(
        "probs",
        [
            [math.nan, 1.0], [0.5, math.nan, 0.5], [-0.25, 1.25], [math.inf, 0.0], [],
            [-1e-12, 1.0],
        ],
        ids=["nan-first", "nan-middle", "negative", "infinite", "empty", "barely-negative"],
    )
    def test_invalid_probabilities_rejected(self, probs):
        with pytest.raises(ValueError, match="finite and >= 0"):
            count_outcomes(probs, 0, 2)

    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize(
        "seed, stream", [(-1, 0), (2**63, 0), (0, -1)], ids=["negative", "64-bit", "stream"]
    )
    def test_a_bad_key_is_refused_for_any_count(self, seed, stream, n):
        with pytest.raises(ValueError, match="seed must be|stream index"):
            count_outcomes([0.5, 0.5], seed, n, stream)

    @pytest.mark.parametrize("outcome", [-1, 3])
    def test_an_outcome_that_is_not_one_is_refused(self, outcome):
        with pytest.raises(ValueError, match="is not one of the 3 outcomes"):
            count_outcomes([0.25, 0.0, 0.75], 0, 2, outcome=outcome)
