import math

import numpy as np
import pytest

from nosignal.modes import (
    DuplicateModeError,
    Grid,
    State,
    combine,
    inner,
    make_state,
)
from nosignal.measurement import Projector, probability, reduce
from nosignal.wavepacket import gaussian, orthogonal_pair, recombine

INV_SQRT2 = 1 / math.sqrt(2)


class TestMakeState:
    def test_equal_weight_pair_is_normalized(self):
        state = make_state([("fwd", INV_SQRT2), ("rev", INV_SQRT2)])
        np.testing.assert_allclose(state.norm, 1.0, atol=1e-12)

    def test_single_unit_mode(self):
        state = make_state([("u", 1.0)])
        assert state.norm == 1.0
        assert state.amplitude("u") == 1.0

    def test_unnormalized_pair_flagged(self):
        state = make_state([("u", 1.0), ("l", 1.0)])
        np.testing.assert_allclose(state.norm, math.sqrt(2), atol=1e-12)

    def test_duplicate_label_rejected(self):
        with pytest.raises(DuplicateModeError):
            make_state([("u", 1.0), ("u", 0.5)])

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            make_state([("", 1.0)])

    @pytest.mark.parametrize("label", [1, None, 1.5, b"u", ("u",)])
    def test_non_string_label_rejected(self, label):
        # 1 and "1" would otherwise name the same mode
        with pytest.raises(ValueError, match="nonempty strings"):
            make_state([(label, 1.0)])

    def test_amplitudes_are_read_only(self):
        state = make_state([("u", 1.0)])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0


class TestNorm:
    def test_empty_state(self):
        assert make_state([]).norm == 0.0

    def test_three_four_five(self):
        state = make_state([("u", 0.6j), ("l", 0.8)])
        np.testing.assert_allclose(state.norm, 1.0, atol=1e-12)


class TestGridBasis:
    GRID = Grid(-4.0, 4.0, 64)

    def test_weight_is_the_cell_width(self):
        state = State(self.GRID, np.ones(64))
        assert state.weight == self.GRID.spacing == 0.125
        assert make_state([("u", 1.0)]).weight == 1.0

    def test_norm_and_inner_are_midpoint_sums(self):
        v = np.linspace(-1.0, 1.0, 64) + 0.5j
        state = State(self.GRID, v)
        h = self.GRID.spacing
        assert state.norm == math.sqrt(h * float(np.sum(np.abs(v) ** 2)))
        assert inner(state, state) == complex(h * np.sum(np.conj(v) * v))

    def test_amplitude_count_must_match_the_grid(self):
        with pytest.raises(ValueError, match="expected 64 amplitudes"):
            State(self.GRID, np.ones(65))

    def test_no_amplitude_by_label(self):
        with pytest.raises(ValueError, match="no mode labels"):
            State(self.GRID, np.ones(64)).amplitude("u")

    @pytest.mark.parametrize(
        "grid", [GRID, Grid(-12.5, 9.0, 4097), Grid(1.0, 3.0, 65)], ids=["64", "4097", "65"]
    )
    def test_points_kept_read_only_without_changing_equality_or_hash(self, grid):
        twin = Grid(grid.r_min, grid.r_max, grid.n_points)
        before = hash(grid)
        points = grid.points
        assert grid.points is points and not points.flags.writeable
        with pytest.raises(ValueError):
            points[0] = 0.0
        n = grid.n_points
        reference = (np.arange(n) - (n - 1) / 2) * grid.spacing + grid.center
        assert points.dtype == reference.dtype and points.tobytes() == reference.tobytes()
        assert grid == twin and twin == grid
        assert hash(grid) == hash(twin) == before
        assert repr(grid) == repr(twin)

    def test_each_basis_keeps_its_own_density_formula(self):
        # modes square one amplitude at a time in Python, cells in one numpy
        # call; the two can differ in the last bit, and reports keep each
        rng = np.random.default_rng(7)
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        labels = [f"m{i}" for i in range(64)]
        modes = make_state(list(zip(labels, v))).density
        cells = State(self.GRID, v).density
        assert modes.tolist() == [abs(a) ** 2 for a in v.tolist()]
        assert cells.tolist() == (np.abs(v) ** 2).tolist()
        assert modes.tolist() != cells.tolist()  # so the formulas can be told apart


CACHE_GRID = Grid(-4.0, 4.0, 64)
PACKET_GRID = Grid(-8.0, 8.0, 257)


def _made_every_way(v) -> list[tuple[str, State]]:
    """Unit states made each way a state is made, as ``(how, state)`` pairs.

    ``State(...)`` and ``make_state`` build ``v``, normalized, on the cells of
    ``CACHE_GRID`` and on 64 mode labels.  ``combine`` and ``reduce`` act on
    those two and hand the array they make to ``State._adopt``, as
    ``gaussian`` and ``recombine`` do with packets of their own.
    """
    cells = State(CACHE_GRID, v / math.sqrt(CACHE_GRID.spacing * np.sum(np.abs(v) ** 2)))
    modes = make_state(zip([f"m{i}" for i in range(len(v))], v / math.sqrt(np.sum(np.abs(v) ** 2))))
    made = [("State", cells), ("make_state", modes)]
    for basis, state in (("cells", cells), ("modes", modes)):
        made.append((f"combine-{basis}", combine(state, state, 0.6, 0.8j)))
        made.append((f"reduce-{basis}", reduce(state, Projector("p", state.basis, ((10, 30),)))))
    made.append(("gaussian", gaussian(PACKET_GRID, 0.5)))
    made.append(("recombine", recombine(orthogonal_pair(PACKET_GRID, 2.0), 0.7)))
    return made


def _fresh_density(state: State) -> list[float]:
    """Each basis's own formula: one numpy call on cells, Python squares on modes."""
    a = state.amplitudes
    if isinstance(state.basis, Grid):
        return (np.abs(a) ** 2).tolist()
    return [abs(x) ** 2 for x in a.tolist()]


def _assert_value_unseen(how: str, state: State, read) -> None:
    """``read(state)`` leaves ``==``, ``hash`` and ``repr`` as a fresh twin has them."""
    twin = State(state.basis, state.amplitudes)
    before = (repr(state), hash(state))
    read(state)
    assert state == twin and twin == state, how
    assert (repr(state), hash(state)) == before == (repr(twin), hash(twin)), how


class TestDensityCache:
    V = np.random.default_rng(11).normal(size=64) + 1j * np.random.default_rng(12).normal(size=64)

    def test_computed_once_and_read_only(self):
        for how, state in _made_every_way(self.V):
            density = state.density
            assert state.density is density, how
            assert not density.flags.writeable, how
            with pytest.raises(ValueError):
                density[0] = 0.0

    def test_same_bits_as_a_fresh_square(self):
        for how, state in _made_every_way(self.V):
            twin = State(state.basis, state.amplitudes)
            for _ in range(2):  # the computing read and the kept one
                assert state.density.tolist() == _fresh_density(state) == twin.density.tolist(), how

    def test_equality_and_repr_ignore_the_cache(self):
        for how, state in _made_every_way(self.V):
            _assert_value_unseen(how, state, lambda s: s.density)


class TestNormCache:
    # seeds where the two density formulas give norms one bit apart
    V = np.random.default_rng(24).normal(size=64) + 1j * np.random.default_rng(25).normal(size=64)

    def _states(self):
        labels = [f"m{i}" for i in range(64)]
        return State(CACHE_GRID, self.V), make_state(list(zip(labels, self.V)))

    def test_computed_once_and_kept(self):
        for how, state in _made_every_way(self.V):
            value = state.norm
            assert state.norm is value, how
            assert value == State(state.basis, state.amplitudes).norm, how

    def test_same_bits_as_a_fresh_sum(self):
        # each basis sums its own density formula (see the density tests)
        cells, modes = self._states()
        h = CACHE_GRID.spacing
        for _ in range(2):  # the computing read and the kept one
            assert cells.norm == math.sqrt(h * float(np.sum(np.abs(self.V) ** 2)))
            assert modes.norm == math.sqrt(
                1.0 * float(np.sum(np.array([abs(a) ** 2 for a in self.V.tolist()])))
            )
        assert modes.norm != math.sqrt(float(np.sum(np.abs(self.V) ** 2)))
        for how, state in _made_every_way(self.V):
            fresh = math.sqrt(state.weight * float(np.sum(np.array(_fresh_density(state)))))
            for _ in range(2):
                assert state.norm == fresh, how

    def test_equality_hash_and_repr_ignore_the_cache(self):
        for how, state in _made_every_way(self.V):
            _assert_value_unseen(how, state, lambda s: s.norm)


class TestBornCache:
    V = np.random.default_rng(31).normal(size=64) + 1j * np.random.default_rng(32).normal(size=64)

    def test_equality_hash_and_repr_ignore_the_cache(self):
        for how, state in _made_every_way(self.V):
            projector = Projector("in", state.basis, ((10, 30),))
            twin = State(state.basis, state.amplitudes)
            _assert_value_unseen(how, state, lambda s: probability(s, projector))
            assert projector.ranges in state._range_sums, how
            assert projector.ranges not in twin._range_sums, how
            p = probability(state, projector)
            assert probability(state, projector) is p, how
            assert p == probability(twin, projector), how


class TestEquality:
    GRID = Grid(-4.0, 4.0, 64)

    def test_equal_states_compare_equal_and_hash_alike(self):
        pairs = [
            (make_state([("u", 1.0), ("l", 0.0)]), make_state([("u", 1.0), ("l", 0.0)])),
            (State(self.GRID, np.ones(64)), State(Grid(-4.0, 4.0, 64), np.ones(64))),
        ]
        for a, b in pairs:
            b.density  # the cache plays no part
            assert a is not b
            assert (a == b) is True and (b == a) is True
            assert (a != b) is False
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "other",
        [
            make_state([("u", 1.0), ("l", 1e-300)]),  # one amplitude differs
            make_state([("l", 0.0), ("u", 1.0)]),  # same modes, other order
            make_state([("u", 1.0), ("l", -0.0)]),  # differs only in the sign bit
            make_state([("u", 1.0), ("v", 0.0)]),  # other basis, same amplitudes
        ],
    )
    def test_unequal_mode_states(self, other):
        state = make_state([("u", 1.0), ("l", 0.0)])
        assert (state == other) is False and (other == state) is False
        assert state != other
        assert len({state, other}) == 2

    def test_unequal_grid_states(self):
        ones = State(self.GRID, np.ones(64))
        bumped = np.ones(64)
        bumped[63] = np.nextafter(1.0, 2.0)
        for other in (State(self.GRID, bumped), State(Grid(-4.0, 4.5, 64), np.ones(64))):
            assert (ones == other) is False
            assert len({ones, other}) == 2

    def test_not_equal_to_other_types(self):
        state = make_state([("u", 1.0)])
        assert state != (("u",), np.ones(1))
        assert (state == "u") is False


class TestInner:
    @pytest.mark.parametrize(
        "a, b",
        [
            (make_state([("fwd", 1.0)]), make_state([("rev", 1.0)])),
            (make_state([("u", 1.0), ("l", 0.0)]), make_state([("l", 0.0), ("u", 1.0)])),
            (State(Grid(-4.0, 4.0, 64), np.ones(64)), State(Grid(-4.0, 4.0, 128), np.ones(128))),
            (make_state([("u", 1.0)] + [(f"m{i}", 0.0) for i in range(63)]),
             State(Grid(-4.0, 4.0, 64), np.ones(64))),
        ],
        ids=["disjoint-labels", "reordered-labels", "other-grid", "modes-and-grid"],
    )
    def test_different_bases_are_refused(self, a, b):
        for op in (lambda: inner(a, b), lambda: combine(a, b, 1.0, 1.0)):
            with pytest.raises(ValueError, match="different bases"):
                op()

    def test_inner_with_self_is_norm_squared(self):
        state = make_state([("u", 0.3 + 0.4j), ("l", 0.5)])
        np.testing.assert_allclose(inner(state, state), state.norm ** 2, atol=1e-14)

    def test_hadamard_pair_orthogonal(self):
        plus = make_state([("u", INV_SQRT2), ("l", INV_SQRT2)])
        minus = make_state([("u", INV_SQRT2), ("l", -INV_SQRT2)])
        assert abs(inner(plus, minus)) <= 1e-15

    def test_conjugate_symmetry(self):
        a = make_state([("u", 0.2 + 0.7j), ("l", -0.1j)])
        b = make_state([("u", 0.4), ("l", 0.9 - 0.2j)])
        assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-15)


class TestSuperpose:
    def test_phase_pi_combination(self):
        u = make_state([("u", 1.0), ("l", 0.0)])
        l = make_state([("u", 0.0), ("l", 1.0)])
        out = combine(u, l, INV_SQRT2, np.exp(1j * math.pi) * INV_SQRT2)
        np.testing.assert_allclose(out.amplitude("u"), INV_SQRT2, atol=1e-15)
        np.testing.assert_allclose(out.amplitude("l"), -INV_SQRT2, atol=1e-15)
        np.testing.assert_allclose(out.norm, 1.0, atol=1e-12)

    def test_identity_combination(self):
        s = make_state([("u", 0.6), ("l", 0.8j)])
        out = combine(s, s, 0.5, 0.5)
        np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-15)

    def test_same_mode_constructive_growth(self):
        # adding a state to itself grows the norm: the effect a lossless
        # recombiner would have to hide, which is why none exists
        u = make_state([("u", 1.0)])
        out = combine(u, u, INV_SQRT2, INV_SQRT2)
        np.testing.assert_allclose(out.norm, math.sqrt(2), atol=1e-12)


def _random_state(rng, labels):
    # about 30% of the modes carry no amplitude
    amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
    amps[rng.random(len(labels)) >= 0.7] = 0.0
    return make_state(list(zip(labels, amps)))


class TestAlgebraicProperties:
    LABELS = ("a", "b", "c", "d", "e")

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = _random_state(rng, self.LABELS)
            b = _random_state(rng, self.LABELS)
            assert abs(inner(a, b)) <= a.norm * b.norm + 1e-12

    def test_inner_linearity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = _random_state(rng, self.LABELS)
            b = _random_state(rng, self.LABELS)
            c = _random_state(rng, self.LABELS)
            x = complex(rng.normal(), rng.normal())
            y = complex(rng.normal(), rng.normal())
            lhs = inner(a, combine(b, c, x, y))
            rhs = x * inner(a, b) + y * inner(a, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_norm_expansion(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = _random_state(rng, self.LABELS)
            b = _random_state(rng, self.LABELS)
            ca = complex(rng.normal(), rng.normal())
            cb = complex(rng.normal(), rng.normal())
            combo = combine(a, b, ca, cb)
            expected = (
                abs(ca) ** 2 * a.norm ** 2
                + abs(cb) ** 2 * b.norm ** 2
                + 2 * (np.conj(ca) * cb * inner(a, b)).real
            )
            assert combo.norm ** 2 == pytest.approx(expected, abs=1e-12)
