import functools
import inspect
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate

from nosignal import wavepacket
from nosignal.audit import VARIANT_DENSITY, ScenarioConfig
from nosignal.measurement import probability, window_projector
from nosignal.modes import MAX_GRID_POINTS, Grid, State, combine, inner
from nosignal.tolerances import NORM_TOL, TRUNCATION_TOL
from nosignal.wavepacket import (
    CALIBRATION_HALFWIDTHS,
    CALIBRATION_SEPARATIONS,
    MAX_OVERLAP,
    MIN_USABLE_CONTRAST,
    CalibrationError,
    CalibrationResult,
    ConditioningError,
    DetectorWindow,
    TruncationError,
    WindowDomainError,
    calibrate,
    default_calibration,
    default_grid,
    gaussian,
    orthogonal_pair,
    recombine,
    symmetric_window,
    window_cells,
)

SWEEP = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)

# Frozen output of the calibration scan on the default grid
# ([-12, 12] at 4097 cells, sigma = 1), cross-checked below against
# closed-form normal-CDF integrals.
FROZEN_SEPARATION = 0.6774193548387097
FROZEN_HALFWIDTH = 1.1510861606053209
FROZEN_CONTRAST = 0.7291767844475758
FROZEN_P_IN_CONSTRUCTIVE = 0.7365556411410185
FROZEN_P_IN_DESTRUCTIVE = 0.2708232155524241


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module")
def calibrated_pair(grid):
    cal = default_calibration()
    return orthogonal_pair(grid, cal.separation)


def _raw_overlap(grid, d):
    """Inner product of the displaced Gaussians before orthogonalization."""
    return inner(gaussian(grid, d / 2), gaussian(grid, -d / 2)).real


def _in_window(psi, window):
    """Born probability of finding the particle inside ``window``."""
    return probability(psi, window_projector("in", psi.basis, window))


def _closed_form_window_probs(d, lo, hi, sigma=1.0):
    """Continuum oracle: window mass of the even/odd recombined densities."""
    s = math.exp(-(d**2) / (8 * sigma**2))

    def density(r, sign):
        gp = math.exp(-((r - d / 2) ** 2) / (2 * sigma**2))
        gm = math.exp(-((r + d / 2) ** 2) / (2 * sigma**2))
        cross = s * math.exp(-(r**2) / (2 * sigma**2))
        return (gp + gm + sign * 2 * cross) / (
            2 * (1 + sign * s) * math.sqrt(2 * math.pi) * sigma
        )

    p0, _ = integrate.quad(lambda r: density(r, +1), lo, hi)
    ppi, _ = integrate.quad(lambda r: density(r, -1), lo, hi)
    return p0, ppi


class TestGrid:
    def test_center_sample_exact_for_odd_count(self, grid):
        assert grid.points[grid.n_points // 2] == 0.0

    def test_points_mirror_exactly(self, grid):
        r = grid.points
        np.testing.assert_array_equal(r, -r[::-1])

    def test_doubling_preserves_cell_edges(self, grid):
        fine = Grid(grid.r_min, grid.r_max, 2 * grid.n_points)
        for k in (0, 17, grid.n_points // 2, grid.n_points):
            assert fine.edge_value(2 * k) == grid.edge_value(k)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 32)

    @pytest.mark.parametrize(
        "n_points", [100.5, 128.0, True, MAX_GRID_POINTS + 1, 2**62],
        ids=["fractional", "integral-float", "bool", "past-cap", "huge"],
    )
    def test_cell_count_must_be_an_int_up_to_the_cap(self, n_points):
        # refused in __post_init__, before any array could be built
        with pytest.raises(ValueError, match="n_points"):
            Grid(-1.0, 1.0, n_points)

    @pytest.mark.parametrize(
        "r_min, r_max",
        [(-math.inf, 1.0), (-1.0, math.inf), (math.nan, 1.0), (-1.0, math.nan), (-1e308, 1e308)],
    )
    def test_non_finite_bounds_rejected(self, r_min, r_max):
        with pytest.raises(ValueError, match="finite"):
            Grid(r_min, r_max, 64)

    @pytest.mark.parametrize("r_min, r_max", [(-5e-324, 5e-324), (0.0, 5e-324)])
    def test_a_span_too_narrow_for_its_cells_rejected(self, r_min, r_max):
        # the span is a few subnormals: divided into 64 cells it is 0
        with pytest.raises(ValueError, match="spacing underflows to 0"):
            Grid(r_min, r_max, 64)


class TestGaussian:
    def test_normalized_on_modest_grid(self):
        wf = gaussian(Grid(-10.0, 10.0, 2048), 0.0)
        assert abs(wf.norm - 1.0) <= 1e-8

    def test_peak_density_matches_normal_pdf(self):
        wf = gaussian(Grid(-10.0, 10.0, 2049), 0.0)
        peak = float(wf.density[2049 // 2])
        assert peak == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)

    def test_truncated_packet_rejected(self):
        with pytest.raises(TruncationError):
            gaussian(Grid(-10.0, 10.0, 2048), 8.0)

    @pytest.mark.parametrize(
        "grid, reason",
        [
            # a spacing of 250 packet widths: refused before any sample could underflow
            (Grid(-8000.0, 8000.0, 64),
             "spacing 250.0: the spacing is coarser than the packet width"),
            # 1.25 packet widths: samples survive, but a packet spans a cell or two
            (Grid(-40.0, 40.0, 64), "spacing 1.25: the spacing is coarser than the packet width"),
        ],
        ids=["underflows", "coarser-than-the-width"],
    )
    def test_packet_between_the_samples_refused(self, grid, reason):
        with pytest.raises(ValueError, match=f"center=1.5 is not resolved.*{reason}"):
            gaussian(grid, 1.5)
        assert gaussian(Grid(-32.0, 32.0, 64), 1.5).norm == pytest.approx(1.0)  # spacing 1

    def test_exponent_past_the_double_range_refused(self):
        # (r - center)**2 would overflow at the grid's far samples: the spacing gate runs first
        with np.errstate(all="raise"), pytest.raises(
            ValueError, match="coarser than the packet width"
        ):
            gaussian(Grid(-1e155, 1e155, 64), 0.0)


@st.composite
def resolved_packets(draw):
    """``(grid, center)``: a spacing of at most 1, a center the truncation gate passes.

    Most grids have at most 4097 cells, one in twenty has the most a grid
    may have.  The grid's middle is drawn on a log scale out to 1e22; far
    out, a double cannot hold a spacing of 1 and the draw is dropped.
    """
    n = draw(st.integers(0, 19).flatmap(
        lambda roll: st.just(MAX_GRID_POINTS) if roll == 0 else st.integers(64, 4097)
    ))
    h = draw(st.floats(10.0 / n, 1.0))
    far = st.builds(
        lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, -1.0]), st.floats(2.0, 22.0)
    )
    offset = draw(st.one_of(st.just(0.0), st.floats(-100.0, 100.0), far))
    r_min, r_max = offset - n * h / 2, offset + n * h / 2
    assume(r_min < r_max and (r_max - r_min) / n <= 1.0)
    margin = draw(st.floats(4.7, 8.0))
    assume(r_min + margin < r_max - margin)
    center = draw(st.floats(r_min + margin, r_max - margin))
    outside = 0.5 * math.erfc((center - r_min) / math.sqrt(2))
    outside += 0.5 * math.erfc((r_max - center) / math.sqrt(2))
    assume(outside <= TRUNCATION_TOL)
    return Grid(r_min, r_max, n), center


class TestTwoGates:
    """The truncation and spacing gates are the only ones a packet needs.

    Past both, no squared offset overflows and the sample nearest the center
    does not underflow, so the samples are finite and normalize.
    """

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(resolved_packets())
    def test_a_resolved_packet_is_finite_and_normalized(self, packet):
        grid, center = packet
        # underflow in the tails is expected; nothing may overflow or divide by 0
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            samples = wavepacket._gaussian_samples(grid, center)
        assert np.isfinite(samples).all()
        norm = grid.spacing * float(np.add.reduce(samples * samples))
        assert abs(norm - 1.0) <= NORM_TOL

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
    def test_a_center_off_the_reals_is_truncated(self, grid, center):
        with pytest.raises(TruncationError):
            gaussian(grid, center)


class TestOrthogonalPair:
    def test_overlap_matches_closed_form_at_6_sigma(self, grid):
        upper, lower = orthogonal_pair(grid, 6.0)
        assert _raw_overlap(grid, 6.0) == pytest.approx(math.exp(-4.5), abs=1e-10)
        assert abs(inner(upper, lower)) <= 1e-10

    def test_orthonormal_at_2_sigma(self, grid):
        upper, lower = orthogonal_pair(grid, 2.0)
        assert abs(inner(upper, lower)) <= 1e-10
        assert abs(upper.norm - 1.0) <= 1e-8
        assert abs(lower.norm - 1.0) <= 1e-8

    def test_wide_separation_approaches_raw_gaussian(self, grid):
        # the residual mixing is overlap/2 ~ 1.9e-6 at d = 10 sigma, so the
        # pointwise deviation sits just above 1e-6; it falls below 1e-8 by
        # d = 12 sigma
        upper, _ = orthogonal_pair(grid, 10.0)
        raw = gaussian(grid, 5.0)
        dev = float(np.max(np.abs(upper.amplitudes - raw.amplitudes)))
        assert dev == pytest.approx(1.1769099398823287e-06, rel=1e-6)
        far, _ = orthogonal_pair(grid, 12.0)
        raw_far = gaussian(grid, 6.0)
        assert float(np.max(np.abs(far.amplitudes - raw_far.amplitudes))) <= 1e-8

    def test_mirror_symmetry(self, grid):
        upper, lower = orthogonal_pair(grid, 1.7)
        np.testing.assert_allclose(upper.amplitudes, lower.amplitudes[::-1], atol=1e-10)

    def test_localization_on_own_half_axis(self, grid):
        positive = grid.points > 0
        for d in (0.5, 1.0, 2.0, 4.0):
            upper, _ = orthogonal_pair(grid, d)
            mass = grid.spacing * float(np.sum(np.abs(upper.amplitudes[positive]) ** 2))
            assert mass >= 1.0 - _raw_overlap(grid, d)

    def test_near_identical_packets_rejected(self, grid):
        with pytest.raises(ConditioningError):
            orthogonal_pair(grid, 0.05)

    def test_non_positive_or_nan_separation_rejected(self, grid):
        for d in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="separation must be positive"):
                orthogonal_pair(grid, d)

    def test_same_geometry_returns_the_same_read_only_pair(self, grid):
        pair = orthogonal_pair(grid, 1.25)
        assert orthogonal_pair(grid, 1.25) is pair
        # an equal grid is the same key, whether or not its points were read
        twin = Grid(grid.r_min, grid.r_max, grid.n_points)
        twin.points
        assert orthogonal_pair(twin, 1.25) is pair
        upper, lower = pair
        assert not upper.amplitudes.flags.writeable
        assert not lower.amplitudes.flags.writeable

    def test_other_geometry_returns_another_pair(self, grid):
        pair = orthogonal_pair(grid, 1.25)
        other_separation = orthogonal_pair(grid, 1.5)
        assert other_separation is not pair
        assert _raw_overlap(grid, 1.5) == pytest.approx(math.exp(-(1.5**2) / 8), abs=1e-10)
        fine = Grid(grid.r_min, grid.r_max, 2 * grid.n_points)
        other_grid = orthogonal_pair(fine, 1.25)
        assert other_grid is not pair
        assert other_grid[0].basis == fine
        # one entry is kept, so returning to the first geometry rebuilds it
        rebuilt = orthogonal_pair(grid, 1.25)
        assert rebuilt is not pair
        np.testing.assert_array_equal(rebuilt[0].amplitudes, pair[0].amplitudes)

    def test_orthogonal_pair_stays_a_plain_function(self):
        # call tracers wrap plain module functions only
        assert inspect.isfunction(wavepacket.orthogonal_pair)


class TestRecombine:
    def test_constructive_profile_is_even(self, calibrated_pair):
        psi = recombine(calibrated_pair, 0.0)
        np.testing.assert_allclose(psi.amplitudes, psi.amplitudes[::-1], atol=1e-10)

    def test_destructive_profile_is_odd_with_central_node(self, grid, calibrated_pair):
        psi = recombine(calibrated_pair, math.pi)
        np.testing.assert_allclose(psi.amplitudes, -psi.amplitudes[::-1], atol=1e-10)
        assert abs(psi.amplitudes[grid.n_points // 2]) ** 2 <= 1e-12

    @pytest.mark.parametrize("phi", SWEEP)
    def test_norm_one_for_every_phase(self, calibrated_pair, phi):
        assert abs(recombine(calibrated_pair, phi).norm - 1.0) <= 1e-8

    def test_raw_gaussian_recombination_breaks_the_norm(self, grid):
        # without orthogonalization the norm comes out sqrt(1 + s cos phi):
        # the deviation from 1 is exactly the neglected overlap
        d = 1.5
        g_up = gaussian(grid, +d / 2)
        g_lo = gaussian(grid, -d / 2)
        s = inner(g_up, g_lo).real
        for phi in SWEEP:
            raw = combine(g_up, g_lo, 1 / math.sqrt(2), np.exp(1j * phi) / math.sqrt(2))
            expected = math.sqrt(1 + s * math.cos(phi))
            assert raw.norm == pytest.approx(expected, abs=1e-6)


class TestWindowProbability:
    def test_whole_grid_is_one(self, grid, calibrated_pair):
        psi = recombine(calibrated_pair, 0.0)
        whole = DetectorWindow(grid.r_min, grid.r_max)
        assert _in_window(psi, whole) == pytest.approx(1.0, abs=1e-8)

    def test_complement_completeness_random_windows(self, grid, calibrated_pair):
        psi = recombine(calibrated_pair, math.pi)
        rng = np.random.default_rng(31)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(grid.r_min, grid.r_max, size=2))
            if hi - lo < grid.spacing:
                continue
            window = DetectorWindow(float(lo), float(hi))
            i_lo, i_hi = window_cells(grid, window)
            p_in = _in_window(psi, window)
            p_out = 0.0
            if i_lo > 0:
                p_out += _in_window(
                    psi, DetectorWindow(grid.r_min, grid.edge_value(i_lo))
                )
            if i_hi < grid.n_points:
                p_out += _in_window(
                    psi, DetectorWindow(grid.edge_value(i_hi), grid.r_max)
                )
            assert p_in + p_out == pytest.approx(1.0, abs=1e-8)

    def test_narrow_window_on_destructive_profile(self, grid):
        pair = orthogonal_pair(grid, 2.0)
        psi = recombine(pair, math.pi)
        value = _in_window(psi, DetectorWindow(-0.25, 0.25))
        assert value == pytest.approx(0.003114261876497259, rel=1e-9)
        assert value <= 0.05
        # continuum oracle over the same snapped interval
        i_lo, i_hi = window_cells(grid, DetectorWindow(-0.25, 0.25))
        _, oracle = _closed_form_window_probs(
            2.0, grid.edge_value(i_lo), grid.edge_value(i_hi)
        )
        assert value == pytest.approx(oracle, abs=2e-6)

    def test_window_outside_grid_rejected(self, grid, calibrated_pair):
        psi = recombine(calibrated_pair, 0.0)
        with pytest.raises(WindowDomainError):
            _in_window(psi, DetectorWindow(grid.r_min - 1.0, 0.0))
        # an edge may sit up to half a cell past the grid, where it snaps to
        # the grid's first edge; a whole cell past is outside it
        with pytest.raises(WindowDomainError):
            _in_window(psi, DetectorWindow(grid.r_min - grid.spacing, 0.0))
        _in_window(psi, DetectorWindow(grid.r_min - 0.25 * grid.spacing, 0.0))

    @pytest.mark.parametrize(
        "bounds", [(-12.0, 12.0, 4097), (-10.0, 14.0, 1000)], ids=["default", "off-centre-even"]
    )
    def test_an_end_half_a_cell_past_the_grid_snaps_to_its_edge(self, bounds):
        grid = Grid(*bounds)
        half = 0.5 * grid.spacing
        lo, hi = grid.r_min - half, grid.r_max + half
        assert window_cells(grid, DetectorWindow(lo, hi)) == (0, grid.n_points)
        for window in (
            DetectorWindow(math.nextafter(lo, -math.inf), hi),
            DetectorWindow(lo, math.nextafter(hi, math.inf)),
        ):
            with pytest.raises(WindowDomainError):
                window_cells(grid, window)

    def test_unnormalized_state_rejected(self, grid):
        psi = gaussian(grid, 0.0)
        doubled = combine(psi, psi, 1.0, 1.0)
        with pytest.raises(ValueError, match="normalized"):
            _in_window(doubled, DetectorWindow(-1.0, 1.0))

    def test_vanishing_window_has_vanishing_probability(self, grid, calibrated_pair):
        psi = recombine(calibrated_pair, 0.0)
        tiny = symmetric_window(grid, 1e-9)
        assert _in_window(psi, tiny) <= 0.01

    @pytest.mark.parametrize("halfwidth", [math.inf, math.nan, 0.0, -5.0, 1e308])
    def test_symmetric_window_needs_a_positive_finite_halfwidth(self, grid, halfwidth):
        with pytest.raises(ValueError, match="halfwidth"):
            symmetric_window(grid, halfwidth)


def _odd_even_rule(grid, halfwidth):
    """On a grid centred at r = 0: an odd cell count about the center sample
    when ``n_points`` is odd, an even one (at least 2) when it is even."""
    n, x = grid.n_points, halfwidth / grid.spacing
    cells = 2 * max(0, round(x - 0.5)) + 1 if n % 2 else 2 * max(1, round(x))
    return grid.edge_value((n - cells) // 2), grid.edge_value((n + cells) // 2)


class TestSymmetricWindow:
    @pytest.mark.parametrize("n_points", [64, 65, 129, 1025, 4096, 4097])
    def test_centred_grid_keeps_the_odd_even_rule(self, n_points):
        for scale in (0.3, 1.0, 1.7):
            g = Grid(-12 * scale, 12 * scale, n_points)
            widths = [float(w * scale) for w in CALIBRATION_HALFWIDTHS]
            widths += [f * g.spacing for f in (1e-9, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5)]
            for halfwidth in widths:
                window = symmetric_window(g, halfwidth)
                assert (window.lo, window.hi) == _odd_even_rule(g, halfwidth), (scale, halfwidth)

    @pytest.mark.parametrize(
        "n_points, shift", [(4096, 512), (4096, -512), (4097, 700), (65, -3), (64, 5)]
    )
    def test_a_grid_moved_by_whole_cells_keeps_the_window_about_r_0(self, n_points, shift):
        # the moved grid's cell edges are the centred grid's, so the window about
        # the packets' midpoint r = 0 must stay where it is
        centred = Grid(-12.0, 12.0, n_points)
        h = centred.spacing
        moved = Grid(-12.0 + shift * h, 12.0 + shift * h, n_points)
        for halfwidth in [float(w) for w in CALIBRATION_HALFWIDTHS] + [0.1 * h]:
            a, b = symmetric_window(centred, halfwidth), symmetric_window(moved, halfwidth)
            assert (b.lo, b.hi) == pytest.approx((a.lo, a.hi), abs=1e-9), halfwidth

    def test_the_frozen_window_is_snapped_on_the_default_grid(self, grid):
        window = default_calibration().window
        assert window == symmetric_window(grid, FROZEN_HALFWIDTH)
        assert window_cells(grid, window) == (1852, 2245)
        assert window.halfwidth == FROZEN_HALFWIDTH


class TestFrozenDefaults:
    """The frozen record is read once and shared, never changed."""

    @staticmethod
    def _record():
        path = resources.files("nosignal") / "calibration" / "defaults.json"
        return json.loads(path.read_text())

    def test_one_grid_object(self):
        assert default_grid() is default_grid()
        config = ScenarioConfig(variant=VARIANT_DENSITY, phases=(0.0, math.pi))
        assert config.grid is default_grid()
        assert config.window == default_calibration().window

    def test_the_calibration_matches_the_record_key_by_key(self):
        cal, record = default_calibration(), self._record()
        assert cal.separation == record["d_over_sigma"]
        assert cal.window == symmetric_window(default_grid(), record["window_halfwidth_over_sigma"])
        assert cal.contrast == record["contrast"]
        assert cal.p_in_constructive == record["p_in_constructive"]
        assert cal.p_in_destructive == record["p_in_destructive"]
        assert default_grid() == Grid(record["r_min"], record["r_max"], record["n_points"])


class TestCalibrate:
    def test_reproduces_frozen_defaults(self, grid):
        result = calibrate(grid)
        assert result.separation == FROZEN_SEPARATION
        assert result.window.halfwidth == FROZEN_HALFWIDTH
        assert result.contrast == pytest.approx(FROZEN_CONTRAST, abs=1e-12)
        assert result.p_in_constructive == pytest.approx(
            FROZEN_P_IN_CONSTRUCTIVE, abs=1e-12
        )
        assert result.p_in_destructive == pytest.approx(
            FROZEN_P_IN_DESTRUCTIVE, abs=1e-12
        )

    def test_frozen_values_match_continuum_oracle(self):
        cal = default_calibration()
        p0, ppi = _closed_form_window_probs(
            cal.separation, cal.window.lo, cal.window.hi
        )
        assert cal.p_in_constructive == pytest.approx(p0, abs=2e-6)
        assert cal.p_in_destructive == pytest.approx(ppi, abs=2e-6)

    def test_contrast_definition(self):
        cal = default_calibration()
        assert cal.contrast == pytest.approx(
            min(cal.p_in_constructive, 1 - cal.p_in_destructive), abs=1e-15
        )

    def test_wide_separation_loses_the_central_buildup(self, grid):
        # with the packets far apart the even and odd densities coincide,
        # so no centered window can tell the phases apart
        pair = orthogonal_pair(grid, 10.0)
        psi0 = recombine(pair, 0.0)
        psi_pi = recombine(pair, math.pi)
        best = 0.0
        for halfwidth in np.linspace(0.1, 11.0, 150):
            window = symmetric_window(grid, float(halfwidth))
            contrast = min(
                _in_window(psi0, window),
                1 - _in_window(psi_pi, window),
            )
            best = max(best, contrast)
        assert best <= 0.6

    def test_absurd_grid_fails_calibration(self):
        with pytest.raises(CalibrationError):
            calibrate(Grid(-2.0, 2.0, 64))

    def test_nan_contrast_fails_calibration(self, grid, monkeypatch):
        # a NaN compares false with everything, so it must not pass the gate
        def nan_profile(pair, phi):
            return State(grid, np.full(grid.n_points, math.nan))

        monkeypatch.setattr(wavepacket, "recombine", nan_profile)
        with pytest.raises(CalibrationError, match="best nan"):
            calibrate(grid)

    def test_scan_halfwidth_box(self):
        assert CALIBRATION_HALFWIDTHS[0] == pytest.approx(0.1)
        assert CALIBRATION_HALFWIDTHS[-1] == pytest.approx(4.0)


def _reference_calibrate(grid):
    """The calibration scan one window at a time: what ``calibrate`` must equal bit for bit."""
    best = None
    for separation in CALIBRATION_SEPARATIONS.tolist():
        try:
            pair = orthogonal_pair(grid, separation)
        except (TruncationError, ConditioningError):
            continue
        h = grid.spacing
        # looked up in the module, so a test can swap the profiles for both scans
        cum0 = np.concatenate(([0.0], np.cumsum(wavepacket.recombine(pair, 0.0).density))) * h
        cum_pi = np.concatenate(
            ([0.0], np.cumsum(wavepacket.recombine(pair, math.pi).density))
        ) * h
        for halfwidth in CALIBRATION_HALFWIDTHS:
            window = symmetric_window(grid, float(halfwidth))
            i_lo, i_hi = window_cells(grid, window)
            p0 = float(cum0[i_hi] - cum0[i_lo])
            p_pi = float(cum_pi[i_hi] - cum_pi[i_lo])
            contrast = min(p0, 1.0 - p_pi)
            if best is None or contrast > best.contrast:
                best = CalibrationResult(separation, window, contrast, p0, p_pi)
    if best is None or best.contrast < MIN_USABLE_CONTRAST:
        raise CalibrationError("no scanned geometry reached the minimum contrast")
    return best


#: The scans ``calibrate`` is held to its references on.
SCAN_GRIDS = pytest.mark.parametrize(
    "grid",
    [
        default_grid(),
        Grid(-24.0, 24.0, 4097),  # twice as wide, at twice the spacing
        Grid(-12.0, 12.0, 4096),  # even cell count
        Grid(-7.0, 7.0, 64),  # many half-widths snap to one window
    ],
    ids=["default", "wide-24", "even-4096", "coarse-64"],
)


def _reference_pair(grid, separation):
    """The pair built in complex128 ``State`` algebra: what ``orthogonal_pair`` must equal bit for bit."""
    g_up = gaussian(grid, +separation / 2)
    g_lo = gaussian(grid, -separation / 2)
    overlap = inner(g_up, g_lo).real
    if overlap > MAX_OVERLAP:
        raise ConditioningError(f"raw overlap {overlap}")
    even = combine(g_up, g_lo, 1.0, 1.0)
    odd = combine(g_up, g_lo, 1.0, -1.0)
    even = State(grid, even.amplitudes / even.norm)
    odd = State(grid, odd.amplitudes / odd.norm)
    inv_sqrt2 = 1 / math.sqrt(2)
    return combine(even, odd, inv_sqrt2, inv_sqrt2), combine(even, odd, inv_sqrt2, -inv_sqrt2)


def _built(make, grid, separation):
    """The pair's amplitude bytes, or the type of error building it raised."""
    try:
        return tuple(state.amplitudes.tobytes() for state in make(grid, separation))
    except (TruncationError, ConditioningError) as exc:
        return type(exc)


class TestRealPairMatchesStateAlgebra:
    @SCAN_GRIDS
    def test_every_scanned_pair_bit_for_bit(self, grid):
        built = []
        for separation in CALIBRATION_SEPARATIONS.tolist():
            got = _built(orthogonal_pair, grid, separation)
            assert got == _built(_reference_pair, grid, separation), separation
            built.append(got)
        assert any(isinstance(got, tuple) for got in built)

    @SCAN_GRIDS
    def test_conditioning_refused_at_the_same_separations(self, grid):
        def refused(separation):
            return _built(_reference_pair, grid, separation) is ConditioningError

        # bisect to two adjacent doubles: the reference refuses the lower, builds the upper
        lo, hi = 0.01, 0.5
        assert refused(lo) and not refused(hi)
        while math.nextafter(lo, hi) != hi:
            mid = lo + (hi - lo) / 2
            if mid in (lo, hi):
                mid = math.nextafter(lo, hi)
            lo, hi = (mid, hi) if refused(mid) else (lo, mid)
        separation = lo
        for _ in range(8):
            separation = math.nextafter(separation, -math.inf)
        for _ in range(18):  # 8 ULPs below the crossing to 8 above it
            want = _built(_reference_pair, grid, separation)
            assert _built(orthogonal_pair, grid, separation) == want, separation.hex()
            separation = math.nextafter(separation, math.inf)


class TestCalibrateMatchesScalarScan:
    @SCAN_GRIDS
    def test_same_result_bit_for_bit(self, grid):
        got, want = calibrate(grid), _reference_calibrate(grid)
        assert got == want
        for field in ("separation", "contrast", "p_in_constructive", "p_in_destructive"):
            assert type(getattr(got, field)) is float
        assert (got.window.lo, got.window.hi) == (want.window.lo, want.window.hi)

    def test_ties_keep_the_first_geometry_in_scan_order(self, grid, monkeypatch):
        # a pair under which every scanned window at every separation has the
        # same contrast, about 1: phi = 0 recombines into the central cells,
        # phi = pi into the outermost ones
        n, h = grid.n_points, grid.spacing
        centre, edges = np.zeros(n), np.zeros(n)
        centre[n // 2 - 4 : n // 2 + 5] = 1.0 / math.sqrt(9 * h)
        edges[:4] = edges[-4:] = 1.0 / math.sqrt(8 * h)

        def step_pair(grid, separation):
            return (centre + edges) / math.sqrt(2), (centre - edges) / math.sqrt(2)

        # calibrate reads the real pair; the reference reads it through a fresh pair cache
        monkeypatch.setattr(wavepacket, "_real_pair", step_pair)
        fresh = functools.lru_cache(maxsize=1, typed=True)(wavepacket._orthogonal_pair.__wrapped__)
        monkeypatch.setattr(wavepacket, "_orthogonal_pair", fresh)
        got = calibrate(grid)
        assert got == _reference_calibrate(grid)
        assert got.contrast == pytest.approx(1.0, abs=1e-12)
        assert got.separation == float(CALIBRATION_SEPARATIONS[0])
        assert got.window == symmetric_window(grid, float(CALIBRATION_HALFWIDTHS[0]))

    def test_both_refuse_a_grid_no_pair_fits(self):
        grid = Grid(-5.0, 5.0, 200)
        with pytest.raises(CalibrationError):
            _reference_calibrate(grid)
        with pytest.raises(CalibrationError):
            calibrate(grid)


class TestGridConvergence:
    def test_doubling_changes_window_probabilities_below_tolerance(self, grid):
        cal = default_calibration()
        fine = Grid(grid.r_min, grid.r_max, 2 * grid.n_points)
        for phi in (0.0, math.pi):
            coarse_p = _in_window(
                recombine(orthogonal_pair(grid, cal.separation), phi), cal.window
            )
            fine_p = _in_window(
                recombine(orthogonal_pair(fine, cal.separation), phi), cal.window
            )
            assert abs(coarse_p - fine_p) <= 1e-6
