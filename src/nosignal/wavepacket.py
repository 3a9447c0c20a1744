"""Spatial wave packets on a grid: interference profiles, detector windows, calibration.

The two packets leaving the interferometer travel parallel along the
transverse axis ``r``, displaced by a separation ``d``; lengths are in units
of the packets' common width sigma.  Recombining them with a relative phase produces the
constructive (even) or destructive (odd) density profile a detector sees.

Numerical scheme
----------------
A packet is a :class:`~nosignal.modes.State` on a
:class:`~nosignal.modes.Grid` basis: samples live at the centers of
``n_points`` uniform cells covering ``[r_min, r_max]`` and integrals are
midpoint sums ``h * sum(f)``.  Detector windows are resolved to whole cells
(:func:`window_cells`), so window projectors are exact 0/1 masks in the
discrete inner product: window probabilities of a partition add to
exactly 1, and projection followed by renormalization is exactly
idempotent.  Cell edges are nested under ``n_points`` doubling, which makes
reported probabilities stable under grid refinement at second order.

The displaced raw Gaussians overlap, so a naive recombination would not
preserve the norm (it comes out ``sqrt(1 + s cos phi)`` with ``s`` the
overlap).  :func:`orthogonal_pair` removes the overlap symmetrically,
splitting the deviation evenly between the two packets, after which
recombination is exactly norm-preserving for every phase.

The packets, the pair and the calibration's phi = 0 profile are float64
arithmetic; complex128 enters where the phase does, in :func:`recombine`.
The bits are those of the complex128 ``State`` algebra they stand for: an
IEEE complex operation whose imaginary operands are exact zeros rounds once,
as its real counterpart does, and numpy's complex ``abs`` of ``x + 0i`` is
``|x|``.  Two steps keep this only as written: numpy divides a complex by a
real through the reciprocal, so the pair is scaled by ``1 / norm``, and the
overlap gate sums its products as complex128, since a float64 sum groups
the terms otherwise.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .modes import Grid, State, combine
from .tolerances import TRUNCATION_TOL

#: Raw-Gaussian overlaps above this make the orthogonalization ill-conditioned.
MAX_OVERLAP = 0.999


class TruncationError(ValueError):
    """A packet's tail mass outside the grid exceeds ``TRUNCATION_TOL``."""


class ConditioningError(ValueError):
    """The two packets overlap too strongly to orthogonalize reliably."""


class WindowDomainError(ValueError):
    """A detector window reaches outside the grid extent."""


class CalibrationError(RuntimeError):
    """No scanned detector geometry reached the minimum usable contrast."""


def _normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2))


def gaussian(grid: Grid, center: float) -> State:
    """Real Gaussian packet ``exp(-(r-center)^2 / 4)``, quadrature-normalized.

    The squared amplitude is then the standard normal density about
    ``center``.  Raises :class:`TruncationError` when more than
    ``TRUNCATION_TOL`` of that probability mass falls outside the grid, and
    ``ValueError`` when the grid spacing is so coarse that no sample of the
    packet is above 0, or when a squared offset ``(r - center)**2`` on the
    grid leaves the double range.
    """
    return State._adopt(grid, _gaussian_samples(grid, center).astype(np.complex128))


def _gaussian_samples(grid: Grid, center: float) -> np.ndarray:
    """The float64 samples of :func:`gaussian`, with its checks and messages."""
    outside = _normal_cdf(grid.r_min - center) + _normal_cdf(center - grid.r_max)
    if outside > TRUNCATION_TOL:
        raise TruncationError(
            f"packet at center={center} has mass {outside:.3g} "
            f"outside the grid [{grid.r_min}, {grid.r_max}]"
        )
    r = grid.points
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            raw = np.exp(-((r - center) ** 2) / 4)
    except FloatingPointError:
        raise ValueError(
            f"the packet's exponent (r - center)**2 / 4 leaves the double range "
            f"on the grid [{grid.r_min}, {grid.r_max}]"
        ) from None
    scale = math.sqrt(grid.spacing * float(np.add.reduce(raw * raw)))
    if not (math.isfinite(scale) and scale > 0):
        # every sample underflowed: the packet falls between the grid's samples
        raise ValueError(
            f"packet at center={center} is not resolved by the grid spacing "
            f"{grid.spacing}: every sample underflows to 0"
        )
    raw /= scale
    return raw


def orthogonal_pair(grid: Grid, separation: float) -> tuple[State, State]:
    """Symmetrically orthogonalize Gaussians centered at ``+-separation/2``.

    Returns the states ``(upper, lower)``.  The unique orthonormal pair
    that treats the two packets even-handedly mixes each raw Gaussian with
    a small amount of the other:
    ``chi_{u,l} = (e +- o)/sqrt(2)`` with ``e`` and ``o`` the normalized sum
    and difference.  This preserves the mirror symmetry
    ``chi_u(r) = chi_l(-r)`` and keeps each packet localized on its own side.

    The last pair built is kept: asking again for the same geometry, as an
    audit does once per phase, returns that same read-only pair.
    """
    return _orthogonal_pair(grid, separation)


# One entry: an audit asks for one geometry many times in a row, while a
# calibration scan or a run of exports moves on and never asks again.
@functools.lru_cache(maxsize=1, typed=True)
def _orthogonal_pair(grid: Grid, separation: float) -> tuple[State, State]:
    return _pair_states(grid, *_real_pair(grid, separation))


def _pair_states(grid: Grid, upper: np.ndarray, lower: np.ndarray) -> tuple[State, State]:
    """The real samples of a pair as its two complex128 states."""
    return tuple(State._adopt(grid, part.astype(np.complex128)) for part in (upper, lower))


def _real_pair(grid: Grid, separation: float) -> tuple[np.ndarray, np.ndarray]:
    """The float64 samples of :func:`orthogonal_pair`'s ``(upper, lower)``, with its checks.

    Each step is the real part of the complex128 step it stands for, which
    has exact-zero imaginary parts; see the module's numerical scheme.
    """
    if not separation > 0:
        raise ValueError(f"separation must be positive, got {separation}")
    g_up = _gaussian_samples(grid, +separation / 2)
    g_lo = _gaussian_samples(grid, -separation / 2)
    h = grid.spacing
    # summed pairwise as complex128, as modes.inner sums: float64 groups the terms otherwise
    overlap = h * np.add.reduce((g_up * g_lo).astype(np.complex128)).real
    if overlap > MAX_OVERLAP:
        raise ConditioningError(
            f"raw overlap {overlap:.6f} exceeds {MAX_OVERLAP}; "
            "packets are too close to orthogonalize"
        )
    even = g_up + g_lo
    odd = g_up - g_lo
    # numpy divides a complex by a real through the reciprocal, so scale by it
    even *= 1.0 / math.sqrt(h * np.add.reduce(even * even))
    odd *= 1.0 / math.sqrt(h * np.add.reduce(odd * odd))
    inv_sqrt2 = 1 / math.sqrt(2)
    return inv_sqrt2 * even + inv_sqrt2 * odd, inv_sqrt2 * even - inv_sqrt2 * odd


def recombine(pair: tuple[State, State], phi: float) -> State:
    """Superpose the routes with relative phase: ``(chi_u + e^{i phi} chi_l)/sqrt(2)``.

    Because the pair is orthonormal the result has norm 1 for every phase;
    the interference only redistributes the density along ``r``.
    """
    upper, lower = pair
    inv_sqrt2 = 1 / math.sqrt(2)
    return combine(upper, lower, inv_sqrt2, np.exp(1j * phi) * inv_sqrt2)


@dataclass(frozen=True)
class DetectorWindow:
    """Interval ``[lo, hi]`` of the transverse axis covered by a detector."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("window requires lo < hi")

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.hi - self.lo)


def window_cells(grid: Grid, window: DetectorWindow) -> tuple[int, int]:
    """Resolve a window to the cell range ``[i_lo, i_hi)`` it covers.

    Edges snap to the nearest cell edge; a window narrower than one cell
    may resolve to an empty range.
    """
    slack = 0.5 * grid.spacing + 1e-9 * (grid.r_max - grid.r_min)
    if window.lo < grid.r_min - slack or window.hi > grid.r_max + slack:
        raise WindowDomainError(
            f"window [{window.lo}, {window.hi}] reaches outside the grid "
            f"[{grid.r_min}, {grid.r_max}]"
        )
    return grid.edge_index(window.lo), grid.edge_index(window.hi)


def symmetric_window(grid: Grid, halfwidth: float) -> DetectorWindow:
    """``[-halfwidth, +halfwidth]`` about r = 0, the packets' midpoint, snapped to cell edges.

    Each end snaps to its nearest cell edge.  Under a cell wide, the window is
    the cell holding r = 0, or the two cells beside r = 0 when it is a cell
    edge.  Ends are not clipped: :func:`window_cells` refuses a window outside the grid.
    """
    if not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ValueError(f"halfwidth must be a positive finite number, got {halfwidth}")
    h = grid.spacing
    cells = halfwidth / h
    if not math.isfinite(cells):
        raise ValueError(
            f"halfwidth {halfwidth} spans more cells of width {h} than a double can count"
        )
    zero = grid.n_points / 2 - grid.center / h  # r = 0 in cell-edge units
    below, above = math.floor(zero), math.ceil(zero)
    least = int(below == above)  # r = 0 on a cell edge: at least one cell each side
    lo = below - max(least, round(cells - (zero - below)))
    hi = above + max(least, round(cells - (above - zero)))
    return DetectorWindow(grid.edge_value(lo), grid.edge_value(hi))


# ---------------------------------------------------------------------------
# Detector-geometry calibration
# ---------------------------------------------------------------------------

#: Scan box: separations and window half-widths.
CALIBRATION_SEPARATIONS = np.linspace(0.5, 6.0, 32)
CALIBRATION_HALFWIDTHS = np.linspace(0.1, 4.0, 64)

#: Below this best contrast the grid is considered misconfigured.
MIN_USABLE_CONTRAST = 0.5


@dataclass(frozen=True)
class CalibrationResult:
    """Best detector geometry found by :func:`calibrate`.

    ``contrast = min(P_in(phi=0), 1 - P_in(phi=pi))`` measures how well the
    window separates constructive from destructive recombination.
    """

    separation: float
    window: DetectorWindow
    contrast: float
    p_in_constructive: float
    p_in_destructive: float

    def to_json_dict(self) -> dict:
        return {
            "d_over_sigma": self.separation,
            "window_halfwidth_over_sigma": self.window.halfwidth,
            "contrast": self.contrast,
        }


def calibrate(grid: Grid) -> CalibrationResult:
    """Grid-search separation and window half-width for maximum contrast.

    Scans the separation over ``CALIBRATION_SEPARATIONS`` and centered
    windows with half-width over ``CALIBRATION_HALFWIDTHS``; candidate
    geometries whose packets do not fit the grid are skipped.  Ties keep
    the first candidate in scan order, so the result is deterministic.

    Note on attainable contrast: for displaced-Gaussian packets the
    constructive profile is the normalized sum and the destructive profile
    the normalized difference of the two raw Gaussians.  A centered window
    can separate those two densities only up to
    ``min(P0, 1-Ppi) ~ 0.7385`` (the separation -> 0 limit), so contrasts
    approaching 1 are not reachable with this packet family, no matter the
    window.
    """
    best: CalibrationResult | None = None
    windows: list[DetectorWindow] | None = None
    h = grid.spacing
    inv_sqrt2 = 1 / math.sqrt(2)
    # the profiles' cumulative sums, 0 before the first cell
    cum0, cum_pi = np.zeros(grid.n_points + 1), np.zeros(grid.n_points + 1)
    for separation in CALIBRATION_SEPARATIONS.tolist():
        try:
            upper, lower = _real_pair(grid, separation)
        except (TruncationError, ConditioningError):
            continue
        if windows is None:
            # resolved at the first pair that fits, not before the scan: on a
            # grid too small for any pair the scan must end in CalibrationError
            windows = [symmetric_window(grid, w) for w in CALIBRATION_HALFWIDTHS.tolist()]
            i_lo, i_hi = np.array([window_cells(grid, w) for w in windows]).T
        # recombine(pair, 0.0) is re + 0i, and its density |re + 0i|**2 is re * re
        re = inv_sqrt2 * upper + inv_sqrt2 * lower
        np.cumsum(re * re, out=cum0[1:])
        cum0 *= h
        np.cumsum(recombine(_pair_states(grid, upper, lower), math.pi).density, out=cum_pi[1:])
        cum_pi *= h
        p0 = cum0[i_hi] - cum0[i_lo]
        p_pi = cum_pi[i_hi] - cum_pi[i_lo]
        contrast = np.minimum(p0, 1.0 - p_pi)
        # the row's first maximum, taken only if it beats every earlier row:
        # ties keep the first geometry in scan order
        k = int(np.argmax(contrast))
        if best is None or contrast[k] > best.contrast:
            best = CalibrationResult(
                separation, windows[k], float(contrast[k]), float(p0[k]), float(p_pi[k])
            )
    # written so that a NaN contrast fails the gate too
    if best is None or not best.contrast >= MIN_USABLE_CONTRAST:
        reached = 0.0 if best is None else best.contrast
        raise CalibrationError(
            f"no scanned geometry reached contrast {MIN_USABLE_CONTRAST} "
            f"(best {reached:.3f}); the grid is too small or too coarse"
        )
    return best


# ---------------------------------------------------------------------------
# Frozen defaults
# ---------------------------------------------------------------------------

# Read once; callers only read it.
@functools.cache
def _defaults() -> tuple[dict, Grid]:
    data = json.loads((resources.files(__package__) / "calibration" / "defaults.json").read_text())
    return data, Grid(data["r_min"], data["r_max"], data["n_points"])


def default_grid() -> Grid:
    """The grid the frozen calibration was produced on.

    Read once: every call returns one grid object, a shared basis.
    """
    return _defaults()[1]


def default_calibration() -> CalibrationResult:
    """Frozen calibrated geometry on :func:`default_grid` (recomputable via :func:`calibrate`)."""
    data, grid = _defaults()
    return CalibrationResult(
        separation=data["d_over_sigma"],
        window=symmetric_window(grid, data["window_halfwidth_over_sigma"]),
        contrast=data["contrast"],
        p_in_constructive=data["p_in_constructive"],
        p_in_destructive=data["p_in_destructive"],
    )
