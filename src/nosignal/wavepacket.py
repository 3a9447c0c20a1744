"""Spatial wave packets on a 1-D grid: interference profiles and window probabilities.

The two packets leaving the interferometer travel parallel along the
transverse axis ``r``, displaced by a separation ``d`` and each of width
``sigma``.  Recombining them with a relative phase produces the
constructive (even) or destructive (odd) density profile a detector sees.

Numerical scheme
----------------
Samples live at the centers of ``n_points`` uniform cells covering
``[r_min, r_max]`` and integrals are midpoint sums ``h * sum(f)``.  Detector
windows are resolved to whole cells, so window projectors are exact 0/1
masks in the discrete inner product: window probabilities of a partition
add to exactly 1, and projection followed by renormalization is exactly
idempotent.  Cell edges are nested under ``n_points`` doubling, which makes
reported probabilities stable under grid refinement at second order.

The displaced raw Gaussians overlap, so a naive recombination would not
preserve the norm (it comes out ``sqrt(1 + s cos phi)`` with ``s`` the
overlap).  :func:`orthogonal_pair` removes the overlap symmetrically,
splitting the deviation evenly between the two packets, after which
recombination is exactly norm-preserving for every phase.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .tolerances import NORM_TOL, TRUNCATION_TOL

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


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D grid: ``n_points`` cell-centered samples on ``[r_min, r_max]``."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.r_min < self.r_max:
            raise ValueError("grid requires r_min < r_max")
        if self.n_points < 64:
            raise ValueError("grid requires at least 64 points")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / self.n_points

    @property
    def center(self) -> float:
        return 0.5 * (self.r_min + self.r_max)

    @property
    def points(self) -> np.ndarray:
        """Sample positions, built symmetrically about the grid center.

        The symmetric form keeps mirror pairs exact in floating point and
        places a sample exactly at the center when ``n_points`` is odd.
        """
        n = self.n_points
        return (np.arange(n) - (n - 1) / 2) * self.spacing + self.center

    def edge_value(self, index: int) -> float:
        """Position of cell edge ``index`` (0 .. n_points)."""
        return (index - self.n_points / 2) * self.spacing + self.center

    def edge_index(self, r: float) -> int:
        """Nearest cell-edge index to position ``r``, clipped to the grid."""
        raw = (r - self.center) / self.spacing + self.n_points / 2
        return int(min(max(round(raw), 0), self.n_points))

    def doubled(self) -> "Grid":
        """Same extent at twice the resolution; cell edges are preserved."""
        return Grid(self.r_min, self.r_max, 2 * self.n_points)


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitude samples on a grid (units ``length^(-1/2)``)."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} samples, got shape {samples.shape}"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def is_normalized(self) -> bool:
        return abs(quadrature_norm(self) - 1.0) <= NORM_TOL

    def density(self) -> np.ndarray:
        """Position probability density ``|psi(r)|^2`` at the samples."""
        return np.abs(self.samples) ** 2


def quadrature_inner(f: WaveFunction, g: WaveFunction) -> complex:
    """Grid inner product ``h * sum conj(f) g``."""
    if f.grid != g.grid:
        raise ValueError("wavefunctions live on different grids")
    return complex(f.grid.spacing * np.sum(np.conj(f.samples) * g.samples))


def quadrature_norm(f: WaveFunction) -> float:
    return math.sqrt(f.grid.spacing * float(np.sum(np.abs(f.samples) ** 2)))


def combine(f: WaveFunction, g: WaveFunction, cf: complex, cg: complex) -> WaveFunction:
    """Pointwise ``cf*f + cg*g`` on a shared grid."""
    if f.grid != g.grid:
        raise ValueError("wavefunctions live on different grids")
    return WaveFunction(f.grid, cf * f.samples + cg * g.samples)


def gaussian(grid: Grid, center: float, sigma: float) -> WaveFunction:
    """Real Gaussian packet ``exp(-(r-center)^2 / (4 sigma^2))``, quadrature-normalized.

    The squared amplitude is then the normal density with standard
    deviation ``sigma``.  Raises :class:`TruncationError` when more than
    ``TRUNCATION_TOL`` of that probability mass falls outside the grid.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    outside = _normal_cdf((grid.r_min - center) / sigma) + _normal_cdf(
        (center - grid.r_max) / sigma
    )
    if outside > TRUNCATION_TOL:
        raise TruncationError(
            f"packet at center={center} sigma={sigma} has mass {outside:.3g} "
            f"outside the grid [{grid.r_min}, {grid.r_max}]"
        )
    r = grid.points
    raw = np.exp(-((r - center) ** 2) / (4 * sigma**2))
    norm = math.sqrt(grid.spacing * float(np.sum(raw * raw)))
    return WaveFunction(grid, raw / norm)


@dataclass(frozen=True)
class PacketPair:
    """Orthonormalized packets on the upper (+d/2) and lower (-d/2) routes.

    ``raw_overlap`` records the inner product of the displaced Gaussians
    before orthogonalization, ``exp(-d^2 / (8 sigma^2))`` in closed form.
    """

    upper: WaveFunction
    lower: WaveFunction
    separation: float
    width: float
    raw_overlap: float


def orthogonal_pair(grid: Grid, separation: float, width: float) -> PacketPair:
    """Symmetrically orthogonalize Gaussians centered at ``+-separation/2``.

    The unique orthonormal pair that treats the two packets even-handedly
    mixes each raw Gaussian with a small amount of the other:
    ``chi_{u,l} = (e +- o)/sqrt(2)`` with ``e`` and ``o`` the normalized sum
    and difference.  This preserves the mirror symmetry
    ``chi_u(r) = chi_l(-r)`` and keeps each packet localized on its own side.
    """
    if separation <= 0:
        raise ValueError("separation must be positive")
    g_up = gaussian(grid, +separation / 2, width)
    g_lo = gaussian(grid, -separation / 2, width)
    overlap = quadrature_inner(g_up, g_lo).real
    if overlap > MAX_OVERLAP:
        raise ConditioningError(
            f"raw overlap {overlap:.6f} exceeds {MAX_OVERLAP}; "
            "packets are too close to orthogonalize"
        )
    even = combine(g_up, g_lo, 1.0, 1.0)
    odd = combine(g_up, g_lo, 1.0, -1.0)
    even = WaveFunction(grid, even.samples / quadrature_norm(even))
    odd = WaveFunction(grid, odd.samples / quadrature_norm(odd))
    inv_sqrt2 = 1 / math.sqrt(2)
    upper = combine(even, odd, inv_sqrt2, inv_sqrt2)
    lower = combine(even, odd, inv_sqrt2, -inv_sqrt2)
    return PacketPair(upper, lower, separation, width, overlap)


def recombine(pair: PacketPair, phi: float) -> WaveFunction:
    """Superpose the routes with relative phase: ``(chi_u + e^{i phi} chi_l)/sqrt(2)``.

    Because the pair is orthonormal the result has norm 1 for every phase;
    the interference only redistributes the density along ``r``.
    """
    inv_sqrt2 = 1 / math.sqrt(2)
    return combine(pair.upper, pair.lower, inv_sqrt2, np.exp(1j * phi) * inv_sqrt2)


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
    """Centered window snapped to cell edges, symmetric about the grid center."""
    n = grid.n_points
    if n % 2:
        m = max(0, round(halfwidth / grid.spacing - 0.5))
        cells = 2 * m + 1
    else:
        cells = 2 * max(1, round(halfwidth / grid.spacing))
    lo = grid.edge_value((n - cells) // 2)
    hi = grid.edge_value((n + cells) // 2)
    return DetectorWindow(lo, hi)


def window_probability(psi: WaveFunction, window: DetectorWindow) -> float:
    """Probability of finding the particle inside the window.

    Midpoint quadrature of ``|psi|^2`` over the cells the window covers;
    exactly additive over any partition of the grid into windows.
    """
    if not psi.is_normalized:
        raise ValueError("window_probability expects a normalized wavefunction")
    i_lo, i_hi = window_cells(psi.grid, window)
    return float(psi.grid.spacing * np.sum(psi.density()[i_lo:i_hi]))


# ---------------------------------------------------------------------------
# Detector-geometry calibration
# ---------------------------------------------------------------------------

#: Scan box: separations and window half-widths in units of sigma.
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
    sigma: float

    def to_json_dict(self) -> dict:
        return {
            "d_over_sigma": self.separation / self.sigma,
            "window_halfwidth_over_sigma": self.window.halfwidth / self.sigma,
            "contrast": self.contrast,
        }


def calibrate(grid: Grid, sigma: float) -> CalibrationResult:
    """Grid-search separation and window half-width for maximum contrast.

    Scans ``d/sigma`` over ``CALIBRATION_SEPARATIONS`` and centered
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
    for d_over_sigma in CALIBRATION_SEPARATIONS:
        separation = float(d_over_sigma * sigma)
        try:
            pair = orthogonal_pair(grid, separation, sigma)
        except (TruncationError, ConditioningError):
            continue
        h = grid.spacing
        cum0 = np.concatenate(([0.0], np.cumsum(recombine(pair, 0.0).density()))) * h
        cum_pi = np.concatenate(([0.0], np.cumsum(recombine(pair, math.pi).density()))) * h
        for halfwidth in CALIBRATION_HALFWIDTHS:
            window = symmetric_window(grid, float(halfwidth * sigma))
            i_lo, i_hi = window_cells(grid, window)
            p0 = float(cum0[i_hi] - cum0[i_lo])
            p_pi = float(cum_pi[i_hi] - cum_pi[i_lo])
            contrast = min(p0, 1.0 - p_pi)
            if best is None or contrast > best.contrast:
                best = CalibrationResult(
                    separation, window, contrast, p0, p_pi, sigma
                )
    if best is None or best.contrast < MIN_USABLE_CONTRAST:
        reached = 0.0 if best is None else best.contrast
        raise CalibrationError(
            f"no scanned geometry reached contrast {MIN_USABLE_CONTRAST} "
            f"(best {reached:.3f}); the grid is too small or too coarse"
        )
    return best


# ---------------------------------------------------------------------------
# Frozen defaults
# ---------------------------------------------------------------------------

def _defaults() -> dict:
    text = (resources.files(__package__) / "calibration" / "defaults.json").read_text()
    return json.loads(text)


def default_grid(sigma: float = 1.0) -> Grid:
    """The grid the frozen calibration was produced on, scaled by ``sigma``."""
    data = _defaults()
    return Grid(data["r_min"] * sigma, data["r_max"] * sigma, data["n_points"])


def default_calibration(sigma: float = 1.0) -> CalibrationResult:
    """Frozen calibrated geometry (recomputable via :func:`calibrate`)."""
    data = _defaults()
    halfwidth = data["window_halfwidth_over_sigma"] * sigma
    return CalibrationResult(
        separation=data["d_over_sigma"] * sigma,
        window=DetectorWindow(-halfwidth, halfwidth),
        contrast=data["contrast"],
        p_in_constructive=data["p_in_constructive"],
        p_in_destructive=data["p_in_destructive"],
        sigma=sigma,
    )
