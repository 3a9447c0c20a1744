"""Walk through the wave-packet layer: packets, orthogonalization, profiles.

Two Gaussian packets leave the final mirrors travelling parallel,
displaced by a separation d.  Because they overlap, the raw pair is not
orthogonal; recombining raw packets would break the norm by exactly the
overlap.  Symmetric orthogonalization fixes that, after which the
constructive (phi=0) and destructive (phi=pi) profiles redistribute the
same unit of probability along the transverse axis.

Run:  python demos/interference_profiles.py
"""

import math

import numpy as np

from nosignal import (
    DetectorWindow,
    combine,
    default_calibration,
    default_grid,
    gaussian,
    inner,
    orthogonal_pair,
    probability,
    recombine,
    window_projector,
)

grid = default_grid()
cal = default_calibration()
print(f"grid: [{grid.r_min}, {grid.r_max}] with {grid.n_points} cells")
print(f"calibrated geometry: d = {cal.separation:.4f}, "
      f"window = [{cal.window.lo:.4f}, {cal.window.hi:.4f}]")

# --- raw packets overlap, and the overlap breaks naive recombination ----
g_up = gaussian(grid, +cal.separation / 2)
g_lo = gaussian(grid, -cal.separation / 2)
s = inner(g_up, g_lo).real
print(f"\nraw packet overlap s = {s:.6f} "
      f"(closed form {math.exp(-cal.separation**2 / 8):.6f})")
for phi in (0.0, math.pi):
    raw = combine(g_up, g_lo, 1 / math.sqrt(2), np.exp(1j * phi) / math.sqrt(2))
    print(f"  naive recombination at phi={phi:.2f}: norm = "
          f"{raw.norm:.6f} (sqrt(1 + s cos phi) = "
          f"{math.sqrt(1 + s * math.cos(phi)):.6f})")

# --- the orthogonalized pair recombines unitarily ------------------------
pair = orthogonal_pair(grid, cal.separation)
print(f"\northogonalized: <chi_u|chi_l> = "
      f"{abs(inner(*pair)):.2e}")
for phi in (0.0, math.pi / 2, math.pi):
    print(f"  recombined norm at phi={phi:.4f}: "
          f"{recombine(pair, phi).norm:.12f}")

# --- the two canonical density profiles ----------------------------------
psi0 = recombine(pair, 0.0)
psi_pi = recombine(pair, math.pi)
center = grid.n_points // 2
print(f"\ndensity at r=0:  constructive {psi0.density[center]:.4f}, "
      f"destructive {psi_pi.density[center]:.2e} (exact node)")

counter = window_projector("in", grid, cal.window)
p0 = probability(psi0, counter)
p_pi = probability(psi_pi, counter)
print(f"counter-window probability: constructive {p0:.4f}, destructive {p_pi:.4f}")
print(f"contrast min(P0, 1 - Ppi) = {min(p0, 1 - p_pi):.4f} "
      "(Gaussian-packet ceiling is 0.7385)")

# --- probability moves to the complement, it never disappears ------------
left = window_projector("left", grid, DetectorWindow(grid.r_min, cal.window.lo))
right = window_projector("right", grid, DetectorWindow(cal.window.hi, grid.r_max))
for name, psi in (("constructive", psi0), ("destructive", psi_pi)):
    outside = probability(psi, left) + probability(psi, right)
    inside = probability(psi, counter)
    print(f"  {name}: inside {inside:.4f} + outside {outside:.4f} = "
          f"{inside + outside:.12f}")

# --- coarse ASCII rendering of the two profiles --------------------------
print("\nprofile sketch (|psi|^2, 61 columns):")
cols = 61
r = grid.points
sel = np.abs(r) <= 4.0
for name, psi in (("phi=0 ", psi0), ("phi=pi", psi_pi)):
    dens = psi.density[sel]
    bins = np.array_split(dens, cols)
    levels = np.array([chunk.max() for chunk in bins])
    peak = levels.max()
    chars = " .:-=+*#%@"
    line = "".join(chars[int(v / peak * (len(chars) - 1))] for v in levels)
    print(f"  {name} |{line}|")
