"""Shiekh's window detector is the Mach-Zehnder port measurement passed through a fixed matrix.

``recombine(pair, phi) = a e + b o``, with ``e``, ``o`` the normalized even
and odd packets (real), ``a = (1 + e^{i phi})/2`` and ``b = (1 - e^{i phi})/2``.
The cross term ``2 Re(a conj(b)) e o`` vanishes, because ``a conj(b) =
(i sin phi)/2`` is imaginary.  So every cell's density is ``p_H rho_0 +
p_V rho_pi``, with ``(p_H, p_V) = (cos^2(phi/2), sin^2(phi/2))`` the ports'
probabilities, and every window's probability is ``p_H E + p_V O`` with
``E``, ``O`` its probabilities at phi = 0 and pi.
"""

import math

import numpy as np
import pytest

from test_acceptance import _closed_form_p_in

from nosignal.audit import VARIANT_DENSITY, ScenarioConfig, default_phase_sweep, no_signalling_audit
from nosignal.modes import Grid
from nosignal.optics import mz_output
from nosignal.wavepacket import default_calibration, default_grid, orthogonal_pair, recombine


def test_every_density_audit_row_is_the_closed_form():
    config = ScenarioConfig(VARIANT_DENSITY, default_phase_sweep(64), trials=1, seed=0)
    rows = no_signalling_audit(config).rows
    cal = default_calibration()
    # the grid matches the erf closed form to its discretization, 1e-6
    even, odd = _closed_form_p_in(cal.separation, cal.window.halfwidth)
    assert len(rows) == 64
    for row in rows:
        p_in = 0.5 * (math.cos(row.phi / 2) ** 2 * even + math.sin(row.phi / 2) ** 2 * odd)
        assert abs(row.sender["in"] - p_in) <= 1e-6, row.phi
        assert abs(row.sender["out"] - (0.5 - p_in)) <= 1e-6, row.phi


@pytest.mark.parametrize(
    "grid", [default_grid(), Grid(-10.0, 14.0, 4097)], ids=["default", "off-centre"]
)
def test_each_cell_is_the_port_mixture_of_the_two_profiles(grid):
    pair = orthogonal_pair(grid, default_calibration().separation)
    rho_0, rho_pi = recombine(pair, 0.0).density, recombine(pair, math.pi).density
    # 6 ULP of the peak density on both grids on an AVX-512 host; a cross term
    # left in would be of the order of the density itself
    bound = 16 * np.spacing(max(rho_0.max(), rho_pi.max()))
    for phi in default_phase_sweep(64):
        p_h, p_v = np.abs(mz_output(phi).amplitudes) ** 2
        mixture = p_h * rho_0 + p_v * rho_pi
        assert np.max(np.abs(recombine(pair, phi).density - mixture)) <= bound, phi
