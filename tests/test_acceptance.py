"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 6 checks the local swing the phase shifter gives the sender's
detector, against a closed form written here with ``math.erf`` rather than
against values read back from the library.  For displaced-Gaussian packets
the constructive profile is the normalized sum and the destructive profile
the normalized difference of the same two Gaussians.  Their density ratio
is ``rho_0/rho_pi ~ coth^2(r d / 4 sigma^2)``, which falls as ``|r|`` grows,
so by Neyman-Pearson no detector region of any shape separates them better
than a centered window.  The best ``min(P_in(0), 1 - P_in(pi))`` is 0.7292
on the calibration scan grid, 0.7357 over the continuous scan box (at
``d = 0.5 sigma``), and its supremum is 0.73848, reached only as
``d -> 0``.  A discrimination such as 0.9/0.1 is out of reach for every
separation and every detector region, so criterion 6 holds the calibrated
window to that optimum instead.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import nosignal as ns
from nosignal.audit import (
    ScenarioConfig,
    binomial_band,
    build_initial,
    default_phase_sweep,
    evolve_sender,
    no_signalling_audit,
    receiver_probability,
    receiver_probability_after_sender_measurement,
    sender_projectors,
)
from nosignal.measurement import (
    ProjectorSet,
    probability,
    three_counter_partition,
    window_projector,
)
from nosignal.modes import Grid, combine, inner
from nosignal.optics import (
    beam_splitter,
    deflector,
    hypothetical_canceller,
    interferometer_output,
    is_isometry,
    load_bundled_circuit,
    mirror,
    mz_output,
    phase_shifter,
    validate_circuit,
)
from nosignal.wavepacket import (
    CALIBRATION_HALFWIDTHS,
    CALIBRATION_SEPARATIONS,
    DetectorWindow,
    default_calibration,
    default_grid,
    gaussian,
    orthogonal_pair,
    recombine,
    symmetric_window,
)

SWEEP_64 = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
VARIANTS = ("shiekh-density", "mach-zehnder")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_no_signalling_identity():
    phases = tuple(sorted(set(SWEEP_64.tolist()) | {0.0, math.pi}))
    start = time.perf_counter()
    worst = 0.0
    for variant in VARIANTS:
        config = ScenarioConfig(variant=variant, phases=phases, trials=1, seed=0)
        for phi in phases:
            evolved = evolve_sender(build_initial(config), phi, config)
            worst = max(worst, abs(receiver_probability(evolved) - 0.5))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"analytic receiver deviation {worst:.3e} over both variants, "
                  f"{len(phases)}-phase sweep in {elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_measurement_invariance():
    grid = default_grid()
    cal = default_calibration()
    worst = 0.0
    for variant in VARIANTS:
        config = ScenarioConfig(variant=variant, phases=(0.0, math.pi), trials=1, seed=0)
        for phi in (0.0, math.pi):
            evolved = evolve_sender(build_initial(config), phi, config)
            partitions = [sender_projectors(config)]
            if variant == "shiekh-density":
                partitions.append(three_counter_partition(cal.window, grid))
                rng = np.random.default_rng(2)
                for _ in range(20):
                    n_cuts = int(rng.integers(1, 5))
                    cuts = np.sort(rng.choice(
                        np.arange(1, grid.n_points), size=n_cuts, replace=False))
                    edges = [0, *cuts.tolist(), grid.n_points]
                    partitions.append(ProjectorSet(tuple(
                        window_projector(
                            f"w{i}",
                            grid,
                            DetectorWindow(grid.edge_value(a), grid.edge_value(b)),
                        )
                        for i, (a, b) in enumerate(zip(edges, edges[1:]))
                    )))
            for pset in partitions:
                after = receiver_probability_after_sender_measurement(evolved, pset)
                worst = max(worst, abs(after - 0.5))
    ok = worst <= 1e-8
    report(2, ok, f"receiver probability after sender measurement: "
                  f"max |p - 1/2| = {worst:.3e} over pair/triple/random partitions")
    assert worst <= 1e-8


def test_criterion_3_mach_zehnder_contrast():
    worst_sweep = 0.0
    for phi in SWEEP_64:
        out = mz_output(phi)
        h = 0.5 * abs(out.amplitude("H")) ** 2
        v = 0.5 * abs(out.amplitude("V")) ** 2
        worst_sweep = max(
            worst_sweep,
            abs(h - math.cos(phi / 2) ** 2 / 2),
            abs(v - math.sin(phi / 2) ** 2 / 2),
        )
    bright = mz_output(0.0)
    dark = mz_output(math.pi)
    exact = max(
        abs(0.5 * abs(bright.amplitude("H")) ** 2 - 0.5),
        0.5 * abs(bright.amplitude("V")) ** 2,
        0.5 * abs(dark.amplitude("H")) ** 2,
        abs(0.5 * abs(dark.amplitude("V")) ** 2 - 0.5),
    )
    ok = worst_sweep <= 1e-10 and exact <= 1e-12
    report(3, ok, f"sender H/V vs cos^2,sin^2(phi/2)/2: sweep dev {worst_sweep:.3e}, "
                  f"endpoint dev {exact:.3e}")
    assert worst_sweep <= 1e-10
    assert exact <= 1e-12


def test_criterion_4_unitarity():
    physical_elements = [
        beam_splitter(("a", "b"), ("c", "d")),
        mirror("a"),
        deflector("a"),
        phase_shifter("a", 0.0),
        phase_shifter("a", math.pi),
    ]
    elements_ok = all(is_isometry(e.matrix)[0] for e in physical_elements)
    bundled = load_bundled_circuit("shiekh")
    bundled_ok = validate_circuit(bundled)["physical"]

    canceller_devs = [
        is_isometry(hypothetical_canceller(("a", "b"), "o", phi).matrix)[1]
        for phi in SWEEP_64
    ]
    canceller_ok = all(abs(d - 0.5) <= 1e-12 for d in canceller_devs)

    # opted-in canceller applied to the destructive superposition
    merge = ns.Circuit(
        (hypothetical_canceller(("u", "l"), "merged", 0.0),), input_modes=("u", "l")
    )
    vanished = ns.apply(merge, interferometer_output(math.pi), allow_nonphysical=True)
    vanish_norm = vanished.norm

    ok = elements_ok and bundled_ok and canceller_ok and vanish_norm <= 1e-12
    report(4, ok, f"physical elements pass at 1e-12; canceller deviation 1/2 at 64 "
                  f"phases; opted-in canceller output norm {vanish_norm:.2e}")
    assert elements_ok and bundled_ok and canceller_ok
    assert vanish_norm <= 1e-12


def test_criterion_5_wavepacket_norm_preservation():
    grid = default_grid()
    cal = default_calibration()
    pair = orthogonal_pair(grid, cal.separation)
    worst_norm = max(
        abs(recombine(pair, phi).norm - 1.0) for phi in SWEEP_64
    )

    completeness = 0.0
    for phi in (0.0, math.pi):
        psi = recombine(pair, phi)
        left = DetectorWindow(grid.r_min, cal.window.lo)
        right = DetectorWindow(cal.window.hi, grid.r_max)
        p_in = probability(psi, window_projector("in", grid, cal.window))
        p_out = probability(psi, window_projector("out", grid, left, right))
        completeness = max(completeness, abs(p_in + p_out - 1.0))

    g_up = gaussian(grid, +cal.separation / 2)
    g_lo = gaussian(grid, -cal.separation / 2)
    s = inner(g_up, g_lo).real
    raw_dev = 0.0
    for phi in SWEEP_64:
        raw = combine(g_up, g_lo, 1 / math.sqrt(2), np.exp(1j * phi) / math.sqrt(2))
        raw_dev = max(
            raw_dev, abs(raw.norm - math.sqrt(1 + s * math.cos(phi)))
        )

    ok = worst_norm <= 1e-8 and completeness <= 1e-8 and raw_dev <= 1e-6
    report(5, ok, f"recombined norm dev {worst_norm:.2e}; P_in+P_out dev "
                  f"{completeness:.2e}; raw-overlap norm vs sqrt(1+s cos phi) dev {raw_dev:.2e}")
    assert worst_norm <= 1e-8
    assert completeness <= 1e-8
    assert raw_dev <= 1e-6


def _closed_form_p_in(d: float, a: float, sigma: float = 1.0) -> tuple[float, float]:
    """Exact ``(P_in(0), P_in(pi))`` of a centered window ``[-a, a]``.

    With ``s = exp(-d^2/8 sigma^2)`` the raw overlap, ``F_u`` the mass of
    one displaced packet in the window and ``F_0`` that of a centered one:
    ``P_in(0) = (F_u + s F_0)/(1 + s)``, ``P_in(pi) = (F_u - s F_0)/(1 - s)``.
    """
    s = math.exp(-(d**2) / (8 * sigma**2))
    scale = sigma * math.sqrt(2)
    f_u = 0.5 * (math.erf((a - d / 2) / scale) + math.erf((a + d / 2) / scale))
    f_0 = math.erf(a / scale)
    return (f_u + s * f_0) / (1 + s), (f_u - s * f_0) / (1 - s)


def _zero_separation_supremum() -> float:
    """Supremum of ``min(P_in(0), 1 - P_in(pi))`` over all separations.

    As ``d -> 0`` the profiles become the ground-state and first-Hermite
    densities: ``P_0(x) = erf(x/sqrt 2)`` and ``P_pi(x) = P_0(x) - 2 x phi(x)``
    at ``x = a/sigma``.  The minimum peaks where the two terms cross.
    """
    def terms(x: float) -> tuple[float, float]:
        p_0 = math.erf(x / math.sqrt(2))
        p_pi = p_0 - 2 * x * math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        return p_0, 1 - p_pi

    lo, hi = 0.5, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        p_0, q_pi = terms(mid)
        lo, hi = (mid, hi) if p_0 < q_pi else (lo, mid)
    return min(terms(lo))


def test_criterion_6_window_discrimination():
    grid = default_grid()
    cal = default_calibration()
    pair = orthogonal_pair(grid, cal.separation)
    window = window_projector("in", grid, cal.window)
    p_in_0 = probability(recombine(pair, 0.0), window)
    p_in_pi = probability(recombine(pair, math.pi), window)
    contrast = min(p_in_0, 1.0 - p_in_pi)
    node = float(np.abs(recombine(pair, math.pi).amplitudes[grid.n_points // 2]) ** 2)

    exact_0, exact_pi = _closed_form_p_in(cal.separation, cal.window.halfwidth)
    resolution = max(abs(p_in_0 - exact_0), abs(p_in_pi - exact_pi))
    frozen = max(
        abs(cal.p_in_constructive - p_in_0),
        abs(cal.p_in_destructive - p_in_pi),
        abs(cal.contrast - contrast),
    )
    scan_best = 0.0
    for d in CALIBRATION_SEPARATIONS:
        for halfwidth in CALIBRATION_HALFWIDTHS:
            window = symmetric_window(grid, float(halfwidth))
            q_0, q_pi = _closed_form_p_in(float(d), window.halfwidth)
            scan_best = max(scan_best, min(q_0, 1.0 - q_pi))
    supremum = _zero_separation_supremum()

    ok = (node <= 1e-12 and resolution <= 1e-6 and frozen <= 1e-12
          and scan_best - 1e-6 <= contrast <= supremum)
    report(6, ok, f"P_in(0)={p_in_0:.6f}, P_in(pi)={p_in_pi:.6f} vs closed form "
                  f"(dev {resolution:.1e}, frozen dev {frozen:.1e}); contrast "
                  f"{contrast:.7f} vs scan-grid optimum {scan_best:.7f} and "
                  f"d->0 supremum {supremum:.5f}; central node density "
                  f"{node:.2e} (<=1e-12)")
    assert node <= 1e-12
    assert resolution <= 1e-6, (
        f"grid P_in ({p_in_0}, {p_in_pi}) vs closed form ({exact_0}, {exact_pi})"
    )
    assert frozen <= 1e-12, "defaults.json disagrees with the recomputed geometry"
    assert contrast >= scan_best - 1e-6, (
        f"calibrated contrast {contrast} below the scan-grid optimum {scan_best}"
    )
    assert contrast <= supremum, (
        f"contrast {contrast} beats the Gaussian-packet supremum {supremum}"
    )


def test_criterion_7_monte_carlo_consistency():
    start = time.perf_counter()
    band = binomial_band(100_000)
    worst = 0.0
    retried = False
    for variant in VARIANTS:
        for seed in (0,):
            config = ScenarioConfig(
                variant=variant, phases=(0.0, math.pi), trials=100_000, seed=seed
            )
            rep = no_signalling_audit(config)
            bad = [r for r in rep.rows if abs(r.receiver_empirical - 0.5) > band]
            if bad:  # one reseeded retry allowed
                retried = True
                config = ScenarioConfig(
                    variant=variant, phases=(0.0, math.pi), trials=100_000, seed=seed + 1
                )
                rep = no_signalling_audit(config)
                bad = [r for r in rep.rows if abs(r.receiver_empirical - 0.5) > band]
            assert not bad, f"{variant}: empirical frequencies outside 3-sigma twice"
            worst = max(worst, *(abs(r.receiver_empirical - 0.5) for r in rep.rows))
    elapsed = time.perf_counter() - start
    ok = worst <= band and elapsed < 10.0
    report(7, ok, f"2x10^5 trials per variant: max |freq - 1/2| = {worst:.4f} "
                  f"(band {band:.4f}), retried={retried}, {elapsed:.2f}s")
    assert worst <= band
    assert elapsed < 10.0


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    return subprocess.run(
        [sys.executable, "-m", "nosignal", *args],
        capture_output=True, text=True, env=env,
    )


def test_criterion_8_cli_determinism(tmp_path):
    audit_args = ("audit", "--variant", "shiekh-density", "--phi-sweep", "8",
                  "--trials", "20000", "--seed", "13")
    paths = [tmp_path / name for name in ("a1.json", "a2.json")]
    for path in paths:
        result = _run_cli(*audit_args, "--out", str(path))
        assert result.returncode == 0, result.stderr
    audits_equal = paths[0].read_bytes() == paths[1].read_bytes()

    density_paths = [tmp_path / name for name in ("d1.csv", "d2.csv")]
    for path in density_paths:
        assert _run_cli("density", "--out", str(path)).returncode == 0
    densities_equal = density_paths[0].read_bytes() == density_paths[1].read_bytes()

    ok = audits_equal and densities_equal
    report(8, ok, "repeated seeded CLI runs produce byte-identical audit JSON "
                  "and density CSV")
    assert audits_equal and densities_equal


def test_criterion_9_grid_convergence():
    grid = default_grid()
    cal = default_calibration()
    fine = Grid(grid.r_min, grid.r_max, 2 * grid.n_points)
    worst = 0.0
    for phi in (0.0, math.pi):
        coarse_p = probability(
            recombine(orthogonal_pair(grid, cal.separation), phi),
            window_projector("in", grid, cal.window),
        )
        fine_p = probability(
            recombine(orthogonal_pair(fine, cal.separation), phi),
            window_projector("in", fine, cal.window),
        )
        worst = max(worst, abs(coarse_p - fine_p))
    ok = worst <= 1e-6
    report(9, ok, f"doubling {grid.n_points} -> {fine.n_points} cells moves the "
                  f"calibrated window probabilities by {worst:.2e}")
    assert worst <= 1e-6
