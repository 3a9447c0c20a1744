"""Projective collapse in action: counters, reduction, seeded sampling.

A detector that covers part of the axis either fires or does not; both
answers collapse the state, onto the window or onto its complement.  With
three adjacent counters tiling the axis, exactly one fires per shot.
Sampling is seeded and counter-based, so every shot is reproducible.

Run:  python demos/collapse_and_counters.py
"""

import math

from nosignal import (
    default_calibration,
    default_grid,
    orthogonal_pair,
    pair_partition,
    probability,
    recombine,
    reduce,
    sample_outcomes,
    three_counter_partition,
    window_projector,
)

grid = default_grid()
cal = default_calibration()
pair = orthogonal_pair(grid, cal.separation)

# --- Born probabilities for the counter window ----------------------------
counter = window_projector("in", grid, cal.window)
for phi, name in ((0.0, "constructive"), (math.pi, "destructive")):
    psi = recombine(pair, phi)
    print(f"{name}: P(counter fires) = {probability(psi, counter):.4f}")

# --- collapse onto "fired" and onto "did not fire" ------------------------
psi = recombine(pair, math.pi)
parts = pair_partition(cal.window, grid)
fired = reduce(psi, parts.projectors[0])
missed = reduce(psi, parts.projectors[1])
print("\nafter collapse:")
print(f"  conditioned on a click: P(in window) = "
      f"{probability(fired, parts.projectors[0]):.12f}")
print(f"  conditioned on no click: P(in window) = "
      f"{probability(missed, parts.projectors[0]):.2e}")
print(f"  both renormalized: norms ~ 1 "
      f"({probability(fired, counter):.6f} inside its window)")

# --- three adjacent counters tile the axis --------------------------------
trio = three_counter_partition(cal.window, grid)
for phi in (0.0, math.pi):
    probs = trio.probabilities(recombine(pair, phi))
    row = ", ".join(f"{lbl} {p:.4f}" for lbl, p in zip(trio.labels, probs))
    print(f"\nphi = {phi:.2f}: {row} (sum {probs.sum():.9f})")


# --- seeded shots: reproducible single measurements -----------------------
def shot(seed):
    """The outcome of one seeded trial: the label whose count is 1."""
    counts = sample_outcomes(recombine(pair, math.pi), trio, seed=seed, n_trials=1)
    return max(counts, key=counts.get)


print("\nten seeded shots on the destructive profile (three counters):")
shots = [shot(seed) for seed in range(10)]
print("  outcomes:", " ".join(shots))
shots_again = [shot(seed) for seed in range(10)]
print("  replayed:", " ".join(shots_again))

# --- batched sampling agrees with per-shot sampling -----------------------
counts = sample_outcomes(recombine(pair, math.pi), trio, seed=42, n_trials=100_000)
print("\n100k trials, seed 42:",
      {"phi": math.pi, "counts": counts, "trials": 100_000, "seed": 42})
probs = trio.probabilities(recombine(pair, math.pi))
for label, expected in zip(trio.labels, probs):
    freq = counts[label] / 100_000
    print(f"  {label}: frequency {freq:.4f} vs Born {expected:.4f}")
