"""Why no device can fold the two packets onto each other perfectly.

A lossless optical element must be an isometry: it can reroute amplitude
but never create or destroy it.  A gadget that superimposed the two
interferometer routes onto a single mode would let a phase shifter cancel
them outright, mapping a normalized state to the zero vector.  This demo
builds that gadget, shows the validator rejecting it (and a milder 10%
attenuator), then opts in and runs it anyway to exhibit the absurdity.

Run:  python demos/impossible_recombiner.py
"""

import json
import math

from nosignal import (
    Circuit,
    NonPhysicalCircuitError,
    apply,
    hypothetical_canceller,
    interferometer_output,
    is_isometry,
    load_bundled_circuit,
    make_state,
    splitter_circuit,
    validate_circuit,
)

# --- every real element passes; the canceller never does ------------------
print("isometry deviations (max-entry |M^dag M - I|):")
for name, circuit in (
    ("split-and-deflect device", splitter_circuit(math.pi)),
    ("bundled 'shiekh' file", load_bundled_circuit("shiekh")),
):
    rep = validate_circuit(circuit)
    print(f"  {name}: physical = {rep['physical']}")

for phi in (0.0, math.pi / 3, math.pi):
    element = hypothetical_canceller(("u", "l"), "merged", phi)
    ok, dev = is_isometry(element.matrix)
    print(f"  canceller(phi={phi:.3f}): isometry = {ok}, deviation = {dev:.3f}")

canceller = load_bundled_circuit("canceller")  # splitter, pi shifter, canceller
print("\nvalidator report for the canceller circuit:")
print(json.dumps(validate_circuit(canceller), indent=2))

print("\nvalidator report for the bundled 10% attenuator:")
print(json.dumps(validate_circuit(load_bundled_circuit("attenuator-0.9")), indent=2))

# --- applying it without opting in is refused -----------------------------
photon = make_state([("in", 1.0)])
try:
    apply(canceller, photon)
except NonPhysicalCircuitError as exc:
    print(f"\nrefused as expected: {exc}")

# --- opted in: a normalized state vanishes --------------------------------
vanished = apply(canceller, photon, allow_nonphysical=True)
print(f"\nopted-in canceller on the full device: output norm = {vanished.norm:.2e}")

merge_only = Circuit(
    (hypothetical_canceller(("u", "l"), "merged", 0.0),), input_modes=("u", "l")
)
out = apply(merge_only, interferometer_output(math.pi), allow_nonphysical=True)
print(f"canceller alone on the phi=pi superposition: output norm = {out.norm:.2e}")
print("a unit of probability just disappeared, which is the reductio: "
      "the device cannot exist")
