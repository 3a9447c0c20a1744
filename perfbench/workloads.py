"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

An operation is split in two.  ``run`` is the timed part: it calls the
program's public entry points (``nosignal.cli.main`` and library
functions) and returns what they produced.  ``check`` is untimed: it reads
the outputs back, raises :class:`CheckFailed` on anything wrong, and
returns a digest of the outputs so that repeated inputs can be compared
byte for byte.

Library functions are always looked up as module attributes at call time
(``audit.evolve_sender``, never a name imported once), so that a tracer
that rebinds them sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from nosignal import audit, cli, measurement

#: Distinct per-op inputs generated from one workload seed; ops cycle
#: through them, so every input recurs within a run.
INPUTS_PER_RUN = 8

PHI_SWEEP = 64
MZ_TRIALS = 100_000
DENSITY_TRIALS = 1

#: Exactness tolerance for the no-signalling identities and the calibration.
EXACT_TOL = 1e-12

#: Seeded separations, in units of sigma, for the ``density`` exports.
SEPARATION_RANGE = (0.5, 6.0)

VALIDATE_EXPECTED = {
    # circuit: (exit code, deviation or None, reason or None)
    "shiekh": (0, None, None),
    "canceller": (2, 0.5, None),
    "attenuator-0.9": (2, None, "partial attenuation"),
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class OpInput:
    """Everything one operation needs, generated from the workload seed."""

    audit_seed: int
    separation: float
    phi_separation: float
    phi: float


@dataclass(frozen=True)
class OpResult:
    digest: str
    bytes_written: int
    rows: int
    trials: int


def op_inputs(seed: int) -> list[OpInput]:
    """The run's per-op inputs; the same seed always gives the same list."""
    rng = random.Random(seed)
    return [
        OpInput(
            audit_seed=rng.randrange(2**31),
            separation=rng.uniform(*SEPARATION_RANGE),
            phi_separation=rng.uniform(*SEPARATION_RANGE),
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        for _ in range(INPUTS_PER_RUN)
    ]


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """``nosignal.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _audit_argv(variant: str, trials: int, seed: int, path: str) -> list[str]:
    return [
        "audit", "--variant", variant, "--phi-sweep", str(PHI_SWEEP),
        "--trials", str(trials), "--seed", str(seed), "--out", path,
    ]


def _check_audit(code: int, err: str, path: str, trials: int) -> tuple[bytes, dict]:
    _require(code == 0, f"audit exited {code}: {err.strip()}")
    with open(path, "rb") as handle:
        data = handle.read()
    report = json.loads(data)
    _require(report["verdict"] == "pass", "audit verdict is not pass")
    _require(report["max_deviation"] <= EXACT_TOL, "max_deviation above 1e-12")
    band = 3.0 * math.sqrt(0.25 / trials)
    for row in report["rows"]:
        _require(row["trials"] == trials, f"row at phi={row['phi']} ran {row['trials']} trials")
        total = sum(row["sender"].values())
        _require(abs(total - 0.5) <= EXACT_TOL, f"sender sum {total!r} at phi={row['phi']}")
        _require(
            abs(row["receiver_empirical"] - 0.5) <= band,
            f"receiver_empirical {row['receiver_empirical']!r} outside the binomial band",
        )
    return data, report


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# audit-mz-sampling
# ---------------------------------------------------------------------------

def mz_run(inp: OpInput, out_dir: str) -> tuple:
    path = os.path.join(out_dir, "mz-audit.json")
    argv = _audit_argv(audit.VARIANT_MACH_ZEHNDER, MZ_TRIALS, inp.audit_seed, path)
    return _cli(argv) + (path,)


def mz_check(inp: OpInput, outputs: tuple) -> OpResult:
    code, _, err, path = outputs
    data, report = _check_audit(code, err, path, MZ_TRIALS)
    rows = len(report["rows"])
    return OpResult(_digest(data), len(data), rows, rows * MZ_TRIALS)


# ---------------------------------------------------------------------------
# audit-density-exact
# ---------------------------------------------------------------------------

def density_exact_run(inp: OpInput, out_dir: str) -> tuple:
    path = os.path.join(out_dir, "density-audit.json")
    argv = _audit_argv(audit.VARIANT_DENSITY, DENSITY_TRIALS, inp.audit_seed, path)
    code, _, err = _cli(argv)
    config = audit.ScenarioConfig(
        variant=audit.VARIANT_DENSITY,
        phases=audit.default_phase_sweep(PHI_SWEEP),
        trials=DENSITY_TRIALS,
        seed=inp.audit_seed,
    )
    partitions = (
        measurement.pair_partition(config.window, config.grid),
        measurement.three_counter_partition(config.window, config.grid),
    )
    collapse = []
    for phi in config.phases:
        state = audit.evolve_sender(audit.build_initial(config), phi, config)
        receiver = [
            audit.receiver_probability_after_sender_measurement(state, partition)
            for partition in partitions
        ]
        records = measurement.outcome_records(state.sender_state, partitions[1])
        collapse.append((phi, receiver, [(r.label, r.probability) for r in records]))
    return code, err, path, collapse


def density_exact_check(inp: OpInput, outputs: tuple) -> OpResult:
    code, err, path, collapse = outputs
    data, report = _check_audit(code, err, path, DENSITY_TRIALS)
    rows = len(report["rows"])
    _require(len(collapse) == rows, "collapse sweep and audit disagree on the phases")
    for phi, receiver, records in collapse:
        for p in receiver:
            _require(abs(p - 0.5) <= EXACT_TOL, f"receiver probability {p!r} after collapse at phi={phi}")
        total = sum(p for _, p in records)
        _require(abs(total - 1.0) <= EXACT_TOL, f"three-counter outcomes sum to {total!r} at phi={phi}")
    collapse_bytes = repr(collapse).encode()
    return OpResult(_digest(data, collapse_bytes), len(data), rows, rows * DENSITY_TRIALS)


# ---------------------------------------------------------------------------
# profiles-calibrate
# ---------------------------------------------------------------------------

def _frozen_defaults() -> dict:
    path = resources.files("nosignal") / "calibration" / "defaults.json"
    return json.loads(path.read_text())


def profiles_run(inp: OpInput, out_dir: str) -> dict:
    """``name -> ((exit code, stdout, stderr), output path)`` for each command."""
    commands = {
        "density": ["density", "--verify", "--separation", repr(inp.separation)],
        "phi": ["density", "--phi", repr(inp.phi), "--separation", repr(inp.phi_separation),
                "--format", "json"],
        "calibrate": ["calibrate"],
        **{name: ["validate", "--circuit", name] for name in VALIDATE_EXPECTED},
    }
    outputs = {}
    for name, argv in commands.items():
        path = os.path.join(out_dir, f"{name}.out")
        outputs[name] = (_cli(argv + ["--out", path]), path)
    return outputs


def profiles_check(inp: OpInput, outputs: dict) -> OpResult:
    expected_exit = {"density": 0, "phi": 0, "calibrate": 2}  # calibrate misses 0.9 by design
    expected_exit.update({name: spec[0] for name, spec in VALIDATE_EXPECTED.items()})
    files = {}
    for name, ((code, _, err), path) in outputs.items():
        expected = expected_exit[name]
        _require(code == expected, f"{name} exited {code}, expected {expected}: {err.strip()}")
        with open(path, "rb") as handle:
            files[name] = handle.read()
    defaults = _frozen_defaults()

    lines = files["density"].decode().splitlines()
    _require(lines[0] == "r,density_phi0,density_phipi", "unexpected density CSV header")
    _require(len(lines) - 1 == defaults["n_points"], f"density CSV has {len(lines) - 1} rows")
    verify_lines = outputs["density"][0][1].splitlines()
    _require(len(verify_lines) == 2, "density --verify did not report both phases")
    for line in verify_lines:
        sender = json.loads(line)["sender"]
        _require(all(math.isfinite(p) for p in sender.values()), f"non-finite sender {sender}")

    profile = json.loads(files["phi"])
    _require(set(profile) == {"r", "density"}, "unexpected density JSON keys")
    _require(len(profile["density"]) == defaults["n_points"], "density JSON has the wrong length")
    _require(all(math.isfinite(x) for x in profile["density"]), "non-finite density")

    calibration = json.loads(files["calibrate"])
    for key in ("contrast", "d_over_sigma"):
        _require(abs(calibration[key] - defaults[key]) <= EXACT_TOL,
                 f"calibrate {key} {calibration[key]!r} != defaults {defaults[key]!r}")

    for name, (_, deviation, reason) in VALIDATE_EXPECTED.items():
        report = json.loads(files[name])
        if deviation is None and reason is None:
            _require(report["physical"] and not report["failures"], f"{name} is not physical")
            continue
        failure = report["failures"][0]
        if deviation is not None:
            _require(abs(failure["deviation"] - deviation) <= EXACT_TOL,
                     f"{name} deviation {failure['deviation']!r}")
        if reason is not None:
            _require(failure["reason"] == reason, f"{name} reason {failure['reason']!r}")

    verify_bytes = outputs["density"][0][1].encode()
    digest = _digest(*(files[name] for name in sorted(files)), verify_bytes)
    return OpResult(digest, sum(len(data) for data in files.values()), 0, 0)


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[OpInput, str], object]
    check: Callable[[OpInput, object], OpResult]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("audit-mz-sampling", mz_run, mz_check),
        Workload("audit-density-exact", density_exact_run, density_exact_check),
        Workload("profiles-calibrate", profiles_run, profiles_check),
    )
}
