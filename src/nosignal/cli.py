"""Command-line interface: audit, density, validate, calibrate.

Exit codes separate operational problems from scientific verdicts:

* 0 -- success / verdict pass
* 1 -- usage or configuration error (bad flags or config values,
  unreadable files)
* 2 -- scientific failure (audit verdict fail, non-physical circuit,
  calibration below target)

All randomness flows from ``--seed``; identical invocations produce
byte-identical outputs.  Files are written atomically (temp file, rename)
and floats serialize with shortest round-trip precision, so reports are
lossless at double precision.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import optics, wavepacket

USAGE_ERROR = 1
VERDICT_FAIL = 2

#: cmd_calibrate exits 0 only when the scan reaches this contrast.
CALIBRATION_TARGET = 0.9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message: str):
        raise _UsageError(message)


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise _UsageError("config file must contain a JSON object")
    return data


def _setting(args, config: dict, name: str, default, kind=None):
    """Flag value if given, else config-file value, else the default.

    ``kind`` (``int`` or ``float``) converts any value but ``None``; a config
    value it cannot convert is a usage error, not a traceback.
    """
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    if value is None or kind is None:
        return value
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise _UsageError(f"setting {name!r} must be {kind.__name__}, got {value!r}")


def _sigma(args, config: dict) -> float:
    sigma = _setting(args, config, "sigma", 1.0, float)
    if not (math.isfinite(sigma) and sigma > 0):
        raise _UsageError(f"sigma must be a positive finite number, got {sigma}")
    return sigma


def _parse_phi(text: str) -> float:
    if text == "0":
        return 0.0
    if text == "pi":
        return math.pi
    try:
        phi = float(text)
    except ValueError:
        phi = math.nan
    if not math.isfinite(phi):
        raise _UsageError(f"invalid phase {text!r}: use 0, pi, or finite radians")
    return phi


def _grid_from(args, config, sigma: float) -> wavepacket.Grid:
    defaults = wavepacket.default_grid(sigma)
    r_min = _setting(args, config, "r_min", defaults.r_min, float)
    r_max = _setting(args, config, "r_max", defaults.r_max, float)
    points = _setting(args, config, "points", defaults.n_points, int)
    return wavepacket.Grid(r_min, r_max, points)


def _geometry_from(args, config, grid: wavepacket.Grid, sigma: float):
    """(separation, window) with calibrated defaults filled in."""
    cal = wavepacket.default_calibration(sigma)
    separation = _setting(args, config, "separation", None, float)
    if separation is None:
        ratio = _setting(args, config, "d_over_sigma", None, float)
        separation = cal.separation if ratio is None else ratio * sigma
    halfwidth = _setting(args, config, "halfwidth", None, float)
    if halfwidth is None:
        ratio = _setting(args, config, "window_halfwidth_over_sigma", None, float)
        if ratio is None:
            return separation, cal.window
        halfwidth = ratio * sigma
    return separation, wavepacket.symmetric_window(grid, halfwidth)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_csv(report: audit_mod.AuditReport) -> str:
    sender_labels = sorted(report.rows[0].sender) if report.rows else []
    header = ["phi"] + [f"sender_{label}" for label in sender_labels]
    header += ["receiver_analytic", "receiver_empirical", "trials"]
    lines = [",".join(header)]
    for row in report.rows:
        cells = [repr(row.phi)]
        cells += [repr(row.sender[label]) for label in sender_labels]
        cells += [repr(row.receiver_analytic), repr(row.receiver_empirical), str(row.trials)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_audit(args) -> int:
    config = _load_config_file(args.config)
    variant = _setting(args, config, "variant", None)
    if variant is None:
        raise _UsageError("audit requires --variant")
    sweep = _setting(args, config, "phi_sweep", 64, int)
    trials = _setting(args, config, "trials", 10_000, int)
    seed = _setting(args, config, "seed", 0, int)
    sigma = _setting(args, config, "sigma", 1.0, float)
    fmt = _setting(args, config, "format", "json")
    if fmt not in ("json", "csv"):
        raise _UsageError("audit supports --format json or csv")
    scenario = audit_mod.ScenarioConfig(
        variant=variant,
        phases=audit_mod.default_phase_sweep(sweep),
        trials=trials,
        seed=seed,
        sigma=sigma,
    )
    report = audit_mod.no_signalling_audit(scenario)
    text = _json_text(report.to_json_dict()) if fmt == "json" else _audit_csv(report)
    _write_output(args.out, text)
    return 0 if report.verdict == "pass" else VERDICT_FAIL


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _density_text(grid, columns: list[tuple[str, "object"]], fmt: str) -> str:
    r = grid.points
    if fmt == "json":
        payload = {"r": r.tolist()}
        payload.update({name: np.asarray(col).tolist() for name, col in columns})
        return _json_text(payload)
    header = "r," + ",".join(name for name, _ in columns)
    lines = [header]
    arrays = [np.asarray(col) for _, col in columns]
    for i in range(grid.n_points):
        lines.append(",".join([repr(float(r[i]))] + [repr(float(a[i])) for a in arrays]))
    return "\n".join(lines) + "\n"


def cmd_density(args) -> int:
    config = _load_config_file(args.config)
    fmt = _setting(args, config, "format", "csv")
    if fmt not in ("csv", "json"):
        raise _UsageError("density supports --format csv or json")
    sigma = _sigma(args, config)
    grid = _grid_from(args, config, sigma)
    separation, window = _geometry_from(args, config, grid, sigma)
    pair = wavepacket.orthogonal_pair(grid, separation, sigma)
    phi_arg = _setting(args, config, "phi", None)
    if phi_arg is None:
        psi0 = wavepacket.recombine(pair, 0.0)
        psi_pi = wavepacket.recombine(pair, math.pi)
        columns = [
            ("density_phi0", psi0.density()),
            ("density_phipi", psi_pi.density()),
        ]
        states = {0.0: psi0, math.pi: psi_pi}
    else:
        phi = _parse_phi(str(phi_arg))
        psi = wavepacket.recombine(pair, phi)
        columns = [("density", psi.density())]
        states = {phi: psi}
    _write_output(args.out, _density_text(grid, columns, fmt))
    if args.verify:
        for phi, psi in states.items():
            total = wavepacket.quadrature_norm(psi) ** 2
            if abs(total - 1.0) > wavepacket.NORM_TOL:
                print(f"verify: phi={phi} integral {total!r} != 1", file=sys.stderr)
                return USAGE_ERROR
            p_in = wavepacket.window_probability(psi, window)
            sender = {"in": 0.5 * p_in, "out": 0.5 * (1.0 - p_in)}
            print(json.dumps({"phi": phi, "sender": sender}))
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    path = Path(args.circuit)
    if not path.exists():
        bundled = optics.bundled_circuit_path(args.circuit)
        if bundled.is_file():
            text = bundled.read_text()
        else:
            print(f"error: cannot read circuit file {args.circuit}", file=sys.stderr)
            return USAGE_ERROR
    else:
        try:
            text = path.read_text()
        except OSError as exc:
            print(f"error: cannot read circuit file: {exc}", file=sys.stderr)
            return USAGE_ERROR
    try:
        circuit = optics.circuit_from_json(text)
        report = optics.validate_circuit(circuit)
    except ValueError as exc:  # WiringError and bad settings included
        print(f"error: malformed circuit: {exc}", file=sys.stderr)
        return USAGE_ERROR
    _write_output(args.out, _json_text(report.to_json_dict()))
    return 0 if report.physical else VERDICT_FAIL


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    config = _load_config_file(args.config)
    sigma = _sigma(args, config)
    grid = _grid_from(args, config, sigma)
    try:
        result = wavepacket.calibrate(grid, sigma)
    except wavepacket.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return VERDICT_FAIL
    _write_output(args.out, _json_text(result.to_json_dict()))
    return 0 if result.contrast >= CALIBRATION_TARGET else VERDICT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="nosignal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--config", default=None, help="JSON config file; flags override")

    p_audit = sub.add_parser("audit", help="run the no-signalling audit")
    p_audit.add_argument("--variant", choices=audit_mod.VARIANTS, default=None)
    p_audit.add_argument("--phi-sweep", dest="phi_sweep", type=int, default=None)
    p_audit.add_argument("--trials", type=int, default=None)
    p_audit.add_argument("--sigma", type=float, default=None)
    p_audit.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    p_audit.add_argument("--format", default=None, help="output format: json or csv")
    common(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_density = sub.add_parser("density", help="export interference density profiles")
    p_density.add_argument("--phi", default=None, help="0, pi, or radians (default: both)")
    p_density.add_argument("--sigma", type=float, default=None)
    p_density.add_argument("--r-min", dest="r_min", type=float, default=None)
    p_density.add_argument("--r-max", dest="r_max", type=float, default=None)
    p_density.add_argument("--points", type=int, default=None)
    p_density.add_argument("--separation", type=float, default=None)
    p_density.add_argument("--halfwidth", type=float, default=None)
    p_density.add_argument("--format", default=None, help="output format: csv or json")
    p_density.add_argument(
        "--verify", action="store_true", help="check normalization, echo window probabilities"
    )
    common(p_density)
    p_density.set_defaults(func=cmd_density)

    p_validate = sub.add_parser("validate", help="isometry-validate a circuit file")
    p_validate.add_argument("--circuit", required=True, help="path or bundled name")
    p_validate.add_argument("--out", default=None, help="output path (default: stdout)")
    p_validate.set_defaults(func=cmd_validate)

    p_cal = sub.add_parser("calibrate", help="scan detector geometry for contrast")
    p_cal.add_argument("--sigma", type=float, default=None)
    p_cal.add_argument("--r-min", dest="r_min", type=float, default=None)
    p_cal.add_argument("--r-max", dest="r_max", type=float, default=None)
    p_cal.add_argument("--points", type=int, default=None)
    common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        # every library ValueError here comes from a flag or config value:
        # a seed out of range, a geometry that does not fit the grid, ...
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
