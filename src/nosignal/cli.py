"""Command-line interface: audit, density, validate, calibrate.

Exit codes separate operational problems from scientific verdicts:

* 0 -- success / verdict pass
* 1 -- usage or configuration error (bad flags or config values,
  unreadable files)
* 2 -- scientific failure (audit verdict fail, non-physical circuit,
  calibration below target)

All randomness flows from ``--seed``; identical invocations produce
byte-identical outputs.  ``--out`` follows links; a regular file is written
atomically (temp file, rename), anything else, such as a FIFO, is written
into.  Floats serialize with shortest round-trip precision, so reports are
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
    if not path:  # realpath would turn it into the working directory
        raise _UsageError("--out must name a file, or - for stdout; got ''")
    target = Path(os.path.realpath(path))
    if target.exists() and not target.is_file():
        # a FIFO, a device, ...: write into it, never rename over it
        with open(target, "w") as handle:
            handle.write(text)
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    except OSError as exc:  # its message names the random temp file, not the report
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp makes the file 0600; give it the mode open(path, "w") gives
        # a new file.  The umask can only be read by setting it.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


#: Marks a setting that only a config file gives: it has no flag.
_CONFIG_ONLY = "config only"

#: Every setting, once: ``(name, commands, kind, default, help)``, in the
#: order each command's ``--help`` lists its flags.  ``kind`` is ``int``,
#: ``float``, a tuple of the values allowed, or None (passed through).  The
#: config-only rows are a calibration record's keys, so a record read as a
#: config file sets the geometry; ``calibrate`` takes and ignores them.
_SETTINGS = (
    ("variant", ("audit",), None, None, None),
    ("phi_sweep", ("audit",), int, 64, None),
    ("trials", ("audit",), int, 10_000, None),
    ("phi", ("density",), None, None, "0, pi, or radians (default: both)"),
    ("r_min", ("density", "calibrate"), float, None, None),
    ("r_max", ("density", "calibrate"), float, None, None),
    ("points", ("density", "calibrate"), int, None, None),
    ("separation", ("density",), float, None, None),
    ("halfwidth", ("density",), float, None, None),
    ("seed", ("audit",), int, 0, "random seed (default 0)"),
    ("format", ("audit",), ("json", "csv"), "json", "output format: json or csv"),
    ("format", ("density",), ("csv", "json"), "csv", "output format: csv or json"),
    ("n_points", ("density", "calibrate"), int, None, _CONFIG_ONLY),
    ("d_over_sigma", ("density", "calibrate"), float, None, _CONFIG_ONLY),
    ("window_halfwidth_over_sigma", ("density", "calibrate"), float, None, _CONFIG_ONLY),
    ("contrast", ("density", "calibrate"), float, None, _CONFIG_ONLY),
    ("p_in_constructive", ("density", "calibrate"), float, None, _CONFIG_ONLY),
    ("p_in_destructive", ("density", "calibrate"), float, None, _CONFIG_ONLY),
)

#: A flag's setting and the calibration record's key for the same number.
_RECORD_KEYS = (
    ("points", "n_points"),
    ("separation", "d_over_sigma"),
    ("halfwidth", "window_halfwidth_over_sigma"),
)


def _settings(args, command: str) -> dict:
    """Each setting of ``command``: its flag if given, else its config value, else its default.

    A config key that ``command`` does not take is a usage error, raised before
    any work, and so is one number under both its names.  A given value, a
    config ``null`` too, goes through ``_convert``.  An unset flag's setting
    takes its ``_RECORD_KEYS`` value.
    """
    rows = {row[0]: row[2:4] for row in _SETTINGS if command in row[1]}
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise _UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(config, dict):
            raise _UsageError("config file must contain a JSON object")
    for key in config:
        if key not in rows:
            import difflib

            close = difflib.get_close_matches(key, rows, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise _UsageError(f"{command} has no setting {key!r}{hint}")
    for name, key in _RECORD_KEYS:
        if name in config and key in config:
            raise _UsageError(f"config file sets both {name!r} and {key!r}; give one")
    values = {}
    for name, (kind, default) in rows.items():
        value = getattr(args, name, None)
        if value is None:
            if name not in config:
                values[name] = default
                continue
            value = config[name]
        values[name] = _convert(name, value, kind)
    for name, key in _RECORD_KEYS:
        if name in values and values[name] is None:
            values[name] = values[key]
    return values


def _convert(name: str, value, kind):
    """``value`` as ``kind``, or a usage error, not a traceback.  Booleans are
    refused, and so is a fractional value for an ``int``: 2.0 is 2, 2.7 is not."""
    if kind is None:
        return value
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise _UsageError(f"setting {name!r} must be {' or '.join(kind)}, got {value!r}")
    fractional = kind is int and isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            return kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise _UsageError(f"setting {name!r} must be {kind.__name__}, got {value!r}")


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


def _grid_from(s: dict):
    """The ``wavepacket.Grid`` of the settings."""
    from . import wavepacket

    defaults = wavepacket.default_grid()
    return wavepacket.Grid(
        defaults.r_min if s["r_min"] is None else s["r_min"],
        defaults.r_max if s["r_max"] is None else s["r_max"],
        defaults.n_points if s["points"] is None else s["points"],
    )


def _geometry_from(s: dict, grid):
    """(separation, window): each from the settings, else from the frozen
    record.  The window is snapped on ``grid``."""
    from . import wavepacket

    frozen = wavepacket.default_calibration()
    separation = frozen.separation if s["separation"] is None else s["separation"]
    halfwidth = frozen.window.halfwidth if s["halfwidth"] is None else s["halfwidth"]
    return separation, wavepacket.symmetric_window(grid, halfwidth)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _audit_csv(report) -> str:
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
    from . import audit as audit_mod

    s = _settings(args, "audit")
    if s["variant"] is None:
        raise _UsageError("audit requires --variant")
    scenario = audit_mod.ScenarioConfig(
        variant=s["variant"],
        phases=audit_mod.default_phase_sweep(s["phi_sweep"]),
        trials=s["trials"],
        seed=s["seed"],
    )
    report = audit_mod.no_signalling_audit(scenario)
    text = _json_text(report.to_json_dict()) if s["format"] == "json" else _audit_csv(report)
    _write_output(args.out, text)
    return 0 if report.verdict == "pass" else VERDICT_FAIL


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def _float_texts(name: str, values) -> list[str]:
    """``repr`` of each of ``values`` as a float, each distinct magnitude formatted once.

    ``repr`` writes the sign apart from the digits of the magnitude, so a
    ``-`` before the magnitude's text is the negative value's text, ``-0.0``
    too.  A mirror-symmetric profile has about half as many magnitudes as
    values.  A NaN or an infinity, which strict JSON cannot hold, is refused.
    """
    values = np.asarray(values, dtype=np.float64)
    magnitudes, index = np.unique(np.abs(values), return_inverse=True)
    # np.unique sorts infinities and NaNs last
    if magnitudes.size and not math.isfinite(magnitudes[-1]):
        raise ValueError(f"column {name!r} holds a value that is not finite")
    out = np.array(list(map(float.__repr__, magnitudes.tolist())), dtype=object)[index]
    negative = np.signbit(values)
    out[negative] = "-" + out[negative]
    return out.tolist()


def _density_text(grid, columns: list[tuple[str, "object"]], fmt: str) -> str:
    fields = [("r", grid.points), *columns]
    texts = [_float_texts(name, col) for name, col in fields]
    if fmt == "json":
        # the indent=2 layout of _json_text: json writes a finite float as its repr
        body = ",\n".join(
            f'  {json.dumps(name)}: [\n    ' + ",\n    ".join(column) + "\n  ]"
            for (name, _), column in zip(fields, texts)
        )
        return "{\n" + body + "\n}\n"
    header = ",".join(name for name, _ in fields)
    return "\n".join([header, *map(",".join, zip(*texts))]) + "\n"


def cmd_density(args) -> int:
    from . import wavepacket

    s = _settings(args, "density")
    grid = _grid_from(s)
    separation, window = _geometry_from(s, grid)
    pair = wavepacket.orthogonal_pair(grid, separation)
    phi_arg = s["phi"]
    if phi_arg is None:
        psi0 = wavepacket.recombine(pair, 0.0)
        psi_pi = wavepacket.recombine(pair, math.pi)
        columns = [
            ("density_phi0", psi0.density),
            ("density_phipi", psi_pi.density),
        ]
        states = {0.0: psi0, math.pi: psi_pi}
    else:
        phi = _parse_phi(str(phi_arg))
        psi = wavepacket.recombine(pair, phi)
        columns = [("density", psi.density)]
        states = {phi: psi}
    if args.verify:  # a window off the grid is refused before the CSV is written
        from . import measurement

        counter = measurement.window_projector("in", grid, window)
    _write_output(args.out, _density_text(grid, columns, s["format"]))
    if args.verify:
        for phi, psi in states.items():
            p_in = measurement.probability(psi, counter)
            sender = {"in": 0.5 * p_in, "out": 0.5 * (1.0 - p_in)}
            print(json.dumps({"phi": phi, "sender": sender}))
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    from . import optics

    path = Path(args.circuit)
    if not path.exists():
        path = optics.bundled_circuit_path(args.circuit)
        if not path.is_file():
            raise _UsageError(f"cannot read circuit file {args.circuit}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read circuit file: {exc}")
    try:
        circuit = optics.circuit_from_json(text)
        report = optics.validate_circuit(circuit)
    except (ValueError, RecursionError) as exc:  # WiringError, bad settings, deep nesting
        raise _UsageError(f"malformed circuit: {exc}")
    _write_output(args.out, _json_text(report))
    return 0 if report["physical"] else VERDICT_FAIL


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    from . import wavepacket

    s = _settings(args, "calibrate")
    grid = _grid_from(s)
    try:
        result = wavepacket.calibrate(grid)
    except wavepacket.CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return VERDICT_FAIL
    _write_output(args.out, _json_text(result.to_json_dict()))
    return 0 if result.contrast >= CALIBRATION_TARGET else VERDICT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

#: Each subcommand's help and function, in the order ``--help`` lists them.
_COMMANDS = {
    "audit": ("run the no-signalling audit", cmd_audit),
    "density": ("export interference density profiles", cmd_density),
    "validate": ("isometry-validate a circuit file", cmd_validate),
    "calibrate": ("scan detector geometry for contrast", cmd_calibrate),
}


class _Variants:
    """``audit.VARIANTS``, imported when argparse first reads it: parsing
    ``--variant`` or printing ``audit --help``, not building the parser."""

    def __iter__(self):
        from .audit import VARIANTS

        return iter(VARIANTS)

    def __contains__(self, value) -> bool:
        from .audit import VARIANTS

        return value in VARIANTS


def build_parser(_command: str | None = None) -> _Parser:
    """The parser for every command, or for ``_command`` alone when given."""
    parser = _Parser(prog="nosignal", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func) in _COMMANDS.items():
        if _command not in (None, command):
            continue
        p = sub.add_parser(command, help=summary)
        if command == "validate":
            p.add_argument("--circuit", required=True, help="path or bundled name")
        for name, commands, kind, _, text in _SETTINGS:
            if command not in commands or text is _CONFIG_ONLY:
                continue
            parse = kind if kind in (int, float) else None
            action = p.add_argument("--" + name.replace("_", "-"), type=parse, help=text)
            if name == "variant":
                # set after add_argument, which would read the choices at once
                action.choices = _Variants()
        if command == "density":
            p.add_argument(
                "--verify", action="store_true",
                help="check normalization, echo window probabilities",
            )
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if command != "validate":
            p.add_argument("--config", default=None, help="JSON config file; flags override")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--"] and not "".join(argv[1:2]).startswith("-"):
        del argv[0]  # argparse would take a leading -- for the command
    # a run that names its command builds only that command's parser (and
    # imports only what its arguments need); any other argv gets them all,
    # so the top-level help and usage errors list every command
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
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
