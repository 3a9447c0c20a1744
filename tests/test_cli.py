import hashlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from nosignal.audit import (
    MAX_PHASES,
    MAX_TRIALS,
    RECEIVER_LABEL,
    ScenarioConfig,
    binomial_band,
    build_initial,
    composite_outcomes,
    default_phase_sweep,
    evolve_sender,
    no_signalling_audit,
    sender_projectors,
)
from nosignal import cli, measurement, wavepacket
from nosignal.measurement import count_outcomes
from nosignal.modes import MAX_GRID_POINTS
from nosignal.optics import bundled_circuit_path

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")
#: The frozen calibration record; a config file may carry all of its keys.
DEFAULTS = Path(wavepacket.__file__).parent / "calibration" / "defaults.json"


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "nosignal", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def _element(kind: str, params: str, inputs: str = '["l"]') -> str:
    return f'{{"kind": "{kind}", "params": {params}, "in": {inputs}, "out": ["l"]}}'


#: Circuit-file elements that must be refused, each with what the message names.
MALFORMED_ELEMENTS = {
    "phi-null": (_element("phase_shifter", '{"phi": null}'), "'phi'"),
    "phi-infinite": (_element("phase_shifter", '{"phi": 1e400}'), "'phi'"),
    "phi-bool": (_element("phase_shifter", '{"phi": true}'), "'phi'"),
    "in-not-list": (_element("phase_shifter", '{"phi": 1.0}', "5"), "'in' and 'out' lists"),
    "bare-string": ('"mirror"', "must be an object"),
    "params-list": (_element("phase_shifter", "[]"), "params must be an object"),
    "mirror-params-list": (_element("mirror", "[]"), "params must be an object"),
    "matrix-not-pairs": (_element("custom", '{"matrix": [[1]]}'), "'matrix'"),
    "matrix-nan": (_element("custom", '{"matrix": [[[NaN, 0]]]}'), "'matrix'"),
    "matrix-strings": (_element("custom", '{"matrix": [[["1", "0"]]]}'), "'matrix'"),
    "in-null": (_element("mirror", "{}", "[null]"), "nonempty strings"),
    "in-number": (_element("mirror", "{}", "[1]"), "nonempty strings"),
    "splitter-arity": (
        '{"kind": "beam_splitter", "params": {}, "in": ["l"], "out": ["b", "c"]}',
        "does not match",
    ),
}


class TestAuditCommand:
    def test_pass_verdict_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "audit", "--variant", "mach-zehnder", "--phi-sweep", "8",
            "--trials", "2000", "--seed", "7", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["verdict"] == "pass"
        assert report["max_deviation"] <= 1e-12
        assert report["seed"] == 7

    def test_density_variant_defaults(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "audit", "--variant", "shiekh-density", "--phi-sweep", "4",
            "--trials", "1000", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["variant"] == "shiekh-density"
        assert set(report["rows"][0]["sender"]) == {"in", "out"}

    def test_missing_variant_is_usage_error(self):
        result = run_cli("audit")
        assert result.returncode == 1
        assert "variant" in result.stderr

    def test_unknown_flag_is_usage_error(self):
        result = run_cli("audit", "--variant", "mach-zehnder", "--bogus", "1")
        assert result.returncode == 1

    def test_byte_identical_reports(self, tmp_path):
        args = (
            "audit", "--variant", "shiekh-density", "--phi-sweep", "6",
            "--trials", "3000", "--seed", "11",
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "rows.csv"
        result = run_cli(
            "audit", "--variant", "mach-zehnder", "--phi-sweep", "4",
            "--trials", "500", "--format", "csv", "--out", str(out),
        )
        assert result.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("phi,")
        assert "receiver_analytic" in header
        # every data cell is a plain number, and each row is the JSON row
        for variant in ("mach-zehnder", "shiekh-density"):
            args = (
                "audit", "--variant", variant, "--phi-sweep", "4",
                "--trials", "500", "--seed", "13",
            )
            csv_out, json_out = tmp_path / "cross.csv", tmp_path / "cross.json"
            assert run_cli(*args, "--format", "csv", "--out", str(csv_out)).returncode == 0
            assert run_cli(*args, "--out", str(json_out)).returncode == 0
            header, *lines = csv_out.read_text().splitlines()
            columns = header.split(",")
            rows = json.loads(json_out.read_text())["rows"]
            assert len(lines) == len(rows)
            for line, row in zip(lines, rows):
                cells = dict(zip(columns, line.split(",")))
                parsed = {k: float(v) for k, v in cells.items() if k != "trials"}
                expected = {
                    "phi": row["phi"],
                    **{f"sender_{k}": v for k, v in row["sender"].items()},
                    "receiver_analytic": row["receiver_analytic"],
                    "receiver_empirical": row["receiver_empirical"],
                }
                assert parsed == expected
                assert int(cells["trials"]) == row["trials"]

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"variant": "mach-zehnder", "trials": 500, "seed": 5}))
        out = tmp_path / "report.json"
        result = run_cli(
            "audit", "--config", str(config), "--phi-sweep", "4",
            "--trials", "250", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["rows"][0]["trials"] == 250  # flag beats config file
        assert report["seed"] == 5  # config beats built-in default

    def test_integral_float_setting_is_accepted(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"variant": "mach-zehnder", "trials": 250.0}))
        out = tmp_path / "report.json"
        result = run_cli("audit", "--config", str(config), "--phi-sweep", "2", "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["rows"][0]["trials"] == 250

    def test_empty_phase_sweep_is_an_error(self, tmp_path):
        result = run_cli(
            "audit", "--variant", "mach-zehnder", "--phi-sweep", "0",
            "--out", str(tmp_path / "out"),
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error:") and "at least 1 phase" in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--trials", MAX_TRIALS + 1, "trials"), ("--phi-sweep", MAX_PHASES + 1, "phase sweep")],
    )
    def test_past_a_cap_refused_before_any_draw(
        self, tmp_path, monkeypatch, capsys, flag, value, message
    ):
        def no_draws(*args):
            raise AssertionError("uniforms were drawn for a refused audit")

        monkeypatch.setattr(measurement, "trial_uniforms", no_draws)
        out = tmp_path / "x"
        argv = ["audit", "--variant", "mach-zehnder", flag, str(value), "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


    # sha256 of `audit --variant mach-zehnder --phi-sweep 16 --trials 20000
    # --seed S` in each format, computed with a binary-search counter: the
    # threshold counter must reproduce its reports byte for byte
    PINNED_REPORTS = {
        (5, "json"): "968cc413fbaf19aff67a173d5e8abc382542c86842d29a60902c32dfc9385ae1",
        (5, "csv"): "13324a05a4404a3b5311b482830b1d21931d91ce71a1d6d9c438b4cf406050b8",
        (13, "json"): "569394a2642dbbb54645357003e72fd9b3127e505cec3c228fad0ff7b9d35321",
        (13, "csv"): "c187ab4ffdd2683d0611065e9ba57607c9d679612a3d7a2d5b87701aa84a908a",
    }

    @pytest.mark.parametrize("seed, fmt", sorted(PINNED_REPORTS))
    def test_report_bytes_are_pinned(self, tmp_path, seed, fmt):
        out = tmp_path / f"report.{fmt}"
        result = run_cli(
            "audit", "--variant", "mach-zehnder", "--phi-sweep", "16",
            "--trials", "20000", "--seed", str(seed), "--format", fmt, "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == self.PINNED_REPORTS[seed, fmt]

    def test_seed_13_pin_covers_a_resampled_row(self):
        # row 7 of seed 13 lands outside its band on stream 14 and is redrawn
        # from stream 15, so the seed-13 pin also fixes the retry path
        config = ScenarioConfig(
            variant="mach-zehnder", phases=default_phase_sweep(16), trials=20000, seed=13
        )
        state = evolve_sender(build_initial(config), config.phases[7], config)
        labels, probs = composite_outcomes(state, sender_projectors(config))
        receiver = labels.index(RECEIVER_LABEL)
        first = count_outcomes(probs, 13, 20000, 14)[receiver] / 20000
        assert abs(first - 0.5) > binomial_band(20000)


#: sha256 of each grid-path and validate output, with the exit code: ``(argv,
#: where the bytes go, exit code, digest)``.  Densities, norms, window
#: probabilities, the density audit, the calibration scan and the isometry
#: report each feed one of them.
PINNED_GRID_OUTPUTS = {
    "density-csv": (("density",), "out", 0,
                    "ce888845a8d64b6b656ab69a46c944413b4e161167ff857553d451ba55f03693"),
    "density-phi-json": (("density", "--phi", "1.3", "--format", "json"), "out", 0,
                         "0a1e46ba736cc758d887b410e17f63fe98ea97e1d0926706bb08d6106640c558"),
    "density-verify": (("density", "--verify"), "stdout", 0,
                       "5a138024fa3c2d7d1efe7604b5e01cbb651f6ee55cbdd70271ad884255866ea6"),
    "audit-density": (
        ("audit", "--variant", "shiekh-density", "--phi-sweep", "16",
         "--trials", "2000", "--seed", "5"), "out", 0,
        "e75d262fc166a03d1975877592bdd925ebe3cdf56023d3c457cc92b3965de49b",
    ),
    "calibrate": (("calibrate",), "out", 2,
                  "384c1b32a1a73f43c761c54177aafd5051509c0cde45d21bb75616323f80ce5d"),
    "validate-shiekh": (("validate", "--circuit", "shiekh"), "out", 0,
                        "080c90cdd6046bc601f22d15c769d6ece1826236ec67a0654765b5367eaf5f53"),
    "validate-canceller": (("validate", "--circuit", "canceller"), "out", 2,
                           "bc742c29dda832db1a2eb7a83739bac653db15427eec38da6fb98d7dffb393c1"),
    "validate-attenuator": (("validate", "--circuit", "attenuator-0.9"), "out", 2,
                            "a6fec9071b455ba9042d0b43734b33246edfe84f8ea203020fffc09c1e6b03f5"),
}


@pytest.mark.parametrize("name", sorted(PINNED_GRID_OUTPUTS))
def test_grid_path_bytes_are_pinned(tmp_path, name):
    argv, channel, code, expected = PINNED_GRID_OUTPUTS[name]
    out = tmp_path / "out"
    result = run_cli(*argv, "--out", str(out))
    assert result.returncode == code, result.stderr
    data = out.read_bytes() if channel == "out" else result.stdout.encode()
    assert hashlib.sha256(data).hexdigest() == expected


class TestDensityCommand:
    def test_default_csv_columns_and_central_node(self, tmp_path):
        out = tmp_path / "density.csv"
        result = run_cli("density", "--out", str(out))
        assert result.returncode == 0, result.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "r,density_phi0,density_phipi"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        central = min(rows, key=lambda row: abs(row[0]))
        assert abs(central[0]) <= 1e-12
        assert central[2] <= 1e-12  # destructive profile vanishes at r = 0
        assert central[1] > 0.1  # constructive profile peaks there

    def test_verify_checks_normalization_and_echoes_sender_rows(self, tmp_path):
        out = tmp_path / "density.csv"
        result = run_cli("density", "--out", str(out), "--verify")
        assert result.returncode == 0, result.stderr
        echoed = [json.loads(line) for line in result.stdout.splitlines()]
        report = no_signalling_audit(
            ScenarioConfig("shiekh-density", phases=(0.0, math.pi), trials=1, seed=0)
        )
        expected = {row.phi: row.sender for row in report.rows}
        for line in echoed:
            for label, value in line["sender"].items():
                assert value == pytest.approx(expected[line["phi"]][label], abs=1e-12)

    def test_single_phase_column(self, tmp_path):
        out = tmp_path / "density.csv"
        result = run_cli("density", "--phi", "pi", "--out", str(out))
        assert result.returncode == 0
        assert out.read_text().splitlines()[0] == "r,density"

    def test_bad_grid_is_usage_error(self, tmp_path):
        result = run_cli("density", "--points", "8", "--out", str(tmp_path / "x.csv"))
        assert result.returncode == 1

    @pytest.mark.parametrize("command", ["density", "calibrate"])
    def test_points_past_the_cap_refused_before_any_array(
        self, tmp_path, monkeypatch, capsys, command
    ):
        def no_packets(*args):
            raise AssertionError("a packet was built on a refused grid")

        monkeypatch.setattr(wavepacket, "gaussian", no_packets)
        out = tmp_path / "x"
        points = str(MAX_GRID_POINTS + 1)
        assert cli.main([command, "--points", points, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: grid n_points")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, extra, rows",
        [((), {}, 129), (("--points", "65"), {}, 65), ((), {"points": 64}, 64)],
        ids=["n-points", "points-flag-wins", "points-key-wins"],
    )
    def test_a_record_n_points_sets_the_grid_size(self, tmp_path, argv, extra, rows):
        record = {**json.loads(DEFAULTS.read_text()), "n_points": 129, **extra}
        config, out = tmp_path / "record.json", tmp_path / "density.csv"
        config.write_text(json.dumps(record))
        assert cli.main(["density", *argv, "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + rows

    def test_truncating_geometry_reported(self, tmp_path):
        result = run_cli(
            "density", "--r-min", "-3", "--r-max", "3", "--separation", "5.5",
            "--points", "128", "--out", str(tmp_path / "x.csv"),
        )
        assert result.returncode == 1
        assert "outside the grid" in result.stderr


@pytest.mark.parametrize("command, code", [("density", 0), ("calibrate", 2)])
def test_the_frozen_record_as_config_changes_nothing(tmp_path, capsys, command, code):
    outputs = []
    for config in ([], ["--config", str(DEFAULTS)]):
        out = tmp_path / f"out{len(outputs)}"
        assert cli.main([command, *config, "--out", str(out)]) == code
        outputs.append((out.read_bytes(), capsys.readouterr()))
    assert outputs[0] == outputs[1]


class TestValidateCommand:
    def test_bundled_splitter_passes(self):
        result = run_cli("validate", "--circuit", str(bundled_circuit_path("shiekh")))
        assert result.returncode == 0
        assert json.loads(result.stdout)["physical"] is True

    def test_bundled_canceller_fails_with_half_deviation(self):
        result = run_cli("validate", "--circuit", "canceller")
        assert result.returncode == 2
        report = json.loads(result.stdout)
        assert report["failures"][0]["deviation"] == pytest.approx(0.5, abs=1e-12)

    def test_bundled_attenuator_reports_partial_attenuation(self):
        result = run_cli("validate", "--circuit", "attenuator-0.9")
        assert result.returncode == 2
        assert json.loads(result.stdout)["failures"][0]["reason"] == "partial attenuation"

    def test_missing_file_is_usage_error(self):
        result = run_cli("validate", "--circuit", "/nonexistent/q.json")
        assert result.returncode == 1

    def test_malformed_file_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run_cli("validate", "--circuit", str(bad))
        assert result.returncode == 1

    def test_structurally_broken_circuit_is_usage_error(self, tmp_path):
        broken = tmp_path / "broken.circuit.json"
        broken.write_text(json.dumps([
            {"kind": "beam_splitter", "params": {}, "in": ["a", "b"], "out": ["c", "d"]},
            {"kind": "phase_shifter", "params": {"phi": 1.0}, "in": ["a"], "out": ["a"]},
        ]))
        result = run_cli("validate", "--circuit", str(broken))
        assert result.returncode == 1
        assert "malformed" in result.stderr

    @pytest.mark.parametrize(
        "element, message", MALFORMED_ELEMENTS.values(), ids=MALFORMED_ELEMENTS.keys()
    )
    def test_malformed_element_is_usage_error(self, tmp_path, element, message):
        path = tmp_path / "bad.circuit.json"
        path.write_text(f"[{_element('mirror', '{}')}, {element}]")
        result = run_cli("validate", "--circuit", str(path))
        assert result.returncode == 1
        assert result.stderr.startswith("error: malformed circuit")
        assert message in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("density", "--seed", "1"),
        ("calibrate", "--seed", "1"),
        ("calibrate", "--format", "json"),
        ("validate", "--circuit", "shiekh", "--seed", "1"),
        ("validate", "--circuit", "shiekh", "--format", "json"),
        ("validate", "--circuit", "shiekh", "--config", "/nonexistent"),
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_the_command_does_not_read_is_rejected(tmp_path, argv):
    result = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "unrecognized arguments" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (("audit", "--variant", "mach-zehnder", "--seed", "-1"), None, "seed"),
        (("audit", "--variant", "mach-zehnder", "--sigma", "nan"), None, "sigma"),
        (("audit",), {"variant": "mach-zehnder", "trials": "x"}, "'trials'"),
        (("audit",), {"variant": "mach-zehnder", "seed": [1]}, "'seed'"),
        (("density",), {"sigma": [1]}, "'sigma'"),
        (("density", "--sigma", "0"), None, "sigma"),
        (("density", "--separation", "-1"), None, "separation"),
        (("density", "--phi", "nan"), None, "phase"),
        (("density", "--r-min=-inf"), None, "finite"),
        (("audit",), {"variant": "mach-zehnder", "trials": 2.7}, "'trials'"),
        (("audit",), {"variant": "mach-zehnder", "trials": True}, "'trials'"),
        (("density",), {"sigma": True}, "'sigma'"),
        (("density", "--halfwidth", "inf"), None, "halfwidth"),
        (("density", "--halfwidth=-5"), None, "halfwidth"),
        (("density", "--halfwidth", "0"), None, "halfwidth"),
        (("density", "--halfwidth", "nan"), None, "halfwidth"),
        (("density",), {"window_halfwidth_over_sigma": -1}, "halfwidth"),
        (("density", "--r-min=-1e308", "--r-max", "1e308"), None, "finite"),
        (("audit", "--variant", "mach-zehnder", "--trials", "1000000000000"), None, "trials"),
        (("audit",), {"variant": "mach-zehnder", "trials": MAX_TRIALS + 1}, "trials"),
        (("audit", "--variant", "mach-zehnder", "--phi-sweep", "1000000000000"), None,
         "phase sweep"),
        # every sample of a packet this narrow underflows to 0: normalizing it was 0/0
        (("density", "--sigma", "0.001", "--r-min", "-8", "--r-max", "8", "--points", "64",
          "--separation", "0.003", "--halfwidth", "0.5"), None, "sigma=0.001"),
        (("density", "--sigma", "0.001", "--r-min", "-8", "--r-max", "8", "--points", "64",
          "--separation", "0.003", "--halfwidth", "0.5", "--format", "json"), None,
         "sigma=0.001"),
        (("calibrate", "--sigma", "0.001", "--r-min", "-8", "--r-max", "8", "--points", "64"),
         None, "sigma=0.001"),
        # a null is a value, refused as one, not an unset setting
        (("audit",), {"variant": "mach-zehnder", "sigma": None},
         "'sigma' must be float, got None"),
        (("density",), {"sigma": None}, "'sigma' must be float, got None"),
        (("calibrate",), {"sigma": None}, "'sigma' must be float, got None"),
        (("density",), {"r_min": None}, "'r_min' must be float, got None"),
        (("calibrate",), {"r_max": None}, "'r_max' must be float, got None"),
        # a config key the command does not take
        (("audit",), {"variant": "mach-zehnder", "phi_sweep": 2, "trails": 5, "sead": 3},
         "audit has no setting 'trails'; did you mean 'trials'?"),
        (("density", "--verify"), {"separaton": 3.0},
         "density has no setting 'separaton'; did you mean 'separation'?"),
        (("calibrate",), {"sigam": 2.0},
         "calibrate has no setting 'sigam'; did you mean 'sigma'?"),
        (("audit",), {"variant": "mach-zehnder", "points": 128}, "audit has no setting 'points'"),
        (("density",), {"seed": 1}, "density has no setting 'seed'"),
        (("calibrate",), {"trials": 10}, "calibrate has no setting 'trials'"),
        (("density",), {"verify": True}, "density has no setting 'verify'"),
    ],
    ids=[
        "audit-seed-negative", "audit-sigma-nan", "audit-config-trials-string",
        "audit-config-seed-list", "density-config-sigma-list", "density-sigma-zero",
        "density-separation-negative", "density-phi-nan", "density-r-min-infinite",
        "audit-config-trials-fractional", "audit-config-trials-bool", "density-config-sigma-bool",
        "density-halfwidth-inf", "density-halfwidth-negative", "density-halfwidth-zero",
        "density-halfwidth-nan", "density-config-halfwidth-negative", "density-span-overflows",
        "audit-trials-past-cap", "audit-config-trials-past-cap", "audit-phi-sweep-past-cap",
        "density-packet-unresolved", "density-json-packet-unresolved",
        "calibrate-packet-unresolved", "audit-config-sigma-null", "density-config-sigma-null",
        "calibrate-config-sigma-null", "density-config-r-min-null", "calibrate-config-r-max-null",
        "audit-config-misspelt-key", "density-config-misspelt-key",
        "calibrate-config-misspelt-key", "audit-config-density-key", "density-config-audit-key",
        "calibrate-config-audit-key", "density-config-flag-key",
    ],
)
def test_bad_value_ends_in_an_error_line(tmp_path, argv, config, message):
    extra = ["--phi-sweep", "2"] if argv[0] == "audit" and "--phi-sweep" not in argv else []
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        extra += ["--config", str(path)]
    result = run_cli(*argv, *extra, "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error:") and message in result.stderr
    assert not (tmp_path / "out").exists()


#: Input files nested too deep for the interpreter's recursion limit, by where they go.
_DEEP_LIST = "[" * 100_000 + "]" * 100_000
DEEP_INPUTS = {
    "audit-config": (("audit", "--variant", "mach-zehnder", "--config"), _DEEP_LIST),
    "density-config": (("density", "--config"), _DEEP_LIST),
    "validate-circuit": (("validate", "--circuit"), _DEEP_LIST),
    # parses, then overflows when the element copies its params
    "validate-params": (
        ("validate", "--circuit"),
        "[" + _element("mirror", '{"x": ' + "[" * 700 + "]" * 700 + "}") + "]",
    ),
}


@pytest.mark.parametrize("argv, text", DEEP_INPUTS.values(), ids=DEEP_INPUTS.keys())
def test_deeply_nested_input_ends_in_an_error_line(tmp_path, argv, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    result = run_cli(*argv, str(path), "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error:")
    assert not (tmp_path / "out").exists()


SIGMA_COMMANDS = pytest.mark.parametrize(
    "argv",
    [("audit", "--variant", "shiekh-density", "--phi-sweep", "2", "--trials", "1"),
     ("density",), ("calibrate",)],
    ids=["audit", "density", "calibrate"],
)


@pytest.mark.parametrize(
    "sigma", ["1e300", "1e155", "1e154", "2e153", "1e-155", "1e-160", "1e-300"]
)
@SIGMA_COMMANDS
def test_a_sigma_outside_the_double_range_ends_in_one_error_line(tmp_path, argv, sigma):
    # the packet's exponent (r - center)**2 / (4 sigma**2) overflows, or
    # sigma**2 is subnormal (1e-155, 1e-160) or underflows to 0 (1e-300);
    # 2e153 only overflowed a squared offset
    result = run_cli(*argv, "--sigma", sigma, "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error:") and f"sigma={float(sigma)}" in result.stderr
    assert not (tmp_path / "out").exists()


@SIGMA_COMMANDS
def test_a_sigma_whose_square_is_just_normal_still_runs(tmp_path, argv):
    # 2e-154 squared is 4e-308, just above the smallest normal double 2.2e-308
    result = run_cli(*argv, "--sigma", "2e-154", "--out", str(tmp_path / "out"))
    assert result.returncode == (2 if argv == ("calibrate",) else 0)  # calibrate misses its target
    assert result.stderr == ""
    assert (tmp_path / "out").exists()


class TestCalibrateCommand:
    def test_defaults_report_frozen_geometry_but_miss_target(self, tmp_path):
        # the scan optimum for Gaussian packets sits at contrast ~0.73,
        # short of the 0.9 the command is required to gate on
        out = tmp_path / "cal.json"
        result = run_cli("calibrate", "--out", str(out))
        assert result.returncode == 2
        data = json.loads(out.read_text())
        assert data["d_over_sigma"] == pytest.approx(0.6774193548387097, abs=1e-15)
        assert data["window_halfwidth_over_sigma"] == pytest.approx(
            1.1510861606053209, abs=1e-15
        )
        assert data["contrast"] == pytest.approx(0.7291767844475758, abs=1e-12)

    def test_absurd_grid_fails_with_diagnostic(self, tmp_path):
        result = run_cli(
            "calibrate", "--r-min", "-2", "--r-max", "2", "--points", "64",
            "--out", str(tmp_path / "cal.json"),
        )
        assert result.returncode == 2
        assert "calibration failed" in result.stderr

    def test_output_round_trips_into_density_config(self, tmp_path):
        cal_path = tmp_path / "cal.json"
        assert run_cli("calibrate", "--out", str(cal_path)).returncode == 2
        out = tmp_path / "density.csv"
        result = run_cli("density", "--config", str(cal_path), "--out", str(out), "--verify")
        assert result.returncode == 0, result.stderr
        assert out.exists()


#: Run in a fresh interpreter: the layers loaded after each step, as JSON lines.
_LOADED_PROBE = """
import json, sys

def loaded():
    return sorted(m[9:] for m in sys.modules if m.startswith("nosignal.") and m != "nosignal.cli")

import nosignal
print(json.dumps(loaded()))
from nosignal import cli
print(json.dumps(loaded()))
print(json.dumps("concurrent.futures" in sys.modules))
print(json.dumps(cli.main([*sys.argv[2:], "--out", sys.argv[1]])))
print(json.dumps(loaded()))
"""


def test_cli_import_leaves_the_thread_pool_unimported(tmp_path):
    # a cold start pays only for what its command reaches: the package and
    # the CLI load no layer, and a command loads only its own layers.  The
    # audit's lanes use threading, so no start-up imports the thread pool.
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    for argv, code, layers in [
        (["validate", "--circuit", "shiekh"], 0, ["modes", "optics", "tolerances"]),
        (["calibrate"], 2, ["modes", "tolerances", "wavepacket"]),
    ]:
        result = subprocess.run(
            [sys.executable, "-c", _LOADED_PROBE, str(tmp_path / "out.json"), *argv],
            capture_output=True, text=True, env=env, check=True,
        )
        after_package, after_cli, pool, exit_code, after_command = map(
            json.loads, result.stdout.splitlines()
        )
        assert after_package == [] and after_cli == [], argv
        assert pool is False, argv
        assert exit_code == code, argv
        assert after_command == layers, argv


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_a_report_gets_the_mode_a_new_file_gets(tmp_path, umask, mode):
    out = tmp_path / "v.json"
    fresh = tmp_path / "fresh.txt"
    old = os.umask(umask)
    try:
        assert cli.main(["validate", "--circuit", "shiekh", "--out", str(out)]) == 0
        with open(fresh, "w"):
            pass
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == mode == stat.S_IMODE(fresh.stat().st_mode)


def test_a_failed_rename_keeps_the_old_report_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_bytes(b'{"old": true}\n')

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._write_output(str(target), '{"new": true}\n')
    assert target.read_bytes() == b'{"old": true}\n'
    assert list(tmp_path.iterdir()) == [target]
