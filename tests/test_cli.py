import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nosignal.audit import ScenarioConfig, no_signalling_audit
from nosignal.optics import bundled_circuit_path

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    def test_truncating_geometry_reported(self, tmp_path):
        result = run_cli(
            "density", "--r-min", "-3", "--r-max", "3", "--separation", "5.5",
            "--points", "128", "--out", str(tmp_path / "x.csv"),
        )
        assert result.returncode == 1
        assert "outside the grid" in result.stderr


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
