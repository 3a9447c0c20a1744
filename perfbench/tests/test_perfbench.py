"""Tests of the benchmark's own code: inputs, checks, tracing and the result line."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from nosignal import audit, measurement, wavepacket  # noqa: E402


def test_op_inputs_depend_only_on_the_seed():
    first = workloads.op_inputs(5)
    assert first == workloads.op_inputs(5)
    assert first != workloads.op_inputs(6)
    assert len(first) == workloads.INPUTS_PER_RUN
    lo, hi = workloads.SEPARATION_RANGE
    for inp in first:
        assert lo <= inp.separation <= hi and lo <= inp.phi_separation <= hi
        assert 0.0 <= inp.phi < 2 * math.pi
        assert 0 <= inp.audit_seed < 2**31


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    assert bench.tail_latency([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)
    value, percentile, beyond = bench.tail_latency([3.0, 1.0, 2.0])
    assert (value, beyond) == (1.0, 2)
    assert percentile == pytest.approx(100 / 3)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    setup = {"numpy_import_s": 0.1, "nosignal_import_s": 0.1}
    reported = bench.layer_metrics(Counter(), setup, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: bench.layer_unit(name) for name in reported
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children():
    spans = [
        ["audit.a", "audit", None, 0.0, 10.0],
        ["wavepacket.b", "wavepacket", 0, 2.0, 5.0],
        ["wavepacket.c", "wavepacket", 1, 3.0, 4.0],
    ]
    totals = tracing.aggregate(spans)
    assert totals["audit.self_s"] == 7.0
    assert totals["wavepacket.self_s"] == 3.0
    assert totals["wavepacket.b_s"] == 3.0
    assert totals["wavepacket.b_self_s"] == 2.0
    assert totals["wavepacket.calls"] == 2


def test_tracer_rebinds_by_name_imports_and_restores_them():
    originals = (
        audit.orthogonal_pair,
        wavepacket.orthogonal_pair,
        audit.trial_uniforms,
        measurement.ProjectorSet.__dict__["probabilities"],
    )
    config = audit.ScenarioConfig(
        variant=audit.VARIANT_DENSITY, phases=(0.0, math.pi), trials=1, seed=3
    )
    with tracing.Tracer() as tracer:
        assert audit.orthogonal_pair is not originals[0]
        assert wavepacket.orthogonal_pair is not originals[1]
        audit.no_signalling_audit(config)
        totals = tracer.take()
    restored = (
        audit.orthogonal_pair,
        wavepacket.orthogonal_pair,
        audit.trial_uniforms,
        measurement.ProjectorSet.__dict__["probabilities"],
    )
    assert all(a is b for a, b in zip(restored, originals))
    assert totals["audit.no_signalling_audit_calls"] == 1
    assert totals["wavepacket.orthogonal_pair_calls"] == 2
    assert totals["measurement.draws"] == 2
    assert totals["audit.resampled_rows"] == 0
    # Once for the row's sender probabilities, once inside the sampling.
    assert totals["measurement.ProjectorSet.probabilities_calls"] == 4


def test_traced_ops_hash_like_untraced_ops_and_repeat_their_counts(tmp_path):
    run = bench.Run(workloads.WORKLOADS["audit-density-exact"], workloads.op_inputs(1), str(tmp_path))
    run.op(0)
    with tracing.Tracer() as tracer:
        _, first = run.op(0, tracer)
        _, second = run.op(0, tracer)
    assert run.failed == 0, run.failures
    assert first["wavepacket.orthogonal_pair_calls"] == second["wavepacket.orthogonal_pair_calls"] > 0
    assert first["rows"] == second["rows"] == 64


def test_an_output_that_changes_for_the_same_input_fails_the_op(tmp_path):
    outputs = iter(["a", "b"])
    fake = workloads.Workload(
        "fake",
        run=lambda inp, out_dir: next(outputs),
        check=lambda inp, digest: workloads.OpResult(digest, 0, 0, 0),
    )
    run = bench.Run(fake, workloads.op_inputs(1), str(tmp_path))
    run.op(0)
    run.op(0)
    assert (run.attempted, run.failed) == (2, 1)
    assert "differs" in run.failures[0]


def test_loop_probes_set_up_once_before_each_cycle(tmp_path):
    fake = workloads.Workload(
        "fake",
        run=lambda inp, out_dir: inp.audit_seed,
        check=lambda inp, seed: workloads.OpResult(str(seed), 0, 0, 0),
    )
    run = bench.Run(fake, workloads.op_inputs(1), str(tmp_path))
    probes = []
    latencies, _, _ = run.loop(0.0, probe=lambda: probes.append(len(probes)))
    assert len(latencies) == workloads.INPUTS_PER_RUN
    assert probes == [0]
    assert run.failed == 0


def test_checks_reject_wrong_outputs(tmp_path):
    inp = workloads.op_inputs(2)[0]
    outputs = workloads.profiles_run(inp, str(tmp_path))
    workloads.profiles_check(inp, outputs)
    (_, _, err), path = outputs["calibrate"]
    with pytest.raises(workloads.CheckFailed, match="calibrate exited 0"):
        workloads.profiles_check(inp, {**outputs, "calibrate": ((0, "", err), path)})

    report = tmp_path / "report.json"
    report.write_text(json.dumps({"verdict": "fail", "max_deviation": 0.0, "rows": []}))
    with pytest.raises(workloads.CheckFailed, match="verdict"):
        workloads.mz_check(inp, (0, "", "", str(report)))
    with pytest.raises(workloads.CheckFailed, match="exited 1"):
        workloads.mz_check(inp, (1, "", "error: bad", str(report)))


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = _bench(tmp_path, "--workload", "profiles-calibrate", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_reports_every_metric(trace):
    proc = _bench(ROOT, "--workload", "profiles-calibrate", "--seed", "4",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == "0" else "per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    details = json.loads(details_line)["details"]
    assert len(details["sha256"]) == workloads.INPUTS_PER_RUN
    assert details["setup"]["runs"] >= 1
    assert not (ROOT / ".bench_tmp").exists()
