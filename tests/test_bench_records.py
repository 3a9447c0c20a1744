"""Committed benchmark records: each ``BENCH_*.json`` covers the whole contract.

A record holds the parent and change sides of the paired runs of one
change, per workload, with the median and quartiles of every end-to-end
metric that ``BENCHMARK.json`` declares.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_at_least_one_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_every_end_to_end_metric(path):
    record = json.loads(path.read_text())
    assert type(record["pairs"]) is int and record["pairs"] >= 1
    for key in ("python", "numpy", "nproc"):
        assert record["host"][key]
    workloads = {w["name"] for w in CONTRACT["workloads"]}
    assert set(record["workloads"]) == workloads
    for name in workloads:
        for side in ("parent", "change"):
            metrics = record["workloads"][name][side]
            for metric in CONTRACT["end_to_end"]:
                stats = metrics[metric["name"]]
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side, metric)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_one_seed_per_pair_and_byte_identical_correct_runs(path):
    # a speed-up counts only when every run is correct and every report keeps its bytes
    record = json.loads(path.read_text())
    assert len(record["protocol"]["seeds"]) == record["pairs"]
    for name, workload in record["workloads"].items():
        assert workload["every_run_correct"] is True, name
        assert workload["sha256_identical_every_pair"] is True, name


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_summaries_follow_from_its_runs(path):
    # each median, quartile and better-pair count is recomputed from the raw runs
    record = json.loads(path.read_text())
    pairs = record["pairs"]
    for name, workload in record["workloads"].items():
        for metric in CONTRACT["end_to_end"]:
            key = metric["name"]
            runs = {side: workload["runs"][side][key] for side in ("parent", "change")}
            for side, values in runs.items():
                assert len(values) == pairs, (name, side, key)
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                summary = workload[side][key]
                assert summary["median"] == statistics.median(values), (name, side, key)
                assert (summary["q1"], summary["q3"]) == (q1, q3), (name, side, key)
            # ties count for neither side
            sign = 1 if metric["better"] == "lower" else -1
            better = sum(
                sign * (parent - change) > 0
                for parent, change in zip(runs["parent"], runs["change"])
            )
            assert workload["change_better_pairs"][key] == better, (name, key)
