"""Run one benchmark workload against the ``nosignal`` source tree in the current directory.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload audit-mz-sampling --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a ``{"details": ...}`` object with what the metrics alone do not
say (tail percentile and op counts, output digests, versions, thread
settings).  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

#: BLAS/OpenMP pools are pinned to one thread: the benchmark is a single
#: closed-loop client, and the machine it was tuned on has two cores.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

SETUP_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import nosignal.cli\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1]))\n"
)

#: The tail latency is the highest percentile with this many ops beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics that are a traced total under the same name.
_TRACED_AS_NAMED = (
    "wavepacket.orthogonal_pair_s", "wavepacket.orthogonal_pair_calls",
    "wavepacket.window_probability_calls", "measurement.reduce_s",
    "measurement.reduce_calls", "audit.self_s", "audit.resampled_rows",
    "wavepacket.calibrate_s", "wavepacket.self_s", "cli.self_s",
    "optics.self_s", "optics.calls", "modes.self_s", "modes.calls",
)


def layer_metrics(mean: Counter, setup: dict, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from per-op mean traced totals (see tracer.aggregate)."""
    metrics = {
        "measurement.philox_s": mean["measurement.trial_uniforms_s"],
        "measurement.draws": mean["measurement.draws"],
        "measurement.count_s": (
            mean["audit.sample_composite_self_s"] + mean["measurement.sample_outcomes_self_s"]
        ),
        "measurement.draws_per_trial": (
            mean["measurement.draws"] / mean["trials"] if mean["trials"] else 0.0
        ),
        "measurement.probabilities_s": mean["measurement.ProjectorSet.probabilities_s"],
        "measurement.probabilities_calls": mean["measurement.ProjectorSet.probabilities_calls"],
        "audit.rows": mean["rows"],
        "cli.bytes_written": mean["bytes_written"],
        "optics.validate_s": mean["optics.validate_circuit_s"],
        "setup.numpy_import_s": setup["numpy_import_s"],
        "setup.nosignal_import_s": setup["nosignal_import_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
    metrics.update({name: mean[name] for name in _TRACED_AS_NAMED})
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_trial")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond it) of the highest well-sampled percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class SetupProbe:
    """Times fresh interpreters importing ``nosignal.cli``; one per cycle of inputs.

    The probes are spread through the run rather than taken in a row, so
    they see the same host conditions as the ops.
    """

    def __init__(self, root: Path, env: dict):
        self.command = [sys.executable, "-c", SETUP_PROBE]
        self.root, self.env = root, env
        self.walls: list[float] = []
        self.numpy_s: list[float] = []
        self.nosignal_s: list[float] = []
        self._start()  # untimed: writes the bytecode caches

    def _start(self) -> subprocess.CompletedProcess:
        return subprocess.run(
            self.command, cwd=self.root, env=self.env, check=True,
            capture_output=True, text=True, timeout=60,
        )

    def __call__(self) -> None:
        start = time.perf_counter()
        proc = self._start()
        self.walls.append(time.perf_counter() - start)
        numpy_time, nosignal_time = json.loads(proc.stdout)
        self.numpy_s.append(numpy_time)
        self.nosignal_s.append(nosignal_time)

    def medians(self) -> dict:
        return {
            "setup_s": statistics.median(self.walls),
            "numpy_import_s": statistics.median(self.numpy_s),
            "nosignal_import_s": statistics.median(self.nosignal_s),
            "runs": len(self.walls),
        }


class Mismatch(Exception):
    """A recurring input's output or traced counts differ from its first op."""


class Run:
    """Closed-loop, single-client execution of one workload's operations."""

    def __init__(self, workload, inputs, out_dir: str):
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.call_counts: dict[int, dict] = {}

    def op(self, k: int, tracer=None) -> tuple[float, Counter | None]:
        """Run input ``k`` once; returns its latency and, when traced, its totals."""
        inp = self.inputs[k]
        self.attempted += 1
        start = time.perf_counter()
        latency = None
        try:
            outputs = self.workload.run(inp, self.out_dir)
            latency = time.perf_counter() - start
            totals = tracer.take() if tracer else Counter()
            result = self.workload.check(inp, outputs)
            if self.digests.setdefault(k, result.digest) != result.digest:
                raise Mismatch("output differs from the first output for this input")
            if tracer:
                counts = {key: v for key, v in totals.items() if not key.endswith("_s")}
                if self.call_counts.setdefault(k, counts) != counts:
                    raise Mismatch("traced counts differ from the first traced op on this input")
        except Exception as exc:  # a failing op is counted and the run goes on
            if latency is None:
                latency = time.perf_counter() - start
            if tracer:
                tracer.take()
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"input {k}: {type(exc).__name__}: {exc}")
            return latency, None
        totals.update(rows=result.rows, trials=result.trials, bytes_written=result.bytes_written)
        return latency, totals

    def loop(self, seconds: float, tracer=None, whole_cycles: bool = False, probe=None):
        """Ops for ``seconds``, covering every input at least once.

        With ``whole_cycles`` the loop also ends on a cycle boundary, so
        per-op means of traced counts do not depend on how many ops fit.
        ``probe``, if given, is called untimed before each cycle of inputs.
        Returns (latencies, summed totals, traced ops that passed).
        """
        latencies: list[float] = []
        totals: Counter = Counter()
        passed = 0
        n = len(self.inputs)
        start = time.perf_counter()
        i = 0
        while (
            time.perf_counter() - start < seconds
            or i < n
            or (whole_cycles and i % n)
        ):
            if probe is not None and i % n == 0:
                probe()
            latency, op_totals = self.op(i % n, tracer)
            latencies.append(latency)
            if op_totals is not None:
                totals.update(op_totals)
                passed += 1
            i += 1
        return latencies, totals, passed


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "nosignal" / "__init__.py").is_file():
        print(f"error: no nosignal source tree at {src}", file=sys.stderr)
        return 2
    # Pinned before numpy is first imported, here and in the set-up probes.
    os.environ.update(THREAD_ENV)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(src))

    import numpy
    import nosignal
    import tracer as tracing
    from workloads import WORKLOADS, op_inputs

    if not Path(nosignal.__file__).resolve().is_relative_to(src):
        print(f"error: imported nosignal from {nosignal.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    probe = SetupProbe(root, env)
    inputs = op_inputs(args.seed)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=scratch)
    details = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    try:
        run = Run(workload, inputs, out_dir)
        run.op(0)  # untimed warm-up
        if args.trace:
            plain, _, _ = run.loop(args.seconds / 2, probe=probe)
            with tracing.Tracer() as tracer:
                traced, totals, passed = run.loop(args.seconds / 2, tracer, whole_cycles=True)
            mean = Counter({key: value / max(passed, 1) for key, value in totals.items()})
            overhead = statistics.median(traced) / statistics.median(plain) - 1.0
            values = layer_metrics(mean, probe.medians(), overhead)
            metrics = {name: {"value": float(v), "unit": layer_unit(name)}
                       for name, v in values.items()}
            details.update(untraced_ops=len(plain), traced_ops=len(traced))
        else:
            latencies, _, _ = run.loop(args.seconds, probe=probe)
            tail, percentile, beyond = tail_latency(latencies)
            values = {
                "setup_s": probe.medians()["setup_s"],
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail,
                "ops_per_s": len(latencies) / math.fsum(latencies),
                "ok_ratio": (run.attempted - run.failed) / run.attempted,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
            details.update(
                timed_ops=len(latencies),
                tail_percentile=round(percentile, 2),
                ops_beyond_tail=beyond,
            )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    details.update(
        warmup_ops=1,
        inputs=[asdict(inp) for inp in inputs],
        sha256={str(k): digest for k, digest in sorted(run.digests.items())},
        failures=run.failures,
        setup=probe.medians(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        nproc=os.cpu_count(),
        thread_env=THREAD_ENV,
    )
    correct = run.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
