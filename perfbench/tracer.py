"""Per-layer spans recorded from outside the library.

:class:`Tracer` replaces each public function of the ``nosignal`` layer
modules with a wrapper that records a span (name, layer, parent, start,
end), then restores the originals.  The library is not edited.

Modules import each other's functions by name (``audit`` binds
``orthogonal_pair``, ``trial_uniforms`` and ``reduce`` into its own
namespace), so wrapping a function only where it is defined would miss
those calls.  The tracer therefore rebinds every module attribute that
refers to a wrapped function, in every layer module and in the package
namespace, plus the ``ProjectorSet.probabilities`` method on its class.
Two counters ride along: the uniforms each ``trial_uniforms`` call
returns (``measurement.draws``) and the ``sample_composite`` calls made on
a resampling sub-stream (``audit.resampled_rows``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

PACKAGE = "nosignal"

#: Layer modules, named as the per-layer metrics name them.
LAYERS = ("modes", "optics", "wavepacket", "measurement", "audit", "cli")


def aggregate(spans: list[list]) -> Counter:
    """Totals for one operation's spans.

    Each span is ``[name, layer, parent_index, start, end]``.  Keys are
    ``<name>_s`` (inclusive time), ``<name>_self_s``, ``<name>_calls``,
    ``<layer>.self_s`` and ``<layer>.calls``.  Self time is the span's
    duration minus the durations of its direct children; spans on one
    thread nest, so the children never overlap.
    """
    child_time = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Counter = Counter()
    for index, (name, layer, _, start, end) in enumerate(spans):
        duration = end - start
        own = duration - child_time[index]
        totals[f"{name}_s"] += duration
        totals[f"{name}_self_s"] += own
        totals[f"{name}_calls"] += 1
        totals[f"{layer}.self_s"] += own
        totals[f"{layer}.calls"] += 1
    return totals


class Tracer:
    """Context manager that traces every layer call made while it is active."""

    def __init__(self) -> None:
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])
        projectors = modules["measurement"].ProjectorSet
        name = "measurement.ProjectorSet.probabilities"
        wrapper = self._wrap(vars(projectors)["probabilities"], name, "measurement")
        self._patch(projectors, "probabilities", wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, counters = self._spans, self._stack, self._counters
        clock = time.perf_counter
        counts_draws = name == "measurement.trial_uniforms"
        stream_of = inspect.signature(fn) if name == "audit.sample_composite" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stream_of is not None:
                # The audit resamples row i from the odd sub-stream 2i+1.
                stream = stream_of.bind(*args, **kwargs).arguments.get("stream", 0)
                counters["audit.resampled_rows"] += stream % 2
            record = [name, layer, stack[-1] if stack else None, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if counts_draws:
                counters["measurement.draws"] += len(result)
            return result

        return traced

    def take(self) -> Counter:
        """Totals of the spans and counters recorded since the last call; resets both."""
        totals = aggregate(self._spans)
        totals.update(self._counters)
        self._spans.clear()
        self._counters.clear()
        return totals
