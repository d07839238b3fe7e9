"""Outside-in per-layer tracing for the benchmark's traced mode.

The simulator is not modified.  :func:`traced` patches the public
entry points of each layer at class level with span-recording wrappers
and restores the originals on exit.  Every wrapped call becomes one
span ``(method, start, end, parent, request)`` held in flat arrays;
a layer's self time is the summed duration of its spans minus the time
their child spans cover.

The request a span belongs to is the ``request_index`` of the event the
engine last popped from its heap: every call between two pops is work
done on behalf of that event's request (``-1`` for background GC
drains and for work outside the event loop).
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

#: ``(layer, module, class, methods)``: the boundaries spans are taken
#: at.  Layer names are the repo's module paths (``sim.des.heap`` is
#: the event heap inside ``repro.sim.des``).
LAYERS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    ("sim.des.run", "repro.sim.des.engine", "DesSimulationEngine", ("run",)),
    ("sim.des.heap", "repro.sim.des.events", "EventHeap", ("push", "pop")),
    (
        "sim.des.scheduler",
        "repro.sim.des.scheduler",
        "ChannelScheduler",
        ("admit", "commit", "frontier", "add_background"),
    ),
    ("sim.des.retry", "repro.sim.des.retry", "ReadRetryModel", ("sample_outcome",)),
    (
        "baselines.systems.read",
        "repro.baselines.systems",
        "StorageSystem",
        ("read_page_breakdown",),
    ),
    (
        "baselines.systems.write",
        "repro.baselines.systems",
        "StorageSystem",
        ("serve_write_page",),
    ),
    (
        "core.hotness",
        "repro.core.hotness",
        "MultiBloomHotness",
        ("record_read", "hotness", "frequency_level"),
    ),
    (
        "core.access_eval",
        "repro.core.access_eval",
        "AccessEval",
        ("on_read", "on_overwrite"),
    ),
    (
        "core.level_adjust.query",
        "repro.core.level_adjust",
        "LevelAdjustPolicy",
        ("extra_levels", "ber"),
    ),
    ("ftl.read_info", "repro.ftl.ssd", "Ssd", ("read_info",)),
    ("ftl.host_write", "repro.ftl.ssd", "Ssd", ("host_write",)),
    ("ftl.migrate", "repro.ftl.ssd", "Ssd", ("migrate",)),
    ("ftl.channel_of", "repro.ftl.ssd", "Ssd", ("channel_of",)),
    (
        "obs.tracer",
        "repro.obs.tracing",
        "Tracer",
        ("begin_request", "finish_request"),
    ),
    ("obs.tracer", "repro.obs.tracing", "Span", ("span", "event", "end")),
    (
        "obs.recorder",
        "repro.obs.timeseries",
        "WindowedRecorder",
        ("add", "sample", "advance", "flush"),
    ),
    (
        "obs.metrics",
        "repro.obs.metrics",
        "MetricsRegistry",
        ("counter", "gauge", "histogram", "register"),
    ),
    ("obs.metrics", "repro.obs.metrics", "Counter", ("inc",)),
    ("obs.metrics", "repro.obs.metrics", "Gauge", ("set",)),
    ("obs.metrics", "repro.obs.metrics", "Histogram", ("observe",)),
    (
        "obs.channel",
        "repro.obs.channel",
        "ChannelTelemetry",
        ("on_breakdown", "on_erase", "on_retire"),
    ),
    # The monitor's boundary is the pair of hooks it registers on the
    # recorder; the class attribute is read when attach() binds them.
    (
        "obs.monitor",
        "repro.obs.monitor.monitor",
        "HealthMonitor",
        ("_window_closed", "_run_flushed"),
    ),
)


class SpanLog:
    """Spans of one traced replay, in flat arrays (about 30 bytes each)."""

    def __init__(self) -> None:
        self.methods: list[tuple[str, str]] = []  # (layer, Class.method)
        self.method_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.stack: list[int] = []
        self.current_request = -1
        self.exhausted_reads = 0
        #: Histograms created by a MetricsRegistry.  A result's own
        #: response histograms are the engine's bookkeeping, not an
        #: observer, so their observe() calls are not spans.
        self.registry_histograms: set[int] = set()

    def __len__(self) -> int:
        return len(self.start)

    def _layer_ids(self):
        """Per span: its layer's index in ``layers``, and the layers."""
        layers = list(dict.fromkeys(layer for layer, _ in self.methods))
        of_method = np.array(
            [layers.index(layer) for layer, _ in self.methods], dtype=np.int64
        )
        return of_method[np.frombuffer(self.method_id, dtype=np.uint16)], layers

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus child-span cover."""
        if not len(self):
            return {}
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        own = duration.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], duration[nested])
        layer_id, layers = self._layer_ids()
        totals = np.bincount(layer_id, weights=own, minlength=len(layers))
        return {layer: float(totals[i]) for i, layer in enumerate(layers)}

    def entry_calls(self) -> dict[str, int]:
        """Calls into each layer from outside it (nested calls within a
        layer, such as ``frequency_level`` -> ``hotness``, count once)."""
        if not len(self):
            return {}
        parent = np.frombuffer(self.parent, dtype=np.int32)
        layer_id, layers = self._layer_ids()
        parent_layer = np.where(parent >= 0, layer_id[parent], -1)
        counts = np.bincount(
            layer_id[layer_id != parent_layer], minlength=len(layers)
        )
        return {layer: int(counts[i]) for i, layer in enumerate(layers)}

    def write_jsonl(self, path, every: int = 100) -> int:
        """Write the spans of every ``every``-th request, plus those
        outside any request, one JSON object per line; times in ns from
        the first span.  A span's ancestors share its request or are
        outside any, so every written ``parent`` is written too.
        Returns the number of spans written."""
        origin = self.start[0] if len(self) else 0.0
        written = 0
        with open(path, "w") as out:
            for i in range(len(self)):
                request = self.request[i]
                if request >= 0 and request % every:
                    continue
                layer, method = self.methods[self.method_id[i]]
                out.write(
                    f'{{"id":{i},"parent":{self.parent[i]},'
                    f'"request":{request},"layer":"{layer}",'
                    f'"method":"{method}",'
                    f'"start_ns":{round((self.start[i] - origin) * 1e9)},'
                    f'"end_ns":{round((self.end[i] - origin) * 1e9)}}}\n'
                )
                written += 1
        return written


def _wrap(log: SpanLog, method_id: int, fn: Callable, kind: str) -> Callable:
    def wrapper(*args, **kwargs):
        if kind == "histogram.observe" and id(args[0]) not in log.registry_histograms:
            return fn(*args, **kwargs)
        index = len(log.start)
        stack = log.stack
        log.method_id.append(method_id)
        log.parent.append(stack[-1] if stack else -1)
        log.request.append(log.current_request)
        log.end.append(0.0)
        stack.append(index)
        log.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            log.end[index] = perf_counter()
            stack.pop()
        if kind == "heap.pop":
            log.current_request = result.request_index
            log.request[index] = result.request_index
        elif kind == "retry.sample_outcome":
            log.exhausted_reads += result.exhausted
        elif kind == "registry.histogram":
            log.registry_histograms.add(id(result))
        return result

    return wraps(fn)(wrapper)


_SPECIAL = {
    ("EventHeap", "pop"): "heap.pop",
    ("ReadRetryModel", "sample_outcome"): "retry.sample_outcome",
    ("MetricsRegistry", "histogram"): "registry.histogram",
    ("Histogram", "observe"): "histogram.observe",
}


def patch_targets() -> Iterator[tuple[str, type, str]]:
    """Every ``(layer, class, method name)`` :func:`traced` patches."""
    for layer, module, cls_name, methods in LAYERS:
        cls = getattr(importlib.import_module(module), cls_name)
        for name in methods:
            yield layer, cls, name


@contextmanager
def traced(log: SpanLog) -> Iterator[SpanLog]:
    """Patch every layer boundary to record into ``log``; restore on exit."""
    saved: list[tuple[type, str, object]] = []
    try:
        for layer, cls, name in patch_targets():
            original = cls.__dict__[name]
            log.methods.append((layer, f"{cls.__name__}.{name}"))
            kind = _SPECIAL.get((cls.__name__, name), "")
            saved.append((cls, name, original))
            setattr(cls, name, _wrap(log, len(log.methods) - 1, original, kind))
        yield log
    finally:
        for cls, name, original in reversed(saved):
            setattr(cls, name, original)
