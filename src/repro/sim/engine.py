"""Trace-driven simulation.

The engine replays a trace against a storage system with a single
service queue (one channel): a request's service time is the sum of its
page operations, it starts when both the device is free and the request
has arrived, and its response time includes the queueing delay — which
is what turns per-read latency differences into the paper's
system-level response-time gaps.

Background work (garbage collection, write-buffer flushes, AccessEval
migrations) is modelled the way controllers schedule it: a backlog that
drains into idle gaps between requests.  GC is incremental, so a
request arriving while background work is in flight stalls for at most
one granule (one page operation), not for a whole block reclaim.  Under
write pressure the backlog stops fitting into idle time and the stalls
become permanent — the paper's "frequent garbage collection" regime.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

from repro.baselines.systems import StorageSystem
from repro.errors import ConfigurationError
from repro.obs.channel import ChannelTelemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import EventLoopProfiler, record_loop
from repro.obs.timeseries import WindowedRecorder
from repro.obs.tracing import Tracer
from repro.sim.results import SimulationResult
from repro.traces.schema import TraceRecord


class SimulationEngine:
    """Replays traces against a storage system.

    Parameters
    ----------
    system:
        The storage system under test.
    warmup_fraction:
        Leading fraction of requests whose response times are *not*
        recorded (caches and pools warm up), though their work still
        executes.
    n_channels:
        Independent flash channels; page operations of one request are
        spread across them (service time divides by the channels
        actually usable for the request's page count).
    gc_granule_us:
        Largest non-preemptible slice of background work; a request
        arriving mid-backlog waits at most this long before service.
        Defaults to one page program.
    registry:
        Optional :class:`repro.obs.MetricsRegistry`; when set, the run
        publishes its counters and response-time histograms into it.
    tracer:
        Optional :class:`repro.obs.Tracer`; the single-queue engine has
        no per-round visibility, so its request spans decompose into
        queue wait, GC stall and service only.
    recorder:
        Optional :class:`repro.obs.WindowedRecorder`; when set, the run
        emits virtual-time-windowed telemetry.  The single queue is one
        aggregated server, so per-channel series all land on channel 0
        (``sim.channel.0.*``); the SSD's own windowed series (GC runs,
        scrub refreshes, block retirements) route into the same
        recorder.  Windows cover the whole run including warmup.
    sample_cap:
        Overrides the result's exact-sample cap (None keeps
        :data:`repro.sim.results.DEFAULT_SAMPLE_CAP`).
    profiler:
        Optional :class:`repro.obs.profile.EventLoopProfiler`.  The
        single-queue loop has one event type (``request``) per trace
        record; the per-request phases (sense/transfer/GC/trace) are
        accounted inside it.  Wall-clock only; simulated outputs are
        byte-identical with or without a profiler.
    channel_telemetry:
        Optional :class:`repro.obs.channel.ChannelTelemetry`; flash
        reads report their block/sensing/wear context into it (the
        single queue has no retry model, so rounds are always 0 and
        everything lands on channel 0).  Simulated outputs are
        byte-identical with or without telemetry attached.
    """

    def __init__(
        self,
        system: StorageSystem,
        warmup_fraction: float = 0.1,
        n_channels: int = 1,
        gc_granule_us: float | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        recorder: WindowedRecorder | None = None,
        sample_cap: int | None = None,
        profiler: EventLoopProfiler | None = None,
        channel_telemetry: ChannelTelemetry | None = None,
    ):
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction outside [0, 1)")
        if n_channels < 1:
            raise ConfigurationError("need at least one channel")
        self.system = system
        self.warmup_fraction = warmup_fraction
        self.n_channels = n_channels
        if gc_granule_us is None:
            gc_granule_us = system.config.ssd.timing.program_us
        if gc_granule_us < 0:
            raise ConfigurationError("negative GC granule")
        self.gc_granule_us = gc_granule_us
        self.registry = registry
        self.tracer = tracer
        self.recorder = recorder
        if sample_cap is not None and sample_cap < 0:
            raise ConfigurationError("negative sample cap")
        self.sample_cap = sample_cap
        self.profiler = profiler
        self.channel_telemetry = channel_telemetry

    def run(
        self,
        records: Iterable[TraceRecord],
        workload_name: str = "unnamed",
        crash_us: float | None = None,
    ) -> SimulationResult:
        """Replay a trace and return aggregated results.

        ``crash_us`` models a sudden power-off at that virtual time:
        requests whose service would start at or after the cut are
        never dispatched, requests in flight at the cut never complete
        (counted in ``result.aborted_requests``), and the device state
        is whatever the dispatched prefix mutated — exactly what
        :mod:`repro.ftl.recovery` has to remount from.
        """
        # The SSD routes its own windowed series and media events into
        # this run's observers; the previous ones come back on exit, so
        # a later run of the same system never writes into this one's.
        ssd = self.system.ssd
        detached = ssd.window_recorder, ssd.channel_telemetry
        try:
            return self._replay(records, workload_name, crash_us)
        finally:
            ssd.window_recorder, ssd.channel_telemetry = detached

    def _replay(
        self,
        records: Iterable[TraceRecord],
        workload_name: str,
        crash_us: float | None,
    ) -> SimulationResult:
        records = list(records)
        if not records:
            raise ConfigurationError("empty trace")
        result = SimulationResult(
            system_name=self.system.name, workload_name=workload_name
        )
        if self.sample_cap is not None:
            result.sample_cap = self.sample_cap
        warmup_count = int(len(records) * self.warmup_fraction)
        if warmup_count >= len(records):
            # A fraction < 1 can still round up to everything (float
            # representation near 1.0); fail loudly instead of
            # returning an empty result full of NaN aggregates.
            raise ConfigurationError(
                f"warmup fraction {self.warmup_fraction} rounds to all "
                f"{len(records)} requests — nothing would be recorded"
            )
        recorder = self.recorder
        if recorder is not None:
            self.system.ssd.window_recorder = recorder
        telemetry = self.channel_telemetry
        if telemetry is not None:
            self.system.ssd.channel_telemetry = telemetry
        device_free_at = 0.0
        backlog_us = 0.0
        busy_us_total = 0.0
        last_completion = records[0].timestamp_us
        footprint = self.system.config.footprint_pages
        profiler = self.profiler
        crashed = False
        aborted = 0
        loop_t0 = perf_counter()
        for index, record in enumerate(records):
            if crash_us is not None and record.timestamp_us >= crash_us:
                # Power was lost before this request arrived; the
                # remainder of the trace belongs to a resumed run.
                crashed = True
                break
            if profiler is not None:
                profiler.begin("event.request")
            arrival = record.timestamp_us
            if recorder is not None:
                # Records are processed in arrival order and every
                # observation lands at or after the record's arrival,
                # so windows behind this arrival are final — close
                # them for online consumers (the health monitor).
                recorder.advance(arrival)
            # Background work drains into the idle gap before this arrival.
            idle = max(0.0, arrival - device_free_at)
            drained = min(backlog_us, idle)
            backlog_us -= drained
            device_free_at += drained
            start = max(arrival, device_free_at)
            stall = 0.0
            if backlog_us > 0.0:
                # The device is mid-granule on background work.
                stall = min(backlog_us, self.gc_granule_us)
                backlog_us -= stall
                start += stall
            if crash_us is not None and start >= crash_us:
                # Queued at the cut but never serviced: no FTL state
                # was mutated for it — a pure abort.  The device never
                # frees up again (power is off), so later arrivals
                # cannot overtake this one in the FIFO queue.
                device_free_at = float("inf")
                crashed = True
                aborted += 1
                if profiler is not None:
                    profiler.end()
                continue
            service = 0.0
            for lpn in record.pages():
                if footprint:
                    lpn %= footprint
                if profiler is not None:
                    profiler.begin(
                        "phase.transfer" if record.is_write else "phase.sense"
                    )
                if record.is_write:
                    service += self.system.serve_write_page(lpn, start)
                else:
                    # Same scalar serve_read_page returns (its
                    # implementation is this breakdown's service_us);
                    # the breakdown additionally feeds media telemetry.
                    breakdown = self.system.read_page_breakdown(lpn, start)
                    service += breakdown.service_us
                    if telemetry is not None and not breakdown.buffer_hit:
                        # Iteration trail feeds only the sampled
                        # trajectories; skip it once the cap is full.
                        if (
                            len(telemetry.trajectories)
                            < telemetry.trajectory_cap
                        ):
                            trail = (
                                self.system.latency.decode_iterations(
                                    breakdown.provisioned_levels
                                ),
                            )
                        else:
                            trail = ()
                        observed = telemetry.on_breakdown(
                            breakdown, iterations=trail
                        )
                        if recorder is not None:
                            recorder.add(
                                "channel.observed_errors", start, observed
                            )
                            recorder.sample(
                                "channel.sensing.levels",
                                start,
                                breakdown.provisioned_levels,
                            )
                        if self.registry is not None:
                            self.registry.counter("channel.reads").inc()
                            self.registry.counter(
                                "channel.observed_errors"
                            ).inc(observed)
                if profiler is not None:
                    profiler.end()
            effective_channels = min(self.n_channels, record.n_pages)
            service /= effective_channels
            completion = start + service
            device_free_at = completion
            if profiler is not None:
                profiler.begin("phase.gc")
            backlog_us += self.system.take_background_us()
            if profiler is not None:
                profiler.end()
            if crash_us is not None and completion >= crash_us:
                # Serviced past the cut: the FTL mutations stand (the
                # crash-consistency problem) but the host never saw the
                # acknowledgement.
                crashed = True
                aborted += 1
                if profiler is not None:
                    profiler.end()
                continue
            busy_us_total += drained + stall + service
            last_completion = max(last_completion, completion)
            if recorder is not None:
                recorder.add("sim.arrivals", arrival)
                recorder.add("sim.channel.0.ops", start)
                recorder.add("sim.channel.0.busy_us", start, service)
                if drained + stall > 0.0:
                    # Background work is binned at the request's
                    # service start, not spread across the idle gap it
                    # actually drained into.
                    recorder.add("sim.channel.0.gc_us", start, drained + stall)
                recorder.sample(
                    "sim.degraded.read_only",
                    completion,
                    float(self.system.ssd.read_only),
                )
                recorder.sample(
                    "sim.response_us", completion, completion - arrival
                )
            if index >= warmup_count:
                result.record(record.is_write, completion - record.timestamp_us)
                if self.tracer is not None:
                    if profiler is not None:
                        profiler.begin("phase.trace")
                    self._trace_request(record, arrival, start, stall, completion)
                    if profiler is not None:
                        profiler.end()
                if self.registry is not None:
                    self.registry.histogram("sim.queue_wait_us").observe(
                        start - arrival
                    )
            if profiler is not None:
                profiler.end()
        loop_s = perf_counter() - loop_t0
        if recorder is not None:
            recorder.flush()
        # One "event" per trace record: the single-queue loop has no
        # heap, so its iteration count is its event count.
        result.wall_loop_s = loop_s
        result.wall_events = len(records)
        result.wall_requests = len(records)
        record_loop(len(records), len(records), loop_s)
        if profiler is not None:
            profiler.finish_loop(loop_s, len(records), len(records))
        result.stats = self.system.ssd.stats.snapshot()
        result.stats["reduced_logical_pages"] = self.system.ssd.reduced_logical_pages()
        result.stats["max_pe_cycles"] = self.system.ssd.max_pe_cycles()
        result.stats["residual_backlog_us"] = backlog_us
        if crashed:
            result.crashed = True
            result.crash_us = crash_us
            result.aborted_requests = aborted
            # Gated on an actual crash: crash-free stats snapshots stay
            # byte-identical to pre-SPO builds.
            result.stats["crashed"] = 1.0
            result.stats["aborted_requests"] = float(aborted)
        if self.registry is not None:
            self.system.publish_metrics(self.registry)
            self.registry.register("sim.read.response_us", result.read_hist)
            self.registry.register("sim.write.response_us", result.write_hist)
            self.registry.gauge("sim.residual_backlog_us").set(backlog_us)
            self.registry.gauge("sim.wall.loop_s").set(result.wall_loop_s)
            self.registry.gauge("sim.wall.events_per_s").set(
                result.wall_events_per_s()
            )
            self.registry.gauge("sim.wall.requests_per_s").set(
                result.wall_requests_per_s()
            )
            # The single queue is one aggregated server reported as
            # channel 0: busy time is foreground service plus drained
            # GC, mirroring the DES engine's per-channel accounting.
            makespan_us = max(last_completion - records[0].timestamp_us, 0.0)
            self.registry.gauge("sim.makespan_us").set(makespan_us)
            self.registry.gauge("sim.channel.0.busy_us").set(busy_us_total)
            utilization = (
                busy_us_total / makespan_us if makespan_us > 0.0 else 0.0
            )
            self.registry.gauge("sim.channel.0.utilization").set(utilization)
        return result

    def _trace_request(
        self,
        record: TraceRecord,
        arrival: float,
        start: float,
        stall: float,
        completion: float,
    ) -> None:
        """Offer one request's coarse span tree to the tracer.

        The single-queue engine knows only the queue wait, the GC
        stall and the aggregate service; per-round decomposition needs
        the DES engine.
        """
        trace = self.tracer.begin_request(
            "write_request" if record.is_write else "read_request",
            arrival,
            n_pages=record.n_pages,
        )
        trace.span("queue_wait", arrival).end(start)
        if stall > 0.0:
            trace.span("gc_stall", start - stall).end(start)
        trace.span(
            "service", start, n_pages=record.n_pages
        ).end(completion)
        self.tracer.finish_request(trace, completion)
