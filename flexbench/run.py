"""Benchmark of the FlexLevel simulator: host speed and Fig. 6a fidelity.

    python3 flexbench/run.py --workload fin2 --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each run generates ``n_traces`` seeded
synthetic traces for the workload and replays them through the
4-channel discrete-event engine, once for ``ldpc-in-ssd`` and once for
``flexlevel`` per pair, alternating which system runs first, until the
requested seconds have passed and every trace has been replayed; an
untimed, detached repeat of the first trace checks determinism.  The
BER/levels memo is filled during set-up, so timed replays run with a
warm memo.

``--trace 0`` prints the end-to-end metrics: host throughput in
requests per run of a fixed reference kernel that runs between every
``CHUNK_REQUESTS`` requests (median over each system's replays, with
the quartiles, every replay's value and the wall-clock rates printed
beside it), and simulated read latency pooled over the traces.
``--trace 1`` replays the first trace with and without the span
wrappers of :mod:`layers` and prints per-layer metrics instead; the
spans of the last traced replay per system are written as JSONL under
``flexbench/out/``.  The last line of standard output is the JSON
result; the lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from layers import LAYERS, SpanLog, traced

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SYSTEMS = ("ldpc-in-ssd", "flexlevel")
PREFIX = {"ldpc-in-ssd": "ldpc", "flexlevel": "flexlevel"}
N_CHANNELS = 4
WARMUP_FRACTION = 0.25
BUFFER_PAGES = 512
RETRY_SEED = 2015
TELEMETRY_SEED = 2015
SETUP_REPEATS = 3
#: A clocked replay runs the reference kernel every ``CHUNK_REQUESTS``
#: emitted requests and times each chunk in between.
CHUNK_REQUESTS = 100
REFERENCE_EVENTS = 400


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: a paper preset at a fixed replay scale.

    ``n_traces`` traces are pooled per run so the simulated metrics
    repeat within a tenth across seeds; each holds at least ~8.2k
    reads, the earliest point at which a page can turn hot.
    """

    name: str
    preset: str
    n_requests: int
    n_traces: int
    observed: bool = False
    hotness_window: int = 4096


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("fin2", "fin-2", 20_000, 5),
        WorkloadSpec("prj1", "prj-1", 20_000, 4),
        WorkloadSpec("web1-observed", "web-1", 12_000, 4, observed=True),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "flexlevel_req_per_ref": "req/ref",
    "ldpc_req_per_ref": "req/ref",
    "peak_rss_mb": "MB",
    "flexlevel_read_mean_us": "us",
    "ldpc_read_mean_us": "us",
    "read_mean_reduction": "ratio",
    "flexlevel_read_p99_us": "us",
    "ldpc_read_p99_us": "us",
    "flexlevel_programs_per_req": "pages/req",
    "reduced_capacity_frac": "ratio",
}

#: Per-system layer metrics of the traced run (prefixed ``ldpc.`` or
#: ``flexlevel.``), besides each span layer's ``<layer>.self_s``.
SYSTEM_LAYER_UNITS = {
    "sim.des.events_per_req": "events/req",
    "sim.des.retry.mean_rounds": "rounds/read",
    "sim.des.retry.exhausted": "count",
    "baselines.systems.read.calls": "count",
    "baselines.systems.write.calls": "count",
    "core.hotness.calls": "count",
    "core.access_eval.promotions": "count",
    "core.access_eval.demotions": "count",
    "core.access_eval.pool_pages": "pages",
    "core.level_adjust.query.calls": "count",
    "core.level_adjust.replay_misses": "count",
    "ftl.gc_runs": "count",
    "ftl.gc_program_pages": "pages",
    "ftl.erase_blocks": "count",
    "ftl.waf": "ratio",
    "ftl.write_buffer.hit_ratio": "ratio",
    "ftl.prefill_s": "s",
    "trace_overhead_ratio": "ratio",
    "wall_req_per_s": "req/s",
}

SHARED_LAYER_UNITS = {
    "setup.import_s": "s",
    "traces.generate_s": "s",
    "core.level_adjust.fill_s": "s",
    "core.level_adjust.cells_filled": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name of ``--trace 1`` with its unit."""
    layers = dict.fromkeys(layer for layer, *_ in LAYERS)
    per_system = {f"{layer}.self_s": "s" for layer in layers}
    per_system.update(SYSTEM_LAYER_UNITS)
    units = dict(SHARED_LAYER_UNITS)
    for system in SYSTEMS:
        for name, unit in per_system.items():
            units[f"{PREFIX[system]}.{name}"] = unit
    return units


# --- set-up ------------------------------------------------------------------------


def import_repro() -> float:
    """Put the checkout's ``src`` on the path and import the simulator;
    returns the import's wall seconds."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"flexbench: no simulator sources at {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import repro.baselines.systems  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.traces.workloads  # noqa: F401

    return perf_counter() - start


def ssd_config():
    from repro.ftl.config import SsdConfig

    return SsdConfig(n_blocks=256, pages_per_block=64, initial_pe_cycles=6000)


@dataclass
class Prepared:
    """Everything one set-up pass builds."""

    policy: object
    traces: list
    footprint_pages: int
    systems: dict
    fill_s: float
    cells_filled: int
    generate_s: float
    prefill_s: dict
    total_s: float
    import_s: float = 0.0


def fill_memo(policy, ssd) -> None:
    """Evaluate every (mode, P/E bucket, age) cell a replay reaches.

    Replays run NORMAL and REDUCED cells at the drive's initial wear
    (GC adds a handful of erases per block, far short of the next P/E
    bucket) over the whole age grid; the warm-memo check of every timed
    replay verifies the coverage.
    """
    from repro.core.level_adjust import CellMode

    for mode in (CellMode.NORMAL, CellMode.REDUCED):
        for age in policy.age_grid:
            policy.extra_levels(mode, ssd.initial_pe_cycles, age)


def build_system(name: str, spec: WorkloadSpec, policy, footprint_pages: int):
    from repro.baselines.systems import SystemConfig, build_system

    config = SystemConfig(
        ssd=ssd_config(),
        footprint_pages=footprint_pages,
        buffer_pages=BUFFER_PAGES,
        hotness_window=spec.hotness_window,
    )
    return build_system(name, config, level_adjust=policy)


def prepare(spec: WorkloadSpec, seed: int) -> Prepared:
    """Cold memo fill, trace generation and prefill of both systems."""
    from repro.core.level_adjust import LevelAdjustPolicy
    from repro.traces.workloads import make_workload

    ssd = ssd_config()
    start = perf_counter()
    policy = LevelAdjustPolicy()
    fill_memo(policy, ssd)
    filled = perf_counter()
    workload = make_workload(spec.preset, ssd.logical_pages)
    traces = [
        workload.generate(spec.n_requests, seed=seed * spec.n_traces + k)
        for k in range(spec.n_traces)
    ]
    generated = perf_counter()
    systems, prefill_s = {}, {}
    for name in SYSTEMS:
        t = perf_counter()
        systems[name] = build_system(name, spec, policy, workload.footprint_pages)
        prefill_s[name] = perf_counter() - t
    return Prepared(
        policy=policy,
        traces=traces,
        footprint_pages=workload.footprint_pages,
        systems=systems,
        fill_s=filled - start,
        cells_filled=policy.cache_misses,
        generate_s=generated - filled,
        prefill_s=prefill_s,
        total_s=perf_counter() - start,
    )


# --- replays -----------------------------------------------------------------------


@dataclass
class Replay:
    """One replay of one trace through one system, with its checks."""

    system: str
    trace: int
    requests: int
    wall_s: float = 0.0
    result: object = None
    digest: str = ""
    memo_misses: int = 0
    failures: list = field(default_factory=list)
    pool_pages: int = 0
    chunk_s: list = field(default_factory=list)
    reference_s: list = field(default_factory=list)


def observers(ssd) -> dict:
    """Every stock observer, freshly built, as engine keyword arguments."""
    from repro.obs import (
        ChannelTelemetry,
        HealthMonitor,
        MetricsRegistry,
        Tracer,
        WindowedRecorder,
    )

    registry = MetricsRegistry()
    tracer = Tracer()
    recorder = WindowedRecorder()
    HealthMonitor(recorder, registry=registry, tracer=tracer).attach()
    telemetry = ChannelTelemetry(
        ssd.n_blocks, page_bits=ssd.page_size_bytes * 8, seed=TELEMETRY_SEED
    )
    return {
        "registry": registry,
        "tracer": tracer,
        "recorder": recorder,
        "channel_telemetry": telemetry,
    }


def digest(result) -> str:
    """Simulated-output digest: ``summary()`` plus ``stats``."""
    payload = json.dumps(
        {"summary": result.summary(), "stats": result.stats}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def reference_kernel() -> float:
    """A fixed slice of discrete-event work in plain Python: heap pushes
    and pops of ``(time, id)`` pairs and dict updates, the operations the
    DES loop is made of.  Its host time is the yardstick a clocked
    replay's chunks are measured in."""
    heap: list = []
    totals: dict = {}
    now = 0.0
    for i in range(REFERENCE_EVENTS):
        heapq.heappush(heap, (now + (i * 7919 % 613) * 0.5, i))
        if len(heap) > 32:
            now, j = heapq.heappop(heap)
            totals[j % 257] = totals.get(j % 257, 0.0) + now
    return now


@functools.cache
def clocked_source_class():
    """``TraceSource`` that, as it emits every ``CHUNK_REQUESTS``-th
    request, runs :func:`reference_kernel` and records when the kernel
    started and ended.  The engine polls the source once per arrival,
    so the work between two kernel runs is one chunk of the replay."""
    from repro.sim.des import TraceSource

    class ClockedSource(TraceSource):
        def __init__(self, records):
            super().__init__(records)
            self.stamps: list[tuple[float, float]] = []

        def next_request(self, now_us):
            if self._next < len(self._records) and self._next % CHUNK_REQUESTS == 0:
                begin = perf_counter()
                reference_kernel()
                self.stamps.append((begin, perf_counter()))
            return super().next_request(now_us)

    return ClockedSource


def replay(
    system, name: str, k: int, trace, observed: bool, clocked: bool = False
) -> Replay:
    """Replay ``trace`` through ``system``; only the engine is timed.

    A clocked replay drives ``engine.run_source`` with the arguments
    ``engine.run`` would pass, through a :func:`clocked_source_class`
    source, and keeps each chunk's host seconds and the reference
    kernel's beside it; ``wall_s`` leaves the kernel runs out.  Other
    replays call ``engine.run`` itself, so the detached repeat's digest
    check also shows the clocked source leaves the simulation alone.
    """
    from repro.errors import SimulationError
    from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel

    extra = observers(system.config.ssd) if observed else {}
    engine = DesSimulationEngine(
        system,
        warmup_fraction=WARMUP_FRACTION,
        n_channels=N_CHANNELS,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=RETRY_SEED)),
        **extra,
    )
    out = Replay(system=name, trace=k, requests=len(trace))
    source = clocked_source_class()(trace) if clocked else None
    warmup_count = int(len(trace) * WARMUP_FRACTION)
    misses = system.level_adjust.cache_misses
    gc.collect()
    start = perf_counter()
    try:
        if clocked:
            out.result = engine.run_source(source, name, warmup_count=warmup_count)
        else:
            out.result = engine.run(trace, name)
    except SimulationError as exc:  # the engine's conservation check
        out.failures.append(f"conservation: {exc}")
        return out
    finally:
        end = perf_counter()
        out.wall_s = end - start
        if clocked:
            stamps = source.stamps
            out.reference_s = [after - begin for begin, after in stamps]
            chunk_ends = [begin for begin, _ in stamps[1:]] + [end]
            out.chunk_s = [b - a for (_, a), b in zip(stamps, chunk_ends)]
            out.wall_s -= sum(out.reference_s)
    out.memo_misses = system.level_adjust.cache_misses - misses
    out.digest = digest(out.result)
    if out.memo_misses:
        out.failures.append(f"{out.memo_misses} BER memo misses in a warm replay")
    if out.result.uncorrectable_reads:
        out.failures.append(f"{out.result.uncorrectable_reads} uncorrectable reads")
    access_eval = getattr(system, "access_eval", None)
    if access_eval is not None:
        out.pool_pages = len(access_eval.pool)
    return out


def check_pair(pair: dict, first: dict) -> None:
    """FlexLevel engagement and same-trace determinism for one pair.

    Only the first replay of each (system, trace) keeps its result: the
    simulated metrics come from those, and memory stays flat however
    many replays the host's speed allows.
    """
    flex, ldpc = pair["flexlevel"], pair["ldpc-in-ssd"]
    if flex.result is not None:
        if flex.result.stats["promotions"] <= 0:
            flex.failures.append("AccessEval made no promotion")
        if flex.pool_pages <= 0:
            flex.failures.append("the reduced pool is empty")
        if (
            ldpc.result is not None
            and flex.result.mean_read_response_us()
            == ldpc.result.mean_read_response_us()
        ):
            flex.failures.append("flexlevel read mean equals ldpc-in-ssd")
    for name, rep in pair.items():
        if rep.result is None:
            continue
        reference = first.setdefault((name, rep.trace), rep)
        if reference is rep:
            continue
        if reference.digest != rep.digest:
            rep.failures.append(
                f"digest {rep.digest} != {reference.digest} of an earlier "
                f"replay of trace {rep.trace}"
            )
        rep.result = None


def system_order(i: int) -> tuple[str, ...]:
    return SYSTEMS if i % 2 == 0 else SYSTEMS[::-1]


def next_system(prep: Prepared, spec: WorkloadSpec, name: str):
    """The set-up's prefilled system on first use, a fresh one after."""
    system = prep.systems.pop(name, None)
    if system is None:
        system = build_system(name, spec, prep.policy, prep.footprint_pages)
    return system


def run_pairs(spec: WorkloadSpec, prep: Prepared, seconds: float) -> list:
    """Clocked replays: pairs cycle through the traces until ``seconds``
    have passed and every trace has been replayed.  Then trace 0 is
    replayed once more per system, untimed through ``engine.run`` and
    with no observer attached; its digest must equal the clocked
    replay's.  That checks determinism and the clocked source, and on
    an observed workload also that attaching the observers leaves the
    simulated outputs byte-identical."""
    replays: list[Replay] = []
    first: dict = {}
    start = perf_counter()
    i = 0
    while i < spec.n_traces or perf_counter() - start < seconds:
        k = i % spec.n_traces
        pair = {}
        for name in system_order(i):
            system = next_system(prep, spec, name)
            pair[name] = replay(
                system, name, k, prep.traces[k], spec.observed, clocked=True
            )
        check_pair(pair, first)
        replays.extend(pair.values())
        i += 1
    for name in SYSTEMS:
        system = next_system(prep, spec, name)
        again = replay(system, name, 0, prep.traces[0], observed=False)
        clocked = first.get((name, 0))
        if clocked is not None and again.digest != clocked.digest:
            message = (
                f"untimed detached replay digest {again.digest} != clocked "
                f"{clocked.digest} on trace 0"
            )
            again.failures.append(message)
            clocked.failures.append(message)
        again.result = None
        replays.append(again)
    return replays


# --- metrics -----------------------------------------------------------------------


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pooled_reads(results: list):
    """Read-response histogram merged over the traces' replays."""
    from repro.sim.results import response_histogram

    pooled = response_histogram("sim.read.response_us")
    for result in results:
        pooled.merge(result.read_hist)
    return pooled


def reference_units(rep: Replay) -> float:
    """A clocked replay's host time in runs of the reference kernel.

    Each chunk is divided by the median of three kernel runs: the one at
    its start and its neighbours (the nearest three at either end of
    the trace).  The kernel ran within milliseconds of the chunk, so a
    slowdown of the host shows in both, and the median keeps one
    interrupted kernel run from counting."""
    ref = rep.reference_s
    top = max(len(ref) - 3, 0)
    return sum(
        chunk / statistics.median(ref[min(max(c - 1, 0), top) :][:3])
        for c, chunk in enumerate(rep.chunk_s)
    )


def host_rates(replays: list, name: str) -> tuple[list, list]:
    """Per clocked replay of ``name`` that ran to the end: requests per
    reference-kernel run, and requests per wall second."""
    runs = [
        rep for rep in replays if rep.system == name and rep.chunk_s and rep.digest
    ]
    return (
        [rep.requests / reference_units(rep) for rep in runs],
        [rep.requests / rep.wall_s for rep in runs],
    )


def end_to_end(spec, replays, setup_s, report) -> dict:
    firsts: dict = {}
    for rep in replays:
        if rep.result is not None:
            firsts.setdefault((rep.system, rep.trace), rep.result)
    metrics = {"setup_s": setup_s}
    read_means = {}
    for name in SYSTEMS:
        prefix = PREFIX[name]
        per_ref, per_s = host_rates(replays, name)
        q1, median, q3 = quartiles(per_ref or [0.0])
        metrics[f"{prefix}_req_per_ref"] = median
        report.append(
            f"{prefix}_req_per_ref: median {median:.3f}, quartiles "
            f"{q1:.3f}..{q3:.3f} over {len(per_ref)} replays: "
            + " ".join(f"{rate:.3f}" for rate in per_ref)
        )
        q1, median, q3 = quartiles(per_s or [0.0])
        report.append(
            f"{prefix} wall req/s (not a metric): median {median:.0f}, "
            f"quartiles {q1:.0f}..{q3:.0f}: " + " ".join(f"{r:.0f}" for r in per_s)
        )
        results = [firsts[(name, k)] for k in range(spec.n_traces) if (name, k) in firsts]
        reads = pooled_reads(results)
        read_means[name] = reads.mean()
        metrics[f"{prefix}_read_mean_us"] = reads.mean()
        p99 = reads.quantile(99)
        metrics[f"{prefix}_read_p99_us"] = p99
        report.append(
            f"{prefix}_read_p99_us: {p99:.1f} from {reads.count} pooled reads "
            f"({reads.count // 100} beyond p99) over {len(results)} traces"
        )
        if name == "flexlevel":
            programs = sum(r.stats["total_program_pages"] for r in results)
            metrics["flexlevel_programs_per_req"] = programs / max(
                spec.n_requests * len(results), 1
            )
            reduced = sum(r.stats["reduced_logical_pages"] for r in results)
            metrics["reduced_capacity_frac"] = reduced / max(
                ssd_config().logical_pages * len(results), 1
            )
    ldpc_mean = read_means["ldpc-in-ssd"]
    metrics["read_mean_reduction"] = (
        1.0 - read_means["flexlevel"] / ldpc_mean if ldpc_mean else 0.0
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {name: metrics[name] for name in END_TO_END_UNITS}


def run_traced(spec, prep, seconds, report) -> tuple[list, dict]:
    """Untraced and traced replays of trace 0, alternating systems."""
    replays: list[Replay] = []
    first: dict = {}
    walls = {name: {"plain": [], "traced": []} for name in SYSTEMS}
    self_times = {name: [] for name in SYSTEMS}
    last = {}
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        pair = {}
        for name in system_order(i):
            system = next_system(prep, spec, name)
            pair[name] = replay(system, name, 0, prep.traces[0], spec.observed)
        check_pair(pair, first)
        replays.extend(pair.values())
        for name in system_order(i):
            system = next_system(prep, spec, name)
            log = SpanLog()
            with traced(log):
                rep = replay(system, name, 0, prep.traces[0], spec.observed)
            if rep.digest != pair[name].digest:
                rep.failures.append(
                    f"traced digest {rep.digest} != untraced {pair[name].digest}"
                )
            replays.append(rep)
            walls[name]["plain"].append(pair[name].wall_s)
            walls[name]["traced"].append(rep.wall_s)
            self_times[name].append(log.self_times())
            last[name] = (rep, system, log)
        i += 1

    units = per_layer_units()
    metrics = {
        "setup.import_s": prep.import_s,
        "traces.generate_s": prep.generate_s,
        "core.level_adjust.fill_s": prep.fill_s,
        "core.level_adjust.cells_filled": prep.cells_filled,
    }
    OUT_DIR.mkdir(exist_ok=True)
    for name in SYSTEMS:
        prefix = PREFIX[name]
        rep, system, log = last[name]
        for layer in dict.fromkeys(layer for layer, *_ in LAYERS):
            metrics[f"{prefix}.{layer}.self_s"] = statistics.median(
                times.get(layer, 0.0) for times in self_times[name]
            )
        calls = log.entry_calls()
        result = rep.result
        stats = result.stats if result is not None else {}
        access_eval = getattr(system, "access_eval", None)
        read_calls = calls.get("baselines.systems.read", 0)
        values = {
            "sim.des.events_per_req": result.wall_events / max(result.wall_requests, 1)
            if result is not None
            else 0.0,
            "sim.des.retry.mean_rounds": stats.get("mean_retry_rounds", 0.0),
            "sim.des.retry.exhausted": log.exhausted_reads,
            "baselines.systems.read.calls": read_calls,
            "baselines.systems.write.calls": calls.get("baselines.systems.write", 0),
            "core.hotness.calls": calls.get("core.hotness", 0),
            "core.access_eval.promotions": stats.get("promotions", 0),
            "core.access_eval.demotions": stats.get("demotions", 0),
            "core.access_eval.pool_pages": len(access_eval.pool) if access_eval else 0,
            "core.level_adjust.query.calls": calls.get("core.level_adjust.query", 0),
            "core.level_adjust.replay_misses": rep.memo_misses,
            "ftl.gc_runs": stats.get("gc_runs", 0),
            "ftl.gc_program_pages": stats.get("gc_program_pages", 0),
            "ftl.erase_blocks": stats.get("erase_blocks", 0),
            "ftl.waf": stats.get("write_amplification", 0.0),
            "ftl.write_buffer.hit_ratio": stats.get("buffer_hits", 0) / max(read_calls, 1),
            "ftl.prefill_s": prep.prefill_s[name],
            "trace_overhead_ratio": statistics.median(walls[name]["traced"])
            / statistics.median(walls[name]["plain"]),
            "wall_req_per_s": len(prep.traces[0])
            / statistics.median(walls[name]["plain"]),
        }
        for key, value in values.items():
            metrics[f"{prefix}.{key}"] = value
        path = OUT_DIR / f"spans_{spec.name}_{prefix}.jsonl"
        written = log.write_jsonl(path)
        report.append(
            f"{prefix}: {len(log)} spans, {written} of them (every 100th "
            f"request) -> {path.relative_to(ROOT)}; traced/untraced wall "
            f"{metrics[f'{prefix}.trace_overhead_ratio']:.2f}"
        )
    return replays, {key: metrics[key] for key in units}


# --- entry point -------------------------------------------------------------------


def set_up(spec: WorkloadSpec, seed: int) -> Prepared:
    """Import once, then prepare ``SETUP_REPEATS`` times.  Returns the
    last preparation with every timing replaced by its median."""
    import_s = import_repro()
    preps = [prepare(spec, seed) for _ in range(SETUP_REPEATS)]
    median = statistics.median
    return replace(
        preps[-1],
        import_s=import_s,
        fill_s=median(p.fill_s for p in preps),
        generate_s=median(p.generate_s for p in preps),
        prefill_s={name: median(p.prefill_s[name] for p in preps) for name in SYSTEMS},
        total_s=median(p.total_s for p in preps),
    )


def run(spec: WorkloadSpec, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """One benchmark run; returns the JSON result and report lines."""
    prep = set_up(spec, seed)
    setup_s = prep.import_s + prep.total_s
    report = [
        f"workload {spec.name}: {spec.n_traces} x {spec.n_requests} requests of "
        f"{spec.preset}, seed {seed}; set-up {setup_s:.2f} s "
        f"(import {prep.import_s:.2f} s + median of {SETUP_REPEATS} set-ups)"
    ]
    if trace:
        replays, metrics = run_traced(spec, prep, seconds, report)
        units = per_layer_units()
    else:
        replays = run_pairs(spec, prep, seconds)
        metrics = end_to_end(spec, replays, setup_s, report)
        units = END_TO_END_UNITS
    failed = [rep for rep in replays if rep.failures]
    for rep in failed:
        report.append(
            f"FAILED {rep.system} trace {rep.trace}: {'; '.join(rep.failures)}"
        )
    out = {
        "correct": not failed,
        "attempted": sum(rep.requests for rep in replays),
        "failed": sum(rep.requests for rep in failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return out, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out, report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
