"""Event-loop throughput floor: events/sec and requests/sec, both engines.

The regression floor for simulator speed.  It replays one paper
workload through the queue engine and the DES engine and records
wall-clock events/sec and requests/sec straight from the engines' own
loop accounting (``SimulationResult.wall_*``, the same counters behind
the ``sim.wall.*`` gauges and every bench's ``wall`` sidecar).  The
BER/levels memo cells the replay reaches are filled before the timed
rounds, so the floor measures the loop rather than cold BER
evaluation.

Wall throughput is machine-dependent, so the gated specs declare a
wide tolerance — the gate catches "the loop got several times slower",
not runner-to-runner jitter — while the simulated event counts are
exact determinism pins: same seed, same trace, same event count, on
any machine.

Quick mode shrinks the trace: wiring coverage and a coarse floor, not
a careful measurement.
"""

from conftest import BENCH_SEED, QUICK, write_table

from repro.baselines.systems import SystemConfig, build_system
from repro.core.level_adjust import CellMode, LevelAdjustPolicy
from repro.ftl.config import SsdConfig
from repro.sim import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    SimulationEngine,
)
from repro.traces.workloads import make_workload

WORKLOAD = "fin-2"
INITIAL_PE = 6000
N_CHANNELS = 4
N_REQUESTS = 4_000 if QUICK else 30_000
#: Best-of-N wall timing: the minimum is the least noisy estimator of
#: the loop's true cost on a busy CI runner.
ROUNDS = 2 if QUICK else 3

#: Relative flat band for the wall-throughput floors.  Heterogeneous
#: runners differ by far more than simulation changes do, so the gate
#: only fires on a multiple-x slowdown — the determinism pins below
#: carry the tight comparisons.
WALL_TOLERANCE = 0.60


def _build_engine(kind: str, policy):
    ssd_config = SsdConfig(
        n_blocks=256, pages_per_block=64, initial_pe_cycles=INITIAL_PE
    )
    workload = make_workload(WORKLOAD, ssd_config.logical_pages)
    trace = workload.generate(N_REQUESTS, seed=BENCH_SEED)
    config = SystemConfig(
        ssd=ssd_config,
        footprint_pages=workload.footprint_pages,
        buffer_pages=512,
    )
    system = build_system("flexlevel", config, level_adjust=policy)
    if kind == "des":
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.25,
            n_channels=N_CHANNELS,
            retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
        )
    else:
        engine = SimulationEngine(
            system, warmup_fraction=0.25, n_channels=1
        )
    return engine, trace


def fill_memo(policy: LevelAdjustPolicy) -> None:
    """Evaluate the 18 memo cells the replay reaches: NORMAL and
    REDUCED pages at the drive's initial wear over the whole age grid
    (a replay adds far fewer erases per block than one P/E bucket)."""
    for mode in (CellMode.NORMAL, CellMode.REDUCED):
        for age in policy.age_grid:
            policy.extra_levels(mode, INITIAL_PE, age)


def run_throughput(policy):
    """Best-of-ROUNDS wall throughput per engine (fresh system each run)."""
    fill_memo(policy)
    best = {}
    for kind in ("queue", "des"):
        for _ in range(ROUNDS):
            engine, trace = _build_engine(kind, policy)
            result = engine.run(trace, WORKLOAD)
            prev = best.get(kind)
            if prev is None or result.wall_loop_s < prev.wall_loop_s:
                best[kind] = result
    return best


def test_event_loop_throughput(benchmark, results_dir, shared_policy, bench_case):
    bench_case.configure(
        workload=WORKLOAD,
        n_requests=N_REQUESTS,
        n_channels=N_CHANNELS,
        rounds=ROUNDS,
        retry_seed=2015,
    )
    best = benchmark.pedantic(
        run_throughput, args=(shared_policy,), rounds=1, iterations=1
    )
    queue, des = best["queue"], best["des"]

    lines = [
        f"{WORKLOAD}, {N_REQUESTS} requests, best of {ROUNDS} runs",
        "",
        f"{'engine':8s} {'events':>9s} {'loop s':>8s} "
        f"{'events/s':>10s} {'requests/s':>11s}",
    ]
    for kind, result in (("queue", queue), ("des", des)):
        lines.append(
            f"{kind:8s} {result.wall_events:9d} {result.wall_loop_s:8.3f} "
            f"{result.wall_events_per_s():10.0f} "
            f"{result.wall_requests_per_s():11.0f}"
        )
    write_table(results_dir, "event_loop_throughput", lines)

    metrics = {
        # Wall-throughput floors (wide band, higher is better).
        "queue_events_per_s": queue.wall_events_per_s(),
        "des_events_per_s": des.wall_events_per_s(),
        "des_requests_per_s": des.wall_requests_per_s(),
        # Determinism pins: simulated event counts depend only on the
        # seed and config, never on the machine.
        "queue_events_total": float(queue.wall_events),
        "des_events_total": float(des.wall_events),
        "des_events_per_request": des.wall_events / des.wall_requests,
    }
    specs = {
        "queue_events_per_s": {
            "direction": "higher", "tolerance": WALL_TOLERANCE,
        },
        "des_events_per_s": {
            "direction": "higher", "tolerance": WALL_TOLERANCE,
        },
        "des_requests_per_s": {
            "direction": "higher", "tolerance": WALL_TOLERANCE,
        },
    }
    bench_case.emit(metrics, specs, table="event_loop_throughput")

    # The loops actually ran and accounted their wall time.
    assert queue.wall_events == N_REQUESTS
    assert des.wall_requests == N_REQUESTS
    # Every request produces at least an arrival event in the DES heap.
    assert des.wall_events >= N_REQUESTS
    assert queue.wall_loop_s > 0.0 and des.wall_loop_s > 0.0
    assert des.wall_events_per_s() > 0.0
