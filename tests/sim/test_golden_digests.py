"""Golden digests of the 4-channel DES engine's simulated outputs.

Speed-only rewrites of the engine, the storage systems, the retry model
and the FTL must leave every simulated number bit-identical.  Each case
replays a fixed ~5k-request trace and hashes ``summary()`` plus
``stats``, so any drift in latencies, retry draws, memo-hit counting,
GC, fault handling or AccessEval decisions fails here.  A change that
is meant to move simulated numbers re-pins these digests and says why.
"""

import hashlib
import json

import pytest

from repro.baselines.systems import SystemConfig, build_system, system_names
from repro.core.level_adjust import CellMode, LevelAdjustPolicy
from repro.faults import FaultConfig, FaultInjector
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel
from repro.traces.workloads import make_workload

N_REQUESTS = 5000
N_CHANNELS = 4
#: A short hotness window so AccessEval promotes within 5k requests.
HOTNESS_WINDOW = 512

SSD = SsdConfig(n_blocks=128, pages_per_block=64, initial_pe_cycles=6000)

GOLDEN = {
    ("fin-2", "baseline"): (
        "faabe7dfdaca02c9da054e15bbdd3b24"
        "e90e060aa9361f253899e321c5688ffe"
    ),
    ("fin-2", "ldpc-in-ssd"): (
        "6a1790a4b79661dc0098cb59f55aa807"
        "8caf0cd0c85fc95a208fee68b57997a3"
    ),
    ("fin-2", "leveladjust-only"): (
        "a5193b22ca28275f21f07c22f72cbb0e"
        "b6cbd87a4274eb333c6881dbd6e16743"
    ),
    ("fin-2", "flexlevel"): (
        "fda750c484fa2622dc52e0c21cabfe15"
        "feeb7fde8f75293ab3b7cbcf4822e861"
    ),
    ("prj-1", "baseline"): (
        "08e3defd928cb78931c574a44627cb0d"
        "b0e5f7a824c08bb723a9e197cb51064d"
    ),
    ("prj-1", "ldpc-in-ssd"): (
        "0f72beb44de9206ee82b0be4e5188142"
        "52b926aeef1f26d4954e1a9f6343c30f"
    ),
    ("prj-1", "leveladjust-only"): (
        "c83fbb4dd8888b191ae38cb850ebd7f8"
        "fcc87a3da7bd33d15bfd5e5044c48895"
    ),
    ("prj-1", "flexlevel"): (
        "e767e381d590cb500c62a679c8839320"
        "81cb446b5ec6e0fb7ce4cf6a6cd5b665"
    ),
}
GOLDEN_FAULTED = (
    "66ea1daeb16c73933007b509fb1d5e3e"
    "4fd8485dca7e4ae9db2c05f2c8344cf0"
)


@pytest.fixture(scope="module")
def warm_policy():
    """A memo filled over every cell the replays reach, so the memo
    hit/miss counters in ``stats`` do not depend on test order."""
    policy = LevelAdjustPolicy()
    for mode in (CellMode.NORMAL, CellMode.REDUCED):
        for age in policy.age_grid:
            policy.extra_levels(mode, SSD.initial_pe_cycles, age)
    return policy


def replay(preset, name, policy, fault_injector=None):
    workload = make_workload(preset, SSD.logical_pages)
    trace = workload.generate(N_REQUESTS, seed=11)
    config = SystemConfig(
        ssd=SSD,
        footprint_pages=workload.footprint_pages,
        buffer_pages=256,
        hotness_window=HOTNESS_WINDOW,
    )
    system = build_system(
        name, config, level_adjust=policy, fault_injector=fault_injector
    )
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.25,
        n_channels=N_CHANNELS,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
    )
    misses = policy.cache_misses
    result = engine.run(trace, preset)
    assert policy.cache_misses == misses, "replay left the warm memo"
    return result


def digest(result):
    payload = json.dumps(
        {"summary": result.summary(), "stats": result.stats}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("preset", ["fin-2", "prj-1"])
@pytest.mark.parametrize("name", system_names())
def test_simulated_outputs_match_golden(preset, name, warm_policy):
    result = replay(preset, name, warm_policy)
    if name == "flexlevel":
        assert result.stats["promotions"] > 0
    assert digest(result) == GOLDEN[(preset, name)]


def test_faulted_flexlevel_matches_golden(warm_policy):
    injector = FaultInjector(
        FaultConfig(enabled=True, seed=2027, initial_bad_block_rate=0.02)
    )
    result = replay("prj-1", "flexlevel", warm_policy, fault_injector=injector)
    # Read scrub, factory-bad blocks and grown-bad retirement all engage.
    assert result.stats["scrub_refreshed_pages"] > 0
    assert result.stats["manufacture_bad_blocks"] > 0
    assert result.stats["blocks_retired"] > 0
    assert digest(result) == GOLDEN_FAULTED
