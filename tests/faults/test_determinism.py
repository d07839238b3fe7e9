"""Seeded fault injection is fully reproducible.

Two runs with the same :class:`repro.faults.FaultConfig` seed must see
the identical fault schedule — the same manufacture-bad map, the same
blocks retired in the same order, the same uncorrectable reads — and
therefore produce the identical :class:`repro.sim.DesSimulationResult`.
"""

from repro.baselines.systems import SystemConfig, build_system
from repro.faults import FaultConfig, FaultInjector
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine
from repro.traces.schema import TraceRecord

#: Aggressive rates so a short run sees every fault type.
FAULTY = FaultConfig(
    enabled=True,
    seed=2027,
    initial_bad_block_rate=0.02,
    spare_block_fraction=0.05,
).scaled(100.0)


def faulty_system(config=FAULTY, pe=16000):
    ssd = SsdConfig(
        n_blocks=64, pages_per_block=16, gc_free_block_threshold=2,
        initial_pe_cycles=pe,
    )
    system_config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    return build_system(
        "flexlevel", system_config, fault_injector=FaultInjector(config)
    )


def mixed_trace(n=600, period_us=500.0):
    return [
        TraceRecord(i * period_us, (i * 7) % 80, 1 + i % 3, i % 4 == 0)
        for i in range(n)
    ]


def run_once(config=FAULTY):
    system = faulty_system(config)
    engine = DesSimulationEngine(system, n_channels=2)
    result = engine.run(mixed_trace(), "determinism")
    return system, result


class TestFaultDeterminism:
    def test_same_seed_same_fault_schedule(self):
        system_a, result_a = run_once()
        system_b, result_b = run_once()
        bbt_a, bbt_b = system_a.ssd.bad_block_table, system_b.ssd.bad_block_table
        assert bbt_a.manufacture_bad == bbt_b.manufacture_bad
        assert bbt_a.grown == bbt_b.grown  # same blocks, same order
        assert system_a.ssd.read_only == system_b.ssd.read_only

    def test_same_seed_same_result(self):
        _, result_a = run_once()
        _, result_b = run_once()
        assert result_a.summary() == result_b.summary()
        assert result_a.read_responses_us == result_b.read_responses_us
        assert result_a.write_responses_us == result_b.write_responses_us
        assert result_a.uncorrectable_reads == result_b.uncorrectable_reads
        assert result_a.uncorrectable_by_channel == result_b.uncorrectable_by_channel

    def test_run_exercises_the_fault_paths(self):
        """The config above actually produces faults (else the two
        tests before prove nothing)."""
        system, result = run_once()
        stats = system.ssd.stats
        assert stats.manufacture_bad_blocks > 0
        assert stats.blocks_retired > 0
        assert stats.program_fail_events > 0

    def test_different_seed_different_schedule(self):
        import dataclasses

        _, result_a = run_once()
        other = dataclasses.replace(FAULTY, seed=99)
        _, result_b = run_once(other)
        assert result_a.summary() != result_b.summary()

    def test_disabled_config_matches_no_injector(self):
        """An attached-but-disabled injector is byte-identical to none."""
        ssd = SsdConfig(
            n_blocks=64, pages_per_block=16, gc_free_block_threshold=2
        )
        config = SystemConfig(
            ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
        )
        plain = build_system("flexlevel", config)
        disabled = build_system(
            "flexlevel", config, fault_injector=FaultInjector(FaultConfig())
        )
        assert disabled.ssd.fault_injector is None
        result_plain = DesSimulationEngine(plain, n_channels=2).run(
            mixed_trace(), "w"
        )
        result_disabled = DesSimulationEngine(disabled, n_channels=2).run(
            mixed_trace(), "w"
        )
        assert result_plain.summary() == result_disabled.summary()
        assert "uncorrectable_reads" not in result_plain.stats
