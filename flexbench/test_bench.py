"""Tests of the benchmark itself, at a small scale.

    python3 -m pytest flexbench -q

Small traces cannot engage AccessEval at the default hotness window
(no page turns hot before ~8.2k reads), so the positive cases shrink
the window with the trace; the negative case widens it instead.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import replace

import pytest

import layers
import run as bench

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def small(name: str, **changes) -> bench.WorkloadSpec:
    spec = replace(
        bench.WORKLOADS[name], n_requests=3000, n_traces=2, hotness_window=128
    )
    return replace(spec, **changes)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    out, report = bench.run(small(name), seed=3, seconds=0, trace=False)
    assert out["correct"], report
    assert out["failed"] == 0 and out["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    printed = {key: value["unit"] for key, value in out["metrics"].items()}
    assert printed == expected
    assert all(value["value"] > 0 for value in out["metrics"].values())


def test_every_per_layer_metric_is_printed_with_its_unit():
    out, report = bench.run(small("web1-observed"), seed=3, seconds=0, trace=True)
    assert out["correct"], report
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed = {key: value["unit"] for key, value in out["metrics"].items()}
    assert printed == expected
    metrics = {key: value["value"] for key, value in out["metrics"].items()}
    assert metrics["ldpc.core.hotness.calls"] == 0
    assert metrics["flexlevel.core.hotness.calls"] > 0
    assert metrics["flexlevel.obs.monitor.self_s"] > 0
    assert metrics["flexlevel.core.level_adjust.replay_misses"] == 0


def test_observers_do_no_work_on_detached_workloads():
    out, report = bench.run(small("fin2"), seed=3, seconds=0, trace=True)
    assert out["correct"], report
    for key, value in out["metrics"].items():
        if ".obs." in key:
            assert value["value"] == 0.0, key


def test_dormant_mechanism_fails_the_engagement_check():
    # A window no trace can fill: AccessEval never promotes.
    spec = small("fin2", hotness_window=10**9)
    out, report = bench.run(spec, seed=3, seconds=0, trace=False)
    assert out["correct"] is False
    assert out["failed"] > 0
    assert any("AccessEval made no promotion" in line for line in report)


def test_traced_restores_every_patched_method():
    bench.import_repro()
    targets = list(layers.patch_targets())
    originals = [cls.__dict__[name] for _, cls, name in targets]
    with pytest.raises(RuntimeError):
        with layers.traced(layers.SpanLog()):
            assert all(
                cls.__dict__[name] is not original
                for (_, cls, name), original in zip(targets, originals)
            )
            raise RuntimeError("leave the block early")
    for (_, cls, name), original in zip(targets, originals):
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name}"


def test_self_time_subtracts_child_cover():
    log = layers.SpanLog()
    log.methods = [("outer", "A.f"), ("inner", "B.g")]
    # outer [0, 10] holds inner [1, 4], inner [5, 6] and a nested outer
    # call [4.5, 4.8], which stays outer's own time.
    spans = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (1, 5.0, 6.0, 0), (0, 4.5, 4.8, 0)]
    log.method_id = array("H", [m for m, *_ in spans])
    log.start = array("d", [s for _, s, _, _ in spans])
    log.end = array("d", [e for _, _, e, _ in spans])
    log.parent = array("i", [p for *_, p in spans])
    log.request = array("i", [-1] * len(spans))
    times = log.self_times()
    assert times["outer"] == pytest.approx(10.0 - 3.0 - 1.0 - 0.3 + 0.3)
    assert times["inner"] == pytest.approx(4.0)
    assert log.entry_calls() == {"outer": 1, "inner": 2}


def test_host_rate_divides_each_chunk_by_the_kernel_runs_around_it():
    def rep(chunks, refs, system="flexlevel", digest="d"):
        return bench.Replay(
            system=system, trace=0, requests=300, wall_s=sum(chunks),
            digest=digest, chunk_s=chunks, reference_s=refs,
        )

    steady = rep([1.0, 2.0, 1.0, 1.0, 1.0], [0.5] * 5)
    # The same work while the host runs at half speed...
    slowed = rep([2.0, 4.0, 2.0, 2.0, 2.0], [1.0] * 5)
    # ...and with one kernel run interrupted, at either end or between.
    assert bench.reference_units(steady) == pytest.approx(12.0)
    assert bench.reference_units(slowed) == pytest.approx(12.0)
    for spike in range(5):
        refs = [0.5] * 5
        refs[spike] = 9.0
        spiked = rep([1.0, 2.0, 1.0, 1.0, 1.0], refs)
        assert bench.reference_units(spiked) == pytest.approx(12.0)
    replays = [
        steady,
        rep([0.1], [0.1], system="ldpc-in-ssd"),
        rep([0.1], [0.1], digest=""),  # the engine raised
        bench.Replay(system="flexlevel", trace=0, requests=300, wall_s=1.0),
    ]
    per_ref, per_s = bench.host_rates(replays, "flexlevel")
    assert per_ref == pytest.approx([300 / 12.0])
    assert per_s == pytest.approx([300 / 6.0])
