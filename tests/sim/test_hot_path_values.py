"""The DES page-op path's value types and its batched retry draws.

Events, read breakdowns, AccessEval decisions and pending requests are
immutable tuples; the retry model draws its uniforms in blocks.  Both
are allocation-saving rewrites that must not change behaviour: records
stay read-only, and every retry outcome equals what one scalar
``rng.random()`` per round would have produced.
"""

import numpy as np
import pytest

from repro.baselines.systems import ReadServiceBreakdown
from repro.core.access_eval import AccessDecision
from repro.core.level_adjust import CellMode
from repro.sim.des import (
    Event,
    EventKind,
    PendingRequest,
    ReadRetryConfig,
    ReadRetryModel,
    RetryOutcome,
)
from repro.sim.des.retry import DRAW_BLOCK
from repro.traces.schema import TraceRecord


def breakdown(ber, provisioned=0, required=0, n_retries=6, buffer_hit=False):
    return ReadServiceBreakdown(
        lpn=0,
        buffer_hit=buffer_hit,
        mode=None if buffer_hit else CellMode.NORMAL,
        required_levels=required,
        provisioned_levels=provisioned,
        first_round_us=100.0,
        retry_rounds_us=tuple(10.0 + level for level in range(n_retries)),
        post_read_us=0.0,
        raw_ber=ber,
    )


def scalar_oracle(config, reads):
    """Outcomes with one scalar draw per attempted escalation, and the
    number of draws taken."""
    rng = np.random.default_rng(config.seed)
    draws = 0
    outcomes = []
    for read in reads:
        if read.buffer_hit:
            outcomes.append(RetryOutcome(0, 0.0, False, 0.0))
            continue
        margin = max(read.provisioned_levels - read.required_levels, 0)
        probability = (
            min(config.failure_cap, config.ber_scale * read.raw_ber)
            * config.margin_factor**margin
        )
        rounds, extra_us = 0, 0.0
        for increment_us in read.retry_rounds_us:
            draws += 1
            if rng.random() >= probability:
                outcomes.append(RetryOutcome(rounds, extra_us, False, 0.0))
                break
            rounds += 1
            extra_us += increment_us
            probability *= config.margin_factor
        else:
            outcomes.append(RetryOutcome(rounds, extra_us, True, probability))
    return outcomes, draws


class TestBatchedRetryDraws:
    def test_outcomes_equal_scalar_draws_across_refills(self):
        config = ReadRetryConfig(seed=2015)
        reads = []
        for i in range(6000):
            if i % 7 == 0:
                reads.append(breakdown(0.0, buffer_hit=True, n_retries=0))
            elif i % 11 == 0:
                # Provisioned at the ladder top: exhausted, no draw.
                reads.append(breakdown(1e-2, provisioned=7, n_retries=0))
            else:
                # Mostly failing first rounds so reads take several draws.
                reads.append(
                    breakdown(0.02 * (1 + i % 3), provisioned=i % 2, required=0)
                )
        expected, draws = scalar_oracle(config, reads)
        assert draws > 3 * DRAW_BLOCK
        model = ReadRetryModel(config)
        assert [model.sample_outcome(read) for read in reads] == expected

    def test_empty_ladders_and_buffer_hits_draw_nothing(self):
        config = ReadRetryConfig(seed=9)
        model = ReadRetryModel(config)
        for _ in range(3 * DRAW_BLOCK):
            model.sample_outcome(breakdown(0.0, buffer_hit=True, n_retries=0))
            model.sample_outcome(breakdown(1e-2, provisioned=7, n_retries=0))
        probe = [breakdown(1e-2) for _ in range(50)]
        expected, _ = scalar_oracle(config, probe)
        assert [model.sample_outcome(read) for read in probe] == expected


class TestImmutableRecords:
    record = TraceRecord(timestamp_us=10.0, lpn=3, n_pages=1, is_write=False)

    @pytest.mark.parametrize(
        "value, field",
        [
            (Event(1.0, EventKind.ARRIVAL, 0), "time_us"),
            (breakdown(1e-3), "first_round_us"),
            (AccessDecision(is_hlo=True, promote=True, demote_lpn=4), "promote"),
            (PendingRequest(record=record, index=0, t0_us=5.0), "t0_us"),
        ],
    )
    def test_attribute_assignment_rejected(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_keyword_construction_and_defaults(self):
        event = Event(time_us=2.0, kind=EventKind.GC_DRAIN, channel=1)
        assert (event.request_index, event.value_us) == (-1, 0.0)
        pending = PendingRequest(self.record, 7, 10.0)
        assert dict(pending.attrs) == {}
        assert breakdown(1e-3).service_us == 100.0
        assert AccessDecision(is_hlo=False, promote=False).demote_lpn is None
