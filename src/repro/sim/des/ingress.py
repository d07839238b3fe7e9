"""Request ingress for the DES engine: fixed traces and live sources.

Historically :class:`~repro.sim.des.engine.DesSimulationEngine` replayed
a *fixed* list of :class:`~repro.traces.schema.TraceRecord` — the whole
arrival process was decided before the simulation started.  A serving
front-end cannot work that way: which request enters the device next
depends on completions (closed-loop tenants think, then submit again)
and on scheduling decisions (a QoS scheduler holds requests back in
per-tenant submission queues).  This module is the seam between the
two worlds.

A :class:`RequestSource` hands the engine one
:class:`PendingRequest` at a time and hears about every completion.
The engine guarantees:

* ``next_request(now_us)`` is polled when the previous arrival has
  been dispatched, and — if the source reported itself blocked by
  returning ``None`` — again after every request completion (after
  ``on_complete`` ran, so a closed-loop source has already enqueued
  the follow-up work it wants to release).
* ``on_complete`` fires exactly once per emitted request, in virtual
  completion order.

:class:`TraceSource` adapts the legacy fixed-trace path onto the same
interface; the engine's replay of a list through it is event-for-event
identical to the pre-ingress implementation (the DES equivalence tests
pin this).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping, NamedTuple, Sequence

from repro.errors import ConfigurationError
from repro.traces.schema import TraceRecord


#: The shared, read-only default of :attr:`PendingRequest.attrs`.
_NO_ATTRS: Mapping[str, Any] = MappingProxyType({})


class _PendingRequestFields(NamedTuple):
    record: TraceRecord
    index: int
    t0_us: float
    attrs: Mapping[str, Any] = _NO_ATTRS


class PendingRequest(_PendingRequestFields):
    """One request the engine should inject next (an immutable tuple).

    Attributes
    ----------
    record:
        The page-level payload; ``record.timestamp_us`` is the time
        the request *enters the device* (its dispatch time).
    index:
        Monotonically increasing emission index; event bookkeeping and
        warmup accounting key on it.
    t0_us:
        When the host considers the request started — the submission
        time.  Response time and the root trace span are measured from
        ``t0_us``, so time spent queued in front of the device (e.g.
        in a tenant submission queue) counts toward the response.  For
        fixed traces this equals ``record.timestamp_us``.
    attrs:
        Extra attributes attached to the request's trace span (tenant
        identity, per-tenant sequence number, ...).
    """

    __slots__ = ()

    def __new__(
        cls,
        record: TraceRecord,
        index: int,
        t0_us: float,
        attrs: Mapping[str, Any] = _NO_ATTRS,
    ) -> "PendingRequest":
        if t0_us > record.timestamp_us:
            raise ConfigurationError(
                f"request {index} submitted at {t0_us} after its "
                f"dispatch at {record.timestamp_us}"
            )
        return super().__new__(cls, record, index, t0_us, attrs)


class RequestSource:
    """Feeds the DES engine one request at a time (see module doc)."""

    def next_request(self, now_us: float) -> PendingRequest | None:
        """The next request to inject, or ``None`` if blocked/exhausted.

        ``now_us`` is the engine's current virtual time; the returned
        request's dispatch time must not precede it.  Returning ``None``
        means "nothing to inject *until a completion happens*" — the
        engine re-polls after each completion, never on a timer.
        """
        raise NotImplementedError

    def on_complete(
        self, index: int, completion_us: float, response_us: float
    ) -> None:
        """One emitted request finished (default: ignore)."""

    def on_abort(self, index: int) -> None:
        """One emitted request was cut off by a sudden power-off before
        completing (default: ignore).  Fired once per in-flight request
        when the engine stops at a crash point; sources that track
        outstanding work (queue pairs) move the request into their
        ``aborted`` bucket so conservation still closes."""

    def advance_to(self, now_us: float) -> None:
        """Virtual time reached ``now_us`` (default: ignore).

        The engine calls this before closing telemetry windows behind
        ``now_us``, so a source that records observations *between*
        polls (e.g. queue-pair submission arrivals stamped at their
        submit time) can flush everything due by ``now_us`` first.
        The call must be behaviourally neutral — same decisions, same
        timestamps — whether or not it ever happens.
        """

    @property
    def emitted(self) -> int:
        """How many requests ``next_request`` has handed out so far."""
        raise NotImplementedError


class TraceSource(RequestSource):
    """The legacy fixed-trace arrival process as a request source."""

    def __init__(self, records: Sequence[TraceRecord]):
        self._records = list(records)
        self._next = 0

    def __len__(self) -> int:
        return len(self._records)

    def next_request(self, now_us: float) -> PendingRequest | None:
        if self._next >= len(self._records):
            return None
        record = self._records[self._next]
        pending = PendingRequest(
            record=record, index=self._next, t0_us=record.timestamp_us
        )
        self._next += 1
        return pending

    @property
    def emitted(self) -> int:
        return self._next
