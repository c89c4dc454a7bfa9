"""Span tracing on the simulated clock with a bounded ring buffer.

A :class:`Tracer` records *spans* (named intervals with parent/child
nesting, per-span attributes, and a track — the Chrome-trace "thread" the
span renders on) and *instant events* (zero-duration markers, e.g. fault
injections). Both are stamped in **simulated nanoseconds**: the
discrete-event clock of whatever layer is being traced (service event
loop, device timeline, Spark time ledger). The tracer holds the current
simulated time; integrations push it forward with :meth:`Tracer.advance`
and spans default to it. Layers that already know exact interval bounds
(the server's per-request records, the device simulator's unit
timelines) record them retrospectively with :meth:`Tracer.record_span`.
With no wall clock in a span, a seeded run's exported trace
(:mod:`repro.obs.export`) is byte-deterministic.

The span and event stores are bounded ring buffers (oldest entries are
dropped first and counted), so an hours-long service run with tracing
left on degrades to a rolling window instead of OOMing the process.

The tracer is **disabled by default**: every recording call starts with
one attribute check and returns, which is the whole cost the production
fast paths pay (the ≤5% budget gated by ``bench_wallclock.py``).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "InstantEvent",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
]

DEFAULT_CAPACITY = 1 << 16


@dataclass
class Span:
    """One named interval on one track."""

    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    track: str
    start_ns: float  # simulated clock
    end_ns: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class InstantEvent:
    """A zero-duration marker (fault fired, retry scheduled, ...)."""

    name: str
    category: str
    track: str
    ts_ns: float  # simulated clock
    attrs: Dict[str, object] = field(default_factory=dict)


class Tracer:
    """Bounded recorder of spans and instant events with nesting."""

    def __init__(self, enabled: bool = False, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.enabled = enabled
        self.capacity = capacity
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._events: "deque[InstantEvent]" = deque(maxlen=capacity)
        self._stack: List[Span] = []
        self._next_id = 1
        self._sim_now = 0.0
        self.spans_recorded = 0
        self.events_recorded = 0

    # -- lifecycle ----------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop every recorded span/event and rewind the clocks."""
        self._spans.clear()
        self._events.clear()
        self._stack.clear()
        self._next_id = 1
        self._sim_now = 0.0
        self.spans_recorded = 0
        self.events_recorded = 0

    # -- the simulated clock ------------------------------------------------------

    def advance(self, sim_ns: float) -> None:
        """Push the simulated clock forward (never backward)."""
        if self.enabled and sim_ns > self._sim_now:
            self._sim_now = sim_ns

    # -- recording ----------------------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @contextmanager
    def span(self, name: str, category: str = "span", track: str = "main", **attrs):
        """Context manager: a span from the current sim time to exit time.

        Nesting follows the ``with`` structure: the innermost open span is
        the parent. The body receives the :class:`Span` (or ``None`` when
        tracing is disabled) so it can attach attributes as it learns
        them.
        """
        if not self.enabled:
            yield None
            return
        span = Span(
            span_id=self._new_id(),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            category=category,
            track=track,
            start_ns=self._sim_now,
            attrs=dict(attrs),
        )
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_ns = max(self._sim_now, span.start_ns)
            self._append_span(span)

    def record_span(
        self,
        name: str,
        start_ns: float,
        end_ns: float,
        category: str = "span",
        track: str = "main",
        parent: Optional[Span] = None,
        **attrs,
    ) -> Optional[Span]:
        """Record an interval whose bounds are already known (event loops,
        device timelines). Does not touch the nesting stack; pass
        ``parent`` explicitly to build retrospective hierarchies."""
        if not self.enabled:
            return None
        if end_ns < start_ns:
            raise ValueError(
                f"span {name!r} ends before it starts ({end_ns} < {start_ns})"
            )
        span = Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            track=track,
            start_ns=start_ns,
            end_ns=end_ns,
            attrs=dict(attrs),
        )
        self._append_span(span)
        return span

    def instant(
        self,
        name: str,
        ts_ns: Optional[float] = None,
        category: str = "event",
        track: str = "main",
        **attrs,
    ) -> None:
        """Record a zero-duration marker (defaults to the current sim time)."""
        if not self.enabled:
            return
        self._events.append(
            InstantEvent(
                name=name,
                category=category,
                track=track,
                ts_ns=self._sim_now if ts_ns is None else ts_ns,
                attrs=dict(attrs),
            )
        )
        self.events_recorded += 1

    def _append_span(self, span: Span) -> None:
        self._spans.append(span)
        self.spans_recorded += 1

    # -- views --------------------------------------------------------------------

    def spans(self) -> List[Span]:
        return list(self._spans)

    def events(self) -> List[InstantEvent]:
        return list(self._events)

    @property
    def dropped_spans(self) -> int:
        """Spans evicted by the ring buffer (recorded minus retained)."""
        return self.spans_recorded - len(self._spans)

    @property
    def dropped_events(self) -> int:
        return self.events_recorded - len(self._events)

    def stats(self) -> Dict[str, int]:
        return {
            "spans_recorded": self.spans_recorded,
            "spans_retained": len(self._spans),
            "spans_dropped": self.dropped_spans,
            "events_recorded": self.events_recorded,
            "events_retained": len(self._events),
            "events_dropped": self.dropped_events,
            "capacity": self.capacity,
        }


#: The process-wide tracer; disabled until a bench/test turns it on.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide tracer; returns the previous one (tests)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous
