"""Per-request latency traces and tail-latency / goodput summaries.

Every request that enters the server leaves exactly one
:class:`RequestRecord` behind — admitted or shed, accelerated or degraded
— so the SLO report can be rebuilt from the trace alone. Latency is
measured arrival-to-finish (queueing + batching wait + service); shed
requests have no latency (the client got an immediate rejection) and are
reported through the shed rate instead.

The summary mirrors what a production serving dashboard shows: p50 / p95 /
p99 / p999, goodput vs. offered load, shed and degrade rates, and the
fault-recovery counters when a chaos schedule was active.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.faults.report import FaultReport
from repro.obs.metrics import exact_quantile

OUTCOME_OK = "ok"
OUTCOME_DEGRADED = "degraded"
OUTCOME_SHED = "shed"
OUTCOME_REJECTED = "rejected"  # malformed payload refused at admission

BACKEND_CEREAL = "cereal"
BACKEND_SOFTWARE = "software"
BACKEND_NONE = "none"

#: The quantiles every summary reports, in display order.
SLO_QUANTILES = (("p50", 50.0), ("p95", 95.0), ("p99", 99.0), ("p999", 99.9))


@dataclass
class RequestRecord:
    """The full observable history of one request."""

    request_id: int
    kind: str
    size_class: str
    arrival_ns: float
    dispatch_ns: float = 0.0
    finish_ns: float = 0.0
    outcome: str = OUTCOME_OK
    backend: str = BACKEND_CEREAL
    batch_id: int = -1
    batch_size: int = 1
    #: Multi-tenant QoS identity (empty outside tenant-mix workloads).
    tenant: str = ""
    priority: int = 0
    #: The cluster node that finally served the request ("" when the run
    #: is a single standalone server).
    node: str = ""
    #: Failover re-executions: how many times the request was re-routed
    #: after a node loss. Latency always spans arrival to *final* finish,
    #: so retries are inside the SLO, never hidden by it.
    retries: int = 0
    #: Streamed-response egress: when the response left chunk by chunk,
    #: ``first_byte_ns`` is the wire-done time of chunk 0 (the client's
    #: time-to-first-byte) and ``finish_ns`` extends to the last chunk.
    streamed: bool = False
    chunks: int = 0
    first_byte_ns: float = 0.0
    #: Per chunk ``(seq, wire_start_ns, wire_done_ns)``; feeds the
    #: ``response.chunk`` spans nested under the request span.
    chunk_timeline: Optional[List] = None

    @classmethod
    def of(cls, request) -> "RequestRecord":
        """The fresh record of a :class:`~repro.service.workload.ServiceRequest`."""
        return cls(
            request_id=request.request_id,
            kind=request.kind,
            size_class=request.entry.name,
            arrival_ns=request.arrival_ns,
            tenant=request.tenant,
            priority=request.priority,
        )

    @property
    def completed(self) -> bool:
        return self.outcome not in (OUTCOME_SHED, OUTCOME_REJECTED)

    @property
    def ttfb_ns(self) -> float:
        """Arrival to first response byte (falls back to full latency
        when the response was not streamed)."""
        if self.streamed:
            return self.first_byte_ns - self.arrival_ns
        return self.latency_ns

    @property
    def latency_ns(self) -> float:
        return self.finish_ns - self.arrival_ns


def emit_request_spans(
    tracer,
    record: RequestRecord,
    track: str,
    parent=None,
    extra: Sequence[str] = (),
) -> None:
    """Retrospectively record one request's span tree on ``track``.

    The event loop learns a request's finish time the moment its batch
    dispatches (virtual time runs ahead of completion), so request spans
    are emitted from the finished records rather than around live code.
    A completed request becomes a ``request`` span (arrival → finish,
    under ``parent``) with ``queue`` (arrival → dispatch, the admission +
    coalescing wait) and ``execute`` (dispatch → finish) children, plus
    one ``response.chunk`` child per streamed chunk; a shed or rejected
    request leaves an instant marker instead. The span durations *are*
    the record's latency decomposition, which is what lets the
    reconciliation tests re-derive the SLO percentiles from the exported
    trace exactly. ``extra`` names further record fields to attach to
    the ``request`` span.
    """
    if not record.completed:
        name = (
            "request.rejected"
            if record.outcome == OUTCOME_REJECTED
            else "request.shed"
        )
        tracer.instant(
            name,
            ts_ns=record.arrival_ns,
            category="request",
            track=track,
            request_id=record.request_id,
        )
        return
    span = tracer.record_span(
        "request",
        record.arrival_ns,
        record.finish_ns,
        category="request",
        track=track,
        parent=parent,
        request_id=record.request_id,
        kind=record.kind,
        size_class=record.size_class,
        outcome=record.outcome,
        backend=record.backend,
        **{name: getattr(record, name) for name in extra},
    )
    tracer.record_span(
        "request.queue",
        record.arrival_ns,
        record.dispatch_ns,
        category="request",
        track=track,
        parent=span,
        request_id=record.request_id,
    )
    tracer.record_span(
        "request.execute",
        record.dispatch_ns,
        record.finish_ns,
        category="request",
        track=track,
        parent=span,
        request_id=record.request_id,
        backend=record.backend,
    )
    if record.streamed and record.chunk_timeline:
        for seq, start_ns, done_ns in record.chunk_timeline:
            tracer.record_span(
                "response.chunk",
                start_ns,
                done_ns,
                category="chunk",
                track=track,
                parent=span,
                request_id=record.request_id,
                chunk=seq,
            )


@dataclass
class SLOReport:
    """Aggregated view over one service run's request records."""

    records: List[RequestRecord]
    fault_report: Optional[FaultReport] = None
    degraded_batches: int = 0
    mean_batch_size: float = 0.0
    peak_outstanding: int = 0
    verified_requests: int = 0

    _latency_cache: Dict[str, List[float]] = field(
        default_factory=dict, repr=False
    )

    # -- basic populations -------------------------------------------------------

    def _latencies(self, kind: str = "all") -> List[float]:
        cached = self._latency_cache.get(kind)
        if cached is None:
            cached = sorted(
                r.latency_ns
                for r in self.records
                if r.completed and (kind == "all" or r.kind == kind)
            )
            self._latency_cache[kind] = cached
        return cached

    @property
    def total_requests(self) -> int:
        return len(self.records)

    @property
    def completed_requests(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def shed_requests(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_SHED)

    @property
    def rejected_requests(self) -> int:
        """Malformed payloads refused by the hardened decoder — a shed
        class of their own, never lumped into capacity shedding."""
        return sum(1 for r in self.records if r.outcome == OUTCOME_REJECTED)

    @property
    def degraded_requests(self) -> int:
        return sum(1 for r in self.records if r.outcome == OUTCOME_DEGRADED)

    @property
    def retried_requests(self) -> int:
        """Requests re-executed at least once after a node failover."""
        return sum(1 for r in self.records if r.retries > 0)

    @property
    def shed_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.shed_requests / self.total_requests

    @property
    def rejected_rate(self) -> float:
        if not self.records:
            return 0.0
        return self.rejected_requests / self.total_requests

    # -- latency ------------------------------------------------------------------

    def latency_ns_at(self, q: float, kind: str = "all") -> float:
        """:func:`repro.obs.metrics.exact_quantile` over the sorted raw
        latencies: the one quantile definition the tracing exports use
        too, which is what lets
        ``tests/test_obs_reconcile.py`` demand span-derived and
        SLO-reported percentiles agree to the nanosecond."""
        values = self._latencies(kind)
        if not values:
            return 0.0
        return exact_quantile(values, q)

    def p50(self, kind: str = "all") -> float:
        return self.latency_ns_at(50.0, kind)

    def p95(self, kind: str = "all") -> float:
        return self.latency_ns_at(95.0, kind)

    def p99(self, kind: str = "all") -> float:
        return self.latency_ns_at(99.0, kind)

    def p999(self, kind: str = "all") -> float:
        return self.latency_ns_at(99.9, kind)

    def mean_latency_ns(self, kind: str = "all") -> float:
        values = self._latencies(kind)
        if not values:
            return 0.0
        return sum(values) / len(values)

    def max_latency_ns(self, kind: str = "all") -> float:
        values = self._latencies(kind)
        return values[-1] if values else 0.0

    # -- throughput ----------------------------------------------------------------

    @property
    def makespan_ns(self) -> float:
        """First arrival to last completion (the busy horizon)."""
        if not self.records:
            return 0.0
        first = min(r.arrival_ns for r in self.records)
        last = max(
            (r.finish_ns for r in self.records if r.completed),
            default=first,
        )
        return max(0.0, last - first)

    @property
    def offered_qps(self) -> float:
        """Arrival rate over the arrival window."""
        if len(self.records) < 2:
            return 0.0
        first = min(r.arrival_ns for r in self.records)
        last = max(r.arrival_ns for r in self.records)
        if last <= first:
            return 0.0
        return (len(self.records) - 1) / ((last - first) * 1e-9)

    @property
    def goodput_qps(self) -> float:
        """Completed requests per second over the busy horizon."""
        span = self.makespan_ns
        if span <= 0:
            return 0.0
        return self.completed_requests / (span * 1e-9)

    # -- rendering -------------------------------------------------------------------

    def as_dict(self) -> Dict:
        """Stable machine-readable summary (for ``BENCH_*.json``)."""
        summary: Dict = {
            "requests": {
                "total": self.total_requests,
                "completed": self.completed_requests,
                "shed": self.shed_requests,
                "rejected": self.rejected_requests,
                "degraded": self.degraded_requests,
                "retried": self.retried_requests,
                "verified": self.verified_requests,
            },
            "latency_ns": {},
            "throughput": {
                "offered_qps": self.offered_qps,
                "goodput_qps": self.goodput_qps,
                "shed_rate": self.shed_rate,
                "rejected_rate": self.rejected_rate,
            },
            "batching": {
                "mean_batch_size": self.mean_batch_size,
                "degraded_batches": self.degraded_batches,
            },
            "queue": {"peak_outstanding": self.peak_outstanding},
        }
        for kind in ("all", "serialize", "deserialize"):
            if not self._latencies(kind):
                continue
            entry = {
                name: self.latency_ns_at(q, kind) for name, q in SLO_QUANTILES
            }
            entry["mean"] = self.mean_latency_ns(kind)
            entry["max"] = self.max_latency_ns(kind)
            summary["latency_ns"][kind] = entry
        streamed = [r for r in self.records if r.streamed and r.completed]
        if streamed:
            ttfbs = sorted(r.ttfb_ns for r in streamed)
            summary["streaming"] = {
                "streamed_requests": len(streamed),
                "chunks": sum(r.chunks for r in streamed),
                "ttfb_ns": {
                    "p50": exact_quantile(ttfbs, 50.0),
                    "p95": exact_quantile(ttfbs, 95.0),
                    "p99": exact_quantile(ttfbs, 99.0),
                    "mean": sum(ttfbs) / len(ttfbs),
                    "max": ttfbs[-1],
                },
            }
        tenants = sorted({r.tenant for r in self.records if r.tenant})
        if tenants:
            summary["tenants"] = {}
            for tenant in tenants:
                population = [r for r in self.records if r.tenant == tenant]
                done = sorted(
                    r.latency_ns for r in population if r.completed
                )
                entry = {
                    "total": len(population),
                    "completed": len(done),
                    "shed": sum(
                        1 for r in population if r.outcome == OUTCOME_SHED
                    ),
                    "degraded": sum(
                        1 for r in population if r.outcome == OUTCOME_DEGRADED
                    ),
                    "priority": population[0].priority,
                }
                if done:
                    entry["p99_ns"] = exact_quantile(done, 99.0)
                summary["tenants"][tenant] = entry
        if self.fault_report is not None:
            summary["faults"] = self.fault_report.as_dict()
        return summary

