"""The event-loop serialization server: shards, routing, degrade lane.

:class:`SerializationServer` advances virtual time over an open-loop
request sequence. Each arriving request passes admission control, joins
the batch coalescer, and — when its batch closes — is dispatched to the
least-loaded of N accelerator *shards* (each shard models one Table I
Cereal device's SU/DU pools) or to the CPU *software lane* when
admission degrades it or a capacity fault knocks the batch off the
accelerator path.

A shard replays the catalog's cached single-operation timings through
the device simulator's dispatch policy (longest operation first, each to
the earliest-free unit), plus a per-batch dispatch overhead on every unit
a batch touches and the shared-DRAM bandwidth floor.

Virtual time is event-driven: arrivals, batch deadlines, and completions
are the only points where state changes, so a 10k-request run takes
milliseconds of wall clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, SimulationError
from repro.faults.injector import FaultInjector
from repro.formats.verify import graphs_equivalent
from repro.jvm.heap import Heap
from repro.obs.trace import Tracer, get_tracer
from repro.service.admission import (
    DECISION_DEGRADE,
    DECISION_SHED,
    AdmissionConfig,
    AdmissionController,
)
from repro.service.batching import Batch, BatchCoalescer
from repro.service.slo import (
    BACKEND_CEREAL,
    BACKEND_NONE,
    BACKEND_SOFTWARE,
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    OUTCOME_REJECTED,
    OUTCOME_SHED,
    RequestRecord,
    SLOReport,
    emit_request_spans,
)
from repro.service.streaming import ResponseStreamer, StreamingConfig
from repro.service.workload import (
    KIND_SERIALIZE,
    ServiceCatalog,
    ServiceRequest,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service deployment."""

    num_shards: int = 2
    batch_wait_ns: float = 20_000.0
    #: Functional verification of completed requests: 0 is off, N checks
    #: requests 1, N+1, 2N+1, ... (so 1 checks every request).
    functional_every: int = 16
    admission: AdmissionConfig = dataclass_field(default_factory=AdmissionConfig)
    #: When set, large responses leave chunk by chunk with bounded
    #: in-flight arenas (see :mod:`repro.service.streaming`); ``None``
    #: keeps the legacy whole-response egress.
    streaming: Optional[StreamingConfig] = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigError("num_shards must be positive")
        if self.functional_every < 0:
            raise ConfigError("functional_every must be non-negative")


class AcceleratorShard:
    """The SU/DU unit pools of one Table I Cereal device inside the server."""

    #: Command-queue descriptor setup + doorbell + DMA programming, paid
    #: once per dispatch on every unit the batch occupies.
    dispatch_overhead_ns = 2_000.0

    def __init__(self, shard_id: int, catalog: ServiceCatalog):
        self.shard_id = shard_id
        device = catalog.accelerator
        self.su_free = [0.0] * device.config.num_serializer_units
        self.du_free = [0.0] * device.config.num_deserializer_units
        self.peak_bandwidth = device.dram_config.peak_bandwidth_bytes_per_sec
        self.dispatched_batches = 0
        self.dispatched_requests = 0

    def _pool(self, kind: str) -> List[float]:
        return self.su_free if kind == KIND_SERIALIZE else self.du_free

    def backlog_ns(self, kind: str, now_ns: float) -> float:
        """Pending work on this shard's pool for ``kind`` at ``now_ns``."""
        return sum(max(0.0, f - now_ns) for f in self._pool(kind))

    def service(
        self, batch: Batch, now_ns: float
    ) -> List[Tuple[ServiceRequest, float]]:
        """Schedule the batch on the unit pool; returns (request, finish).

        Mirrors the device simulator's policy: longest operation first,
        each to the earliest-free unit. Every unit the batch touches pays
        the dispatch overhead once, so single-request batches cannot
        amortize it. The shared-DRAM bandwidth floor then pushes the whole
        batch's completions out if aggregate traffic exceeds the DDR4 peak.
        """
        pool = self._pool(batch.kind)
        touched: Dict[int, bool] = {}
        finishes: List[Tuple[ServiceRequest, float]] = []
        total_dram_bytes = 0
        ordered = sorted(
            batch.requests, key=lambda r: (-r.accel_timing.elapsed_ns, r.request_id)
        )
        for request in ordered:
            unit = min(range(len(pool)), key=lambda i: (pool[i], i))
            begin = max(pool[unit], now_ns)
            if unit not in touched:
                touched[unit] = True
                begin += self.dispatch_overhead_ns
            finish = begin + request.accel_timing.elapsed_ns
            pool[unit] = finish
            total_dram_bytes += request.accel_timing.dram_bytes
            finishes.append((request, finish))
        # Bandwidth floor: the batch cannot finish faster than its DRAM
        # traffic drains at peak bandwidth.
        wall = max(f for _, f in finishes) - now_ns
        floor = total_dram_bytes / self.peak_bandwidth * 1e9
        if floor > wall:
            delta = floor - wall
            finishes = [(r, f + delta) for r, f in finishes]
            for unit in touched:
                pool[unit] += delta
        self.dispatched_batches += 1
        self.dispatched_requests += batch.size
        return finishes


class SoftwareLane:
    """CPU degrade path: a small pool of software-serializer workers."""

    workers = 4
    overhead_ns = 1_000.0

    def __init__(self, catalog: ServiceCatalog):
        self.catalog = catalog
        self.worker_free = [0.0] * self.workers
        self.served = 0

    def service(self, request: ServiceRequest, now_ns: float) -> float:
        worker = min(range(len(self.worker_free)), key=lambda i: (self.worker_free[i], i))
        begin = max(self.worker_free[worker], now_ns) + self.overhead_ns
        finish = begin + request.software_ns
        self.worker_free[worker] = finish
        self.served += 1
        return finish


@dataclass
class ArrivalOutcome:
    """What one arrival did to the server (incremental/cluster driving).

    ``completions`` are ``(finish_ns, request_id)`` markers for every
    request whose finish time became known; ``deadline`` — when set — is a
    ``(deadline_ns, kind, seq)`` batch-flush event the driver must
    schedule and later deliver via :meth:`SerializationServer.on_deadline`.
    """

    completions: List[Tuple[float, int]] = dataclass_field(default_factory=list)
    deadline: Optional[Tuple[float, str, int]] = None


class SerializationServer:
    """Discrete-event simulation of the sharded serialization service.

    Two driving modes share the same event handlers:

    * :meth:`run` owns the event heap — the standalone single-server mode
      every existing bench and test uses;
    * the incremental API (:meth:`register` / :meth:`on_arrival` /
      :meth:`on_deadline` / :meth:`flush_remaining`) lets an external
      event loop — :class:`repro.cluster.SerializationCluster` — interleave
      many servers on one shared virtual clock, scheduling the batch
      deadlines each server hands back.
    """

    def __init__(
        self,
        catalog: ServiceCatalog,
        config: Optional[ServiceConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        node_id: str = "",
    ):
        self.catalog = catalog
        self.config = config or ServiceConfig()
        self.injector = injector
        # The tracer is sampled per-server (not per-call) so one chaos run
        # can direct its spans at a private tracer without touching the
        # process-wide one. Disabled (the default) every hook below is a
        # single attribute check.
        self.tracer = tracer if tracer is not None else get_tracer()
        #: Cluster identity: prefixes every span track this server emits
        #: (``node0.shard1``, ...) so one Chrome trace can hold N nodes.
        self.node_id = node_id
        self._track_prefix = f"{node_id}." if node_id else ""
        #: Optional parent span (the node's lifetime span) batch spans
        #: nest under in cluster traces.
        self.trace_parent = None
        self.shards = [
            AcceleratorShard(shard_id, catalog)
            for shard_id in range(self.config.num_shards)
        ]
        self.software = SoftwareLane(catalog)
        self.coalescer = BatchCoalescer(max_wait_ns=self.config.batch_wait_ns)
        self.admission = AdmissionController(self.config.admission)
        self.streamer = (
            ResponseStreamer(self.config.streaming)
            if self.config.streaming is not None
            else None
        )
        self.degraded_batches = 0
        self.verified_requests = 0
        self._functional_counter = 0
        self._records: Dict[int, RequestRecord] = {}
        #: ``(finish_ns, request_id)`` of admitted-but-unfinished requests;
        #: drained to release admission slots, reaped on node failure.
        self._inflight: List[Tuple[float, int]] = []

    def _track(self, name: str) -> str:
        return self._track_prefix + name

    # -- routing ---------------------------------------------------------------------

    def _route(self, batch: Batch, now_ns: float) -> AcceleratorShard:
        """The shard with the least pending work on the batch's pool."""
        return min(
            self.shards,
            key=lambda s: (s.backlog_ns(batch.kind, now_ns), s.shard_id),
        )

    # -- functional execution (correctness checking) ----------------------------------

    def _should_verify(self) -> bool:
        every = self.config.functional_every
        if every == 0:
            return False
        self._functional_counter += 1
        return (self._functional_counter - 1) % every == 0

    def _verify(self, request: ServiceRequest, backend: str) -> None:
        """Execute the operation for real and check the round trip."""
        entry = request.entry
        registry = entry.root.heap.registry
        if request.kind == KIND_SERIALIZE:
            if backend == BACKEND_SOFTWARE:
                codec = self.catalog.fallback_serializer
                stream = codec.serialize(entry.root).stream
            else:
                codec = self.catalog.accelerator.codec
                stream = codec.serialize(entry.root).stream
            rebuilt = codec.deserialize(stream, Heap(registry=registry)).root
        else:
            # Software degrade of a Cereal stream decodes with the software
            # Cereal codec — the wire format is already fixed.
            codec = self.catalog.accelerator.codec
            rebuilt = codec.deserialize(
                entry.stream, Heap(registry=registry)
            ).root
        if not graphs_equivalent(entry.root, rebuilt):
            raise SimulationError(
                f"request {request.request_id} ({request.kind} "
                f"{entry.name!r} via {backend}) did not round-trip"
            )
        self.verified_requests += 1

    # -- dispatch paths -------------------------------------------------------------------

    def _serve_software(
        self,
        request: ServiceRequest,
        now_ns: float,
        record: RequestRecord,
        batch: Optional[Batch] = None,
    ) -> None:
        finish = self.software.service(request, now_ns)
        record.dispatch_ns = now_ns
        record.finish_ns = finish
        record.outcome = OUTCOME_DEGRADED
        record.backend = BACKEND_SOFTWARE
        record.node = self.node_id
        if batch is not None:
            record.batch_id = batch.batch_id
            record.batch_size = batch.size
        self._stream_response(request, record, "software")
        if self._should_verify():
            self._verify(request, BACKEND_SOFTWARE)

    def _stream_response(
        self, request: ServiceRequest, record: RequestRecord, lane: str
    ) -> None:
        """Chunked-egress hook: re-times the response when streaming is on.

        The response payload is what the client receives back — the
        produced stream for a serialize, the rebuilt graph for a
        deserialize. Admission slots still free at the execute finish
        (egress is asynchronous to the shard), so only the record's
        client-visible timing changes.
        """
        if self.streamer is None:
            return
        if request.kind == KIND_SERIALIZE:
            response_bytes = request.entry.stream_bytes
        else:
            response_bytes = request.entry.graph_bytes
        self.streamer.stream_response(record, response_bytes, lane)

    def _dispatch(self, batch: Batch, now_ns: float) -> List[Tuple[float, int]]:
        """Send one closed batch to a shard (or degrade it); returns
        ``(finish_ns, request_id)`` completion markers."""
        completions: List[Tuple[float, int]] = []
        tracer = self.tracer
        faulted = (
            self.injector is not None
            and self.injector.accelerator_fault(f"service.{batch.kind}")
        )
        if faulted:
            # A capacity fault (CAM/MAI overflow) rejects the whole batch at
            # the command queue; the server degrades it to software, which
            # is slower but correct — no admitted request is lost.
            report = self.injector.report
            report.record_injected("accelerator")
            report.record_detected("accelerator")
            report.record_recovered("accelerator")
            report.record_fallback("accelerator", count=batch.size)
            self.degraded_batches += 1
            for request in batch.requests:
                record = self._records[request.request_id]
                self._serve_software(request, now_ns, record, batch=batch)
                completions.append((record.finish_ns, request.request_id))
            if tracer.enabled and completions:
                tracer.record_span(
                    "batch.degrade",
                    now_ns,
                    max(f for f, _ in completions),
                    category="batch",
                    track=self._track("software"),
                    parent=self.trace_parent,
                    batch_id=batch.batch_id,
                    kind=batch.kind,
                    size=batch.size,
                )
            return completions
        shard = self._route(batch, now_ns)
        finishes = shard.service(batch, now_ns)
        if tracer.enabled and finishes:
            tracer.record_span(
                "batch.execute",
                now_ns,
                max(f for _, f in finishes),
                category="batch",
                track=self._track(f"shard{shard.shard_id}"),
                parent=self.trace_parent,
                batch_id=batch.batch_id,
                kind=batch.kind,
                size=batch.size,
            )
        for request, finish in finishes:
            record = self._records[request.request_id]
            record.dispatch_ns = now_ns
            record.finish_ns = finish
            record.outcome = OUTCOME_OK
            record.backend = BACKEND_CEREAL
            record.batch_id = batch.batch_id
            record.batch_size = batch.size
            record.node = self.node_id
            self._stream_response(request, record, f"shard{shard.shard_id}")
            completions.append((finish, request.request_id))
            if self._should_verify():
                self._verify(request, BACKEND_CEREAL)
        return completions

    # -- tracing ------------------------------------------------------------------------------

    def _emit_request_spans(self, requests: Sequence[ServiceRequest]) -> None:
        """One retrospective span tree per request on the ``requests``
        track (see :func:`~repro.service.slo.emit_request_spans`)."""
        track = self._track("requests")
        for request in requests:
            emit_request_spans(
                self.tracer,
                self._records[request.request_id],
                track,
                extra=("batch_id", "batch_size"),
            )

    # -- incremental event API (cluster driving) ------------------------------------------

    def register(self, request: ServiceRequest) -> RequestRecord:
        """Create (and index) the record for a request this server will see."""
        record = RequestRecord.of(request)
        self._records[request.request_id] = record
        return record

    def adopt(self, record: RequestRecord) -> None:
        """Index an externally owned record — failover re-routes a failed
        node's record to a replica without losing its history."""
        self._records[record.request_id] = record

    def drain(self, now_ns: float) -> None:
        """Release admission slots for every completion at or before now."""
        while self._inflight and self._inflight[0][0] <= now_ns:
            heapq.heappop(self._inflight)
            self.admission.release()

    @property
    def inflight_count(self) -> int:
        """Admitted requests whose finish time has not yet passed."""
        return len(self._inflight)

    def _note_completions(self, completions: List[Tuple[float, int]]) -> None:
        for finish, request_id in completions:
            heapq.heappush(self._inflight, (finish, request_id))

    def reap_inflight(self, now_ns: float) -> List[int]:
        """Node death: ids of admitted requests whose finish is still in
        the future (their work is lost); frees every admission slot."""
        self.drain(now_ns)
        lost = [request_id for _, request_id in self._inflight]
        for _ in self._inflight:
            self.admission.release()
        self._inflight = []
        return lost

    def on_arrival(self, request: ServiceRequest, now_ns: float) -> ArrivalOutcome:
        """Admit/shed/degrade/coalesce one arriving request."""
        self.drain(now_ns)
        arrival = ArrivalOutcome()
        record = self._records[request.request_id]
        if request.malformed:
            # The hardened decode path refuses the payload with a typed
            # error before admission: no queue slot, no latency sample — a
            # shed class of its own.
            self.admission.reject_malformed()
            record.outcome = OUTCOME_REJECTED
            record.backend = BACKEND_NONE
            record.dispatch_ns = now_ns
            record.finish_ns = now_ns
            return arrival
        decision = self.admission.decide(priority=request.priority)
        if decision == DECISION_SHED:
            record.outcome = OUTCOME_SHED
            record.backend = BACKEND_NONE
            record.dispatch_ns = now_ns
            record.finish_ns = now_ns
            return arrival
        if decision == DECISION_DEGRADE:
            self._serve_software(request, now_ns, record)
            arrival.completions.append((record.finish_ns, request.request_id))
        else:
            outcome = self.coalescer.add(request, now_ns)
            if outcome.batch is not None:
                arrival.completions.extend(
                    self._dispatch(outcome.batch, now_ns)
                )
            elif outcome.opened_seq is not None:
                arrival.deadline = (
                    outcome.deadline_ns, request.kind, outcome.opened_seq
                )
        self._note_completions(arrival.completions)
        return arrival

    def on_deadline(
        self, kind: str, seq: int, now_ns: float
    ) -> List[Tuple[float, int]]:
        """Deliver a batch-wait deadline; stale seqs are no-ops."""
        self.drain(now_ns)
        batch = self.coalescer.flush_due(kind, seq, now_ns)
        if batch is None:
            return []
        completions = self._dispatch(batch, now_ns)
        self._note_completions(completions)
        return completions

    def flush_remaining(self, now_ns: float) -> List[Tuple[float, int]]:
        """End-of-run drain: dispatch every still-open coalescer group."""
        completions: List[Tuple[float, int]] = []
        for batch in self.coalescer.flush_all(now_ns):
            completions.extend(self._dispatch(batch, now_ns))
        self._note_completions(completions)
        return completions

    # -- the event loop ----------------------------------------------------------------------

    def run(self, requests: Sequence[ServiceRequest]) -> SLOReport:
        """Simulate the full request sequence; returns the SLO report.

        A server runs one sequence: its shards, lanes, coalescer, admission
        and counters keep that run's state, so a second run (or a run after
        the incremental API registered requests) raises ``ConfigError``.
        """
        if self._records:
            raise ConfigError("a SerializationServer runs once; build a new one")
        for request in requests:
            self.register(request)
        if len(self._records) != len(requests):
            raise ConfigError("request_ids must be unique within one run")

        events: List[Tuple[float, int, str, object]] = []
        tiebreak = 0
        for request in requests:
            events.append((request.arrival_ns, tiebreak, "arrival", request))
            tiebreak += 1
        heapq.heapify(events)

        tracer = self.tracer
        while events:
            now_ns, _, etype, payload = heapq.heappop(events)
            tracer.advance(now_ns)
            if etype == "arrival":
                arrival = self.on_arrival(payload, now_ns)
                if arrival.deadline is not None:
                    deadline_ns, kind, seq = arrival.deadline
                    tiebreak += 1
                    heapq.heappush(
                        events, (deadline_ns, tiebreak, "deadline", (kind, seq))
                    )
            else:  # deadline
                kind, seq = payload
                self.on_deadline(kind, seq, now_ns)
        # Safety drain: every opened group had a deadline event, so this is
        # normally empty, but a zero-wait config flushed inline never opens
        # groups and end-of-sequence semantics must not depend on that.
        last = max((r.arrival_ns for r in requests), default=0.0)
        self.flush_remaining(last)

        if tracer.enabled:
            self._emit_request_spans(requests)
        report = SLOReport(
            records=[self._records[r.request_id] for r in requests],
            fault_report=self.injector.report if self.injector else None,
            degraded_batches=self.degraded_batches,
            mean_batch_size=self.coalescer.mean_batch_size,
            peak_outstanding=self.admission.peak_outstanding,
            verified_requests=self.verified_requests,
        )
        return report
