"""The cluster event loop: many servers, one virtual clock.

:class:`SerializationCluster` owns the discrete-event heap and drives N
:class:`~repro.cluster.node.ServerNode`s through the incremental server
API (:meth:`register` / :meth:`on_arrival` / :meth:`on_deadline` /
:meth:`flush_remaining`), so per-node semantics are *identical* to the
standalone :class:`~repro.service.server.SerializationServer` — same
admission, coalescing, routing, and fault-degrade behaviour — while the
cluster layer adds what a single box cannot have:

* **placement** — consistent-hash + locality routing over the UP nodes
  (:mod:`repro.cluster.routing`);
* **failover** — a node-loss fault (:meth:`FaultInjector.node_lost`)
  kills a node mid-flight; its unfinished work (in-flight batches plus
  coalescer-pending requests) is reaped and re-executed on replicas
  after a detection delay. Latency spans original arrival to *final*
  finish, so retries land inside the SLO percentiles instead of hiding
  behind them;
* **reactive autoscaling** — the cluster publishes ``cluster.*`` gauges
  into the :mod:`repro.obs` registry every control tick, and the
  :class:`~repro.cluster.autoscale.Autoscaler` reads exactly those to
  add (STARTING → UP after a provision delay) or drain nodes;
* **cluster observability** — per-node lifetime spans parent the batch
  and request spans on that node's tracks, so one Chrome trace shows the
  whole fleet; per-node metric registries are merged into the run
  registry at teardown via ``merge_snapshot``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.obs.metrics import (
    MetricsRegistry,
    exact_quantile,
    get_registry,
)
from repro.obs.trace import Tracer, get_tracer
from repro.cluster.autoscale import (
    Autoscaler,
    AutoscalerConfig,
    GAUGE_P99_NS,
    GAUGE_QUEUE_DEPTH,
    GAUGE_STARTING_NODES,
    GAUGE_UP_NODES,
    SCALE_DOWN,
    SCALE_UP,
)
from repro.cluster.node import (
    NODE_DOWN,
    NODE_DRAINING,
    NODE_STARTING,
    ServerNode,
)
from repro.cluster.routing import ClusterRouter
from repro.service.server import ServiceConfig
from repro.service.slo import (
    BACKEND_NONE,
    OUTCOME_SHED,
    RequestRecord,
    SLOReport,
    emit_request_spans,
)
from repro.service.workload import ServiceCatalog, ServiceRequest

#: Zones assigned to nodes round-robin; locality routing prefers a
#: replica in the request's zone.
ZONES = ("zone-a", "zone-b")


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet geometry and the cluster control loop's knobs."""

    #: Initial fleet size (all UP at t=0; the autoscaler moves it later).
    num_nodes: int = 2
    #: Per-node server deployment (shards, batching, admission, ...).
    service: ServiceConfig = dataclass_field(default_factory=ServiceConfig)
    #: Cadence of the cluster control loop (gauge refresh, node-loss
    #: draws, autoscaler evaluation, drain completion).
    control_interval_ns: float = 100_000.0
    #: None = static fleet (no scaling).
    autoscaler: Optional[AutoscalerConfig] = None

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError("num_nodes must be positive")
        if self.control_interval_ns <= 0:
            raise ConfigError("control_interval_ns must be positive")


@dataclass
class ClusterReport:
    """One cluster run: the SLO view plus fleet-level accounting."""

    slo: SLOReport
    nodes: List[Dict]
    autoscale_actions: List[Dict]
    failovers: int
    retried_requests: int
    lost_after_failover: int
    shard_seconds: float
    locality_hits: int
    locality_misses: int

    def as_dict(self) -> Dict:
        return {
            "slo": self.slo.as_dict(),
            "cluster": {
                "nodes": self.nodes,
                "autoscale_actions": self.autoscale_actions,
                "failovers": self.failovers,
                "retried_requests": self.retried_requests,
                "lost_after_failover": self.lost_after_failover,
                "shard_seconds": self.shard_seconds,
                "locality": {
                    "hits": self.locality_hits,
                    "misses": self.locality_misses,
                },
            },
        }


class SerializationCluster:
    """Discrete-event simulation of the multi-node serving fleet.

    Placement uses :class:`ClusterRouter`: a preference list of two nodes
    (primary + one backup) over 64 virtual nodes per server.
    """

    #: Node-loss detection + re-route lag: reaped requests land on their
    #: replica this long after the failure.
    failover_delay_ns = 50_000.0
    #: Completions feeding the windowed ``cluster.p99_ns`` gauge.
    p99_window = 256

    def __init__(
        self,
        catalog: ServiceCatalog,
        config: Optional[ClusterConfig] = None,
        injector: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.catalog = catalog
        self.config = config or ClusterConfig()
        self.injector = injector
        self.tracer = tracer if tracer is not None else get_tracer()
        self.registry = registry if registry is not None else get_registry()
        self.router = ClusterRouter()
        self.autoscaler = (
            Autoscaler(self.config.autoscaler)
            if self.config.autoscaler is not None
            else None
        )
        self._nodes: Dict[str, ServerNode] = {}
        self._order: List[str] = []  # creation order (deterministic walks)
        self._node_spans: Dict[str, object] = {}
        self._next_node_index = 0
        self._records: Dict[int, RequestRecord] = {}
        self._requests: Dict[int, ServiceRequest] = {}
        # (finish_ns, request_id, node_id) of future completions; entries
        # go stale when a failover re-executes the request elsewhere.
        self._completions: List[Tuple[float, int, str]] = []
        self._latency_window: Deque[float] = deque(maxlen=self.p99_window)
        self.failovers = 0
        self.lost_after_failover = 0
        self._peak_queue_depth = 0
        self._horizon_ns = 0.0
        self._events: List[Tuple[float, int, str, object]] = []
        self._tiebreak = -1
        self._noncontrol_events = 0

    # -- fleet management --------------------------------------------------------------

    def _zone_for_index(self, index: int) -> str:
        return ZONES[index % len(ZONES)]

    def _new_node(self, provisioned_ns: float) -> ServerNode:
        node_id = f"node{self._next_node_index}"
        zone = self._zone_for_index(self._next_node_index)
        self._next_node_index += 1
        node = ServerNode(
            node_id,
            zone,
            self.catalog,
            self.config.service,
            provisioned_ns=provisioned_ns,
            injector=self.injector,
            tracer=self.tracer,
        )
        self._nodes[node_id] = node
        self._order.append(node_id)
        return node

    def _activate(self, node: ServerNode, now_ns: float) -> None:
        node.activate(now_ns)
        self.router.add_node(node.node_id, node.zone)
        # The node lifetime span parents every batch and request span the
        # node emits; recorded open (end == start) and patched at stop.
        span = self.tracer.record_span(
            "node.up",
            now_ns,
            now_ns,
            category="node",
            track=f"{node.node_id}.node",
            node=node.node_id,
            zone=node.zone,
        )
        if span is not None:
            self._node_spans[node.node_id] = span
            node.server.trace_parent = span

    def _close_node_span(self, node: ServerNode, now_ns: float) -> None:
        span = self._node_spans.get(node.node_id)
        if span is not None and now_ns > span.end_ns:
            span.end_ns = now_ns

    def _routable(self) -> List[ServerNode]:
        return [
            self._nodes[node_id]
            for node_id in self._order
            if self._nodes[node_id].routable
        ]

    def _starting(self) -> List[ServerNode]:
        return [
            self._nodes[node_id]
            for node_id in self._order
            if self._nodes[node_id].state == NODE_STARTING
        ]

    # -- event helpers -----------------------------------------------------------------

    def _push(self, when_ns: float, etype: str, payload: object) -> None:
        self._tiebreak += 1
        heapq.heappush(
            self._events, (when_ns, self._tiebreak, etype, payload)
        )
        if etype != "control":
            self._noncontrol_events += 1

    def _note_completions(
        self, node_id: str, completions: List[Tuple[float, int]]
    ) -> None:
        for finish, request_id in completions:
            heapq.heappush(self._completions, (finish, request_id, node_id))

    def _drain_completions(self, now_ns: float) -> None:
        """Fold finished requests into the latency window and the served
        node's private metrics; stale entries (the request was reaped and
        re-executed elsewhere) are skipped."""
        while self._completions and self._completions[0][0] <= now_ns:
            finish, request_id, node_id = heapq.heappop(self._completions)
            record = self._records[request_id]
            if (
                not record.completed
                or record.finish_ns != finish
                or record.node != node_id
            ):
                continue  # superseded by a failover re-execution
            self._latency_window.append(record.latency_ns)
            node = self._nodes.get(node_id)
            if node is not None:
                node.served_requests += 1
                node.registry.counter(
                    "node.requests_completed", node=node_id
                ).inc()
                node.registry.histogram(
                    "node.latency_ns",
                    node=node_id,
                    exact_limit=self.p99_window,
                ).observe(record.latency_ns)

    # -- request handling --------------------------------------------------------------

    def _routing_key(self, request: ServiceRequest) -> str:
        return request.key or f"req{request.request_id}"

    def _shed_unroutable(self, record: RequestRecord, now_ns: float) -> None:
        record.outcome = OUTCOME_SHED
        record.backend = BACKEND_NONE
        record.dispatch_ns = now_ns
        record.finish_ns = now_ns

    def _deliver(
        self, node: ServerNode, request: ServiceRequest, now_ns: float
    ) -> None:
        """Hand one request to a node; wire resulting events back in."""
        arrival = node.server.on_arrival(request, now_ns)
        self._note_completions(node.node_id, arrival.completions)
        if arrival.deadline is not None:
            deadline_ns, kind, seq = arrival.deadline
            self._push(
                deadline_ns, "deadline", (node.node_id, kind, seq)
            )

    def _handle_arrival(
        self, request: ServiceRequest, now_ns: float
    ) -> None:
        record = self._records[request.request_id]
        target = self.router.route(
            self._routing_key(request), zone=request.zone
        )
        if target is None:
            self._shed_unroutable(record, now_ns)
            return
        node = self._nodes[target]
        node.server.adopt(record)
        self._deliver(node, request, now_ns)

    def _handle_retry(
        self, request: ServiceRequest, now_ns: float
    ) -> None:
        """Re-execute a request reaped from a failed node.

        Walks the (post-failure) preference list: a replica that sheds
        the retry under its own admission pressure escalates to the next
        one. Only when every routable replica sheds is the request lost —
        the condition the failover bench gates at zero.
        """
        record = self._records[request.request_id]
        record.retries += 1
        tried: Set[str] = set()
        while True:
            target = self.router.route(
                self._routing_key(request),
                zone=request.zone,
                exclude=tuple(tried),
            )
            if target is None:
                self._shed_unroutable(record, now_ns)
                self.lost_after_failover += 1
                return
            node = self._nodes[target]
            node.server.adopt(record)
            self._deliver(node, request, now_ns)
            if record.outcome != OUTCOME_SHED:
                return
            tried.add(target)

    def _handle_deadline(
        self, node_id: str, kind: str, seq: int, now_ns: float
    ) -> None:
        node = self._nodes[node_id]
        if node.state == NODE_DOWN:
            return  # the group died with the node; failover owns its work
        completions = node.server.on_deadline(kind, seq, now_ns)
        self._note_completions(node_id, completions)

    # -- failover ----------------------------------------------------------------------

    def _fail_node(self, node: ServerNode, now_ns: float) -> None:
        self.failovers += 1
        self.router.remove_node(node.node_id)
        node.fail(now_ns)
        self._close_node_span(node, now_ns)
        # Reap everything the node had accepted but not finished: requests
        # executing (future finish times) and requests still coalescing.
        lost_ids = node.server.reap_inflight(now_ns)
        pending = node.server.coalescer.pending_requests()
        node.server.coalescer.clear_pending()
        lost = [self._requests[request_id] for request_id in lost_ids]
        lost.extend(pending)
        if self.injector is not None:
            report = self.injector.report
            report.record_injected("node")
            report.record_detected("node")
            report.record_recovered("node")
            report.record_fallback("node", count=len(lost))
        self.tracer.instant(
            "node.failover",
            ts_ns=now_ns,
            category="fault",
            track="cluster",
            node=node.node_id,
            reaped=len(lost),
        )
        retry_at = now_ns + self.failover_delay_ns
        for request in sorted(lost, key=lambda r: r.request_id):
            self._push(retry_at, "retry", request)

    # -- the control loop --------------------------------------------------------------

    def _publish_gauges(self, now_ns: float) -> None:
        routable = self._routable()
        queue_depth = sum(
            node.server.admission.outstanding for node in routable
        )
        self._peak_queue_depth = max(self._peak_queue_depth, queue_depth)
        p99 = 0.0
        if self._latency_window:
            p99 = exact_quantile(sorted(self._latency_window), 99.0)
        self.registry.gauge(GAUGE_QUEUE_DEPTH).set(queue_depth)
        self.registry.gauge(GAUGE_P99_NS).set(p99)
        self.registry.gauge(GAUGE_UP_NODES).set(len(routable))
        self.registry.gauge(GAUGE_STARTING_NODES).set(len(self._starting()))
        for node in routable:
            node.registry.gauge(
                "node.outstanding", node=node.node_id
            ).set_max(node.server.admission.outstanding)

    def _apply_autoscaler(self, now_ns: float) -> None:
        if self.autoscaler is None:
            return
        action = self.autoscaler.decide(self.registry, now_ns)
        if action == SCALE_UP:
            node = self._new_node(provisioned_ns=now_ns)
            self._push(
                now_ns + self.config.autoscaler.provision_delay_ns,
                "activate",
                node.node_id,
            )
            self.tracer.instant(
                "autoscale.up",
                ts_ns=now_ns,
                category="autoscale",
                track="cluster",
                node=node.node_id,
            )
        elif action == SCALE_DOWN:
            routable = self._routable()
            victim = min(
                routable,
                key=lambda n: (n.server.admission.outstanding, n.node_id),
            )
            self.router.remove_node(victim.node_id)
            victim.start_drain()
            self.tracer.instant(
                "autoscale.down",
                ts_ns=now_ns,
                category="autoscale",
                track="cluster",
                node=victim.node_id,
            )

    def _handle_control(self, now_ns: float) -> None:
        self._drain_completions(now_ns)
        # Node-loss draws: one per routable node per tick, on its own
        # fault channel, so fleets of different sizes never perturb each
        # other's schedules.
        if self.injector is not None:
            for node in list(self._routable()):
                if self.injector.node_lost(node.node_id):
                    self._fail_node(node, now_ns)
        # Draining nodes retire once their queues empty.
        for node_id in self._order:
            node = self._nodes[node_id]
            if node.state == NODE_DRAINING and node.idle(now_ns):
                node.finish(now_ns)
                self._close_node_span(node, now_ns)
        self._publish_gauges(now_ns)
        self._apply_autoscaler(now_ns)

    def _quiescent(self, now_ns: float) -> bool:
        if self._noncontrol_events > 0:
            return False
        if self._starting():
            return False
        for node_id in self._order:
            node = self._nodes[node_id]
            if node.state != NODE_DOWN and not node.idle(now_ns):
                return False
        return True

    # -- the event loop ----------------------------------------------------------------

    def run(self, requests: Sequence[ServiceRequest]) -> ClusterReport:
        """Simulate the full request sequence across the fleet."""
        self._records = {}
        self._requests = {}
        for request in requests:
            self._records[request.request_id] = RequestRecord.of(request)
            self._requests[request.request_id] = request
        if len(self._records) != len(requests):
            raise ConfigError("request_ids must be unique within one run")

        self._events: List[Tuple[float, int, str, object]] = []
        self._tiebreak = -1
        self._noncontrol_events = 0
        for request in requests:
            self._push(request.arrival_ns, "arrival", request)

        # The initial fleet is provisioned before the run: UP at t=0.
        for _ in range(self.config.num_nodes):
            node = self._new_node(provisioned_ns=0.0)
            self._activate(node, 0.0)
        if requests:
            first = min(r.arrival_ns for r in requests)
            self._push(
                first + self.config.control_interval_ns, "control", None
            )

        tracer = self.tracer
        while self._events:
            now_ns, _, etype, payload = heapq.heappop(self._events)
            if etype != "control":
                self._noncontrol_events -= 1
            tracer.advance(now_ns)
            self._horizon_ns = max(self._horizon_ns, now_ns)
            if etype == "arrival":
                self._handle_arrival(payload, now_ns)
            elif etype == "retry":
                self._handle_retry(payload, now_ns)
            elif etype == "deadline":
                node_id, kind, seq = payload
                self._handle_deadline(node_id, kind, seq, now_ns)
            elif etype == "activate":
                self._activate(self._nodes[payload], now_ns)
            else:  # control
                self._handle_control(now_ns)
                if not self._quiescent(now_ns):
                    self._push(
                        now_ns + self.config.control_interval_ns,
                        "control",
                        None,
                    )
        return self._finalize(self._horizon_ns, requests)

    # -- teardown ----------------------------------------------------------------------

    def _finalize(
        self, now_ns: float, requests: Sequence[ServiceRequest]
    ) -> ClusterReport:
        # Safety drain (mirrors the standalone server): dispatch any group
        # still open — zero-wait configs flush inline and never open one.
        for node_id in self._order:
            node = self._nodes[node_id]
            if node.state == NODE_DOWN:
                continue
            completions = node.server.flush_remaining(now_ns)
            self._note_completions(node_id, completions)
        end = now_ns
        if self._completions:
            end = max(end, max(f for f, _, _ in self._completions))
        self._drain_completions(end)
        for node_id in self._order:
            node = self._nodes[node_id]
            node.finish(end)
            self._close_node_span(node, end)
            self.registry.merge_snapshot(node.registry)
        if self.tracer.enabled:
            self._emit_request_spans(requests)

        records = [self._records[r.request_id] for r in requests]
        nodes = [
            self._nodes[node_id].summary(end) for node_id in self._order
        ]
        slo = SLOReport(
            records=records,
            fault_report=self.injector.report if self.injector else None,
            degraded_batches=sum(
                self._nodes[n].server.degraded_batches for n in self._order
            ),
            mean_batch_size=self._mean_batch_size(),
            peak_outstanding=self._peak_queue_depth,
            verified_requests=sum(
                self._nodes[n].server.verified_requests for n in self._order
            ),
        )
        return ClusterReport(
            slo=slo,
            nodes=nodes,
            autoscale_actions=(
                list(self.autoscaler.actions) if self.autoscaler else []
            ),
            failovers=self.failovers,
            retried_requests=slo.retried_requests,
            lost_after_failover=self.lost_after_failover,
            shard_seconds=sum(
                self._nodes[n].shard_seconds(end) for n in self._order
            ),
            locality_hits=self.router.locality_hits,
            locality_misses=self.router.locality_misses,
        )

    def _mean_batch_size(self) -> float:
        closed = sum(
            self._nodes[n].server.coalescer.batches_closed
            for n in self._order
        )
        batched = sum(
            self._nodes[n].server.coalescer.requests_batched
            for n in self._order
        )
        return batched / closed if closed else 0.0

    def _emit_request_spans(
        self, requests: Sequence[ServiceRequest]
    ) -> None:
        """One retrospective span tree per request, on its serving node's
        ``requests`` track, parented under that node's lifetime span (the
        cluster-trace analogue of the standalone server's emission)."""
        for request in requests:
            record = self._records[request.request_id]
            emit_request_spans(
                self.tracer,
                record,
                f"{record.node}.requests" if record.node else "cluster",
                parent=self._node_spans.get(record.node),
                extra=("node", "retries", "tenant"),
            )
