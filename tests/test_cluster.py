"""Tests for the repro.cluster fleet: routing, nodes, scaling, failover."""

import pytest

from repro.cluster import (
    Autoscaler,
    AutoscalerConfig,
    ClusterConfig,
    ClusterRouter,
    ConsistentHashRing,
    GAUGE_P99_NS,
    GAUGE_QUEUE_DEPTH,
    GAUGE_STARTING_NODES,
    GAUGE_UP_NODES,
    NODE_DOWN,
    NODE_UP,
    SCALE_DOWN,
    SCALE_UP,
    SerializationCluster,
    ServerNode,
    stable_hash,
)
from repro.common.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.policy import FaultPolicy
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service.admission import AdmissionConfig
from repro.service.server import ServiceConfig
from repro.service.workload import (
    DEFAULT_TENANTS,
    KeySkew,
    PoissonWorkload,
    RequestMix,
    ServiceCatalog,
    SizeClass,
)

_SMALL_CLASSES = (
    SizeClass("small", "tree", objects=24),
    SizeClass("medium", "list", objects=64),
)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(size_classes=_SMALL_CLASSES)


def _mix():
    return RequestMix(
        serialize_fraction=0.5, size_weights={"small": 0.7, "medium": 0.3}
    )


def _keys(count):
    return [f"key-{i}" for i in range(count)]


# -- consistent hashing --------------------------------------------------------------


def _owner(ring, key):
    """The primary owner of ``key``."""
    return ring.preference(key, 1)[0]


class TestConsistentHashRing:
    def test_stable_hash_is_deterministic_and_spread(self):
        values = {stable_hash(f"key-{i}") for i in range(1000)}
        assert len(values) == 1000
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")

    def test_all_keys_land_on_some_node(self):
        ring = ConsistentHashRing()
        for node in ("node0", "node1", "node2"):
            ring.add_node(node)
        owners = {_owner(ring, key) for key in _keys(500)}
        assert owners <= {"node0", "node1", "node2"}
        assert len(owners) == 3  # every node owns some arc

    def test_add_one_node_remaps_about_one_over_n(self):
        """The stability property consistent hashing exists for."""
        ring = ConsistentHashRing()
        nodes = [f"node{i}" for i in range(5)]
        for node in nodes:
            ring.add_node(node)
        keys = _keys(4000)
        before = {key: _owner(ring, key) for key in keys}
        ring.add_node("node5")
        moved = sum(1 for key in keys if _owner(ring, key) != before[key])
        # Ideal is 1/6 of keys; allow generous slack for vnode variance.
        assert 0.05 < moved / len(keys) < 0.35
        # Every moved key moved TO the new node, never between old nodes.
        for key in keys:
            after = _owner(ring, key)
            assert after == before[key] or after == "node5"

    def test_remove_one_node_remaps_only_its_keys(self):
        ring = ConsistentHashRing()
        nodes = [f"node{i}" for i in range(5)]
        for node in nodes:
            ring.add_node(node)
        keys = _keys(4000)
        before = {key: _owner(ring, key) for key in keys}
        ring.remove_node("node2")
        for key in keys:
            if before[key] != "node2":
                assert _owner(ring, key) == before[key]
            else:
                assert _owner(ring, key) != "node2"

    def test_preference_list_never_colocates_replicas(self):
        """Primary and replicas are always distinct physical nodes."""
        ring = ConsistentHashRing()
        for index in range(4):
            ring.add_node(f"node{index}")
        for key in _keys(1000):
            preference = ring.preference(key, 3)
            assert len(preference) == 3
            assert len(set(preference)) == 3

    def test_preference_clamps_to_fleet_size(self):
        ring = ConsistentHashRing()
        ring.add_node("only")
        assert ring.preference("k", 3) == ["only"]
        assert _owner(ring, "k") == "only"

    def test_empty_ring_routes_nowhere(self):
        ring = ConsistentHashRing()
        assert ring.preference("k", 1) == []
        assert ring.preference("k", 2) == []

    def test_membership_errors(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        with pytest.raises(ConfigError):
            ring.add_node("a")
        with pytest.raises(ConfigError):
            ring.remove_node("b")


class TestClusterRouter:
    def test_locality_prefers_zone_replica(self):
        router = ClusterRouter()
        router.add_node("node0", "zone-a")
        router.add_node("node1", "zone-b")
        for key in _keys(200):
            replicas = router.replicas_for(key)
            assert len(replicas) == 2
            target = router.route(key, zone="zone-b")
            assert target == "node1"  # the zone-b replica

    def test_no_zone_uses_primary(self):
        router = ClusterRouter()
        router.add_node("node0", "zone-a")
        router.add_node("node1", "zone-b")
        for key in _keys(100):
            assert router.route(key) == router.replicas_for(key)[0]

    def test_exclude_walks_down_preference_list(self):
        router = ClusterRouter()
        for index in range(3):
            router.add_node(f"node{index}", "zone-a")
        key = "key-7"
        first, second = router.replicas_for(key)
        assert router.route(key, exclude=(first,)) == second
        assert router.route(key, exclude=(first, second)) is None


# -- node lifecycle ------------------------------------------------------------------


class TestServerNode:
    def test_lifecycle_and_shard_seconds(self, catalog):
        node = ServerNode(
            "node0", "zone-a", catalog,
            ServiceConfig(num_shards=2), provisioned_ns=1e6,
        )
        node.activate(2e6)
        assert node.state == NODE_UP and node.routable
        node.start_drain()
        assert not node.routable
        node.finish(6e6)
        assert node.state == NODE_DOWN
        # 2 shards x 5 ms provisioned (1e6 -> 6e6).
        assert node.shard_seconds(9e6) == pytest.approx(2 * 5e-3)

    def test_illegal_transitions_rejected(self, catalog):
        node = ServerNode(
            "node0", "zone-a", catalog, ServiceConfig(), provisioned_ns=0.0
        )
        with pytest.raises(ConfigError):
            node.start_drain()  # STARTING cannot drain
        node.activate(0.0)
        node.fail(1.0)
        with pytest.raises(ConfigError):
            node.activate(2.0)


# -- autoscaler ----------------------------------------------------------------------


def _publish(registry, queue_depth, p99_ns, up, starting=0):
    registry.gauge(GAUGE_QUEUE_DEPTH).set(queue_depth)
    registry.gauge(GAUGE_P99_NS).set(p99_ns)
    registry.gauge(GAUGE_UP_NODES).set(up)
    registry.gauge(GAUGE_STARTING_NODES).set(starting)


class TestAutoscaler:
    def test_scales_up_on_queue_pressure(self):
        registry = MetricsRegistry(enabled=True)
        scaler = Autoscaler(AutoscalerConfig(queue_high_per_node=10.0))
        _publish(registry, queue_depth=50, p99_ns=0.0, up=2)
        assert scaler.decide(registry, 0.0) == SCALE_UP
        assert scaler.actions[0]["action"] == SCALE_UP

    def test_cooldown_blocks_consecutive_actions(self):
        registry = MetricsRegistry(enabled=True)
        scaler = Autoscaler(
            AutoscalerConfig(queue_high_per_node=10.0, cooldown_ns=1e6)
        )
        _publish(registry, 50, 0.0, up=2)
        assert scaler.decide(registry, 0.0) == SCALE_UP
        assert scaler.decide(registry, 5e5) == ""
        assert scaler.decide(registry, 2e6) == SCALE_UP

    def test_starting_nodes_count_as_capacity(self):
        registry = MetricsRegistry(enabled=True)
        scaler = Autoscaler(
            AutoscalerConfig(
                max_nodes=3, queue_high_per_node=10.0, cooldown_ns=0.0
            )
        )
        _publish(registry, 100, 0.0, up=2, starting=1)
        assert scaler.decide(registry, 0.0) == ""  # 2 + 1 == max_nodes

    def test_scales_down_when_idle(self):
        registry = MetricsRegistry(enabled=True)
        scaler = Autoscaler(
            AutoscalerConfig(min_nodes=1, queue_low_per_node=4.0)
        )
        _publish(registry, 2, 0.0, up=3)
        assert scaler.decide(registry, 0.0) == SCALE_DOWN

    def test_min_nodes_floor(self):
        registry = MetricsRegistry(enabled=True)
        scaler = Autoscaler(AutoscalerConfig(min_nodes=2))
        _publish(registry, 0, 0.0, up=2)
        assert scaler.decide(registry, 0.0) == ""

    def test_decisions_follow_queue_and_log_p99(self):
        registry = MetricsRegistry(enabled=True)
        scaler = Autoscaler(AutoscalerConfig(queue_high_per_node=10.0))
        # 5 per node: neither hot nor cold, however high the p99.
        _publish(registry, 10, 5e6, up=2)
        assert scaler.decide(registry, 0.0) == ""
        _publish(registry, 50, 5e6, up=2)
        assert scaler.decide(registry, 0.0) == SCALE_UP
        assert scaler.actions[-1]["p99_ns"] == 5e6

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_nodes=0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(min_nodes=4, max_nodes=2)
        with pytest.raises(ConfigError):
            AutoscalerConfig(queue_high_per_node=1.0, queue_low_per_node=2.0)


# -- the cluster event loop ----------------------------------------------------------


def _workload(catalog, num_requests=1200, qps=40_000, seed=3, **kwargs):
    return PoissonWorkload(
        qps=qps, num_requests=num_requests, seed=seed, mix=_mix(),
        keys=KeySkew(key_space=128), **kwargs
    ).generate(catalog)


class TestSerializationCluster:
    def test_static_fleet_completes_everything(self, catalog):
        cluster = SerializationCluster(
            catalog, ClusterConfig(num_nodes=3)
        )
        report = cluster.run(_workload(catalog))
        assert report.slo.total_requests == 1200
        assert report.slo.completed_requests == 1200
        assert report.failovers == 0
        assert report.shard_seconds > 0
        served = {n["node"]: n["served_requests"] for n in report.nodes}
        assert sum(served.values()) == 1200
        assert all(count > 0 for count in served.values())

    def test_same_key_routes_to_same_node(self, catalog):
        cluster = SerializationCluster(
            catalog, ClusterConfig(num_nodes=3)
        )
        report = cluster.run(_workload(catalog))
        key_nodes = {}
        for request, record in zip(
            sorted(cluster._requests.values(), key=lambda r: r.request_id),
            report.slo.records,
        ):
            key_nodes.setdefault(request.key, set()).add(record.node)
        assert all(len(nodes) == 1 for nodes in key_nodes.values())

    def test_identical_runs_are_identical(self, catalog):
        import json

        def run_once():
            injector = FaultInjector(
                FaultPolicy(seed=17, node_loss_prob=0.005)
            )
            cluster = SerializationCluster(
                catalog,
                ClusterConfig(
                    num_nodes=3,
                    autoscaler=AutoscalerConfig(min_nodes=2, max_nodes=5),
                ),
                injector=injector,
            )
            payload = cluster.run(_workload(catalog)).as_dict()
            return json.dumps(payload, sort_keys=True)

        assert run_once() == run_once()

    def test_failover_reexecutes_without_losing_requests(self, catalog):
        injector = FaultInjector(FaultPolicy(seed=23, node_loss_prob=0.02))
        config = ClusterConfig(
            num_nodes=4,
            control_interval_ns=50_000.0,
            service=ServiceConfig(
                num_shards=1,
                admission=AdmissionConfig(max_outstanding=4096),
            ),
        )
        cluster = SerializationCluster(catalog, config, injector=injector)
        report = cluster.run(
            _workload(catalog, num_requests=3000, qps=150_000, seed=5)
        )
        assert report.failovers > 0
        assert report.retried_requests > 0
        retried = [r for r in report.slo.records if r.retries > 0]
        # Every reaped request is accounted for: re-executed to completion
        # (latency spanning the ORIGINAL arrival) or counted as lost.
        lost = [r for r in retried if not r.completed]
        assert len(lost) == report.lost_after_failover
        for record in retried:
            if record.completed:
                assert record.finish_ns > record.arrival_ns
                assert record.node != ""

    def test_autoscaler_grows_fleet_under_pressure(self, catalog):
        config = ClusterConfig(
            num_nodes=1,
            control_interval_ns=50_000.0,
            service=ServiceConfig(
                num_shards=1,
                admission=AdmissionConfig(max_outstanding=2048),
            ),
            autoscaler=AutoscalerConfig(
                min_nodes=1,
                max_nodes=4,
                queue_high_per_node=16.0,
                cooldown_ns=300_000.0,
                provision_delay_ns=200_000.0,
            ),
        )
        cluster = SerializationCluster(catalog, config)
        report = cluster.run(
            _workload(catalog, num_requests=2500, qps=800_000, seed=9)
        )
        ups = [
            a for a in report.autoscale_actions if a["action"] == SCALE_UP
        ]
        assert ups, "expected at least one scale-up"
        assert len(report.nodes) > 1
        late_nodes = [n for n in report.nodes if n["provisioned_ns"] > 0]
        assert any(n["served_requests"] > 0 for n in late_nodes)

    def test_cluster_trace_validates_and_nests(self, catalog):
        tracer = Tracer(enabled=True)
        cluster = SerializationCluster(
            catalog, ClusterConfig(num_nodes=2), tracer=tracer
        )
        cluster.run(_workload(catalog, num_requests=400))
        document = to_chrome_trace(tracer)
        counts = validate_chrome_trace(document)
        assert counts["X"] > 0
        node_spans = [
            s for s in tracer.spans() if s.name == "node.up"
        ]
        assert len(node_spans) == 2
        node_ids = {s.span_id for s in node_spans}
        requests = [s for s in tracer.spans() if s.name == "request"]
        assert requests
        assert all(s.parent_id in node_ids for s in requests)
        batches = [s for s in tracer.spans() if s.name == "batch.execute"]
        assert batches
        assert all(s.parent_id in node_ids for s in batches)
        assert all(s.track.split(".")[0].startswith("node") for s in batches)

    def test_node_registries_merge_into_run_registry(self, catalog):
        registry = MetricsRegistry(enabled=True)
        cluster = SerializationCluster(
            catalog, ClusterConfig(num_nodes=2), registry=registry
        )
        cluster.run(_workload(catalog, num_requests=600))
        snapshot = registry.snapshot()
        completed = [
            key for key in snapshot
            if key.startswith("node.requests_completed")
        ]
        assert len(completed) == 2
        total = sum(snapshot[key] for key in completed)
        assert total == 600

    def test_tenant_qos_priorities_flow_through(self, catalog):
        config = ClusterConfig(
            num_nodes=2,
            service=ServiceConfig(
                num_shards=1,
                admission=AdmissionConfig(max_outstanding=8),
            ),
        )
        cluster = SerializationCluster(catalog, config)
        report = cluster.run(
            _workload(
                catalog, num_requests=3000, qps=250_000, seed=13,
                tenants=DEFAULT_TENANTS,
            )
        )
        summary = report.slo.as_dict()
        assert set(summary["tenants"]) == {
            "interactive", "analytics", "batch"
        }
        tenants = summary["tenants"]
        assert [tenants[t]["priority"] for t in (
            "interactive", "analytics", "batch"
        )] == [0, 1, 2]
        assert sum(entry["total"] for entry in tenants.values()) == 3000
        # Every priority sees the full queue; the per-class counts add up.
        for outcome in ("shed", "degraded"):
            assert (
                sum(entry[outcome] for entry in tenants.values())
                == summary["requests"][outcome]
            )
        assert summary["requests"]["degraded"] > 0

    def test_duplicate_request_ids_rejected(self, catalog):
        requests = _workload(catalog, num_requests=10)
        requests.append(requests[0])
        cluster = SerializationCluster(catalog, ClusterConfig(num_nodes=1))
        with pytest.raises(ConfigError):
            cluster.run(requests)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ConfigError):
            ClusterConfig(control_interval_ns=0.0)
