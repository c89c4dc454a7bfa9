"""Exact pins of one seeded server run and one seeded cluster run.

The serving layer's numbers are deterministic functions of the seeds, so
any change to shard scheduling, routing, admission, the degrade lane or
the verification sampling shows up here as a changed value rather than
as a drifting band. The server run overloads two shards under a chaos
fault schedule, so the accelerator lane, the software degrade lane,
fault-driven batch degrades and load shedding all run; every 8th
completed request is functionally verified. The cluster run loses nodes
mid-run, so failover, re-execution and locality routing all run.
"""

import pytest

from repro.cluster import ClusterConfig, SerializationCluster
from repro.faults import FaultInjector, FaultPolicy
from repro.service import (
    DEFAULT_TENANTS,
    AdmissionConfig,
    KeySkew,
    PoissonWorkload,
    RequestMix,
    SerializationServer,
    ServiceCatalog,
    ServiceConfig,
    SizeClass,
)
from repro.service.workload import KIND_SERIALIZE

_SIZE_CLASSES = (
    SizeClass("small", "tree", objects=24),
    SizeClass("large", "graph", objects=96, fanout=4),
)
_MIX = RequestMix(
    serialize_fraction=0.5, size_weights={"small": 0.8, "large": 0.2}
)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(size_classes=_SIZE_CLASSES)


def _capacity_qps(catalog):
    mean_ns = catalog.mean_service_ns(KIND_SERIALIZE, _MIX.size_weights)
    units = catalog.accelerator.config.num_serializer_units
    return units * 1e9 / mean_ns / _MIX.serialize_fraction


def test_seeded_server_run_is_pinned(catalog):
    config = ServiceConfig(
        num_shards=2,
        functional_every=8,
        admission=AdmissionConfig(max_outstanding=128, degrade_threshold=0.75),
    )
    injector = FaultInjector(FaultPolicy.chaos(seed=0x5EED, probability=0.1))
    server = SerializationServer(catalog, config, injector=injector)
    requests = PoissonWorkload(
        _capacity_qps(catalog) * 3.0, 400, seed=27, mix=_MIX
    ).generate(catalog)
    report = server.run(requests)

    assert report.as_dict()["requests"] == {
        "total": 400,
        "completed": 361,
        "shed": 39,
        "rejected": 0,
        "degraded": 102,
        "retried": 0,
        "verified": 46,
    }
    assert report.p50() == 13820.252564056285
    assert report.p99() == 504920.0502535599
    assert report.p999() == 620507.8107758567
    assert report.mean_batch_size == 7.638888888888889
    assert report.degraded_batches == 2
    assert report.verified_requests == 46


def test_seeded_cluster_run_is_pinned(catalog):
    config = ClusterConfig(num_nodes=3, service=ServiceConfig(num_shards=1))
    injector = FaultInjector(FaultPolicy(seed=41, node_loss_prob=0.05))
    cluster = SerializationCluster(catalog, config, injector=injector)
    requests = PoissonWorkload(
        600_000, 2000, seed=31, mix=_MIX, keys=KeySkew(), tenants=DEFAULT_TENANTS
    ).generate(catalog)
    report = cluster.run(requests)

    assert report.failovers == 3
    assert report.retried_requests == 22
    assert report.lost_after_failover == 9
    assert report.locality_hits == 1164
    assert report.locality_misses == 220
    assert report.slo.p99() == 42140.00000000003
    assert report.shard_seconds == 0.004608087635039896
