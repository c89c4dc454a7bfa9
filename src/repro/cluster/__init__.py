"""Multi-node serving: replication, locality routing, reactive scaling.

The serving stack so far ends at one box —
:class:`~repro.service.server.SerializationServer` with its shards and
software lane. Real deployments of a serialization tier run *fleets*:
requests hash onto nodes, hot keys concentrate load, nodes fail
mid-flight, and capacity follows demand. This package adds that layer
without forking the server — each
:class:`~repro.cluster.node.ServerNode` wraps an unmodified server,
driven through its incremental event API on one shared virtual clock:

* :mod:`repro.cluster.routing` — consistent-hash ring (64 virtual nodes
  per server), two-node preference lists on distinct physical nodes,
  same-zone dispatch (nodes alternate between two zones);
* :mod:`repro.cluster.node` — node lifecycle (STARTING → UP → DRAINING
  → DOWN), shard-second cost accounting, per-node metric registries;
* :mod:`repro.cluster.autoscale` — the reactive controller reading
  ``cluster.*`` gauges out of the :mod:`repro.obs` registry;
* :mod:`repro.cluster.cluster` — the fleet event loop: placement,
  failover with retry re-execution, the control tick, and the
  :class:`~repro.cluster.cluster.ClusterReport`.

``benchmarks/bench_cluster.py`` sweeps static vs autoscaled fleets under
a flash crowd and injected node loss, and emits ``BENCH_cluster.json``.
"""

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
from repro.cluster.cluster import (
    ClusterConfig,
    ClusterReport,
    SerializationCluster,
)
from repro.cluster.node import (
    NODE_DOWN,
    NODE_DRAINING,
    NODE_STARTING,
    NODE_UP,
    ServerNode,
)
from repro.cluster.routing import (
    ClusterRouter,
    ConsistentHashRing,
    stable_hash,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "GAUGE_P99_NS",
    "GAUGE_QUEUE_DEPTH",
    "GAUGE_STARTING_NODES",
    "GAUGE_UP_NODES",
    "SCALE_DOWN",
    "SCALE_UP",
    "ClusterConfig",
    "ClusterReport",
    "SerializationCluster",
    "NODE_DOWN",
    "NODE_DRAINING",
    "NODE_STARTING",
    "NODE_UP",
    "ServerNode",
    "ClusterRouter",
    "ConsistentHashRing",
    "stable_hash",
]
