"""Event-driven serialization serving layer (the load-driven view).

The paper measures Cereal on one-shot batches; this package measures it
under *sustained request traffic*, where queueing, batching, and memory
contention dominate. The pieces:

* :mod:`repro.service.workload` — payload catalog + seeded open-loop
  arrival generators (Poisson and flash crowd) with a configurable
  serialize/deserialize mix over :mod:`repro.workloads` object graphs;
* :mod:`repro.service.batching` — batch coalescer (count / byte / wait
  triggers) amortizing per-dispatch overhead the way the accelerator's
  batch interface rewards;
* :mod:`repro.service.admission` — bounded queues, load shedding, and
  degrade-to-software routing (open-loop backpressure);
* :mod:`repro.service.server` — the event-loop
  :class:`~repro.service.server.SerializationServer` owning N
  accelerator shards plus a CPU software lane, with least-loaded
  routing and fault-driven degrade via :mod:`repro.faults`;
* :mod:`repro.service.slo` — per-request latency traces and the
  p50/p95/p99/p999 + goodput/shed-rate summaries.

``benchmarks/bench_service_scaling.py`` sweeps QPS x shard count x batch
deadline over this stack and emits ``BENCH_service.json``.
"""

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    DECISION_ADMIT,
    DECISION_DEGRADE,
    DECISION_SHED,
)
from repro.service.batching import AddOutcome, Batch, BatchCoalescer
from repro.service.server import (
    AcceleratorShard,
    ArrivalOutcome,
    SerializationServer,
    ServiceConfig,
    SoftwareLane,
)
from repro.service.slo import RequestRecord, SLOReport
from repro.service.streaming import ResponseStreamer, StreamingConfig
from repro.service.workload import (
    CatalogEntry,
    DEFAULT_SIZE_CLASSES,
    DEFAULT_TENANTS,
    FlashCrowdWorkload,
    KeySkew,
    OpenLoopWorkload,
    PoissonWorkload,
    RequestMix,
    ServiceCatalog,
    ServiceRequest,
    SizeClass,
    TenantClass,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "DECISION_ADMIT",
    "DECISION_DEGRADE",
    "DECISION_SHED",
    "AddOutcome",
    "Batch",
    "BatchCoalescer",
    "AcceleratorShard",
    "ArrivalOutcome",
    "SerializationServer",
    "ServiceConfig",
    "SoftwareLane",
    "RequestRecord",
    "SLOReport",
    "ResponseStreamer",
    "StreamingConfig",
    "CatalogEntry",
    "DEFAULT_SIZE_CLASSES",
    "DEFAULT_TENANTS",
    "FlashCrowdWorkload",
    "KeySkew",
    "OpenLoopWorkload",
    "PoissonWorkload",
    "RequestMix",
    "ServiceCatalog",
    "ServiceRequest",
    "SizeClass",
    "TenantClass",
]
