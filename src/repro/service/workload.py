"""Open-loop request workloads for the serialization service.

A service run needs two things: *what* is being (de)serialized and *when*
requests arrive.

The **catalog** answers "what": a small set of representative object
graphs (built by the :mod:`repro.workloads` generators) with their Cereal
streams and per-backend single-operation timings precomputed. Every
request references one catalog entry, so a million-request simulation only
pays the functional serialization cost once per entry — the event loop
replays cached timings, and functional execution is re-run on a sampled
(or exhaustive) subset of requests for correctness checking.

The **arrival generators** (Poisson and flash crowd) answer "when":
open-loop (the paper's wimpy-vs-beefy argument only bites when clients do
not wait for the server), seeded, and deliberately structured so that
*one* master unit-rate arrival sequence is rescaled for every offered QPS. Two runs at
different QPS therefore see the *same* requests in the same order with the
same sizes — only compressed in time — which makes latency-vs-load curves
monotone by construction rather than by luck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cereal.accelerator import CerealAccelerator, OperationTiming
from repro.common.errors import ConfigError
from repro.cpu.harness import SoftwarePlatform
from repro.formats.base import SerializedStream
from repro.formats.kryo import KryoSerializer
from repro.formats.registry import ClassRegistration
from repro.jvm.heap import Heap, HeapObject
from repro.service.timing_cache import catalog_timing_cache
from repro.workloads.datagen import DeterministicRandom
from repro.workloads.micro import (
    MicrobenchConfig,
    build_graph_bench,
    build_list_bench,
    build_tree_bench,
)

KIND_SERIALIZE = "serialize"
KIND_DESERIALIZE = "deserialize"
KINDS = (KIND_SERIALIZE, KIND_DESERIALIZE)


@dataclass(frozen=True)
class SizeClass:
    """One request size class: a shape plus an object budget."""

    name: str
    shape: str  # "tree" | "list" | "graph"
    objects: int
    fanout: int = 2


#: Default request-size mix: mostly small RPC-style graphs, some medium
#: shuffle buckets, a few large cached-partition-style graphs.
DEFAULT_SIZE_CLASSES: Tuple[SizeClass, ...] = (
    SizeClass("small", "tree", objects=48, fanout=2),
    SizeClass("medium", "list", objects=192),
    SizeClass("large", "graph", objects=256, fanout=6),
)


@dataclass
class CatalogEntry:
    """A reusable payload: graph, stream, and cached per-backend timings."""

    name: str
    root: HeapObject
    stream: SerializedStream  # Cereal-format bytes (deserialize input)
    accel_timing: Dict[str, OperationTiming]
    software_ns: Dict[str, float]

    @property
    def graph_bytes(self) -> int:
        return self.stream.graph_bytes

    @property
    def stream_bytes(self) -> int:
        return self.stream.size_bytes


class ServiceCatalog:
    """Builds and owns the payload graphs plus their cached timings.

    The catalog's device and the software degrade path share one
    :class:`~repro.formats.registry.ClassRegistration`, so a stream
    produced anywhere in the service is decodable everywhere (class IDs
    agree by construction). The device is the Table I configuration, and
    every accelerator shard sizes its unit pools from it.
    """

    def __init__(self, size_classes: Sequence[SizeClass] = DEFAULT_SIZE_CLASSES):
        if not size_classes:
            raise ConfigError("catalog needs at least one size class")
        self.heap = Heap(registry=None)
        self.registration = ClassRegistration()
        self.entries: Dict[str, CatalogEntry] = {}
        self._build(size_classes)

    def _build(self, size_classes: Sequence[SizeClass]) -> None:
        roots: Dict[str, HeapObject] = {}
        for size in size_classes:
            config = MicrobenchConfig(
                name=f"service-{size.name}",
                shape=size.shape,
                variant=size.name,
                paper_objects=size.objects,
                scale=1,
                fanout=size.fanout,
            )
            if size.shape == "tree":
                roots[size.name] = build_tree_bench(self.heap, config)
            elif size.shape == "list":
                roots[size.name] = build_list_bench(self.heap, config)
            elif size.shape == "graph":
                roots[size.name] = build_graph_bench(self.heap, config)
            else:
                raise ConfigError(f"unknown workload shape {size.shape!r}")
        # Reference accelerator: produces the catalog streams and the
        # cached single-op timings every shard replays.
        self.accelerator = CerealAccelerator(registration=self.registration)
        for klass in self.heap.registry:
            self.accelerator.register_class(klass)
        self.software = SoftwarePlatform()
        self.fallback_serializer = KryoSerializer(self.registration)
        # Catalog timings are a deterministic function of the payload
        # shapes, so identical catalogs — the common case across QPS/shard
        # sweeps — reuse them via the LRU.
        build_signature = tuple(size_classes)
        for size in size_classes:
            root = roots[size.name]
            cache_key = (build_signature, size.name)
            cached = catalog_timing_cache.get(cache_key)
            if cached is not None:
                stream, accel_timing, software_ns = cached
            else:
                result, ser_timing, _ = self.accelerator.serialize(root)
                receiver = Heap(registry=self.heap.registry)
                _, de_timing, _ = self.accelerator.deserialize(
                    result.stream, receiver
                )
                _, soft_ser = self.software.run_serialize(
                    self.fallback_serializer, root
                )
                soft_heap = Heap(registry=self.heap.registry)
                _, soft_de = self.software.run_deserialize(
                    self.accelerator.codec, result.stream, soft_heap
                )
                stream = result.stream
                accel_timing = {
                    KIND_SERIALIZE: ser_timing,
                    KIND_DESERIALIZE: de_timing,
                }
                software_ns = {
                    KIND_SERIALIZE: soft_ser.timing.time_ns,
                    KIND_DESERIALIZE: soft_de.timing.time_ns,
                }
                catalog_timing_cache.put(
                    cache_key, (stream, accel_timing, software_ns)
                )
            self.entries[size.name] = CatalogEntry(
                name=size.name,
                root=root,
                stream=stream,
                accel_timing=dict(accel_timing),
                software_ns=dict(software_ns),
            )

    @property
    def registry(self):
        return self.heap.registry

    def entry(self, name: str) -> CatalogEntry:
        return self.entries[name]

    def mean_service_ns(self, kind: str, weights: Mapping[str, float]) -> float:
        """Weighted mean accelerator service time for one request kind."""
        total_weight = sum(weights.get(name, 0.0) for name in self.entries)
        if total_weight <= 0:
            raise ConfigError("size weights select no catalog entries")
        return sum(
            self.entries[name].accel_timing[kind].elapsed_ns * weight
            for name, weight in weights.items()
            if name in self.entries
        ) / total_weight


@dataclass
class ServiceRequest:
    """One request in flight through the service."""

    request_id: int
    kind: str  # "serialize" | "deserialize"
    entry: CatalogEntry
    arrival_ns: float
    #: The payload is adversarial/corrupt: the hardened decode path will
    #: refuse it at admission instead of occupying a queue slot.
    malformed: bool = False
    #: Routing identity for the cluster layer: consistent-hash placement
    #: keys on this (hot-key skew makes some keys vastly more popular).
    #: Empty means "no affinity" — single-server runs never set it.
    key: str = ""
    #: Multi-tenant QoS: the owning tenant and its admission priority
    #: (0 = highest). Per-tenant shed/degrade thresholds key on priority.
    tenant: str = ""
    priority: int = 0
    #: Client locality zone, consumed by locality-aware cluster routing.
    zone: str = ""

    @property
    def accel_timing(self) -> OperationTiming:
        return self.entry.accel_timing[self.kind]

    @property
    def software_ns(self) -> float:
        return self.entry.software_ns[self.kind]


@dataclass(frozen=True)
class RequestMix:
    """Serialize/deserialize split and size-class weights."""

    serialize_fraction: float = 0.5
    size_weights: Mapping[str, float] = field(
        default_factory=lambda: {"small": 0.6, "medium": 0.3, "large": 0.1}
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.serialize_fraction <= 1.0:
            raise ConfigError("serialize_fraction must be in [0, 1]")
        if not self.size_weights or min(self.size_weights.values()) < 0:
            raise ConfigError("size_weights must be non-empty and non-negative")
        if sum(self.size_weights.values()) <= 0:
            raise ConfigError("size_weights must have positive total weight")


@dataclass(frozen=True)
class KeySkew:
    """Zipfian hot-key popularity over a bounded key space.

    Request keys are drawn rank-proportional to ``1 / rank**exponent``:
    with the default exponent ~1.1 the hottest key absorbs a double-digit
    percentage of all traffic, which is what makes consistent-hash
    placement interesting (one ring segment melts while others idle).
    """

    key_space: int = 1024
    exponent: float = 1.1

    def __post_init__(self) -> None:
        if self.key_space <= 0:
            raise ConfigError("key_space must be positive")
        if self.exponent < 0.0:
            raise ConfigError("exponent must be non-negative")

    def cumulative_weights(self) -> List[float]:
        weights: List[float] = []
        total = 0.0
        for rank in range(1, self.key_space + 1):
            total += 1.0 / (rank ** self.exponent)
            weights.append(total)
        return weights


@dataclass(frozen=True)
class TenantClass:
    """One QoS class in a multi-tenant mix.

    ``priority`` labels the class in the admission controller's per-class
    shed and degrade counts; ``zone`` is the locality hint cluster
    routing consumes. Weights are relative draw probabilities.
    """

    name: str
    weight: float = 1.0
    priority: int = 0
    zone: str = ""

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError("tenant weight must be positive")
        if self.priority < 0:
            raise ConfigError("tenant priority must be non-negative")


#: Default three-class tenant mix: an interactive, a bulk-analytics and a
#: batch tenant (priorities 0-2) across two zones.
DEFAULT_TENANTS: Tuple[TenantClass, ...] = (
    TenantClass("interactive", weight=0.5, priority=0, zone="zone-a"),
    TenantClass("analytics", weight=0.3, priority=1, zone="zone-b"),
    TenantClass("batch", weight=0.2, priority=2, zone="zone-a"),
)


# Substream tags: every draw category gets its own xorshift stream seeded
# from ``(seed << 1) ^ tag``, so adding a traffic shape (or turning a
# feature on) can never perturb the draws of another. The tags must never
# change — seeded workload tests and recorded benchmark trajectories depend
# on those exact sequences.
_STREAM_ARRIVAL = 0xA881_17A1
_STREAM_KIND = 0x5EED_0002
_STREAM_SIZE = 0x5EED_0003
_STREAM_MALFORMED = 0x5EED_0005
_STREAM_KEY = 0x5EED_0006
_STREAM_TENANT = 0x5EED_0007


class OpenLoopWorkload:
    """Base open-loop generator: seeded Poisson arrivals at a target QPS.

    Arrival times come from a unit-rate exponential sequence divided by
    ``qps``; request kinds, sizes, hot keys, and tenants come from
    *separate* seeded substreams (:meth:`_stream`) that never consume each
    other's draws. Changing ``qps`` therefore rescales the timeline
    without reshuffling the request sequence, and enabling key skew or a
    tenant mix decorates the same request sequence without moving a
    single arrival.
    """

    def __init__(
        self,
        qps: float,
        num_requests: int,
        seed: int = 0,
        mix: Optional[RequestMix] = None,
        malformed_fraction: float = 0.0,
        keys: Optional[KeySkew] = None,
        tenants: Optional[Sequence[TenantClass]] = None,
    ):
        if qps <= 0:
            raise ConfigError(f"qps must be positive, got {qps}")
        if num_requests <= 0:
            raise ConfigError("num_requests must be positive")
        if not 0.0 <= malformed_fraction <= 1.0:
            raise ConfigError("malformed_fraction must be in [0, 1]")
        self.qps = qps
        self.num_requests = num_requests
        self.seed = seed
        self.mix = mix or RequestMix()
        self.malformed_fraction = malformed_fraction
        self.keys = keys
        self.tenants = tuple(tenants) if tenants else ()

    # -- overridable pieces --------------------------------------------------------

    def _stream(self, tag: int) -> DeterministicRandom:
        """The seeded substream for one draw category (see tag table)."""
        return DeterministicRandom(seed=(self.seed << 1) ^ tag)

    def _unit_gaps(self) -> List[float]:
        """Unit-rate inter-arrival gaps (mean 1.0) before QPS scaling."""
        rng = self._stream(_STREAM_ARRIVAL)
        gaps = []
        for _ in range(self.num_requests):
            u = rng.random()
            gaps.append(-log(1.0 - u))
        return gaps

    # -- per-request decoration (keys, tenants) ------------------------------------

    def _draw_key(self, rng: DeterministicRandom) -> str:
        assert self.keys is not None
        cumulative = self._key_cumulative
        draw = rng.random() * cumulative[-1]
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] > draw:
                hi = mid
            else:
                lo = mid + 1
        return f"key-{lo}"

    def _draw_tenant(self, rng: DeterministicRandom) -> TenantClass:
        draw = rng.random() * self._tenant_total
        for tenant in self.tenants:
            if draw < tenant.weight:
                return tenant
            draw -= tenant.weight
        return self.tenants[-1]

    # -- generation --------------------------------------------------------------------

    def generate(self, catalog: ServiceCatalog) -> List[ServiceRequest]:
        names = sorted(
            name for name in self.mix.size_weights if name in catalog.entries
        )
        if not names:
            raise ConfigError(
                "request mix references no catalog entries "
                f"(mix={sorted(self.mix.size_weights)}, "
                f"catalog={sorted(catalog.entries)})"
            )
        weights = [self.mix.size_weights[name] for name in names]
        total_weight = sum(weights)
        kind_rng = self._stream(_STREAM_KIND)
        size_rng = self._stream(_STREAM_SIZE)
        # Malformed flags come from their own stream so turning the
        # fraction on or off never reshuffles kinds, sizes, or arrivals —
        # and likewise keys and tenants below.
        malformed_rng = self._stream(_STREAM_MALFORMED)
        key_rng = self._stream(_STREAM_KEY)
        tenant_rng = self._stream(_STREAM_TENANT)
        if self.keys is not None:
            self._key_cumulative = self.keys.cumulative_weights()
        if self.tenants:
            self._tenant_total = sum(t.weight for t in self.tenants)
        scale_ns = 1e9 / self.qps
        clock = 0.0
        requests: List[ServiceRequest] = []
        for index, gap in enumerate(self._unit_gaps()):
            clock += gap * scale_ns
            if kind_rng.random() < self.mix.serialize_fraction:
                kind = KIND_SERIALIZE
            else:
                kind = KIND_DESERIALIZE
            draw = size_rng.random() * total_weight
            chosen = names[-1]
            for name, weight in zip(names, weights):
                if draw < weight:
                    chosen = name
                    break
                draw -= weight
            malformed = malformed_rng.random() < self.malformed_fraction
            key = self._draw_key(key_rng) if self.keys is not None else ""
            if self.tenants:
                tenant = self._draw_tenant(tenant_rng)
                tenant_name, priority, zone = (
                    tenant.name, tenant.priority, tenant.zone,
                )
            else:
                tenant_name, priority, zone = "", 0, ""
            requests.append(
                ServiceRequest(
                    request_id=index,
                    kind=kind,
                    entry=catalog.entry(chosen),
                    arrival_ns=clock,
                    malformed=malformed,
                    key=key,
                    tenant=tenant_name,
                    priority=priority,
                    zone=zone,
                )
            )
        return requests


class PoissonWorkload(OpenLoopWorkload):
    """Memoryless open-loop arrivals at a fixed mean rate."""


class FlashCrowdWorkload(OpenLoopWorkload):
    """Baseline Poisson traffic with one sudden, sustained rate spike.

    Requests whose index falls inside the crowd window arrive at
    ``spike_factor`` times the baseline rate (their gaps divide by the
    factor); everything outside the window is untouched, so the spike
    *adds* load rather than conserving it — the scenario a reactive
    autoscaler exists for. Deterministic in the request index, no extra
    rng draws.
    """

    def __init__(
        self,
        qps: float,
        num_requests: int,
        seed: int = 0,
        mix: Optional[RequestMix] = None,
        spike_factor: float = 6.0,
        spike_start_fraction: float = 0.4,
        spike_duration_fraction: float = 0.2,
        malformed_fraction: float = 0.0,
        keys: Optional[KeySkew] = None,
        tenants: Optional[Sequence[TenantClass]] = None,
    ):
        super().__init__(
            qps,
            num_requests,
            seed=seed,
            mix=mix,
            malformed_fraction=malformed_fraction,
            keys=keys,
            tenants=tenants,
        )
        if spike_factor < 1.0:
            raise ConfigError("spike_factor must be >= 1")
        if not 0.0 <= spike_start_fraction < 1.0:
            raise ConfigError("spike_start_fraction must be in [0, 1)")
        if not 0.0 < spike_duration_fraction <= 1.0:
            raise ConfigError("spike_duration_fraction must be in (0, 1]")
        self.spike_factor = spike_factor
        self.spike_start_fraction = spike_start_fraction
        self.spike_duration_fraction = spike_duration_fraction

    def spike_window(self) -> Tuple[int, int]:
        """[start, end) request indices of the crowd."""
        start = int(self.num_requests * self.spike_start_fraction)
        end = min(
            self.num_requests,
            start + max(1, int(self.num_requests * self.spike_duration_fraction)),
        )
        return start, end

    def _unit_gaps(self) -> List[float]:
        gaps = super()._unit_gaps()
        start, end = self.spike_window()
        return [
            gap / self.spike_factor if start <= index < end else gap
            for index, gap in enumerate(gaps)
        ]
