"""The executor memory manager: byte budgets, tiers, and transitions.

:class:`ExecutorMemoryManager` owns one executor's modelled memory
budget and every cached partition's tier placement. It is the single
place cache storage costs are charged: admission, reads, demotions, and
spills all go through it, each transition posting its S/D / GC / disk
cost to the shared :class:`~repro.spark.metrics.TimeBreakdown`, bumping
``memstore.*`` metrics, and (when tracing is on) recording a
``memstore.<kind>`` span whose bounds are the time ledger before and
after the charge — so the trace, the counters, and the ledger reconcile
exactly.

Budget model (one executor lane, mirroring Spark's unified memory
manager at this reproduction's scale):

* ``budget_bytes`` — the executor heap budget. The deserialized tier may
  pin at most ``storage_fraction`` of it (Spark's storage region); the
  pinned bytes drive the :class:`~repro.memstore.model.GcCostModel`
  occupancy that prices *all* GC in the run.
* ``offheap_budget_bytes`` — cap on serialized-tier stream bytes.
* spill is unbounded (local disk), charged per byte moved.

Overflow never fails: an entry that cannot fit a tier after the policy
has evicted everything eligible simply lands one tier down, exactly like
Spark degrading ``MEMORY_ONLY`` to recompute-or-disk.

This module deliberately sits *below* :mod:`repro.spark` in the layer
graph (it is imported by the engine), so it never imports spark modules;
operation templates are duck-typed and copied with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import DISK_BANDWIDTH
from repro.common.errors import ConfigError
from repro.memstore.model import GcCostModel
from repro.memstore.policy import EvictionPolicy, make_policy
from repro.memstore.tiers import (
    DEMOTION,
    TIER_AUTO,
    TIER_DESERIALIZED,
    TIER_SERIALIZED,
    TIER_SPILLED,
    TIERS,
    CacheEntry,
)
from repro.obs.metrics import get_registry

__all__ = ["ExecutorMemoryManager", "MemstoreConfig"]


@dataclass(frozen=True)
class MemstoreConfig:
    """Budgets and eviction policy for one executor.

    GC is priced by a :class:`GcCostModel` over ``budget_bytes`` (8 ns/B
    floor, knee 0.3, 24x clamp).
    """

    budget_bytes: int = 512 * 1024 * 1024
    #: Fraction of the heap budget the deserialized tier may pin
    #: (Spark's ``spark.memory.storageFraction`` analogue).
    storage_fraction: float = 0.6
    #: Serialized-tier cap; ``None`` means equal to ``budget_bytes``
    #: (compact streams rarely bind before the heap does).
    offheap_budget_bytes: Optional[int] = None
    policy: str = "lru"

    def __post_init__(self):
        if self.budget_bytes <= 0:
            raise ConfigError(
                f"budget_bytes must be positive, got {self.budget_bytes}"
            )
        if not 0.0 < self.storage_fraction <= 1.0:
            raise ConfigError(
                f"storage_fraction must be in (0, 1], got {self.storage_fraction}"
            )
        if (
            self.offheap_budget_bytes is not None
            and self.offheap_budget_bytes <= 0
        ):
            raise ConfigError(
                f"offheap_budget_bytes must be positive, "
                f"got {self.offheap_budget_bytes}"
            )
        make_policy(self.policy)  # validate the name eagerly

    def build_gc_model(self) -> GcCostModel:
        return GcCostModel(budget_bytes=self.budget_bytes)

    @property
    def heap_tier_budget_bytes(self) -> int:
        return int(self.budget_bytes * self.storage_fraction)

    @property
    def resolved_offheap_budget_bytes(self) -> int:
        if self.offheap_budget_bytes is not None:
            return self.offheap_budget_bytes
        return self.budget_bytes


class ExecutorMemoryManager:
    """Owns tier placement and charges every cache-storage transition."""

    def __init__(
        self,
        config: MemstoreConfig,
        breakdown,
        gc_model: Optional[GcCostModel] = None,
        tracer=None,
        injector=None,
        transfer=None,
    ):
        self.config = config
        self.breakdown = breakdown
        self.gc_model = gc_model if gc_model is not None else config.build_gc_model()
        self.policy: EvictionPolicy = make_policy(config.policy)
        self.tracer = tracer
        self.injector = injector
        self.transfer = transfer
        self.io_ns_per_byte = 1e9 / DISK_BANDWIDTH

        self.heap_tier_budget = config.heap_tier_budget_bytes
        self.offheap_budget = config.resolved_offheap_budget_bytes

        self.entries: Dict[int, CacheEntry] = {}
        self._next_id = 0
        self._clock = 0
        #: Graph bytes pinned by deserialized-tier entries — the live set
        #: the GC curve prices everything against.
        self.on_heap_bytes = 0
        self.offheap_bytes = 0
        self.spilled_bytes = 0
        #: Modelled ns this manager has posted to the ledger, by kind.
        self.charged_ns: Dict[str, float] = {
            "serialize": 0.0,
            "deserialize": 0.0,
            "gc": 0.0,
            "io": 0.0,
        }
        #: Every tier transition: (entry_id, from_tier, to_tier, reason).
        self.transitions: List[Tuple[int, str, str, str]] = []
        self.admitted: Dict[str, int] = {tier: 0 for tier in TIERS}
        self.reads: Dict[str, int] = {tier: 0 for tier in TIERS}
        self.lost = 0
        self._registry = get_registry()

    # -- bookkeeping helpers -----------------------------------------------------------

    def _counter(self, name: str, **labels):
        return self._registry.counter(name, **labels)

    def _set_gauges(self) -> None:
        self._registry.gauge("memstore.on_heap_bytes").set(self.on_heap_bytes)
        self._registry.gauge("memstore.offheap_bytes").set(self.offheap_bytes)
        self._registry.gauge("memstore.spilled_bytes").set(self.spilled_bytes)

    def _record(self, kind: str, start_ns: float, **attrs) -> None:
        """A ``memstore.<kind>`` span spanning the charge on the ledger clock."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.record_span(
            f"memstore.{kind}",
            start_ns,
            self.breakdown.total_ns,
            category="memstore",
            track="memstore",
            **attrs,
        )

    def _charge_op(self, template, kind: str) -> None:
        """Re-post a captured S/D operation template to the ledger."""
        op = dataclasses.replace(template)
        self.breakdown.add_operation(op)
        self.charged_ns[kind] += op.time_ns

    def _charge_rebuild_gc(self, graph_bytes: int) -> None:
        """GC for a graph rebuilt from a stream — the *one* rebuild path.

        The rebuilt objects are fresh allocations the collector must
        evacuate; they are priced at the current pinned-live-set rate.
        Engine-side growth marks are synced past the functional
        materialization (``MiniSparkContext._sync_gc_mark``), so this
        charge can never be duplicated by ``_account_gc``.
        """
        ns = self.gc_model.charge_ns(graph_bytes, self.on_heap_bytes)
        self.breakdown.gc_ns += ns
        self.charged_ns["gc"] += ns

    def _charge_io(self, nbytes: int) -> None:
        ns = nbytes * self.io_ns_per_byte
        self.breakdown.io_ns += ns
        self.charged_ns["io"] += ns

    # -- budget queries ----------------------------------------------------------------

    def heap_room(self, nbytes: int) -> bool:
        return self.on_heap_bytes + nbytes <= self.heap_tier_budget

    def entries_in_tier(self, tier: str) -> List[CacheEntry]:
        return [e for e in self.entries.values() if e.tier == tier]

    @property
    def charged_total_ns(self) -> float:
        return sum(self.charged_ns.values())

    # -- eviction ----------------------------------------------------------------------

    def _tier_pressure(self, tier: str, need: int) -> bool:
        if tier == TIER_DESERIALIZED:
            return self.on_heap_bytes + need > self.heap_tier_budget
        if tier == TIER_SERIALIZED:
            return self.offheap_bytes + need > self.offheap_budget
        return False  # spill is unbounded

    def _make_room(self, tier: str, need: int, exclude_id: int) -> bool:
        """Demote policy-chosen victims until ``need`` bytes fit ``tier``.

        Returns True when the tier has room afterwards; False means even
        an empty tier cannot hold ``need`` (the caller overflows down).
        """
        while self._tier_pressure(tier, need):
            candidates = [
                e for e in self.entries_in_tier(tier) if e.entry_id != exclude_id
            ]
            victim = self.policy.select_victim(candidates, self)
            if victim is None:
                return not self._tier_pressure(tier, need)
            self._demote(victim, reason="pressure")
        return True

    def _demote(self, entry: CacheEntry, reason: str) -> None:
        """Move ``entry`` one tier down, charging the transition."""
        from_tier = entry.tier
        to_tier = DEMOTION[from_tier]
        start_ns = self.breakdown.total_ns

        if from_tier == TIER_DESERIALIZED:
            self.on_heap_bytes -= entry.graph_bytes
            # The graph must be serialized *now* to be stored compactly.
            self._charge_op(entry.serialize_op, "serialize")
            if self._make_room(
                TIER_SERIALIZED, entry.stream_bytes, entry.entry_id
            ):
                self.offheap_bytes += entry.stream_bytes
            else:
                to_tier = TIER_SPILLED  # off-heap full even after evicting
        elif from_tier == TIER_SERIALIZED:
            self.offheap_bytes -= entry.stream_bytes
        else:  # pragma: no cover - spill is the floor
            raise ConfigError("cannot demote a spilled entry")

        if to_tier == TIER_SPILLED:
            self._charge_io(entry.stream_bytes)  # disk write
            self.spilled_bytes += entry.stream_bytes

        entry.tier = to_tier
        entry.demotions.append((from_tier, to_tier))
        self.transitions.append((entry.entry_id, from_tier, to_tier, reason))
        self._counter(
            "memstore.transitions", tier_from=from_tier, tier_to=to_tier
        ).inc()
        self._set_gauges()
        kind = "spill" if to_tier == TIER_SPILLED else "evict"
        self._record(
            kind,
            start_ns,
            tier_from=from_tier,
            tier_to=to_tier,
            partition=entry.partition,
            bytes=entry.bytes_in_tier(),
            reason=reason,
        )

    # -- admission ---------------------------------------------------------------------

    def admit(
        self,
        partition: int,
        stream,
        records: List[Any],
        serialize_op,
        read_op,
        tier: str = TIER_SERIALIZED,
    ) -> CacheEntry:
        """Place one partition in the store, charging tier-entry costs.

        * ``deserialized`` — no S/D charged (the records are already
          live); the graph bytes start counting against the heap budget.
        * ``serialized`` — one serialize charged; stream bytes count
          against the off-heap budget.
        * ``auto`` — the policy's :meth:`~EvictionPolicy.place` decides.

        Either placement may overflow downwards after eviction, ending as
        deep as ``spilled`` (serialize plus disk write charged).
        """
        self._clock += 1
        entry = CacheEntry(
            entry_id=self._next_id,
            partition=partition,
            tier=tier,
            stream=stream,
            records=records,
            serialize_op=serialize_op,
            read_op=read_op,
            last_access=self._clock,
        )
        self._next_id += 1
        if tier == TIER_AUTO:
            tier = self.policy.place(entry, self)
        if tier not in TIERS:
            raise ConfigError(
                f"unknown cache tier {tier!r} (choose from {TIERS} or "
                f"{TIER_AUTO!r})"
            )
        start_ns = self.breakdown.total_ns

        serialize_charged = False
        if tier == TIER_DESERIALIZED:
            if self._make_room(TIER_DESERIALIZED, entry.graph_bytes, entry.entry_id):
                self.on_heap_bytes += entry.graph_bytes
            else:
                tier = TIER_SERIALIZED  # graph alone exceeds the region
        if tier == TIER_SERIALIZED:
            self._charge_op(serialize_op, "serialize")
            serialize_charged = True
            if self._make_room(TIER_SERIALIZED, entry.stream_bytes, entry.entry_id):
                self.offheap_bytes += entry.stream_bytes
            else:
                tier = TIER_SPILLED
        if tier == TIER_SPILLED:
            if not serialize_charged:
                # Direct spill admission still serializes first.
                self._charge_op(serialize_op, "serialize")
            self._charge_io(entry.stream_bytes)
            self.spilled_bytes += entry.stream_bytes

        entry.tier = tier
        self.entries[entry.entry_id] = entry
        self.admitted[tier] += 1
        self._counter("memstore.admitted", tier=tier).inc()
        self._set_gauges()
        self._record(
            "admit",
            start_ns,
            tier_from="none",
            tier_to=tier,
            partition=partition,
            bytes=entry.bytes_in_tier(),
        )
        return entry

    # -- reads -------------------------------------------------------------------------

    def read_entry(self, entry: CacheEntry) -> List[Any]:
        """One access to a cached partition, charged by its current tier.

        With a fault injector attached, the access first rolls the
        executor-loss die: a lost executor takes its cached copy with it,
        and the entry is rebuilt from lineage — re-serialized from its
        source records (plus a fresh spill write for spilled entries) —
        before the read proceeds. Spilled reads additionally cross the
        resilient transfer under site ``"spill"`` so injected disk
        corruption triggers the standard verified-retry path.
        """
        self._clock += 1
        entry.last_access = self._clock
        entry.reads += 1
        tier = entry.tier
        start_ns = self.breakdown.total_ns

        if self.injector is not None and self.injector.executor_lost():
            report = self.injector.report
            report.record_injected("executor")
            report.record_detected("executor")
            # Lineage rebuild: the source records are re-serialized into a
            # fresh cached copy (and re-spilled, for on-disk entries).
            self._charge_op(entry.serialize_op, "serialize")
            if tier == TIER_SPILLED:
                self._charge_io(entry.stream_bytes)
            self.lost += 1
            self._counter("memstore.lost", tier=tier).inc()
            report.record_recovered("executor")

        if tier != TIER_DESERIALIZED:
            if tier == TIER_SPILLED:
                self._charge_io(entry.stream_bytes)  # disk read
                if self.transfer is not None and self.injector is not None:
                    self.transfer.deliver(entry.stream, "spill")
            self._charge_op(entry.read_op, "deserialize")
            self._charge_rebuild_gc(entry.graph_bytes)

        self.reads[tier] += 1
        self._counter("memstore.reads", tier=tier).inc()
        self._record(
            "read", start_ns, tier_from=tier, tier_to=tier,
            partition=entry.partition, bytes=entry.bytes_in_tier(),
        )
        return list(entry.records)

    def read_cached(self, entries: List[CacheEntry]) -> List[List[Any]]:
        """Read a whole cached dataset (one list per partition)."""
        return [self.read_entry(entry) for entry in entries]

    # -- views -------------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The manager's full state as one JSON-able dict."""
        by_tier = {tier: 0 for tier in TIERS}
        for entry in self.entries.values():
            by_tier[entry.tier] += 1
        evictions = sum(
            1 for _, _, to, _ in self.transitions if to == TIER_SERIALIZED
        )
        spills = sum(
            1 for _, _, to, _ in self.transitions if to == TIER_SPILLED
        )
        return {
            "policy": self.policy.name,
            "budget_bytes": self.config.budget_bytes,
            "heap_tier_budget_bytes": self.heap_tier_budget,
            "offheap_budget_bytes": self.offheap_budget,
            "entries": len(self.entries),
            "by_tier": by_tier,
            "on_heap_bytes": self.on_heap_bytes,
            "offheap_bytes": self.offheap_bytes,
            "spilled_bytes": self.spilled_bytes,
            "gc_occupancy": self.gc_model.occupancy(self.on_heap_bytes),
            "gc_multiplier": self.gc_model.multiplier(self.on_heap_bytes),
            "admitted": dict(self.admitted),
            "reads": dict(self.reads),
            "transitions": len(self.transitions),
            "evictions": evictions,
            "spills": spills,
            "lost": self.lost,
            "charged_ns": dict(self.charged_ns),
            "charged_total_ns": self.charged_total_ns,
        }
