"""Pluggable eviction and placement policies for the memstore.

A policy answers two questions, both deterministically (ties broken by
``entry_id``, never by hash order or wall clock):

* **eviction** — when a tier is over budget, which resident entry
  demotes? (:meth:`EvictionPolicy.select_victim`)
* **placement** — when a dataset is cached with ``tier="auto"``, which
  tier does each partition start in? (:meth:`EvictionPolicy.place`)

Three policies ship:

* ``lru`` — victim is the least-recently-read entry. Spark's own
  ``MemoryStore`` behaviour; the baseline.
* ``size`` — victim is the entry holding the most bytes in the tier
  (LRU tiebreak). Frees budget in the fewest demotions.
* ``cost`` — victim is the entry whose demotion buys the most modelled
  relief per unit of modelled future cost: rebuild cost (the S/D the
  demoted tier will charge on every future read, scaled by the entry's
  observed read count) is weighed against the bytes of pressure the
  demotion releases. This is the policy the paper's tradeoff motivates:
  when S/D is cheap (plans/Cereal), demoting is nearly free and
  the policy behaves like ``size``; when S/D is expensive (java
  interpreter), hot entries are kept on-heap at almost any GC price.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.common.errors import ConfigError
from repro.memstore.model import BASE_GC_NS_PER_BYTE
from repro.memstore.tiers import (
    CacheEntry,
    TIER_DESERIALIZED,
    TIER_SERIALIZED,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.memstore.manager import ExecutorMemoryManager

__all__ = [
    "CostAwarePolicy",
    "EvictionPolicy",
    "LRUPolicy",
    "SizeAwarePolicy",
    "make_policy",
]


class EvictionPolicy:
    """Deterministic victim selection and auto placement."""

    name = "abstract"

    def select_victim(
        self, candidates: List[CacheEntry], manager: "ExecutorMemoryManager"
    ) -> Optional[CacheEntry]:
        raise NotImplementedError

    def place(
        self, entry: CacheEntry, manager: "ExecutorMemoryManager"
    ) -> str:
        """Initial tier for an ``auto``-placed entry (default: serialized,
        the storage level the paper's applications use)."""
        return TIER_SERIALIZED


class LRUPolicy(EvictionPolicy):
    """Evict the least-recently-read entry (admission counts as a read)."""

    name = "lru"

    def select_victim(self, candidates, manager):
        if not candidates:
            return None
        return min(candidates, key=lambda e: (e.last_access, e.entry_id))


class SizeAwarePolicy(EvictionPolicy):
    """Evict the largest entry in the tier; LRU breaks byte ties."""

    name = "size"

    def select_victim(self, candidates, manager):
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda e: (-e.bytes_in_tier(), e.last_access, e.entry_id),
        )


class CostAwarePolicy(EvictionPolicy):
    """Weigh modelled rebuild cost against modelled pressure relief.

    For every candidate the policy scores ``future_cost / relief_bytes``
    and evicts the minimum — the entry that is cheapest to rebuild per
    byte of budget it frees:

    * demoting ``deserialized -> serialized`` costs one serialize now
      plus, per future read (estimated by the reads observed so far), one
      deserialize and the rebuilt graph's base GC; it relieves
      ``graph_bytes`` of heap occupancy.
    * demoting ``serialized -> spilled`` costs one disk write now plus a
      disk read per future read; it relieves ``stream_bytes`` of
      off-heap budget.
    """

    name = "cost"

    def _future_cost_ns(
        self, entry: CacheEntry, manager: "ExecutorMemoryManager"
    ) -> float:
        expected_reads = entry.reads
        if entry.tier == TIER_DESERIALIZED:
            per_read = entry.read_op.time_ns + (
                entry.graph_bytes * BASE_GC_NS_PER_BYTE
            )
            return entry.serialize_op.time_ns + expected_reads * per_read
        # serialized -> spilled: disk traffic both ways.
        io_ns = entry.stream_bytes * manager.io_ns_per_byte
        return io_ns + expected_reads * io_ns

    def select_victim(self, candidates, manager):
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda e: (
                self._future_cost_ns(e, manager) / max(e.bytes_in_tier(), 1),
                e.last_access,
                e.entry_id,
            ),
        )

    def place(self, entry, manager):
        """On-heap only when the GC price of residency undercuts per-read
        S/D. The residency penalty proxy is the extra GC a rebuild-sized
        transient allocation would pay each iteration with this graph
        pinned, versus without it."""
        if not manager.heap_room(entry.graph_bytes):
            return TIER_SERIALIZED
        model = manager.gc_model
        live = manager.on_heap_bytes
        penalty_per_read = entry.graph_bytes * BASE_GC_NS_PER_BYTE * (
            model.multiplier(live + entry.graph_bytes) - 1.0
        )
        sd_per_read = entry.read_op.time_ns + (
            entry.graph_bytes * BASE_GC_NS_PER_BYTE
        )
        if penalty_per_read < sd_per_read:
            return TIER_DESERIALIZED
        return TIER_SERIALIZED


_POLICIES = {
    LRUPolicy.name: LRUPolicy,
    SizeAwarePolicy.name: SizeAwarePolicy,
    CostAwarePolicy.name: CostAwarePolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate a policy by name (``lru`` / ``size`` / ``cost``)."""
    cls = _POLICIES.get(name)
    if cls is None:
        raise ConfigError(
            f"unknown memstore policy {name!r} (choose from {sorted(_POLICIES)})"
        )
    return cls()


#: Exported for docs/benches that enumerate the sweep axis.
POLICY_NAMES = tuple(sorted(_POLICIES))
