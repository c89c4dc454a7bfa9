"""Cache tiers and the per-partition cache entry record.

Spark's storage levels collapse, for the S/D-vs-GC tradeoff, into three
tiers with distinct cost signatures:

* ``deserialized`` (``MEMORY_ONLY``) — the object graph stays live
  on-heap. Reads are free, but every resident byte raises the heap
  occupancy that prices *all* GC work through the
  :class:`~repro.memstore.model.GcCostModel` curve.
* ``serialized`` (``OFF_HEAP_SER``) — only the compact stream bytes are
  retained, off-heap, invisible to the collector. Every read pays a full
  deserialization (through whatever format/plan path the backend
  is configured with) plus GC for the rebuilt transient graph.
* ``spilled`` — the stream bytes live on local disk. No memory pressure
  at all; reads add a disk read of the stream on top of the serialized
  tier's costs, and demotion into the tier pays the disk write.

Entries only ever *demote* down this ladder under pressure
(``deserialized -> serialized -> spilled``); the eviction policy picks
the victims (:mod:`repro.memstore.policy`) and the manager charges the
transitions (:mod:`repro.memstore.manager`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List

__all__ = [
    "CacheEntry",
    "DEMOTION",
    "TIERS",
    "TIER_AUTO",
    "TIER_DESERIALIZED",
    "TIER_SERIALIZED",
    "TIER_SPILLED",
]

TIER_DESERIALIZED = "deserialized"
TIER_SERIALIZED = "serialized"
TIER_SPILLED = "spilled"
#: Placement decided by the configured policy at admission time.
TIER_AUTO = "auto"

TIERS = (TIER_DESERIALIZED, TIER_SERIALIZED, TIER_SPILLED)

#: Where pressure pushes an entry next. Spilled entries have nowhere
#: cheaper to go — disk is the floor.
DEMOTION = {
    TIER_DESERIALIZED: TIER_SERIALIZED,
    TIER_SERIALIZED: TIER_SPILLED,
}


@dataclass
class CacheEntry:
    """One cached partition: its stream, records, and cost templates.

    The Python-level ``records`` and ``stream`` are the *functional*
    truth — they exist regardless of tier so reads stay correct and
    linear-time. The tier decides what the *model* charges: the
    ``serialize_op`` / ``read_op`` templates (captured once at admission)
    are re-posted to the time ledger whenever the tier semantics say that
    work happens again.
    """

    entry_id: int
    partition: int
    tier: str
    stream: Any  # SerializedStream (kept untyped: memstore sits below spark)
    records: List[Any]  # materialized HeapObjects, partition order
    serialize_op: Any  # SDOperation template: one full serialize
    read_op: Any  # SDOperation template: one full deserialize
    #: Logical-clock timestamp of the last read (LRU input).
    last_access: int = 0
    #: Completed reads through this entry (cost-aware policies use it as
    #: the estimate of future access frequency).
    reads: int = 0
    #: Demotions this entry has suffered, by (from, to).
    demotions: List[Any] = field(default_factory=list)

    @property
    def graph_bytes(self) -> int:
        """Heap footprint of the materialized graph (deserialized tier)."""
        return self.serialize_op.graph_bytes

    @property
    def stream_bytes(self) -> int:
        """Compact stream footprint (serialized / spilled tiers)."""
        return self.serialize_op.stream_bytes

    def bytes_in_tier(self) -> int:
        """The bytes this entry charges against its current tier's budget."""
        if self.tier == TIER_DESERIALIZED:
            return self.graph_bytes
        return self.stream_bytes
