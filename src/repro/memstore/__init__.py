"""Tiered executor memory management for the mini-Spark model.

The package owns the S/D-vs-GC cache-storage tradeoff end to end:

* :mod:`repro.memstore.model` — the heap-occupancy-driven GC cost curve
  that replaces the seed's flat ``_GC_NS_PER_BYTE``;
* :mod:`repro.memstore.tiers` — the three tiers (deserialized on-heap,
  serialized off-heap, spilled) and the per-partition entry record;
* :mod:`repro.memstore.policy` — pluggable eviction/placement policies
  (``lru`` / ``size`` / ``cost``);
* :mod:`repro.memstore.manager` — the byte-budgeted manager that charges
  every tier transition to the time ledger, metrics, and trace.

Layering: this package sits *below* :mod:`repro.spark` (the engine
imports it) and must never import spark modules.
"""

from repro.memstore.manager import ExecutorMemoryManager, MemstoreConfig
from repro.memstore.model import (
    BASE_GC_NS_PER_BYTE,
    GC_KNEE,
    GC_MAX_MULTIPLIER,
    GcCostModel,
)
from repro.memstore.policy import (
    POLICY_NAMES,
    CostAwarePolicy,
    EvictionPolicy,
    LRUPolicy,
    SizeAwarePolicy,
    make_policy,
)
from repro.memstore.tiers import (
    DEMOTION,
    TIER_AUTO,
    TIER_DESERIALIZED,
    TIER_SERIALIZED,
    TIER_SPILLED,
    TIERS,
    CacheEntry,
)

__all__ = [
    "BASE_GC_NS_PER_BYTE",
    "CacheEntry",
    "CostAwarePolicy",
    "DEMOTION",
    "EvictionPolicy",
    "ExecutorMemoryManager",
    "GC_KNEE",
    "GC_MAX_MULTIPLIER",
    "GcCostModel",
    "LRUPolicy",
    "MemstoreConfig",
    "POLICY_NAMES",
    "SizeAwarePolicy",
    "TIER_AUTO",
    "TIER_DESERIALIZED",
    "TIER_SERIALIZED",
    "TIER_SPILLED",
    "TIERS",
    "make_policy",
]
