"""Heap-occupancy-driven GC cost curve.

The seed model charged a flat ``8 ns`` of copying-collector work per byte
allocated, regardless of how full the executor heap was. That misses the
system-level tension the memstore exists to explore ("Garbage Collection
or Serialization? Between a Rock and a Hard Place!", PAPERS.md): a
generational collector's cost per evacuated byte is *not* constant — as
the live set approaches the heap budget, collections run more often, each
one copies a larger survivor fraction, and full-heap pauses start firing.
Cost per allocated byte rises super-linearly with occupancy.

:class:`GcCostModel` keeps the seed's flat rate as its floor and layers a
pressure multiplier on top:

* occupancy at or below ``GC_KNEE`` — multiplier 1.0, byte-identical to
  the seed model (a mostly-empty heap collects young garbage cheaply);
* occupancy between ``GC_KNEE`` and 1.0 — the multiplier rises
  quadratically to ``GC_MAX_MULTIPLIER``;
* occupancy at or past the budget — clamped at ``GC_MAX_MULTIPLIER`` (the
  collector is thrashing; the model stays finite and deterministic).

"Occupancy" here is *modelled live set over budget* — for the Spark model
that live set is the graph bytes pinned on-heap by deserialized-tier
cache entries (:class:`~repro.memstore.manager.ExecutorMemoryManager`),
because that is precisely what ``MEMORY_ONLY`` caching does to a real
executor: every cached partition survives every collection, amplifying
the cost of all other allocation. Transient allocations are nursery
churn; they are the bytes being charged *for*, at the rate the pinned
live set sets.
"""

from __future__ import annotations

from repro.common.errors import ConfigError

__all__ = ["BASE_GC_NS_PER_BYTE", "GC_KNEE", "GC_MAX_MULTIPLIER", "GcCostModel"]

#: The seed model's flat copying-collector cost per allocated byte at this
#: scale: each scaled allocation stands in for the full-scale app's nursery
#: churn (calibrated against Figure 2's GC share). This is the curve's
#: floor — at low occupancy the two models are byte-identical.
BASE_GC_NS_PER_BYTE = 8.0

#: Occupancy where pressure starts to bite. Below this the young
#: generation absorbs everything and collections stay cheap.
GC_KNEE = 0.3

#: Multiplier at 100% occupancy (and the clamp beyond it).
GC_MAX_MULTIPLIER = 24.0


class GcCostModel:
    """Cost-per-allocated-byte as a function of modelled heap occupancy."""

    __slots__ = ("budget_bytes",)

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise ConfigError(
                f"gc budget_bytes must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes

    def occupancy(self, live_bytes: float) -> float:
        """Modelled live set as a fraction of the budget (may exceed 1)."""
        return live_bytes / self.budget_bytes

    def multiplier(self, live_bytes: float) -> float:
        """Pressure multiplier at ``live_bytes`` of pinned live set.

        1.0 up to the knee, quadratic rise to ``GC_MAX_MULTIPLIER`` at the
        budget, clamped beyond it. Monotone non-decreasing in
        ``live_bytes`` by construction.
        """
        occupancy = self.occupancy(live_bytes)
        if occupancy <= GC_KNEE:
            return 1.0
        if occupancy >= 1.0:
            return GC_MAX_MULTIPLIER
        x = (occupancy - GC_KNEE) / (1.0 - GC_KNEE)
        return 1.0 + (GC_MAX_MULTIPLIER - 1.0) * x * x

    def ns_per_byte(self, live_bytes: float) -> float:
        return BASE_GC_NS_PER_BYTE * self.multiplier(live_bytes)

    def charge_ns(self, grown_bytes: float, live_bytes: float) -> float:
        """GC cost of allocating ``grown_bytes`` at the current pressure.

        Zero or negative growth charges exactly nothing — the accounting
        marks only ever move forward.
        """
        if grown_bytes <= 0:
            return 0.0
        return grown_bytes * self.ns_per_byte(live_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GcCostModel(budget={self.budget_bytes})"
