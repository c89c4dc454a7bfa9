"""LRU timing caches for the serving layer's deterministic models.

Everything the service layer times is *deterministic*: a catalog entry's
accelerator and software timings are pure functions of its payload shape
(every device is the Table I configuration), and a device-engine batch
timeline is a pure function of (request kind, catalog entry composition). Sweeps — QPS curves, shard
scaling, the perf harness — rebuild identical catalogs and replay
identical batch compositions thousands of times, so memoizing the timing
results changes wall-clock cost, never simulated results.

The caches are deliberately keyed on *complete* input signatures (all
size classes in build order, stream digests rather than entry names) so
two runs that could diverge can never share an entry. Correctness note for the batch
cache: the device engine functionally verifies every round trip the first
time a composition runs; a cache hit replays the timeline of that
verified execution.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """A small ordered-dict LRU."""

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed as most-recent; None on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: Catalog build cache: (size classes in build order, entry name) ->
#: (stream, accel timings, software timings).
catalog_timing_cache = LRUCache(capacity=64)

#: Device-engine batch cache, shared across shards: (kind, tuple of the
#: requests' stream digests) -> (wall_time_ns, per-request relative
#: finish times).
device_batch_cache = LRUCache(capacity=256)


def clear_timing_caches() -> None:
    """Reset both service-layer timing caches (tests measuring cold runs)."""
    catalog_timing_cache.clear()
    device_batch_cache.clear()
