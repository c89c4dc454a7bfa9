"""Garbage-collection-adjacent utilities.

The paper does not accelerate GC, but two GC interactions matter to Cereal
(Section V-E):

* the per-object serialization counter and unit-ID fields in the extended
  header are *cleared during garbage collection* so the 16-bit counter never
  wraps into a stale "visited" state;
* if a counter is about to overflow, the runtime can force a collection
  (``System.gc()``).

:func:`clear_serialization_metadata` models that clearing pass as a linear
heap walk, and returns the number of objects touched so callers can account
its (small) cost.
"""

from __future__ import annotations

from typing import Iterator

from repro.jvm.heap import Heap, HeapObject


def walk_heap(heap: Heap) -> Iterator[HeapObject]:
    """Linear walk over every allocated object, in address order."""
    return heap.objects()


def clear_serialization_metadata(heap: Heap) -> int:
    """Zero every object's Cereal header-extension word; returns count."""
    cleared = 0
    for obj in walk_heap(heap):
        obj.clear_serialization_metadata()
        cleared += 1
    return cleared
