"""Memoized per-klass layout metadata for the serializer hot paths.

Every serializer in the reproduction needs the same facts about an object's
shape — which field slots hold references, the layout bitmap, the total
slot count — and the seed recomputed them from the klass descriptor for
*every object serialized*. But the answers depend only on the klass and
(for arrays) the length: they are immutable once a klass is registered.
This module computes them once per distinct ``(klass, length)`` shape
and hands back a frozen :class:`KlassLayout`, so the per-object cost in
``javaser``/``kryo``/``cereal_format`` drops to one dict probe.

The layout bitmap is carried as a ``(word, width)`` pair — bit ``slot`` is
``(word >> (width - 1 - slot)) & 1``, MSB-first like the rest of the bit
formats — which feeds :func:`repro.formats.packing.pack_bitmap_words`
without materializing a per-bit list.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.jvm.klass import HEADER_SLOTS, Klass
from repro.obs.metrics import get_registry

# Regenerable cache; the cap only guards against pathological workloads
# that allocate arrays of unboundedly many distinct lengths.
_MAX_ENTRIES = 1 << 16
_CACHE: Dict[Tuple[Klass, int], "KlassLayout"] = {}

# Hit/miss/eviction counters, recorded in the process-wide metrics
# registry (``layout_cache.*``). An "eviction"
# is a full clear at the entry cap (the cache is regenerable, so
# wholesale invalidation is cheaper than tracking recency).
_HITS = get_registry().counter("layout_cache.hits")
_MISSES = get_registry().counter("layout_cache.misses")
_EVICTIONS = get_registry().counter("layout_cache.evictions")
_ENTRIES = get_registry().gauge("layout_cache.entries")


@dataclass(frozen=True)
class KlassLayout:
    """Immutable layout facts for one ``(klass, length)`` shape."""

    field_slots: int
    total_slots: int
    reference_slots: Tuple[int, ...]
    reference_slot_set: FrozenSet[int]
    bitmap_word: int
    bitmap_width: int
    image_struct: struct.Struct

    def bitmap_bits(self) -> List[int]:
        """The layout bitmap as a bit list (legacy consumers, tests)."""
        word, width = self.bitmap_word, self.bitmap_width
        return [(word >> (width - 1 - i)) & 1 for i in range(width)]


def layout_of(klass: Klass, length: int = 0) -> KlassLayout:
    """The memoized layout for ``klass`` (and an array's ``length``)."""
    key = (klass, length)
    layout = _CACHE.get(key)
    if layout is not None:
        _HITS.value += 1  # direct bump: this is the per-object hot path
        return layout
    _MISSES.inc()

    field_slots = klass.instance_slots(length)
    total_slots = HEADER_SLOTS + field_slots
    reference_slots = tuple(klass.reference_slot_indices(length))
    bitmap_word = 0
    for slot in reference_slots:
        bitmap_word |= 1 << (field_slots - 1 - slot)
    layout = KlassLayout(
        field_slots=field_slots,
        total_slots=total_slots,
        reference_slots=reference_slots,
        reference_slot_set=frozenset(reference_slots),
        bitmap_word=bitmap_word,
        bitmap_width=total_slots,
        image_struct=struct.Struct(f"<{total_slots}Q"),
    )
    if len(_CACHE) >= _MAX_ENTRIES:
        _CACHE.clear()
        _EVICTIONS.inc()
    _CACHE[key] = layout
    _ENTRIES.set(len(_CACHE))
    return layout


def clear_layout_cache(reset_stats: bool = False) -> None:
    """Drop all memoized layouts (tests, klass-mutation scenarios)."""
    _CACHE.clear()
    _ENTRIES.set(0)
    if reset_stats:
        _HITS.reset()
        _MISSES.reset()
        _EVICTIONS.reset()
