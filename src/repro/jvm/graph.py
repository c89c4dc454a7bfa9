"""Object graph traversal.

Serialization requires a recursive traversal of the object graph from the
top-level object (paper Section I). Every serializer in this repository —
and the Cereal hardware model — walks the graph with
:func:`traverse_slot_runs` so their outputs are comparable. The software
formats walk depth first: an object before its children, children in
field-declaration (slot) order. Cereal walks breadth first, in the order
its header manager consumes the reference queue (paper Section V-B).
Either way each object is visited once, even when shared or part of a
cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from repro.jvm.heap import HeapObject
from repro.jvm.klass import HEADER_BYTES
from repro.jvm.layout_cache import KlassLayout, layout_of


def traverse_slot_runs(
    root: HeapObject, order: str = "dfs"
) -> Iterator[Tuple[HeapObject, KlassLayout]]:
    """Yield ``(object, layout)`` slot-run tuples in traversal order.

    One memoized layout probe per object hands a consumer everything
    shape-dependent (slot counts, reference-slot runs, the bitmap word),
    and children are discovered by one gather over each object's
    reference slots in simulated memory: the trace of one ``read_u64``
    per reference slot.

    ``order="dfs"`` uses an explicit stack so deep structures (long
    lists) do not hit the Python recursion limit. Children are pushed in
    reverse slot order so they pop in declaration order, matching a
    recursive serializer; already-visited children are pushed and skipped
    at pop time, because a later-pushed duplicate must pop first.
    ``order="bfs"`` appends each newly discovered child behind every
    object discovered before it.
    """
    heap = root.heap
    gather_words = heap.memory.gather_words
    object_at = heap.object_at

    if order == "dfs":
        visited: Set[int] = set()
        add_visited = visited.add
        stack: List[HeapObject] = [root]
        push = stack.append
        while stack:
            obj = stack.pop()
            address = obj.address
            if address in visited:
                continue
            add_visited(address)
            layout = layout_of(obj.klass, obj.length)
            yield obj, layout
            reference_slots = layout.reference_slots
            if reference_slots:
                fields_base = address + HEADER_BYTES
                child_addresses = gather_words(
                    [fields_base + slot * 8 for slot in reference_slots]
                )
                for index in range(len(child_addresses) - 1, -1, -1):
                    child_address = child_addresses[index]
                    if child_address:
                        push(object_at(child_address))
    elif order == "bfs":
        seen: Set[int] = {root.address}
        add_seen = seen.add
        queue = deque([root])
        while queue:
            obj = queue.popleft()
            layout = layout_of(obj.klass, obj.length)
            yield obj, layout
            reference_slots = layout.reference_slots
            if not reference_slots:
                continue
            fields_base = obj.address + HEADER_BYTES
            for child_address in gather_words(
                [fields_base + slot * 8 for slot in reference_slots]
            ):
                if child_address and child_address not in seen:
                    add_seen(child_address)
                    queue.append(object_at(child_address))
    else:
        raise ValueError(f"unknown traversal order {order!r}")


@dataclass
class ObjectGraph:
    """Materialized reachable set: objects, layouts, relative map.

    Serializers that need the full graph up front (to size output
    buffers, or the image-size word their stream header carries) build
    one of these in one pass over :func:`traverse_slot_runs`.
    ``relative_address`` maps each heap address to the object's offset in
    the deserialized image, and ``total_bytes`` is the image size.
    """

    objects: List[HeapObject]
    layouts: List[KlassLayout]
    relative_address: Dict[int, int]
    total_bytes: int

    @classmethod
    def from_root(cls, root: HeapObject, order: str = "dfs") -> "ObjectGraph":
        objects: List[HeapObject] = []
        layouts: List[KlassLayout] = []
        relative: Dict[int, int] = {}
        offset = 0
        for obj, layout in traverse_slot_runs(root, order=order):
            objects.append(obj)
            layouts.append(layout)
            relative[obj.address] = offset
            offset += layout.total_slots * 8
        return cls(objects, layouts, relative, offset)

    @property
    def object_count(self) -> int:
        return len(self.objects)
