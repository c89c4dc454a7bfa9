"""Object graph traversal.

Serialization requires a recursive traversal of the object graph from the
top-level object (paper Section I). Every serializer in this repository —
and the Cereal hardware model — uses the same canonical traversal order so
their outputs are comparable: depth-first, visiting an object before its
children, children in field-declaration (slot) order, each object visited
once even when shared or part of a cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from repro.jvm.heap import HeapObject
from repro.jvm.klass import HEADER_BYTES
from repro.jvm.layout_cache import KlassLayout, layout_of


def traverse_object_graph(root: HeapObject) -> Iterator[HeapObject]:
    """Yield every object reachable from ``root`` in canonical DFS order.

    Uses an explicit stack so deep structures (long lists) do not hit the
    Python recursion limit. Children are pushed in reverse slot order so
    they pop in declaration order, matching a recursive serializer.

    Already-visited children are pushed and skipped at pop time rather
    than filtered at push time: duplicates on the stack are *required* for
    correct DFS order (a later-pushed duplicate must pop first), so the
    push-time membership test and the intermediate filtered child list the
    seed built per object were pure allocation churn with no effect on the
    yield sequence.
    """
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
        yield obj
        children = obj.referenced_objects()
        for index in range(len(children) - 1, -1, -1):
            child = children[index]
            if child is not None:
                push(child)


def traverse_object_graph_bfs(root: HeapObject) -> Iterator[HeapObject]:
    """Yield reachable objects in breadth-first order.

    This is the order the Cereal hardware serializes in: the header manager
    consumes a queue of references produced by the object handler, so an
    object's children are appended behind all previously-discovered objects
    (paper Section V-B).
    """
    visited: Set[int] = {root.address}
    queue = deque([root])
    while queue:
        obj = queue.popleft()
        yield obj
        for child in obj.referenced_objects():
            if child is not None and child.address not in visited:
                visited.add(child.address)
                queue.append(child)


def traverse_slot_runs(
    root: HeapObject, order: str = "dfs"
) -> Iterator[Tuple[HeapObject, KlassLayout]]:
    """Yield ``(object, layout)`` slot-run tuples in traversal order.

    The fast path under the compiled-plan serializers: one memoized layout
    probe per object hands a consumer everything shape-dependent (slot
    counts, reference-slot runs, the bitmap word), and children are
    discovered by one gather over each object's reference slots in
    simulated memory — no per-object klass-metadata re-derivation, no
    intermediate child-handle lists. Traversal order (and the memory-read
    pattern over reference slots) matches :func:`traverse_object_graph` /
    :func:`traverse_object_graph_bfs` exactly.
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
class SlotRunGraph:
    """Materialized slot-run traversal: objects, layouts, relative map.

    The plan-path equivalent of :class:`ObjectGraph` — one pass collects
    everything the Cereal plan kernel needs (objects paired with their
    memoized layouts, relative addresses, the total image size) without
    re-deriving klass metadata per object.
    """

    root: HeapObject
    objects: List[HeapObject]
    layouts: List[KlassLayout]
    relative_address: Dict[int, int]
    total_bytes: int

    @classmethod
    def from_root(cls, root: HeapObject, order: str = "dfs") -> "SlotRunGraph":
        objects: List[HeapObject] = []
        layouts: List[KlassLayout] = []
        relative: Dict[int, int] = {}
        offset = 0
        for obj, layout in traverse_slot_runs(root, order=order):
            objects.append(obj)
            layouts.append(layout)
            relative[obj.address] = offset
            offset += layout.total_slots * 8
        return cls(
            root=root,
            objects=objects,
            layouts=layouts,
            relative_address=relative,
            total_bytes=offset,
        )

    @property
    def object_count(self) -> int:
        return len(self.objects)


@dataclass
class ObjectGraph:
    """Materialized reachable set with precomputed layout facts.

    Serializers that need the full graph up front (e.g. to size output
    buffers, or the Cereal format's total-size word) build one of these.
    The traversal ``order`` is ``"dfs"`` (recursive software serializers) or
    ``"bfs"`` (the Cereal hardware pipeline).
    """

    root: HeapObject
    objects: List[HeapObject]
    relative_address: Dict[int, int]  # heap address -> offset in deserialized image

    @classmethod
    def from_root(cls, root: HeapObject, order: str = "dfs") -> "ObjectGraph":
        if order == "dfs":
            objects = list(traverse_object_graph(root))
        elif order == "bfs":
            objects = list(traverse_object_graph_bfs(root))
        else:
            raise ValueError(f"unknown traversal order {order!r}")
        relative: Dict[int, int] = {}
        offset = 0
        for obj in objects:
            relative[obj.address] = offset
            offset += obj.size_bytes
        return cls(root=root, objects=objects, relative_address=relative)

    @property
    def total_bytes(self) -> int:
        """Sum of object sizes: the size of the deserialized image."""
        return sum(obj.size_bytes for obj in self.objects)

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def reference_count(self) -> int:
        """Total non-null references across the graph (incl. duplicates)."""
        return sum(
            sum(1 for child in obj.referenced_objects() if child is not None)
            for obj in self.objects
        )

    def __iter__(self) -> Iterator[HeapObject]:
        return iter(self.objects)


@dataclass(frozen=True)
class GraphStats:
    """Shape statistics of one object graph (only the tests read them)."""

    object_count: int
    total_bytes: int
    reference_count: int
    null_reference_count: int
    max_out_degree: int
    value_slots: int
    reference_slots: int

    @property
    def references_per_object(self) -> float:
        if self.object_count == 0:
            return 0.0
        return self.reference_count / self.object_count


def object_graph_stats(root: HeapObject) -> GraphStats:
    """Compute :class:`GraphStats` for the graph reachable from ``root``."""
    object_count = 0
    total_bytes = 0
    reference_count = 0
    null_count = 0
    max_out = 0
    value_slots = 0
    reference_slots = 0
    for obj in traverse_object_graph(root):
        object_count += 1
        total_bytes += obj.size_bytes
        children = obj.referenced_objects()
        non_null = sum(1 for child in children if child is not None)
        reference_count += non_null
        null_count += len(children) - non_null
        max_out = max(max_out, non_null)
        ref_slots = len(obj.reference_slots())
        reference_slots += ref_slots
        value_slots += obj.total_slots - ref_slots
    return GraphStats(
        object_count=object_count,
        total_bytes=total_bytes,
        reference_count=reference_count,
        null_reference_count=null_count,
        max_out_degree=max_out,
        value_slots=value_slots,
        reference_slots=reference_slots,
    )
