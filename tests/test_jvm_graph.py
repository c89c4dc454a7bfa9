"""Tests for object graph traversal, GC utilities, and reflection shims."""

import pytest

from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    ObjectGraph,
    clear_serialization_metadata,
)
from repro.jvm.graph import traverse_slot_runs
from repro.jvm.reflection import JavaReflection, ReflectAsmAccess


def make_heap_with_node():
    heap = Heap()
    node = InstanceKlass(
        "Node",
        [
            FieldDescriptor("value", FieldKind.LONG),
            FieldDescriptor("left", FieldKind.REFERENCE),
            FieldDescriptor("right", FieldKind.REFERENCE),
        ],
    )
    heap.registry.register(node)
    return heap, node


def build_small_tree(heap, klass):
    """root -> (a, b); a -> (c, None)."""
    root = heap.allocate(klass)
    a = heap.allocate(klass)
    b = heap.allocate(klass)
    c = heap.allocate(klass)
    root.set("left", a)
    root.set("right", b)
    a.set("left", c)
    return root, a, b, c


def walk(root, order="dfs"):
    return [obj for obj, _ in traverse_slot_runs(root, order=order)]


def out_degrees(graph):
    """Non-null references per object, duplicates included."""
    return [
        sum(1 for child in obj.referenced_objects() if child is not None)
        for obj in graph.objects
    ]


class TestTraversal:
    def test_dfs_order(self):
        heap, klass = make_heap_with_node()
        root, a, b, c = build_small_tree(heap, klass)
        assert walk(root) == [root, a, c, b]
        assert walk(root, "bfs") == [root, a, b, c]

    def test_shared_object_visited_once(self):
        heap, klass = make_heap_with_node()
        root = heap.allocate(klass)
        shared = heap.allocate(klass)
        root.set("left", shared)
        root.set("right", shared)
        assert walk(root) == [root, shared]
        assert walk(root, "bfs") == [root, shared]

    def test_cycle_terminates(self):
        heap, klass = make_heap_with_node()
        a = heap.allocate(klass)
        b = heap.allocate(klass)
        a.set("left", b)
        b.set("left", a)
        assert walk(a) == [a, b]
        assert walk(a, "bfs") == [a, b]

    def test_deep_list_no_recursion_error(self):
        heap, klass = make_heap_with_node()
        head = heap.allocate(klass)
        current = head
        for _ in range(5000):
            nxt = heap.allocate(klass)
            current.set("left", nxt)
            current = nxt
        assert len(walk(head)) == 5001


class TestObjectGraph:
    def test_relative_addresses_are_cumulative_sizes(self):
        heap, klass = make_heap_with_node()
        root, a, b, c = build_small_tree(heap, klass)
        graph = ObjectGraph.from_root(root)
        size = root.size_bytes
        assert graph.relative_address[root.address] == 0
        assert graph.relative_address[a.address] == size
        assert graph.relative_address[c.address] == 2 * size
        assert graph.relative_address[b.address] == 3 * size

    def test_total_bytes(self):
        heap, klass = make_heap_with_node()
        root, *_ = build_small_tree(heap, klass)
        graph = ObjectGraph.from_root(root)
        assert graph.total_bytes == 4 * root.size_bytes

    def test_reference_count_counts_duplicates(self):
        heap, klass = make_heap_with_node()
        root = heap.allocate(klass)
        shared = heap.allocate(klass)
        root.set("left", shared)
        root.set("right", shared)
        graph = ObjectGraph.from_root(root)
        assert graph.object_count == 2
        assert sum(out_degrees(graph)) == 2


class TestGraphStats:
    def test_stats_for_tree(self):
        heap, klass = make_heap_with_node()
        root, *_ = build_small_tree(heap, klass)
        graph = ObjectGraph.from_root(root)
        degrees = out_degrees(graph)
        reference_slots = sum(len(layout.reference_slots) for layout in graph.layouts)
        assert graph.object_count == 4
        assert sum(degrees) == 3
        assert reference_slots - sum(degrees) == 5  # null references
        assert max(degrees) == 2
        assert sum(degrees) / graph.object_count == pytest.approx(0.75)

    def test_slot_partition(self):
        heap, klass = make_heap_with_node()
        root, *_ = build_small_tree(heap, klass)
        graph = ObjectGraph.from_root(root)
        reference_slots = sum(len(layout.reference_slots) for layout in graph.layouts)
        total_slots = sum(layout.total_slots for layout in graph.layouts)
        # Per object: 6 slots total, 2 reference slots, 4 value slots.
        assert reference_slots == 8
        assert total_slots - reference_slots == 16


class TestGC:
    def test_clear_serialization_metadata(self):
        heap, klass = make_heap_with_node()
        a = heap.allocate(klass)
        b = heap.allocate(klass)
        a.serialization_counter = 5
        b.serialization_counter = 6
        cleared = clear_serialization_metadata(heap)
        assert cleared == 2
        assert a.serialization_counter == 0
        assert all(obj.serialization_counter == 0 for obj in heap.objects())


class TestReflectionShims:
    def test_java_reflection_reads_values(self):
        heap, klass = make_heap_with_node()
        obj = heap.allocate(klass)
        obj.set("value", 99)
        reflect = JavaReflection()
        assert reflect.get_field(obj, "value") == 99

    def test_java_reflection_accounts_string_work(self):
        heap, klass = make_heap_with_node()
        obj = heap.allocate(klass)
        reflect = JavaReflection()
        reflect.get_field(obj, "right")  # scans value, left, right
        assert reflect.cost.method_invocations == 1
        assert reflect.cost.string_comparisons == 3
        assert reflect.cost.characters_compared > 0

    def test_reflectasm_is_cheaper(self):
        heap, klass = make_heap_with_node()
        obj = heap.allocate(klass)
        obj.set("value", 7)
        java = JavaReflection()
        asm = ReflectAsmAccess()
        java.get_field(obj, "value")
        assert asm.get_field_by_index(obj, 0) == 7
        assert (
            asm.cost.estimated_instructions() < java.cost.estimated_instructions()
        )

    def test_reflection_set_field(self):
        heap, klass = make_heap_with_node()
        obj = heap.allocate(klass)
        reflect = JavaReflection()
        reflect.set_field(obj, "value", 123)
        assert obj.get("value") == 123
        assert reflect.cost.field_writes == 1

    def test_reflectasm_set_by_index(self):
        heap, klass = make_heap_with_node()
        obj = heap.allocate(klass)
        asm = ReflectAsmAccess()
        asm.set_field_by_index(obj, 0, 55)
        assert obj.get("value") == 55
