"""Coverage for the graph-equivalence verifier and small API surfaces."""

import dataclasses
import math

import pytest

from repro.cereal.accelerator import OperationTiming
from repro.formats import ClassRegistration, KryoSerializer
from repro.formats.verify import _values_match, first_difference, graphs_equivalent
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
)
from repro.jvm.graph import ObjectGraph
from repro.jvm.klass import HEADER_BYTES, SLOT_BYTES, ArrayKlass
from repro.workloads import (
    MICROBENCH_CONFIGS,
    build_graph_bench,
    build_list_bench,
    build_tree_bench,
)
from repro.workloads.micro import register_micro_klasses


def make_registry():
    registry = KlassRegistry()
    registry.register(
        InstanceKlass(
            "Box",
            [
                FieldDescriptor("weight", FieldKind.DOUBLE),
                FieldDescriptor("inner", FieldKind.REFERENCE),
            ],
        )
    )
    registry.register(InstanceKlass("Tag", [FieldDescriptor("id", FieldKind.INT)]))
    registry.array_klass(FieldKind.REFERENCE)
    registry.array_klass(FieldKind.DOUBLE)
    return registry


@pytest.fixture
def heap():
    return Heap(registry=make_registry())


class TestFirstDifference:
    def test_identical_singletons(self, heap):
        a = heap.new_instance("Tag")
        b = heap.new_instance("Tag")
        assert first_difference(a, b) is None

    def test_klass_mismatch_reported(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Tag")
        difference = first_difference(a, b)
        assert "klass" in difference
        assert "Box" in difference and "Tag" in difference

    def test_field_path_in_report(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        a.set("weight", 1.0)
        b.set("weight", 2.0)
        assert "root.weight" in first_difference(a, b)

    def test_nested_path_in_report(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        inner_a = heap.new_instance("Tag")
        inner_b = heap.new_instance("Tag")
        inner_a.set("id", 1)
        inner_b.set("id", 2)
        a.set("inner", inner_a)
        b.set("inner", inner_b)
        assert "root.inner.id" in first_difference(a, b)

    def test_array_length_mismatch(self, heap):
        a = heap.new_array(FieldKind.DOUBLE, 2)
        b = heap.new_array(FieldKind.DOUBLE, 3)
        assert "length" in first_difference(a, b)

    def test_array_element_path(self, heap):
        a = heap.new_array(FieldKind.DOUBLE, 2)
        b = heap.new_array(FieldKind.DOUBLE, 2)
        b.set_element(1, 5.0)
        assert "[1]" in first_difference(a, b)

    def test_null_vs_object(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        b.set("inner", heap.new_instance("Tag"))
        assert "null" in first_difference(a, b)

    def test_nan_values_equivalent(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        a.set("weight", math.nan)
        b.set("weight", math.nan)
        assert graphs_equivalent(a, b)

    def test_float_tolerance(self, heap):
        a = heap.new_instance("Box")
        b = heap.new_instance("Box")
        a.set("weight", 1.0)
        b.set("weight", 1.0 + 1e-9)
        assert graphs_equivalent(a, b)

    def test_self_reference_equivalent(self, heap):
        a = heap.new_instance("Box")
        a.set("inner", a)
        b = heap.new_instance("Box")
        b.set("inner", b)
        assert graphs_equivalent(a, b)

    def test_self_vs_two_cycle_differs(self, heap):
        a = heap.new_instance("Box")
        a.set("inner", a)  # 1-cycle
        b1 = heap.new_instance("Box")
        b2 = heap.new_instance("Box")
        b1.set("inner", b2)
        b2.set("inner", b1)  # 2-cycle
        assert not graphs_equivalent(a, b1)


def oracle_first_difference(root_a, root_b):
    """The per-index walk ``first_difference`` replaced: one
    ``get_element`` per array index and a path string per element."""
    mapping, reverse = {}, {}
    worklist = [(root_a, root_b, "root")]
    while worklist:
        a, b, path = worklist.pop()
        if a.address in mapping:
            if mapping[a.address] != b.address:
                return f"{path}: sharing mismatch (A maps elsewhere)"
            continue
        if b.address in reverse:
            return f"{path}: sharing mismatch (B already mapped)"
        mapping[a.address] = b.address
        reverse[b.address] = a.address
        if a.klass.name != b.klass.name:
            return f"{path}: klass {a.klass.name} != {b.klass.name}"
        if isinstance(a.klass, ArrayKlass):
            if a.length != b.length:
                return f"{path}: array length {a.length} != {b.length}"
            kind = a.klass.element_kind
            for index in range(a.length):
                element_path = f"{path}[{index}]"
                va, vb = a.get_element(index), b.get_element(index)
                if kind.is_reference:
                    if (va is None) != (vb is None):
                        return f"{element_path}: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, element_path))
                elif not _values_match(kind, va, vb):
                    return f"{element_path}: {va!r} != {vb!r}"
        else:
            for descriptor in a.klass.fields:
                field_path = f"{path}.{descriptor.name}"
                va, vb = a.get(descriptor.name), b.get(descriptor.name)
                if descriptor.kind.is_reference:
                    if (va is None) != (vb is None):
                        return f"{field_path}: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, field_path))
                elif not _values_match(descriptor.kind, va, vb):
                    return f"{field_path}: {va!r} != {vb!r}"
    return None


def _copy_of(root):
    """A Kryo round trip of ``root`` into a fresh heap."""
    registration = ClassRegistration()
    for klass in root.heap.registry:
        registration.register(klass)
    serializer = KryoSerializer(registration)
    receiver = Heap(registry=root.heap.registry)
    return serializer.deserialize(serializer.serialize(root).stream, receiver).root


def _slot_words(obj):
    """Heap address of each field word (element words for arrays)."""
    first = 1 if obj.klass.is_array else 0
    base = obj.address + HEADER_BYTES
    return [base + slot * SLOT_BYTES for slot in range(first, obj.field_slots)]


def _flip_word(bit):
    """Flip ``bit`` of the middle value word of the whole graph."""
    def mutate(copy):
        words = []
        for obj in ObjectGraph.from_root(copy).objects:
            references = {obj.address + HEADER_BYTES + slot * SLOT_BYTES
                          for slot in obj.reference_slots()}
            words += [word for word in _slot_words(obj) if word not in references]
        if not words:
            return False
        word = words[len(words) // 2]
        memory = copy.heap.memory
        memory.write_u64(word, memory.read_u64(word) ^ (1 << bit))
        return True
    return mutate


def _reference_words(copy):
    """``(object, word address)`` of each non-null reference slot."""
    memory = copy.heap.memory
    for obj in ObjectGraph.from_root(copy).objects:
        for slot in obj.reference_slots():
            word = obj.address + HEADER_BYTES + slot * SLOT_BYTES
            if memory.read_u64(word):
                yield obj, word


def _null_reference(copy):
    found = list(_reference_words(copy))
    if not found:
        return False
    copy.heap.memory.write_u64(found[len(found) // 2][1], 0)
    return True


def _lengthen_array(copy):
    """Point one reference at a copy of its array one element longer."""
    heap, memory = copy.heap, copy.heap.memory
    for _, word in _reference_words(copy):
        target = heap.object_at(memory.read_u64(word))
        if target.klass.is_array:
            longer = heap.allocate(target.klass, target.length + 1)
            longer.set_elements(target.get_elements() + [longer.get_element(target.length)])
            memory.write_u64(word, longer.address)
            return True
    return False


MUTATIONS = {
    "flip-low-bit": _flip_word(0),
    "flip-high-bit": _flip_word(62),
    "null-reference": _null_reference,
    "lengthen-array": _lengthen_array,
}
_BUILDERS = {"tree": build_tree_bench, "list": build_list_bench, "graph": build_graph_bench}


def _build(graph_name):
    heap = Heap(registry=make_registry())
    if graph_name == "arrays":
        # Primitive and reference arrays, a null and a shared object.
        root = heap.new_array(FieldKind.REFERENCE, 5)
        box = heap.new_instance("Box")
        box.set("weight", -0.0)
        box.set("inner", heap.new_instance("Tag"))
        weights = heap.new_array(FieldKind.DOUBLE, 3)
        weights.set_elements([1.5, math.nan, -2.25])
        inner = heap.new_array(FieldKind.REFERENCE, 2)
        inner.set_elements([box, weights])
        root.set_elements([box, None, weights, inner, box])
        return root
    register_micro_klasses(heap.registry)
    config = MICROBENCH_CONFIGS[graph_name]
    config = dataclasses.replace(config, paper_objects=16 * config.scale)
    return _BUILDERS[config.shape](heap, config)


_CASES = [
    (graph_name, mutation)
    for graph_name in sorted(MICROBENCH_CONFIGS) + ["arrays"]
    for mutation in sorted(MUTATIONS)
    # list and tree graphs hold no arrays
    if mutation != "lengthen-array" or graph_name.startswith(("graph", "arrays"))
]


@pytest.mark.parametrize("graph_name, mutation", _CASES)
def test_first_difference_matches_per_index_oracle(graph_name, mutation):
    """Same verdict and message as the per-index walk, on a round-tripped
    copy and on the copy with one thing changed."""
    root = _build(graph_name)
    copy = _copy_of(root)
    assert first_difference(root, copy) is None
    assert oracle_first_difference(root, copy) is None
    assert MUTATIONS[mutation](copy)
    assert first_difference(root, copy) == oracle_first_difference(root, copy)


class TestOperationTiming:
    def make(self, elapsed=1000.0, graph=64_000):
        return OperationTiming(
            kind="serialize",
            elapsed_ns=elapsed,
            graph_bytes=graph,
            stream_bytes=graph // 2,
            dram_bytes=graph * 2,
            bandwidth_utilization=0.25,
            objects=10,
        )

    def test_elapsed_seconds(self):
        assert self.make(elapsed=2e9).elapsed_seconds == pytest.approx(2.0)


class TestHeapWalk:
    def test_allocation_order_preserved(self, heap):
        first = heap.new_instance("Tag")
        second = heap.new_instance("Box")
        third = heap.new_array(FieldKind.DOUBLE, 1)
        walked = list(heap.objects())
        assert walked == [first, second, third]

    def test_register_object_duplicate_rejected(self, heap):
        from repro.common.errors import HeapError

        obj = heap.new_instance("Tag")
        with pytest.raises(HeapError):
            heap.register_object(obj.address, obj.klass)

    def test_used_bytes_monotone(self, heap):
        before = heap.used_bytes
        heap.new_instance("Tag")
        assert heap.used_bytes > before
