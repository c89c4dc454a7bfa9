"""Coverage for the graph-equivalence verifier and small API surfaces."""

import math

import pytest

from repro.cereal.accelerator import OperationTiming
from repro.formats.verify import first_difference, graphs_equivalent
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
)


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
