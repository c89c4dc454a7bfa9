"""Tests for the simulated JVM: mark word, klasses, heap, objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import HeapError
from repro.jvm import (
    ArrayKlass,
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
    MarkWord,
)
from repro.jvm.klass import HEADER_BYTES, HEADER_SLOTS
from repro.jvm.markword import fresh_mark_word, identity_hash_for


def make_point_klass():
    return InstanceKlass(
        "Point",
        [
            FieldDescriptor("x", FieldKind.DOUBLE),
            FieldDescriptor("y", FieldKind.DOUBLE),
        ],
    )


def make_node_klass():
    return InstanceKlass(
        "Node",
        [
            FieldDescriptor("value", FieldKind.LONG),
            FieldDescriptor("next", FieldKind.REFERENCE),
        ],
    )


class TestMarkWord:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 7),
        st.integers(0, 63),
    )
    def test_encode_decode_round_trip(self, hash_value, sync, gc):
        word = MarkWord(hash_value, sync, gc)
        assert MarkWord.decode(word.encode()) == word

    def test_out_of_range_hash_rejected(self):
        with pytest.raises(HeapError):
            MarkWord(identity_hash=2**31)

    def test_identity_hash_deterministic(self):
        assert identity_hash_for(0x1000) == identity_hash_for(0x1000)

    def test_identity_hash_31_bits(self):
        for address in (0, 0x1000, 0xFFFF_FFFF_0000):
            assert 0 <= identity_hash_for(address) < 2**31

    @given(st.integers(0, 2**48))
    def test_fresh_mark_word_encodes_identity_hash(self, address):
        expected = MarkWord(identity_hash=identity_hash_for(address)).encode()
        assert fresh_mark_word(address) == expected


class TestKlass:
    def test_instance_klass_layout(self):
        klass = make_node_klass()
        assert klass.instance_slots() == 2
        assert klass.reference_slot_indices() == [1]

    def test_field_index_lookup(self):
        klass = make_node_klass()
        assert klass.field_index("value") == 0
        assert klass.field_index("next") == 1
        with pytest.raises(HeapError):
            klass.field_index("missing")

    def test_duplicate_field_rejected(self):
        with pytest.raises(HeapError):
            InstanceKlass(
                "Bad",
                [
                    FieldDescriptor("a", FieldKind.INT),
                    FieldDescriptor("a", FieldKind.INT),
                ],
            )

    def test_array_klass_layout(self):
        ref_array = ArrayKlass(FieldKind.REFERENCE)
        assert ref_array.instance_slots(3) == 4  # length slot + 3 elements
        assert ref_array.reference_slot_indices(3) == [1, 2, 3]
        long_array = ArrayKlass(FieldKind.LONG)
        assert long_array.reference_slot_indices(3) == []

    def test_registry_assigns_unique_addresses(self):
        registry = KlassRegistry()
        a = registry.register(make_point_klass())
        b = registry.register(make_node_klass())
        assert a.metaspace_address != b.metaspace_address

    def test_registry_rejects_duplicate_name(self):
        registry = KlassRegistry()
        registry.register(make_point_klass())
        with pytest.raises(HeapError):
            registry.register(make_point_klass())

    def test_registry_array_klass_canonical(self):
        registry = KlassRegistry()
        a = registry.array_klass(FieldKind.LONG)
        b = registry.array_klass(FieldKind.LONG)
        assert a is b


class TestHeapAllocation:
    def test_header_size_with_extension(self):
        assert (HEADER_SLOTS, HEADER_BYTES) == (3, 24)
        obj = Heap().allocate(make_point_klass())
        assert obj.fields_base == obj.address + 24

    def test_allocate_sets_header(self):
        heap = Heap()
        klass = heap.registry.register(make_point_klass())
        obj = heap.allocate(klass)
        assert heap.memory.read_u64(obj.address + 8) == klass.metaspace_address
        assert obj.identity_hash == identity_hash_for(obj.address)

    def test_object_size(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        assert obj.size_bytes == 24 + 2 * 8

    def test_allocations_do_not_overlap(self):
        heap = Heap()
        klass = heap.registry.register(make_point_klass())
        a = heap.allocate(klass)
        b = heap.allocate(klass)
        assert b.address >= a.address + a.size_bytes

    def test_array_allocation_stores_length(self):
        heap = Heap()
        arr = heap.new_array(FieldKind.LONG, 5)
        assert arr.length == 5
        assert heap.memory.read_u64(arr.fields_base) == 5
        assert arr.size_bytes == 24 + (1 + 5) * 8

    def test_length_on_instance_rejected(self):
        heap = Heap()
        with pytest.raises(HeapError):
            heap.allocate(make_point_klass(), length=3)

    def test_heap_exhaustion(self):
        heap = Heap(size_bytes=1024)
        klass = heap.registry.register(make_point_klass())
        with pytest.raises(HeapError):
            for _ in range(1000):
                heap.allocate(klass)

    def test_object_at_and_deref(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        assert heap.object_at(obj.address) == obj
        assert heap.deref(0) is None
        with pytest.raises(HeapError):
            heap.object_at(0xDEAD)


class TestFieldAccess:
    def test_primitive_round_trip(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        obj.set("x", 1.5)
        obj.set("y", -2.5)
        assert obj.get("x") == 1.5
        assert obj.get("y") == -2.5

    def test_long_negative(self):
        heap = Heap()
        obj = heap.allocate(make_node_klass())
        obj.set("value", -(2**40))
        assert obj.get("value") == -(2**40)

    def test_reference_round_trip(self):
        heap = Heap()
        klass = heap.registry.register(make_node_klass())
        a = heap.allocate(klass)
        b = heap.allocate(klass)
        a.set("next", b)
        assert a.get("next") == b
        a.set("next", None)
        assert a.get("next") is None

    def test_boolean_and_char(self):
        klass = InstanceKlass(
            "Flags",
            [
                FieldDescriptor("flag", FieldKind.BOOLEAN),
                FieldDescriptor("letter", FieldKind.CHAR),
            ],
        )
        heap = Heap()
        obj = heap.allocate(klass)
        obj.set("flag", True)
        obj.set("letter", ord("Z"))
        assert obj.get("flag") is True
        assert obj.get("letter") == ord("Z")

    def test_reference_slot_type_checked(self):
        heap = Heap()
        obj = heap.allocate(make_node_klass())
        with pytest.raises(HeapError):
            obj.set("next", 42)

    def test_array_elements(self):
        heap = Heap()
        arr = heap.new_array(FieldKind.LONG, 4)
        for i in range(4):
            arr.set_element(i, i * 100)
        assert [arr.get_element(i) for i in range(4)] == [0, 100, 200, 300]

    def test_array_bounds_checked(self):
        heap = Heap()
        arr = heap.new_array(FieldKind.LONG, 2)
        with pytest.raises(HeapError):
            arr.get_element(2)
        with pytest.raises(HeapError):
            arr.set_element(-1, 0)

    def test_reference_array(self):
        heap = Heap()
        node_klass = heap.registry.register(make_node_klass())
        arr = heap.new_array(FieldKind.REFERENCE, 3)
        node = heap.allocate(node_klass)
        arr.set_element(1, node)
        assert arr.get_element(0) is None
        assert arr.get_element(1) == node
        assert arr.referenced_objects() == [None, node, None]


class TestLayoutBitmap:
    def test_instance_bitmap(self):
        heap = Heap()  # 24 B header -> 3 header slots
        obj = heap.allocate(make_node_klass())
        # header(3 slots, zeros) + value + reference
        assert obj.layout_bitmap() == [0, 0, 0, 0, 1]

    def test_bitmap_length_encodes_size(self):
        heap = Heap()
        obj = heap.allocate(make_node_klass())
        assert len(obj.layout_bitmap()) * 8 == obj.size_bytes

    def test_reference_array_bitmap(self):
        heap = Heap()
        arr = heap.new_array(FieldKind.REFERENCE, 2)
        # header(3) + length slot(0) + two reference slots(1, 1)
        assert arr.layout_bitmap() == [0, 0, 0, 0, 1, 1]

    def test_primitive_array_bitmap_all_zero(self):
        heap = Heap()
        arr = heap.new_array(FieldKind.DOUBLE, 3)
        assert arr.layout_bitmap() == [0] * 7


class TestCerealHeaderExtension:
    def test_counter_round_trip(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        obj.serialization_counter = 0x1234
        assert obj.serialization_counter == 0x1234

    def test_unit_id_and_relative_address_independent(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        obj.serialization_counter = 7
        obj.serialization_unit_id = 3
        obj.serialized_relative_address = 0xABCD_EF01
        assert obj.serialization_counter == 7
        assert obj.serialization_unit_id == 3
        assert obj.serialized_relative_address == 0xABCD_EF01

    def test_counter_overflow_rejected(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        with pytest.raises(HeapError):
            obj.serialization_counter = 0x1_0000

    def test_clear_metadata(self):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        obj.serialization_counter = 9
        obj.clear_serialization_metadata()
        assert obj.serialization_counter == 0

    @given(
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFF),
        st.integers(0, 0xFFFF_FFFF),
    )
    def test_claim_agrees_with_field_properties(self, counter, unit, relative):
        heap = Heap()
        klass = make_point_klass()
        obj = heap.allocate(klass)
        # Flag bits [56, 64) survive a claim, as they survive the setters.
        flagged = (0xA5 << 56) | 0xFFFF_FFFF_FFFF
        heap.memory.write_u64(obj.address + 16, flagged)
        obj.claim_serialization(counter, unit, relative)
        assert obj.serialization_counter == counter
        assert obj.serialization_unit_id == unit
        assert obj.serialized_relative_address == relative
        assert obj.serialization_claim() == (counter, unit)
        claimed_word = heap.memory.read_u64(obj.address + 16)

        other = heap.allocate(klass)
        heap.memory.write_u64(other.address + 16, flagged)
        other.serialization_counter = counter
        other.serialization_unit_id = unit
        other.serialized_relative_address = relative
        assert heap.memory.read_u64(other.address + 16) == claimed_word
        assert claimed_word >> 56 == 0xA5

    @pytest.mark.parametrize(
        "field, value",
        [
            ("serialization_counter", -1),
            ("serialization_counter", 0x1_0000),
            ("serialization_unit_id", -1),
            ("serialization_unit_id", 0x100),
            ("serialized_relative_address", -1),
            ("serialized_relative_address", 0x1_0000_0000),
        ],
    )
    def test_claim_range_errors_match_setters(self, field, value):
        heap = Heap()
        obj = heap.allocate(make_point_klass())
        claim = {
            "serialization_counter": 1,
            "serialization_unit_id": 1,
            "serialized_relative_address": 1,
        }
        claim[field] = value
        with pytest.raises(HeapError) as setter_error:
            setattr(obj, field, value)
        with pytest.raises(HeapError) as claim_error:
            obj.claim_serialization(*claim.values())
        assert str(claim_error.value) == str(setter_error.value)
        assert obj.serialization_claim() == (0, 0)  # nothing was written
