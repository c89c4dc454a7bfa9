"""Tests for natural-width (packed) primitive array storage."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.formats import graphs_equivalent
from repro.jvm import FieldKind, Heap
from repro.jvm.klass import HEADER_BYTES
from tests.test_serializers import make_registry, make_serializer


class TestPackedSizes:
    @pytest.mark.parametrize(
        "kind,length,expected_element_slots",
        [
            (FieldKind.BYTE, 8, 1),
            (FieldKind.BYTE, 9, 2),
            (FieldKind.CHAR, 4, 1),
            (FieldKind.CHAR, 5, 2),
            (FieldKind.INT, 2, 1),
            (FieldKind.INT, 3, 2),
            (FieldKind.LONG, 3, 3),
            (FieldKind.DOUBLE, 3, 3),
            (FieldKind.REFERENCE, 3, 3),
        ],
    )
    def test_element_storage_rounds_to_slots(
        self, kind, length, expected_element_slots
    ):
        heap = Heap()
        array = heap.new_array(kind, length)
        # header (3 slots) + length slot + element storage.
        assert array.total_slots == 3 + 1 + expected_element_slots

    def test_char_array_quarter_of_long_array(self):
        heap = Heap()
        overhead = HEADER_BYTES + 8  # header + length slot
        chars = heap.new_array(FieldKind.CHAR, 32)
        longs = heap.new_array(FieldKind.LONG, 32)
        assert chars.size_bytes - overhead == 64  # 32 x 2 B
        assert longs.size_bytes - overhead == 256  # 32 x 8 B

    def test_bitmap_still_covers_whole_object(self):
        heap = Heap()
        array = heap.new_array(FieldKind.CHAR, 13)
        assert len(array.layout_bitmap()) * 8 == array.size_bytes


class TestPackedElementAccess:
    @pytest.mark.parametrize(
        "kind,values",
        [
            (FieldKind.BOOLEAN, [True, False, True]),
            (FieldKind.BYTE, [-128, 0, 127]),
            (FieldKind.CHAR, [0, ord("z"), 0xFFFF]),
            (FieldKind.SHORT, [-32768, -1, 32767]),
            (FieldKind.INT, [-(2**31), -1, 2**31 - 1]),
            (FieldKind.LONG, [-(2**62), 0, 2**62]),
            (FieldKind.DOUBLE, [0.5, -1.25, 1e300]),
        ],
    )
    def test_round_trip(self, kind, values):
        heap = Heap()
        array = heap.new_array(kind, len(values))
        for index, value in enumerate(values):
            array.set_element(index, value)
        for index, value in enumerate(values):
            assert array.get_element(index) == value

    def test_float_stored_at_f32_precision(self):
        heap = Heap()
        array = heap.new_array(FieldKind.FLOAT, 1)
        array.set_element(0, 0.1)
        assert array.get_element(0) == pytest.approx(0.1, rel=1e-6)
        assert array.get_element(0) != 0.1  # f32 rounding is visible

    def test_neighbours_do_not_clobber(self):
        heap = Heap()
        array = heap.new_array(FieldKind.BYTE, 16)
        for index in range(16):
            array.set_element(index, index)
        array.set_element(7, -1)
        assert array.get_element(6) == 6
        assert array.get_element(7) == -1
        assert array.get_element(8) == 8

    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40))
    def test_char_array_property(self, values):
        heap = Heap()
        array = heap.new_array(FieldKind.CHAR, len(values))
        for index, value in enumerate(values):
            array.set_element(index, value)
        assert [array.get_element(i) for i in range(len(values))] == values


class TestPackedArraysThroughSerializers:
    @pytest.mark.parametrize("serializer_kind", ["java", "kryo", "skyway", "cereal"])
    @pytest.mark.parametrize(
        "kind", [FieldKind.BYTE, FieldKind.CHAR, FieldKind.INT]
    )
    def test_round_trip(self, serializer_kind, kind):
        registry = make_registry()
        registry.array_klass(kind)
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        array = heap.new_array(kind, 21)  # odd size: partial final slot
        for index in range(21):
            array.set_element(index, index * 3 % 100)
        serializer = make_serializer(serializer_kind, registry)
        rebuilt = serializer.deserialize(serializer.serialize(array).stream, receiver).root
        assert graphs_equivalent(array, rebuilt)

    def test_cereal_value_array_shrinks_for_chars(self):
        registry = make_registry()
        registry.array_klass(FieldKind.CHAR)
        heap = Heap(registry=registry)
        chars = heap.new_array(FieldKind.CHAR, 64)
        longs = heap.new_array(FieldKind.LONG, 64)
        serializer = make_serializer("cereal", registry)
        char_stream = serializer.serialize(chars).stream
        long_stream = serializer.serialize(longs).stream
        assert (
            char_stream.sections["value_array"]
            < long_stream.sections["value_array"] / 2
        )
