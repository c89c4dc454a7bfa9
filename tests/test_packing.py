"""Tests for the Cereal object packing scheme (Section IV-B)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import FormatError
from repro.formats.packing import (
    PackedArray,
    pack_bitmap_words,
    pack_items,
    unpack_bitmaps,
    unpack_items,
)
from tests.oracles import bits_to_word


def packed_size_bytes(values):
    """Total packed bytes (data + end map) for ``values`` without packing."""
    data_bytes = sum(
        ((value.bit_length() or 1) + 1 + 7) // 8 for value in values
    )
    end_map_bytes = (data_bytes + 7) // 8
    return data_bytes + end_map_bytes


def compression_ratio(values):
    """Space packing saves against one 8 B word per value."""
    return 1.0 - pack_items(values).total_bytes / (8 * len(values))


def pack_bitmaps(bitmaps):
    """Bit-list bitmaps through the word packer the Cereal encoder uses."""
    return pack_bitmap_words([bits_to_word(bitmap) for bitmap in bitmaps])


class TestPackItems:
    def test_single_small_value(self):
        packed = pack_items([5])  # '101' + end bit -> 1 byte
        assert len(packed.data) == 1
        assert packed.end_map == b"\x80"
        assert unpack_items(packed) == [5]

    def test_zero_value(self):
        packed = pack_items([0])
        assert unpack_items(packed) == [0]

    def test_empty(self):
        packed = pack_items([])
        assert packed.data == b""
        assert unpack_items(packed) == []

    def test_multi_byte_value(self):
        packed = pack_items([0x1234])  # 13 significant bits + end -> 2 bytes
        assert len(packed.data) == 2
        assert unpack_items(packed) == [0x1234]

    def test_mixed_sizes(self):
        values = [0, 1, 127, 128, 2**20, 2**33 - 1]
        assert unpack_items(pack_items(values)) == values

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=200))
    def test_round_trip_property(self, values):
        assert unpack_items(pack_items(values)) == values

    @given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=100))
    def test_end_map_is_one_bit_per_byte(self, values):
        packed = pack_items(values)
        assert len(packed.end_map) == (len(packed.data) + 7) // 8

    @given(st.lists(st.integers(min_value=0, max_value=2**32), min_size=1, max_size=100))
    def test_packed_size_helper_matches(self, values):
        packed = pack_items(values)
        assert packed.total_bytes == packed_size_bytes(values)

    def test_small_values_compress_vs_8b_slots(self):
        # References to nearby objects have many leading zeros -> big win.
        values = [100 + i for i in range(1000)]
        assert compression_ratio(values) > 0.7

    def test_huge_values_do_not_compress(self):
        values = [2**62] * 100
        assert compression_ratio(values) < 0.1


class TestPackBitmaps:
    def test_simple_bitmap(self):
        bitmap = [0, 0, 0, 0, 1]
        assert unpack_bitmaps(pack_bitmaps([bitmap])) == [bitmap]

    def test_bitmap_ending_in_reference_bit(self):
        # Trailing 1 must not be confused with the end bit.
        bitmap = [0, 1, 1, 1]
        assert unpack_bitmaps(pack_bitmaps([bitmap])) == [bitmap]

    def test_all_zero_bitmap(self):
        bitmap = [0] * 12
        assert unpack_bitmaps(pack_bitmaps([bitmap])) == [bitmap]

    def test_bitmap_length_preserved(self):
        # Length encodes object size; must survive exactly.
        bitmaps = [[0] * n for n in (1, 7, 8, 9, 63, 64, 65)]
        assert unpack_bitmaps(pack_bitmaps(bitmaps)) == bitmaps

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=1, max_size=80),
            min_size=0,
            max_size=40,
        )
    )
    def test_round_trip_property(self, bitmaps):
        assert unpack_bitmaps(pack_bitmaps(bitmaps)) == bitmaps

    def test_empty_bitmap_rejected(self):
        with pytest.raises(FormatError):
            pack_bitmaps([[]])

    def test_non_binary_bitmap_rejected(self):
        # A word with a set bit above its declared bit length.
        with pytest.raises(FormatError):
            pack_bitmap_words([(0b100, 2)])


class TestCorruptedStreams:
    def test_item_count_mismatch_detected(self):
        packed = pack_items([1, 2, 3])
        bad = PackedArray(packed.data, packed.end_map, item_count=5)
        with pytest.raises(FormatError):
            unpack_items(bad)

    def test_missing_end_bit_detected(self):
        # A zero byte marked as an item end has no end bit.
        bad = PackedArray(data=b"\x00", end_map=b"\x80", item_count=1)
        with pytest.raises(FormatError):
            unpack_items(bad)

    def test_trailing_bytes_detected(self):
        packed = pack_items([1])
        bad = PackedArray(packed.data + b"\x00", packed.end_map, item_count=1)
        with pytest.raises(FormatError):
            unpack_items(bad)
