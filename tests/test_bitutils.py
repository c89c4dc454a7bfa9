"""Tests for the per-bit helpers: ``repro.common.bitutils`` and the bit-list
primitives under the packing oracle in ``tests/oracles.py``, including
property-based round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitutils import bytes_to_bits
from tests.oracles import bits_to_bytes, int_to_bits, significant_bits


def _bits_value(bits):
    """Big-endian value of a bit list, by Python's own base-2 parse."""
    return int("".join(map(str, bits)), 2)


class TestSignificantBits:
    def test_zero_needs_one_bit(self):
        assert significant_bits(0) == 1

    def test_one(self):
        assert significant_bits(1) == 1

    def test_powers_of_two(self):
        assert significant_bits(2) == 2
        assert significant_bits(255) == 8
        assert significant_bits(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            significant_bits(-1)


class TestIntBitsRoundTrip:
    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_round_trip(self, value):
        width = significant_bits(value)
        assert _bits_value(int_to_bits(value, width)) == value

    @given(st.integers(min_value=0, max_value=2**20), st.integers(1, 8))
    def test_round_trip_with_padding(self, value, extra):
        width = significant_bits(value) + extra
        bits = int_to_bits(value, width)
        assert len(bits) == width
        assert _bits_value(bits) == value

    def test_width_too_small_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(256, 8)


class TestBytesBitsRoundTrip:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=200))
    def test_round_trip(self, bits):
        packed = bits_to_bytes(bits)
        assert bytes_to_bits(packed, bit_count=len(bits)) == bits

    def test_msb_first(self):
        assert bits_to_bytes([1, 0, 0, 0, 0, 0, 0, 0]) == b"\x80"

    def test_tail_zero_padded(self):
        assert bits_to_bytes([1, 1, 1]) == b"\xe0"

    def test_bit_count_too_large_rejected(self):
        with pytest.raises(ValueError):
            bytes_to_bits(b"\x00", bit_count=9)

