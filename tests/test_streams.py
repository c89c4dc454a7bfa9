"""Tests for the byte-stream reader/writer and its varint encodings."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import FormatError, TruncatedStreamError
from repro.formats.streams import StreamReader, StreamWriter
from tests.oracles import OracleReader, OracleWriter


class TestWriterSections:
    def test_sections_accumulate(self):
        writer = StreamWriter()
        writer.write_bytes(b"\x01\x00\x00\x00", "header")
        writer.write_u16(2, "header")
        writer.write_u16(3, "header")
        writer.write_u8(3, "data")
        assert writer.sections == {"header": 8, "data": 1}
        assert len(writer) == 9

    def test_getvalue_matches_writes(self):
        writer = StreamWriter()
        writer.write_bytes(b"ab", "x")
        writer.write_u16(0x0102, "x")
        assert writer.getvalue() == b"ab\x02\x01"


class TestScalars:
    @pytest.mark.parametrize(
        "write,read,value",
        [
            ("write_u8", "read_u8", 0xAB),
            ("write_u16", "read_u16", 0xABCD),
            ("write_u32", "read_u32", 0xDEADBEEF),
            ("write_u64", "read_u64", 0x0123456789ABCDEF),
            ("write_i64", "read_i64", -(2**60)),
        ],
    )
    def test_round_trip(self, write, read, value):
        # The product writer and reader plus the oracles' u32/i64 writes
        # and i64 read.
        writer = OracleWriter()
        getattr(writer, write)(value, "s")
        reader = OracleReader(writer.getvalue())
        assert getattr(reader, read)() == value

    def test_i32_read(self):
        writer = OracleWriter()
        writer.write_u32(-123456 & 0xFFFF_FFFF, "s")
        assert OracleReader(writer.getvalue()).read_i32() == -123456

    def test_f64_round_trip(self):
        writer = OracleWriter()
        writer.write_f64(-0.125, "s")
        assert OracleReader(writer.getvalue()).read_f64() == -0.125


class TestVarints:
    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_unsigned_round_trip(self, value):
        writer = StreamWriter()
        writer.write_varint(value, "v")
        assert StreamReader(writer.getvalue()).read_varint() == value

    @given(st.integers(min_value=-(2**62), max_value=2**62 - 1))
    def test_signed_round_trip(self, value):
        writer = OracleWriter()
        writer.write_signed_varint(value, "v")
        assert OracleReader(writer.getvalue()).read_signed_varint() == value

    def test_small_values_take_one_byte(self):
        writer = StreamWriter()
        assert writer.write_varint(127, "v") == 1
        assert writer.write_varint(128, "v") == 2

    def test_zigzag_keeps_small_negatives_small(self):
        writer = OracleWriter()
        assert writer.write_signed_varint(-1, "v") == 1
        assert writer.write_signed_varint(-64, "v") == 1
        assert writer.write_signed_varint(-65, "v") == 2

    def test_negative_unsigned_rejected(self):
        with pytest.raises(FormatError):
            StreamWriter().write_varint(-1, "v")

    def test_overlong_varint_rejected(self):
        reader = StreamReader(b"\xff" * 11)
        with pytest.raises(FormatError):
            reader.read_varint()

    def test_tenth_byte_overflow_rejected(self):
        # Nine continuation bytes put the 10th byte at shift 63: any final
        # byte above 0x01 decodes past 2^64 and must be rejected, not
        # silently wrapped or returned as an oversized Python int.
        for final in (0x02, 0x03, 0x7F):
            reader = StreamReader(b"\x80" * 9 + bytes([final]))
            with pytest.raises(FormatError):
                reader.read_varint()

    def test_tenth_byte_msb_only_is_valid(self):
        # 2^63 encodes as nine 0x80 continuation bytes + final 0x01.
        reader = StreamReader(b"\x80" * 9 + b"\x01")
        assert reader.read_varint() == 1 << 63

    def test_u64_max_round_trip(self):
        writer = StreamWriter()
        writer.write_varint(2**64 - 1, "v")
        assert StreamReader(writer.getvalue()).read_varint() == 2**64 - 1

    @pytest.mark.parametrize("value", [2**63 - 1, -(2**63), -(2**63) + 1])
    def test_signed_boundaries_round_trip(self, value):
        writer = OracleWriter()
        writer.write_signed_varint(value, "v")
        assert OracleReader(writer.getvalue()).read_signed_varint() == value

    @given(st.integers(min_value=2**62, max_value=2**64 - 1))
    def test_unsigned_high_range_round_trip(self, value):
        writer = StreamWriter()
        writer.write_varint(value, "v")
        reader = StreamReader(writer.getvalue())
        decoded = reader.read_varint()
        assert decoded == value
        assert decoded < 1 << 64

    @given(
        st.one_of(
            st.integers(min_value=-(2**63), max_value=-(2**63) + 1000),
            st.integers(min_value=2**63 - 1000, max_value=2**63 - 1),
        )
    )
    def test_signed_boundary_neighborhood_round_trip(self, value):
        writer = OracleWriter()
        writer.write_signed_varint(value, "v")
        decoded = OracleReader(writer.getvalue()).read_signed_varint()
        assert decoded == value
        assert -(1 << 63) <= decoded < 1 << 63


class TestStrings:
    @given(st.text(max_size=100))
    def test_utf_round_trip(self, text):
        writer = StreamWriter()
        writer.write_utf(text, "s")
        assert StreamReader(writer.getvalue()).read_utf() == text

    def test_too_long_rejected(self):
        with pytest.raises(FormatError):
            StreamWriter().write_utf("x" * 70000, "s")


class TestReaderBounds:
    def test_underflow_rejected(self):
        reader = StreamReader(b"\x01\x02")
        with pytest.raises(FormatError):
            reader.read_u32()

    def test_position_tracks(self):
        reader = StreamReader(b"\x01\x02\x03")
        reader.read_u8()
        assert reader.position == 1
        assert reader.remaining == 2

    @pytest.mark.parametrize(
        "size, skip, count", [(0, 0, 0), (24, 0, 3), (41, 1, 3), (24, 1, 3), (17, 1, 5)]
    )
    def test_u64_run_matches_word_reads(self, size, skip, count):
        """Values, position and the underflow error of ``count`` read_u64 calls."""
        data = bytes(range(1, size + 1))

        def outcome(read):
            reader = StreamReader(data)
            reader.read_bytes(skip)
            try:
                values = read(reader)
            except TruncatedStreamError as error:
                values = (error.offset, error.needed, error.available)
            return values, reader.position

        run = outcome(lambda reader: reader.read_u64_run(count))
        words = outcome(lambda reader: tuple(reader.read_u64() for _ in range(count)))
        assert run == words

    def test_expect_end(self):
        reader = StreamReader(b"\x01")
        assert reader.remaining == 1
        reader.read_u8()
        assert reader.remaining == 0  # drained
