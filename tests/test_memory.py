"""Tests for the memory substrate: MemorySpace, MemoryTrace, DRAMModel."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import HeapError
from repro.memory import AccessKind, DRAMModel, MemorySpace, MemoryTrace
from repro.memory.space import _PAGE_BYTES
from tests.oracles import cache_lines, dram_access


def resident_bytes(mem):
    """Bytes of backing storage ``mem`` has allocated."""
    return len(mem._pages) * _PAGE_BYTES


class TestMemorySpace:
    def test_read_back_write(self):
        mem = MemorySpace(1024)
        mem.write(100, b"hello")
        assert mem.read(100, 5) == b"hello"

    def test_unwritten_memory_reads_zero(self):
        mem = MemorySpace(1024)
        assert mem.read(0, 16) == bytes(16)

    def test_cross_page_write_and_read(self):
        mem = MemorySpace(256 * 1024)
        data = bytes(range(256)) * 8
        address = 64 * 1024 - 100  # straddles the 64 KiB page boundary
        mem.write(address, data)
        assert mem.read(address, len(data)) == data

    def test_out_of_bounds_rejected(self):
        mem = MemorySpace(128)
        with pytest.raises(HeapError):
            mem.read(120, 16)
        with pytest.raises(HeapError):
            mem.write(-1, b"x")

    def test_u64_round_trip(self):
        mem = MemorySpace(1024)
        mem.write_u64(8, 0xDEADBEEF12345678)
        assert mem.read_u64(8) == 0xDEADBEEF12345678

    def test_u64_little_endian(self):
        mem = MemorySpace(1024)
        mem.write_u64(0, 1)
        assert mem.read(0, 8) == b"\x01" + bytes(7)

    def test_i64_negative(self):
        mem = MemorySpace(1024)
        mem.write_i64(0, -42)
        assert mem.read_i64(0) == -42

    def test_f64_round_trip(self):
        mem = MemorySpace(1024)
        mem.write_f64(0, 3.14159)
        assert mem.read_f64(0) == pytest.approx(3.14159)

    def test_fill(self):
        mem = MemorySpace(1024)
        mem.fill(10, 5, 0xAB)
        assert mem.read(10, 5) == b"\xab" * 5

    def test_copy(self):
        mem = MemorySpace(1024)
        mem.write(0, b"cereal")
        mem.copy(0, 100, 6)
        assert mem.read(100, 6) == b"cereal"

    def test_resident_bytes_is_lazy(self):
        mem = MemorySpace(1 << 40)  # 1 TiB address space
        assert resident_bytes(mem) == 0
        mem.write_u8(123, 1)
        assert resident_bytes(mem) == 64 * 1024

    @given(st.binary(min_size=1, max_size=300), st.integers(0, 500))
    def test_arbitrary_round_trip(self, data, address):
        mem = MemorySpace(4096)
        mem.write(address, data)
        assert mem.read(address, len(data)) == data


PAGE = 64 * 1024


def _traced(size=4 * PAGE):
    mem = MemorySpace(size)
    mem.trace = MemoryTrace()
    return mem, mem.trace


def _records(trace):
    return list(trace.addresses), list(trace.lengths)


class TestWordRuns:
    """The word-run accessors against one 8 B call per word."""

    WORDS = [0x0102030405060708, 0, (1 << 64) - 1, 42, 7 << 40]

    # A run inside one page, one ending on the boundary, one straddling it.
    @pytest.mark.parametrize("address", [8, PAGE - 40, PAGE - 16, 2 * PAGE - 24])
    def test_write_run_matches_word_writes(self, address):
        fast, fast_trace = _traced()
        fast.write_word_run(address, self.WORDS)
        slow, slow_trace = _traced()
        for index, word in enumerate(self.WORDS):
            slow.write_u64(address + index * 8, word)
        assert _records(fast_trace) == _records(slow_trace)
        assert len(fast_trace) == len(self.WORDS)
        assert fast.read(0, 4 * PAGE) == slow.read(0, 4 * PAGE)

    @pytest.mark.parametrize("address", [8, PAGE - 40, PAGE - 16, 2 * PAGE - 24])
    def test_read_run_matches_word_reads(self, address):
        mem, trace = _traced()
        for index, word in enumerate(self.WORDS):
            mem.write_u64(address + index * 8, word)
        trace.clear()
        assert mem.read_word_run(address, len(self.WORDS)) == tuple(self.WORDS)
        fast = _records(trace)
        trace.clear()
        [mem.read_u64(address + index * 8) for index in range(len(self.WORDS))]
        assert fast == _records(trace)

    @pytest.mark.parametrize("address", [8, PAGE - 40, PAGE - 16, 2 * PAGE - 24])
    def test_gather_matches_word_reads(self, address):
        mem, trace = _traced()
        for index, word in enumerate(self.WORDS):
            mem.write_u64(address + index * 8, word)
        picks = [address + 32, address, address + 16, address + 16]
        trace.clear()
        values = mem.gather_words(picks)
        fast = _records(trace)
        trace.clear()
        assert values == [mem.read_u64(pick) for pick in picks]
        assert values == [7 << 40, self.WORDS[0], self.WORDS[2], self.WORDS[2]]
        assert fast == _records(trace)
        assert mem.gather_words([]) == []

    # Within a page, on a fresh page, and across pages with a word that
    # straddles a boundary; addresses unsorted and one written twice.
    @pytest.mark.parametrize("base", [64, 2 * PAGE + 8, PAGE - 12])
    def test_scatter_matches_word_writes(self, base):
        picks = [base + 40, base, base + PAGE + 8, base + 16, base]
        fast, fast_trace = _traced()
        fast.scatter_words(picks, self.WORDS)
        fast.scatter_words([], [])
        slow, slow_trace = _traced()
        for pick, word in zip(picks, self.WORDS):
            slow.write_u64(pick, word)
        assert len(fast_trace) == len(picks)
        assert _records(fast_trace) == _records(slow_trace)
        assert fast.read(0, 4 * PAGE) == slow.read(0, 4 * PAGE)

    def test_untouched_page_reads_zero_without_allocating(self):
        mem, trace = _traced()
        assert mem.read_word_run(3 * PAGE + 8, 4) == (0, 0, 0, 0)
        assert mem.gather_words([3 * PAGE, 3 * PAGE + 64]) == [0, 0]
        assert mem.read_u64(3 * PAGE + 16) == 0
        assert mem.read_f64(3 * PAGE + 24) == 0.0
        assert resident_bytes(mem) == 0
        assert len(trace) == 4 + 2 + 1 + 1

    def test_out_of_range_run_raises_without_recording(self):
        mem, trace = _traced(size=PAGE + 64)
        with pytest.raises(HeapError):
            mem.read_word_run(PAGE + 40, 4)
        with pytest.raises(HeapError):
            mem.write_word_run(PAGE + 40, [1, 2, 3, 4])
        with pytest.raises(HeapError):
            mem.gather_words([0, PAGE + 64])
        with pytest.raises(HeapError):
            mem.read_word_run(-8, 2)
        with pytest.raises(HeapError):
            mem.read_word_run(0, -1)
        with pytest.raises(HeapError):
            mem.scatter_words([8, PAGE + 64], [1, 2])
        with pytest.raises(HeapError):
            mem.write_image(PAGE, bytes(128), (0, 8))
        assert len(trace) == 0

    @pytest.mark.parametrize("address", [PAGE + 64, PAGE - 24, 3 * PAGE - 8])
    def test_write_image_matches_fill_then_writes(self, address):
        fast, fast_trace = _traced()
        slow, slow_trace = _traced()
        for mem in (fast, slow):
            mem.fill(address - 8, 64, 0xAB)  # stale bytes the image must clear
        fast_trace.clear()
        slow_trace.clear()
        image = bytearray(40)
        struct.pack_into("<QQ", image, 0, 11, 22)
        struct.pack_into("<Q", image, 24, 33)
        fast.write_image(address, image, (0, 8, 24))
        slow.fill(address, 40, 0)
        for at, word in zip((0, 8, 24), (11, 22, 33)):
            slow.write_u64(address + at, word)
        assert _records(fast_trace) == _records(slow_trace)
        assert fast.read(0, 4 * PAGE) == slow.read(0, 4 * PAGE)

    @pytest.mark.parametrize("address", [0, PAGE - 8, PAGE - 4, 2 * PAGE - 1])
    def test_word_accessors_match_byte_path(self, address):
        """The single-page fast path and the page-straddling general path
        store and trace a word like ``write``/``read`` of 8 bytes."""
        fast, fast_trace = _traced()
        slow, slow_trace = _traced()
        fast.write_u64(address, 0xA1B2C3D4E5F60718)
        slow.write(address, (0xA1B2C3D4E5F60718).to_bytes(8, "little"))
        fast.write_f64(address + 8, -2.5)
        slow.write(address + 8, struct.pack("<d", -2.5))
        assert fast.read_u64(address) == 0xA1B2C3D4E5F60718
        slow.read(address, 8)
        assert fast.read_i64(address + 8) == struct.unpack("<q", struct.pack("<d", -2.5))[0]
        slow.read(address + 8, 8)
        assert _records(fast_trace) == _records(slow_trace)
        assert fast.read(0, 4 * PAGE) == slow.read(0, 4 * PAGE)

    # In a page, ending on its boundary, straddling it, on an untouched page.
    @pytest.mark.parametrize("name, code, value", [
        ("u8", "<B", 0xF1), ("u16", "<H", 0xBEEF), ("u32", "<I", 0xDEADBEEF),
        ("i32", "<i", -5), ("f32", "<f", 1.5), ("i64", "<q", -(1 << 40)),
    ])
    def test_typed_accessors_match_byte_path(self, name, code, value):
        size = struct.calcsize(code)
        fast, fast_trace = _traced()
        slow, slow_trace = _traced()
        # Nothing in the model stores a u32, so only its load is typed.
        write = getattr(fast, f"write_{name}", None) or (
            lambda address, value: fast.write(address, struct.pack(code, value))
        )
        for address in (16, PAGE - size, PAGE - 1, 2 * PAGE + 5):
            write(address, value)
            slow.write(address, struct.pack(code, value))
            assert getattr(fast, f"read_{name}")(address) == value
            slow.read(address, size)
        assert getattr(fast, f"read_{name}")(3 * PAGE) == 0
        slow.read(3 * PAGE, size)
        assert _records(fast_trace) == _records(slow_trace)
        assert fast.read(0, 4 * PAGE) == slow.read(0, 4 * PAGE)

    def test_bad_word_value_writes_nothing(self):
        mem, trace = _traced()
        with pytest.raises(struct.error):
            mem.write_u64(8, -1)
        with pytest.raises(struct.error):
            mem.write_word_run(8, [1, 1 << 64])
        assert len(trace) == 0 and resident_bytes(mem) == 0


class TestMemoryTrace:
    def test_records_reads_and_writes(self):
        mem = MemorySpace(1024)
        trace = mem.trace = MemoryTrace()
        mem.write(0, b"abcd")
        mem.read(0, 4)
        assert trace.write_bytes == 4
        assert trace.read_bytes == 4
        assert trace.accesses[0].kind is AccessKind.WRITE
        assert trace.accesses[1].kind is AccessKind.READ

    def test_unique_line_count(self):
        mem = MemorySpace(4096)
        trace = mem.trace = MemoryTrace()
        mem.read(0, 8)
        mem.read(8, 8)  # same 64 B line
        mem.read(128, 8)  # different line
        lines = {line for access in trace for line in cache_lines(access)}
        assert lines == {0, 2}

    def test_line_accesses_split_multiline(self):
        trace = MemoryTrace()
        trace.record_read(60, 16)  # spans lines 0 and 1
        [access] = list(trace)
        assert (access.address, access.length) == (60, 16)
        assert list(cache_lines(access)) == [0, 1]

    def test_clear(self):
        trace = MemoryTrace()
        trace.record_write(0, 8)
        trace.clear()
        assert trace.total_bytes == 0
        assert len(trace) == 0


class TestDRAMModel:
    def test_zero_load_latency(self):
        dram = DRAMModel()
        completion = dram_access(dram, 0.0, 0, 64, is_write=False)
        expected = dram.occupancy_ns(64) + dram.config.zero_load_latency_ns
        assert completion == pytest.approx(expected)

    def test_channel_interleaving(self):
        dram = DRAMModel()
        channels = dram.config.channels
        done = [dram_access(dram, 0.0, line * 64, 64, is_write=False)
                for line in range(2 * channels)]
        # Consecutive lines land on distinct channels and overlap; the
        # next round wraps onto the same channels and queues behind them.
        assert set(done[:channels]) == {done[0]}
        assert set(done[channels:]) == {done[channels]}
        assert done[channels] > done[0]

    def test_same_channel_serializes(self):
        dram = DRAMModel()
        first = dram_access(dram, 0.0, 0, 64, is_write=False)
        # Same line -> same channel -> queued behind the first access.
        second = dram_access(dram, 0.0, 0, 64, is_write=False)
        assert second > first

    def test_different_channels_overlap(self):
        dram = DRAMModel()
        first = dram_access(dram, 0.0, 0, 64, is_write=False)
        second = dram_access(dram, 0.0, 64, 64, is_write=False)
        assert second == pytest.approx(first)

    def test_stats_accumulate(self):
        dram = DRAMModel()
        dram_access(dram, 0.0, 0, 64, is_write=False)
        dram_access(dram, 0.0, 64, 64, is_write=True)
        assert dram.stats.read_bytes == 64
        assert dram.stats.write_bytes == 64
        assert dram.stats.accesses == 2

    def test_bandwidth_utilization_bounded(self):
        dram = DRAMModel()
        now = 0.0
        for i in range(1000):
            now = dram_access(dram, now, i * 64, 64, is_write=False)
        util = dram.stats.bandwidth_utilization(
            dram.stats.last_completion_ns, dram.config
        )
        assert 0.0 < util <= 1.0

    def test_reset(self):
        dram = DRAMModel()
        dram_access(dram, 0.0, 0, 64, is_write=False)
        dram.reset()
        assert dram.stats.accesses == 0
