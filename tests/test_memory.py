"""Tests for the memory substrate: MemorySpace, MemoryTrace, DRAMModel."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.config import DRAMConfig
from repro.common.errors import HeapError
from repro.memory import AccessKind, DRAMModel, MemorySpace, MemoryTrace


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
        assert mem.resident_bytes == 0
        mem.write_u8(123, 1)
        assert mem.resident_bytes == 64 * 1024

    @given(st.binary(min_size=1, max_size=300), st.integers(0, 500))
    def test_arbitrary_round_trip(self, data, address):
        mem = MemorySpace(4096)
        mem.write(address, data)
        assert mem.read(address, len(data)) == data


class TestMemoryTrace:
    def test_records_reads_and_writes(self):
        trace = MemoryTrace()
        mem = MemorySpace(1024, trace=trace)
        mem.write(0, b"abcd")
        mem.read(0, 4)
        assert trace.write_bytes == 4
        assert trace.read_bytes == 4
        assert trace.accesses[0].kind is AccessKind.WRITE
        assert trace.accesses[1].kind is AccessKind.READ

    def test_unique_line_count(self):
        trace = MemoryTrace()
        mem = MemorySpace(4096, trace=trace)
        mem.read(0, 8)
        mem.read(8, 8)  # same 64 B line
        mem.read(128, 8)  # different line
        assert trace.unique_line_count == 2

    def test_line_accesses_split_multiline(self):
        trace = MemoryTrace()
        trace.record_read(60, 16)  # spans lines 0 and 1
        parts = list(trace.line_accesses())
        assert len(parts) == 2
        assert parts[0].address == 60 and parts[0].length == 4
        assert parts[1].address == 64 and parts[1].length == 12

    def test_clear(self):
        trace = MemoryTrace()
        trace.record_write(0, 8)
        trace.clear()
        assert trace.total_bytes == 0
        assert trace.unique_line_count == 0


class TestDRAMModel:
    def test_zero_load_latency(self):
        dram = DRAMModel()
        completion = dram.access(0.0, 0, 64, is_write=False)
        expected = dram.occupancy_ns(64) + dram.config.zero_load_latency_ns
        assert completion == pytest.approx(expected)

    def test_channel_interleaving(self):
        dram = DRAMModel()
        channels = {dram.channel_of(line * 64) for line in range(8)}
        assert channels == set(range(dram.config.channels))

    def test_same_channel_serializes(self):
        dram = DRAMModel()
        first = dram.access(0.0, 0, 64, is_write=False)
        # Same line -> same channel -> queued behind the first access.
        second = dram.access(0.0, 0, 64, is_write=False)
        assert second > first

    def test_different_channels_overlap(self):
        dram = DRAMModel()
        first = dram.access(0.0, 0, 64, is_write=False)
        second = dram.access(0.0, 64, 64, is_write=False)
        assert second == pytest.approx(first)

    def test_stats_accumulate(self):
        dram = DRAMModel()
        dram.access(0.0, 0, 64, is_write=False)
        dram.access(0.0, 64, 64, is_write=True)
        assert dram.stats.read_bytes == 64
        assert dram.stats.write_bytes == 64
        assert dram.stats.accesses == 2

    def test_bandwidth_utilization_bounded(self):
        dram = DRAMModel()
        now = 0.0
        for i in range(1000):
            now = dram.access(now, i * 64, 64, is_write=False)
        util = dram.stats.bandwidth_utilization(
            dram.stats.last_completion_ns, dram.config
        )
        assert 0.0 < util <= 1.0

    def test_stream_time_bandwidth_bound(self):
        config = DRAMConfig()
        dram = DRAMModel(config)
        total = 64 * 1000 * 1000  # 64 MB
        time_ns = dram.stream_time_ns(total, outstanding=64)
        ideal_ns = total / config.peak_bandwidth_bytes_per_sec * 1e9
        assert time_ns >= ideal_ns
        assert time_ns < ideal_ns * 1.2

    def test_stream_time_latency_bound_with_one_outstanding(self):
        dram = DRAMModel()
        # One outstanding request: every line pays full zero-load latency.
        time_ns = dram.stream_time_ns(64 * 100, outstanding=1)
        assert time_ns >= 100 * dram.config.zero_load_latency_ns

    def test_reset(self):
        dram = DRAMModel()
        dram.access(0.0, 0, 64, is_write=False)
        dram.reset()
        assert dram.stats.accesses == 0
