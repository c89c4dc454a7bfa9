"""Tests for the accelerator's hardware tables, TLB, and MAI."""

import dataclasses
import random

import pytest

from repro.common.config import CerealConfig
from repro.common.errors import CapacityError, SimulationError
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.tables import ClassIDTable, KlassPointerTable
from repro.cereal.tlb import TLB
from repro.memory.dram import DRAMModel
from tests.oracles import OracleMAI


class TestKlassPointerTable:
    def test_install_and_lookup(self):
        table = KlassPointerTable()
        table.install(0x7F00_0000, 3)
        assert table.lookup(0x7F00_0000) == 3
        assert table.lookups == 1

    def test_reinstall_same_mapping_ok(self):
        table = KlassPointerTable()
        table.install(0x1000, 1)
        table.install(0x1000, 1)
        assert len(table) == 1

    def test_reinstall_conflicting_rejected(self):
        table = KlassPointerTable()
        table.install(0x1000, 1)
        with pytest.raises(SimulationError):
            table.install(0x1000, 2)

    def test_capacity_enforced(self):
        table = KlassPointerTable(max_entries=2)
        table.install(0x1000, 0)
        table.install(0x2000, 1)
        with pytest.raises(CapacityError):
            table.install(0x3000, 2)

    def test_unregistered_lookup_rejected(self):
        table = KlassPointerTable()
        with pytest.raises(CapacityError):
            table.lookup(0xDEAD)


class TestClassIDTable:
    def test_dense_install_and_lookup(self):
        table = ClassIDTable()
        table.install(0, 0x1000)
        table.install(1, 0x2000)
        assert table.lookup(1) == 0x2000

    def test_sparse_install_rejected(self):
        table = ClassIDTable()
        with pytest.raises(SimulationError):
            table.install(5, 0x1000)

    def test_capacity_enforced(self):
        table = ClassIDTable(max_entries=1)
        table.install(0, 0x1000)
        with pytest.raises(CapacityError):
            table.install(1, 0x2000)

    def test_unknown_id_rejected(self):
        table = ClassIDTable()
        with pytest.raises(CapacityError):
            table.lookup(0)


class TestTLB:
    def test_first_access_misses_then_hits(self):
        tlb = TLB(entries=4)
        assert tlb.translate(0x1234) > 0  # miss: page walk
        assert tlb.translate(0x5678) == 0.0  # same 1 GiB page
        assert tlb.misses == 1 and tlb.hits == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2, page_bytes=4096)
        tlb.translate(0)  # page 0
        tlb.translate(4096)  # page 1
        tlb.translate(8192)  # page 2 evicts page 0
        assert tlb.translate(0) > 0  # page 0 misses again
        assert tlb.misses == 4

    def test_paper_configuration_no_misses_on_128gb(self):
        # 128 GB / 1 GiB pages = 120 pages < 128 entries (Section V-E).
        tlb = TLB()
        walks = sum(
            1 for i in range(120) if tlb.translate(i * (1 << 30)) > 0
        )
        assert walks == 120  # compulsory only
        again = sum(1 for i in range(120) if tlb.translate(i * (1 << 30)) > 0)
        assert again == 0

    def test_bad_page_size_rejected(self):
        with pytest.raises(SimulationError):
            TLB(page_bytes=1000)


class TestMAI:
    def make_mai(self, coalescing=True):
        return MemoryAccessInterface(
            DRAMModel(), CerealConfig(), coalescing=coalescing
        )

    def test_read_latency_includes_dram(self):
        mai = self.make_mai()
        done = mai.read(0.0, 0x100, 8)
        assert done >= 40.0  # zero-load latency

    def test_coalescing_same_block(self):
        mai = self.make_mai()
        first = mai.read(0.0, 0x100, 8)
        second = mai.read(0.0, 0x108, 8)  # same 32 B block
        assert second == first  # no second DRAM access
        assert mai.stats.coalesced_blocks == 1
        assert mai.stats.blocks_read == 1

    def test_coalescing_disabled(self):
        mai = self.make_mai(coalescing=False)
        mai.read(0.0, 0x100, 8)
        mai.read(0.0, 0x108, 8)
        assert mai.stats.coalesced_blocks == 0
        assert mai.stats.blocks_read == 2

    def test_multi_block_read_returns_in_order_completion(self):
        mai = self.make_mai()
        done = mai.read(0.0, 0x0, 64)  # two 32 B blocks
        assert mai.stats.blocks_read == 2
        assert done >= 40.0

    def test_entry_eviction_limits_coalescing_window(self):
        config = CerealConfig(mai_entries=2)
        mai = MemoryAccessInterface(DRAMModel(), config)
        mai.read(0.0, 0 * 32, 8)
        mai.read(0.0, 1 * 32, 8)
        mai.read(0.0, 2 * 32, 8)  # evicts block 0
        mai.read(100.0, 0 * 32, 8)  # no longer coalesces
        assert mai.stats.blocks_read == 4

    def test_write_is_posted(self):
        mai = self.make_mai()
        mai.read(0.0, 0x100, 8)  # warm the TLB so only posting cost remains
        ack = mai.write(100.0, 0x200, 64)
        assert ack == pytest.approx(101.0)  # requester continues immediately
        assert mai.drain(0.0) > 140.0  # but data lands later

    def test_atomic_rmw_counts(self):
        mai = self.make_mai()
        done = mai.atomic_rmw(0.0, 0x200)
        assert done > 40.0
        assert mai.stats.atomic_rmws == 1

    def test_zero_length_rejected(self):
        # Rejection comes before any state change: no request counted, no
        # TLB hit, miss or LRU move, no MAI entry, no DRAM traffic.
        for op in ("read", "write", "atomic_rmw"):
            for length in (0, -8):
                # Two 4 KB pages in the TLB, so a translate of the rejected
                # request's address would reorder them.
                mai = MemoryAccessInterface(
                    DRAMModel(), CerealConfig(), tlb=TLB(entries=4, page_bytes=4096)
                )
                mai.read(0.0, 0x0, 8)
                mai.write(10.0, 0x1000, 64)
                mai.atomic_rmw(20.0, 0x40)
                before = self._state(mai)
                with pytest.raises(
                    SimulationError,
                    match=f"^access length must be positive, got {length}$",
                ):
                    getattr(mai, op)(30.0, 0x0, length)
                assert self._state(mai) == before, (op, length)

    @staticmethod
    def _state(mai):
        return (
            dataclasses.replace(mai.stats),
            mai.tlb.hits,
            mai.tlb.misses,
            list(mai.tlb._pages),
            list(mai._entries.items()),
            mai.last_drain_ns,
            dataclasses.replace(mai.dram.stats),
        )


def _mai_pair(coalescing, mai_entries, out_of_order):
    def build(cls):
        config = CerealConfig(mai_entries=mai_entries)
        # A small TLB over 4 KB pages so the stream also sees misses.
        tlb = TLB(entries=4, page_bytes=4096)
        return cls(DRAMModel(out_of_order=out_of_order), config, tlb, coalescing)

    return build(MemoryAccessInterface), build(OracleMAI)


def _random_mai_stream(rng, count):
    """Reads, posted writes and RMWs with block-crossing lengths, reuse of
    recent addresses (coalescing) and out-of-order issue times."""
    clock = 0.0
    recent = [0]
    for _ in range(count):
        clock = max(0.0, clock + rng.choice((0.0, 1.0, 3.5, 25.0, -40.0)))
        if rng.random() < 0.5:
            address = rng.choice(recent) + rng.randrange(-40, 40)
        else:
            address = rng.randrange(0, 1 << 16)
        address = max(0, address)
        recent = (recent + [address])[-16:]
        length = rng.choice((1, 8, 16, 24, 31, 32, 33, 64, 100, 257))
        yield rng.choice(("read", "read", "write", "rmw")), clock, address, length


class TestMAIFoldOracle:
    @pytest.mark.parametrize("out_of_order", [False, True])
    @pytest.mark.parametrize("mai_entries", [2, 64])
    @pytest.mark.parametrize("coalescing", [True, False])
    def test_matches_per_block_mai(self, coalescing, mai_entries, out_of_order):
        rng = random.Random(f"{coalescing}-{mai_entries}-{out_of_order}")
        folded, oracle = _mai_pair(coalescing, mai_entries, out_of_order)
        for op, when, address, length in _random_mai_stream(rng, 1500):
            if op == "read":
                assert folded.read(when, address, length) == oracle.read(
                    when, address, length
                )
            elif op == "write":
                assert folded.write(when, address, length) == oracle.write(
                    when, address, length
                )
            else:
                assert folded.atomic_rmw(when, address, length) == (
                    oracle.atomic_rmw(when, address, length)
                )
            assert folded.last_drain_ns == oracle.last_drain_ns
        assert dataclasses.asdict(folded.stats) == dataclasses.asdict(oracle.stats)
        assert dataclasses.asdict(folded.dram.stats) == dataclasses.asdict(
            oracle.dram.stats
        )
        assert (folded.tlb.hits, folded.tlb.misses) == (
            oracle.tlb.hits,
            oracle.tlb.misses,
        )
        assert list(folded._entries.items()) == list(oracle._entries.items())
        assert len(folded._entries) == mai_entries  # the LRU overflowed
        assert folded.drain(0.0) == oracle.drain(0.0)
        # The stream exercised what the fold has to get right.
        assert folded.stats.blocks_read > folded.stats.read_requests
        assert folded.tlb.misses > 0
        if coalescing:
            assert folded.stats.coalesced_blocks > 0
