"""Memory Access Interface (paper Section V-A).

The MAI is the accelerator's only path to memory. The paper gives it:

* a 64-entry associative memory tracking outstanding requests, used for
  **request coalescing** (as in conventional MSHRs) — a second read of a
  32 B block that is already in flight (or recently completed and still
  tracked) attaches to the existing entry instead of re-accessing DRAM;
* **reorder buffers** so requesters receive responses in request order —
  modelled by returning, for each logical read, the max completion time of
  its blocks (order restoration adds no throughput, only the wait);
* **atomic read-modify-write** support so the header manager can update
  visited metadata race-free (modelled as a read followed by a posted
  write that occupies the entry one extra cycle).

Writes are posted: the requester continues once the write is handed to the
MAI; drained-by time is tracked so an operation's completion includes its
write traffic.

Each request is one loop over its 32 B blocks. A block that goes to DRAM
steps its channel inline (the in-order "next free" time, or the interval
schedule in device mode) and the MAI, TLB and DRAM counters are folded
in once per request with the additions a per-block ``DRAMModel`` access
made, in the same order. Translation is skipped for a repeat of the TLB's
most-recently-used page, which is an exact hit. The per-block form with a
``TLB.translate`` per request and a DRAM access call per block is the
oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.common.config import CerealConfig
from repro.common.errors import SimulationError
from repro.cereal.tlb import TLB
from repro.memory.dram import DRAMModel


@dataclass
class MAIStats:
    read_requests: int = 0
    write_requests: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    coalesced_blocks: int = 0
    atomic_rmws: int = 0

    @property
    def coalescing_rate(self) -> float:
        total = self.blocks_read + self.coalesced_blocks
        if not total:
            return 0.0
        return self.coalesced_blocks / total


class MemoryAccessInterface:
    """Coalescing front-end between one Cereal unit pool and DRAM."""

    def __init__(
        self,
        dram: DRAMModel,
        config: CerealConfig | None = None,
        tlb: TLB | None = None,
        coalescing: bool = True,
    ):
        self.dram = dram
        self.config = config or CerealConfig()
        self.tlb = tlb or TLB(entries=self.config.tlb_entries)
        self.coalescing = coalescing
        self.block_bytes = self.config.mai_block_bytes
        # Outstanding/recent block entries: block index -> completion ns.
        self._entries: OrderedDict[int, float] = OrderedDict()
        self.stats = MAIStats()
        self.last_drain_ns = 0.0
        # What a block's DRAM channel step reads: the line-interleave
        # granule, the channel count, one block's channel occupancy and the
        # zero-load latency.
        self._channel_geometry = (
            dram.config.access_granularity_bytes,
            dram.config.channels,
            dram.occupancy_ns(self.block_bytes),
            dram.config.zero_load_latency_ns,
        )

    # -- reads ------------------------------------------------------------------

    def read(self, when_ns: float, address: int, length: int) -> float:
        """Issue a read; returns the in-order completion time (ns).

        One pass over the request's 32 B blocks in address order; each
        block that does not coalesce steps its DRAM channel inline. The
        block and DRAM counters are folded in once per request.
        """
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        stats = self.stats
        stats.read_requests += 1
        tlb = self.tlb
        if address // tlb.page_bytes == tlb.mru_page:
            # A repeat of the most-recently-used page: a hit that moves
            # nothing in the TLB's LRU.
            tlb.hits += 1
        else:
            when_ns += tlb.translate(address)
        if when_ns < 0:
            raise SimulationError(f"issue time must be non-negative, got {when_ns}")
        block_bytes = self.block_bytes
        first = address // block_bytes
        last = (address + length - 1) // block_bytes
        entries = self._entries
        capacity = self.config.mai_entries
        # Coherence "get": fetching the up-to-date copy may take a detour
        # through the host's cache hierarchy (Section V-E).
        detour_ns = self.config.coherence_extra_read_ns
        coalescing = self.coalescing
        dram = self.dram
        free = dram.channel_free_ns
        lanes = dram.interval_channels
        granularity, channels, occupancy, latency = self._channel_geometry
        dram_stats = dram.stats
        busy = dram_stats.busy_time_ns
        latest = dram_stats.last_completion_ns
        completion = when_ns
        fetched = 0
        for block in range(first, last + 1):
            if coalescing:
                tracked = entries.get(block)
                if tracked is not None:
                    # Coalesce onto the outstanding/recent entry.
                    if tracked > completion:
                        completion = tracked
                    continue
            channel = block * block_bytes // granularity % channels
            if lanes is None:
                start = free[channel]
                if when_ns >= start:
                    start = when_ns
                free[channel] = start + occupancy
            else:
                start = lanes[channel].schedule(when_ns, occupancy)
            block_done = start + occupancy + latency
            busy += occupancy
            if block_done > latest:
                latest = block_done
            block_done += detour_ns
            fetched += 1
            entries[block] = block_done
            if not coalescing:
                entries.move_to_end(block)
            if len(entries) > capacity:
                entries.popitem(last=False)
            if block_done > completion:
                completion = block_done
        if fetched:
            dram_stats.accesses += fetched
            dram_stats.busy_time_ns = busy
            dram_stats.read_bytes += fetched * block_bytes
            dram_stats.last_completion_ns = latest
            stats.blocks_read += fetched
        stats.coalesced_blocks += last + 1 - first - fetched
        return completion

    # -- writes (posted) ------------------------------------------------------------

    def write(self, when_ns: float, address: int, length: int) -> float:
        """Post a write; returns the hand-off time (requester continues)."""
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        stats = self.stats
        stats.write_requests += 1
        tlb = self.tlb
        if address // tlb.page_bytes == tlb.mru_page:
            # A repeat of the most-recently-used page: a hit that moves
            # nothing in the TLB's LRU.
            tlb.hits += 1
        else:
            when_ns += tlb.translate(address)
        if when_ns < 0:
            raise SimulationError(f"issue time must be non-negative, got {when_ns}")
        block_bytes = self.block_bytes
        first = address // block_bytes
        last = (address + length - 1) // block_bytes
        entries = self._entries
        capacity = self.config.mai_entries
        dram = self.dram
        free = dram.channel_free_ns
        lanes = dram.interval_channels
        granularity, channels, occupancy, latency = self._channel_geometry
        dram_stats = dram.stats
        busy = dram_stats.busy_time_ns
        latest = dram_stats.last_completion_ns
        drain = self.last_drain_ns
        for block in range(first, last + 1):
            channel = block * block_bytes // granularity % channels
            if lanes is None:
                start = free[channel]
                if when_ns >= start:
                    start = when_ns
                free[channel] = start + occupancy
            else:
                start = lanes[channel].schedule(when_ns, occupancy)
            done = start + occupancy + latency
            busy += occupancy
            if done > latest:
                latest = done
            entries[block] = done
            entries.move_to_end(block)
            if len(entries) > capacity:
                entries.popitem(last=False)
            if done > drain:
                drain = done
        blocks = last + 1 - first
        dram_stats.accesses += blocks
        dram_stats.busy_time_ns = busy
        dram_stats.write_bytes += blocks * block_bytes
        dram_stats.last_completion_ns = latest
        self.last_drain_ns = drain
        stats.blocks_written += blocks
        return when_ns + 1.0  # one cycle to enqueue into the MAI

    # -- atomic read-modify-write ------------------------------------------------------

    def atomic_rmw(self, when_ns: float, address: int, length: int = 8) -> float:
        """Atomic update (visited-bit / relative-address header writes)."""
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        self.stats.atomic_rmws += 1
        read_done = self.read(when_ns, address, length)
        # The buffered RMW entry applies the modify and writes back without
        # stalling the requester beyond the read; the writeback is posted.
        self.write(read_done, address, length)
        return read_done + 1.0

    def drain(self, when_ns: float) -> float:
        """Time by which all posted writes are globally visible."""
        return max(when_ns, self.last_drain_ns)
