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

    # -- reads ------------------------------------------------------------------

    def read(self, when_ns: float, address: int, length: int) -> float:
        """Issue a read; returns the in-order completion time (ns).

        One pass over the request's 32 B blocks in address order; the block
        counters are folded into :attr:`stats` once per request.
        """
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        stats = self.stats
        stats.read_requests += 1
        when_ns += self.tlb.translate(address)
        block_bytes = self.block_bytes
        first = address // block_bytes
        last = (address + length - 1) // block_bytes
        entries = self._entries
        capacity = self.config.mai_entries
        # Coherence "get": fetching the up-to-date copy may take a detour
        # through the host's cache hierarchy (Section V-E).
        detour_ns = self.config.coherence_extra_read_ns
        access = self.dram.access
        coalescing = self.coalescing
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
            block_done = access(when_ns, block * block_bytes, block_bytes, False)
            block_done += detour_ns
            fetched += 1
            entries[block] = block_done
            entries.move_to_end(block)
            if len(entries) > capacity:
                entries.popitem(last=False)
            if block_done > completion:
                completion = block_done
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
        when_ns += self.tlb.translate(address)
        block_bytes = self.block_bytes
        first = address // block_bytes
        last = (address + length - 1) // block_bytes
        entries = self._entries
        capacity = self.config.mai_entries
        access = self.dram.access
        drain = self.last_drain_ns
        for block in range(first, last + 1):
            done = access(when_ns, block * block_bytes, block_bytes, True)
            entries[block] = done
            entries.move_to_end(block)
            if len(entries) > capacity:
                entries.popitem(last=False)
            if done > drain:
                drain = done
        self.last_drain_ns = drain
        stats.blocks_written += last + 1 - first
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
