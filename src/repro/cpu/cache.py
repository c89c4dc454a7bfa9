"""Set-associative cache hierarchy simulator.

Replays a :class:`~repro.memory.trace.MemoryTrace` through L1/L2/L3 (LRU,
inclusive-enough for accounting purposes) and classifies every DRAM miss as
*sequential* (caught by a next-line hardware prefetcher, cheap and
overlappable) or *random* (a demand miss that stalls the bounded
out-of-order window). The split is what lets the core model reproduce the
paper's observation that S/D is dominated by random, dependent misses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from typing import Deque, List, Optional, Set

from repro.common.config import CacheLevelConfig, HostCPUConfig
from repro.memory.trace import MemoryTrace


@dataclass
class CacheStats:
    """Hit/miss counters for one replay."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    sequential_misses: int = 0
    random_misses: int = 0
    write_misses: int = 0
    writeback_lines: int = 0

    @property
    def llc_accesses(self) -> int:
        """Accesses that reached the L3 (missed L1 and L2)."""
        return self.l3_hits + self.dram_accesses

    @property
    def llc_miss_rate(self) -> float:
        if not self.llc_accesses:
            return 0.0
        return self.dram_accesses / self.llc_accesses

    def add(self, other: "CacheStats") -> None:
        """Add every counter of ``other`` to these."""
        for name in _STAT_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def dram_bytes(self, line_bytes: int = 64) -> int:
        """Traffic to memory: demand fills plus dirty writebacks."""
        return (self.dram_accesses + self.writeback_lines) * line_bytes


_STAT_NAMES = tuple(f.name for f in fields(CacheStats))


class _SetAssociativeCache:
    """One LRU cache level, tracked at line granularity.

    Each set is a list of line numbers, least recently used first. Sets
    are allocated on first touch: an 11 MB L3 has 16,384 of them and a
    short replay touches few.
    """

    def __init__(self, config: CacheLevelConfig):
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self._sets: List[Optional[List[int]]] = [None] * self.num_sets

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit. Misses install the line."""
        index = line % self.num_sets
        ways = self._sets[index]
        if ways is None:
            ways = self._sets[index] = []
        if line in ways:
            ways.remove(line)
            ways.append(line)
            return True
        ways.append(line)
        if len(ways) > self.ways:
            del ways[0]
        return False


class _PrefetchClassifier:
    """Next-line-stream detector standing in for the L2 hardware prefetcher.

    Remembers the last ``window`` distinct miss lines; a miss on a line
    already remembered does not renew it.
    """

    window = 64

    def __init__(self):
        self._recent: Set[int] = set()
        self._order: Deque[int] = deque()

    def is_sequential(self, line: int) -> bool:
        recent = self._recent
        hit = (line - 1) in recent or (line - 2) in recent
        if line not in recent:
            if len(self._order) == self.window:
                recent.remove(self._order.popleft())
            recent.add(line)
            self._order.append(line)
        return hit


class CacheHierarchy:
    """L1D + L2 + L3 replayed over line-granular accesses.

    :meth:`replay` is the one path. The tests hold it counter for counter
    to a plain per-line walk over the same sets (``access_line`` in
    ``tests/oracles.py``) on real and generated traces.
    """

    def __init__(self, host: Optional[HostCPUConfig] = None):
        self.host = host or HostCPUConfig()
        self.l1 = _SetAssociativeCache(self.host.l1)
        self.l2 = _SetAssociativeCache(self.host.l2)
        self.l3 = _SetAssociativeCache(self.host.l3)
        self.line_bytes = self.host.l1.line_bytes
        self.stats = CacheStats()
        self._prefetch = _PrefetchClassifier()

    def replay(self, trace: MemoryTrace) -> CacheStats:
        """Replay ``trace`` line by line; returns the accumulated stats.

        Equivalent to a per-line walk over every line of every access,
        with the three lookups and the prefetch classifier inlined over
        locals and the counters folded into :attr:`stats` once. A line
        equal to the previous one is the L1 MRU line, so it is counted as
        an L1 hit without a lookup (it would reorder nothing).
        """
        line_bytes = self.line_bytes
        sets1, num1, ways1 = self.l1._sets, self.l1.num_sets, self.l1.ways
        sets2, num2, ways2 = self.l2._sets, self.l2.num_sets, self.l2.ways
        sets3, num3, ways3 = self.l3._sets, self.l3.num_sets, self.l3.ways
        recent = self._prefetch._recent
        order = self._prefetch._order
        window = self._prefetch.window
        lines = l1_hits = l2_hits = l3_hits = dram = sequential = write_misses = 0
        previous = -1
        for address, length in zip(trace.addresses, trace.lengths):
            is_write = length < 0
            if is_write:
                length = ~length
            line = address // line_bytes - 1
            last = (address + length - 1) // line_bytes
            lines += last - line
            while line < last:
                line += 1
                if line == previous:
                    l1_hits += 1
                    continue
                previous = line
                ways = sets1[line % num1]
                if ways is None:
                    ways = sets1[line % num1] = []
                elif line in ways:
                    ways.remove(line)
                    ways.append(line)
                    l1_hits += 1
                    continue
                ways.append(line)
                if len(ways) > ways1:
                    del ways[0]
                ways = sets2[line % num2]
                if ways is None:
                    ways = sets2[line % num2] = []
                elif line in ways:
                    ways.remove(line)
                    ways.append(line)
                    l2_hits += 1
                    continue
                ways.append(line)
                if len(ways) > ways2:
                    del ways[0]
                ways = sets3[line % num3]
                if ways is None:
                    ways = sets3[line % num3] = []
                elif line in ways:
                    ways.remove(line)
                    ways.append(line)
                    l3_hits += 1
                    continue
                ways.append(line)
                if len(ways) > ways3:
                    del ways[0]
                dram += 1
                if is_write:
                    write_misses += 1
                if (line - 1) in recent or (line - 2) in recent:
                    sequential += 1
                if line not in recent:
                    if len(order) == window:
                        recent.remove(order.popleft())
                    recent.add(line)
                    order.append(line)
        stats = self.stats
        stats.accesses += lines
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits
        stats.l3_hits += l3_hits
        stats.dram_accesses += dram
        stats.sequential_misses += sequential
        stats.random_misses += dram - sequential
        stats.write_misses += write_misses
        stats.writeback_lines += write_misses  # allocated line eventually written back
        return stats
