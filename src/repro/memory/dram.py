"""DDR4 memory timing model (Table I).

The model captures the two first-order DRAM properties the paper's results
depend on:

* **Zero-load latency** — every access pays a fixed 40 ns pipe latency.
* **Per-channel bandwidth** — each of the four channels sustains 19.2 GB/s;
  a 64 B line therefore occupies its channel for ``64 / 19.2e9`` seconds.

Addresses are interleaved across channels at line granularity, as in real
controllers, so sequential streams use all channels while a pathological
stride could hammer one. Each channel is modelled as a single server with a
"next free" time; an access's completion time is

    max(issue_time, channel_free) + occupancy + zero_load_latency

which reproduces both the unloaded latency and the bandwidth ceiling that
the accelerator saturates (Figures 11 and 15).

:class:`DRAMModel` holds the channel state and :class:`DRAMStats`; the
accelerator's MAI (:mod:`repro.cereal.mai`), the model's only requester,
steps a channel inline for each 32 B block it fetches or writes. The
per-access ``access`` method it replaced is the oracle in
``tests/oracles.py``.

One deliberate simplification: each channel tracks a single ``next free``
time, so an access issued with an *earlier* timestamp than a previously
scheduled one queues behind it rather than slotting into an earlier gap.
For the accelerator this acts as a simple shared-bus contention model
between concurrently active requesters (the DU's three read streams and
its write-back traffic); the resulting per-DU block rate (~25 ns/block)
matches what the paper's Figure 10 deserialization speedups imply.

``out_of_order=True`` (the device simulator's mode) lifts that
simplification: each channel keeps an interval schedule and an access
takes the earliest gap at or after its issue time that fits it (first
fit). Abutting busy intervals are stored coalesced into one run, which
changes no start time: first fit only ever inspects gaps, and a merged
run keeps its outer boundaries as the same floats. The runs sit in blocks
of at most :data:`BLOCK_RUNS`, so an insert shifts one block rather than
a schedule of ~100k interleaved runs; the flat two-list schedule they
replace is the oracle in ``tests/test_device_sim.py``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional

from repro.common.config import DRAMConfig

# Most runs one block of an interval channel holds before it splits.
BLOCK_RUNS = 512


@dataclass
class DRAMStats:
    """Aggregate counters for one simulation run."""

    read_bytes: int = 0
    write_bytes: int = 0
    accesses: int = 0
    busy_time_ns: float = 0.0  # sum of channel occupancy
    last_completion_ns: float = 0.0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def bandwidth_utilization(self, elapsed_ns: float, config: DRAMConfig) -> float:
        """Fraction of peak bandwidth used over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            return 0.0
        achieved = self.total_bytes / (elapsed_ns * 1e-9)
        return achieved / config.peak_bandwidth_bytes_per_sec


class _IntervalChannel:
    """A channel schedule that admits out-of-order issue (first fit).

    Used by the device simulator, where several units' operations are
    simulated one after another but overlap in *simulated* time: an access
    issued "in the past" relative to already-scheduled traffic slots into
    the earliest sufficiently large gap instead of queuing at the tail.

    Busy time is kept as sorted, disjoint runs. A new interval that touches
    a neighbouring run is merged into it, so no two runs abut and the
    forward scan steps over one run per gap instead of one entry per
    access. Every occupancy is positive, so a gap of zero never fits and
    the merged schedule makes the same first-fit choices as one storing
    each interval separately.

    The runs are stored in blocks of at most :data:`BLOCK_RUNS` runs, each
    block a pair of parallel ``starts``/``ends`` lists, so an insert or a
    delete shifts one block's tail rather than the whole schedule's (eight
    interleaved device units leave ~100k runs per channel). ``_bounds``
    holds the first start of every block after the first: ``schedule``
    bisects it for the block, bisects within that block, and lets the
    forward scan cross into the following blocks. A block that outgrows
    the cap splits in two and a block emptied by a merge is dropped; only
    the first block is ever empty, and only before the first access.
    Every start time is the float the flat two-list schedule returns; that
    schedule is kept as the oracle in ``tests/test_device_sim.py``.
    """

    def __init__(self) -> None:
        self._bounds: List[float] = []
        self._start_blocks: List[List[float]] = [[]]
        self._end_blocks: List[List[float]] = [[]]

    def schedule(self, issue_ns: float, occupancy_ns: float) -> float:
        """Reserve ``occupancy_ns`` at/after ``issue_ns``; returns start."""
        bounds = self._bounds
        candidate = issue_ns
        block = bisect.bisect_right(bounds, candidate)
        starts = self._start_blocks[block]
        ends = self._end_blocks[block]
        index = bisect.bisect_left(starts, candidate)
        # The previous run may still cover the candidate time. At index 0
        # of a later block the start equals the candidate, so the previous
        # block's last run ends before it.
        if index and ends[index - 1] > candidate:
            candidate = ends[index - 1]
        count = len(starts)
        last_block = len(bounds)
        # Runs are disjoint and apart, so the next run's end is always past
        # the candidate: stepping over a run moves the candidate to its end.
        while True:
            while index < count and starts[index] - candidate < occupancy_ns:
                candidate = ends[index]
                index += 1
            if (
                index < count
                or block == last_block
                or bounds[block] - candidate >= occupancy_ns
            ):
                break
            block += 1
            starts = self._start_blocks[block]
            ends = self._end_blocks[block]
            count = len(starts)
            index = 0
        # Past the scan, index 0 only occurs in the first block: a later
        # block's first run always starts before the candidate can fit.
        finish = candidate + occupancy_ns
        if index < count:
            joins_next = finish >= starts[index]
            if index and ends[index - 1] >= candidate:
                if joins_next:
                    ends[index - 1] = ends[index]
                    del starts[index]
                    del ends[index]
                else:
                    ends[index - 1] = finish
                return candidate
            if joins_next:
                starts[index] = candidate
                return candidate
        else:
            # The next run, if any, opens the following block.
            joins_next = block < last_block and finish >= bounds[block]
            if index and ends[index - 1] >= candidate:
                if not joins_next:
                    ends[index - 1] = finish
                    return candidate
                next_starts = self._start_blocks[block + 1]
                next_ends = self._end_blocks[block + 1]
                ends[index - 1] = next_ends[0]
                if len(next_starts) == 1:
                    del self._start_blocks[block + 1]
                    del self._end_blocks[block + 1]
                    del bounds[block]
                else:
                    del next_starts[0]
                    del next_ends[0]
                    bounds[block] = next_starts[0]
                return candidate
            if joins_next:
                self._start_blocks[block + 1][0] = candidate
                bounds[block] = candidate
                return candidate
        starts.insert(index, candidate)
        ends.insert(index, finish)
        if count >= BLOCK_RUNS:
            half = (count + 1) // 2
            self._start_blocks.insert(block + 1, starts[half:])
            self._end_blocks.insert(block + 1, ends[half:])
            bounds.insert(block, starts[half])
            del starts[half:]
            del ends[half:]
        return candidate


class DRAMModel:
    """Channel-interleaved, bandwidth-limited DRAM with fixed base latency.

    ``out_of_order=True`` replaces the scalar per-channel "next free" time
    with an interval schedule so accesses issued with earlier timestamps
    than already-scheduled traffic can use earlier channel gaps — required
    when independently-timed operations share one memory system (see
    :mod:`repro.cereal.device_sim`).
    """

    def __init__(
        self, config: DRAMConfig | None = None, out_of_order: bool = False
    ):
        self.config = config or DRAMConfig()
        self.out_of_order = out_of_order
        # Per channel: the in-order "next free" time, or (out of order) the
        # interval schedule. Requesters step these directly.
        self.channel_free_ns: List[float] = [0.0] * self.config.channels
        self.interval_channels: Optional[List[_IntervalChannel]] = (
            [_IntervalChannel() for _ in range(self.config.channels)]
            if out_of_order
            else None
        )
        self.stats = DRAMStats()

    def reset(self) -> None:
        self.channel_free_ns = [0.0] * self.config.channels
        if self.out_of_order:
            self.interval_channels = [
                _IntervalChannel() for _ in range(self.config.channels)
            ]
        self.stats = DRAMStats()

    def occupancy_ns(self, length: int) -> float:
        """Channel busy time to move ``length`` bytes."""
        return length / self.config.channel_bandwidth_bytes_per_sec * 1e9
