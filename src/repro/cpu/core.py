"""Analytical core model: work profile + cache stats -> time.

Why S/D is slow on CPUs (paper Section III): the object-graph walk issues
*dependent* indirect loads, so the core's bounded instruction window and
load-store queue expose only a little memory-level parallelism; random DRAM
misses therefore serialize, IPC collapses toward 1, and bandwidth
utilization stays in single digits. The model captures exactly that:

    cycles = instructions / base_ipc                      (compute)
           + l2_hits  x l2_latency  x overlap_l2          (near misses)
           + l3_hits  x l3_latency  x overlap_l3
           + random_misses x dram_latency_cycles / MLP    (the bottleneck)
           + sequential_bytes bandwidth time              (prefetched streams)

``MLP`` comes from the serializer's work profile (how chained its loads
are), clamped by the core's outstanding-miss limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import DRAMConfig, HostCPUConfig
from repro.cpu.cache import CacheStats
from repro.formats.base import WorkProfile

# Fractions of a hit's latency that the OoO window fails to hide.
_L2_EXPOSED = 0.25
_L3_EXPOSED = 0.45
# Per-core streaming bandwidth: next-line prefetchers on one core sustain a
# fraction of the socket peak.
_CORE_STREAM_BANDWIDTH_FRACTION = 0.25


@dataclass
class CPUTimingResult:
    """Modelled perf-counter readings for one software S/D call."""

    time_ns: float
    cycles: float
    instructions: int
    compute_cycles: float
    l2_stall_cycles: float
    l3_stall_cycles: float
    random_miss_cycles: float
    stream_cycles: float
    llc_miss_rate: float
    llc_misses: int
    dram_bytes: int
    bandwidth_utilization: float
    effective_mlp: float

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles


class CPUCostModel:
    """Combines a work profile and cache stats into a timing result."""

    def __init__(
        self,
        host: Optional[HostCPUConfig] = None,
        dram: Optional[DRAMConfig] = None,
    ):
        self.host = host or HostCPUConfig()
        self.dram = dram or DRAMConfig()

    def estimate(
        self, profile: WorkProfile, cache_stats: CacheStats
    ) -> CPUTimingResult:
        host = self.host
        clock_hz = host.clock_ghz * 1e9
        dram_latency_cycles = self.dram.zero_load_latency_ns * host.clock_ghz

        mlp = min(max(profile.mlp, 1.0), float(host.max_outstanding_misses))

        compute = profile.instructions / host.base_ipc
        l2_stalls = cache_stats.l2_hits * host.l2.latency_cycles * _L2_EXPOSED
        l3_stalls = cache_stats.l3_hits * host.l3.latency_cycles * _L3_EXPOSED
        random_stalls = (
            cache_stats.random_misses * dram_latency_cycles / mlp
        )

        line = self.host.l1.line_bytes
        stream_bytes = cache_stats.sequential_misses * line
        core_stream_bw = (
            self.dram.peak_bandwidth_bytes_per_sec * _CORE_STREAM_BANDWIDTH_FRACTION
        )
        stream_cycles = stream_bytes / core_stream_bw * clock_hz

        cycles = compute + l2_stalls + l3_stalls + random_stalls + stream_cycles

        dram_bytes = cache_stats.dram_bytes(line)
        # Physical floor: one core cannot move its DRAM traffic faster than
        # its streaming bandwidth, regardless of how little it computes.
        floor_cycles = dram_bytes / core_stream_bw * clock_hz
        cycles = max(cycles, floor_cycles)
        time_ns = cycles / host.clock_ghz
        if time_ns > 0:
            achieved = dram_bytes / (time_ns * 1e-9)
            utilization = achieved / self.dram.peak_bandwidth_bytes_per_sec
        else:
            utilization = 0.0

        return CPUTimingResult(
            time_ns=time_ns,
            cycles=cycles,
            instructions=profile.instructions,
            compute_cycles=compute,
            l2_stall_cycles=l2_stalls,
            l3_stall_cycles=l3_stalls,
            random_miss_cycles=random_stalls,
            stream_cycles=stream_cycles,
            llc_miss_rate=cache_stats.llc_miss_rate,
            llc_misses=cache_stats.dram_accesses,
            dram_bytes=dram_bytes,
            bandwidth_utilization=min(1.0, utilization),
            effective_mlp=mlp,
        )
