"""Execution-time accounting for mini-Spark runs.

The paper breaks application time into computation, GC, I/O, and S/D
(Figure 2); :class:`TimeBreakdown` carries exactly those four buckets plus
the S/D split into serialize/deserialize (needed for Figures 13 and 17's
separate serialize/deserialize energy bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class SDOperation:
    """One serialize or deserialize performed during a run."""

    kind: str  # "serialize" | "deserialize"
    site: str  # "shuffle" | "cache" | "collect" | "broadcast" | "input"
    time_ns: float  # kernel + framework stream path
    stream_bytes: int
    graph_bytes: int
    objects: int
    dram_bytes: int = 0
    kernel_time_ns: float = 0.0  # serializer/accelerator time alone
    #: True when the accelerator faulted and a software serializer ran the
    #: operation instead (graceful degradation).
    fallback: bool = False


@dataclass
class TimeBreakdown:
    """Wall-time decomposition of one application run (single executor lane).

    Mini-Spark models the executor pool as perfectly balanced partitions, so
    per-lane time equals max-lane time; all buckets are per-lane.
    """

    compute_ns: float = 0.0
    gc_ns: float = 0.0
    io_ns: float = 0.0
    serialize_ns: float = 0.0
    deserialize_ns: float = 0.0
    #: Time spent recovering from injected/transient faults: retry backoff,
    #: re-fetch wire time, latency spikes. Zero on a fault-free run.
    retry_ns: float = 0.0
    operations: List[SDOperation] = field(default_factory=list)

    @property
    def sd_ns(self) -> float:
        return self.serialize_ns + self.deserialize_ns

    @property
    def total_ns(self) -> float:
        return (
            self.compute_ns + self.gc_ns + self.io_ns + self.sd_ns
            + self.retry_ns
        )

    @property
    def sd_fraction(self) -> float:
        total = self.total_ns
        if total <= 0:
            return 0.0
        return self.sd_ns / total

    def fractions(self) -> Dict[str, float]:
        total = self.total_ns
        if total <= 0:
            return {
                "compute": 0.0, "gc": 0.0, "io": 0.0, "sd": 0.0, "retry": 0.0
            }
        return {
            "compute": self.compute_ns / total,
            "gc": self.gc_ns / total,
            "io": self.io_ns / total,
            "sd": self.sd_ns / total,
            "retry": self.retry_ns / total,
        }

    def add_operation(self, op: SDOperation) -> None:
        self.operations.append(op)
        if op.kind == "serialize":
            self.serialize_ns += op.time_ns
        else:
            self.deserialize_ns += op.time_ns

    @property
    def fallback_count(self) -> int:
        """Operations the accelerator handed to the software fallback."""
        return sum(1 for op in self.operations if op.fallback)
