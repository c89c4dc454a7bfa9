"""Units and conversions used throughout the simulators.

The cycle-level models express time in *cycles* of a 1 GHz accelerator clock
unless stated otherwise, so one cycle equals one nanosecond by default. The
helpers here keep conversions explicit and centralized.
"""

from __future__ import annotations

# Decimal byte units (used for DRAM bandwidth, matching DDR4 marketing units).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# Binary byte units (used for capacities of caches and hardware tables).
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

# Type aliases to make signatures self-describing.
Cycles = int
Nanoseconds = float

DEFAULT_CLOCK_GHZ = 1.0


def cycles_to_seconds(cycles: Cycles, clock_ghz: float = DEFAULT_CLOCK_GHZ) -> float:
    """Convert a cycle count at ``clock_ghz`` into seconds."""
    if clock_ghz <= 0:
        raise ValueError(f"clock_ghz must be positive, got {clock_ghz}")
    return cycles / (clock_ghz * 1e9)
