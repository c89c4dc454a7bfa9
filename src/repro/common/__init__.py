"""Shared low-level utilities: units, bit manipulation, configs, errors.

Everything in this package is dependency-free (standard library only) and is
used by every other subsystem in the reproduction.
"""

from repro.common.errors import (
    CerealError,
    ConfigError,
    FormatError,
    HeapError,
    SimulationError,
)
from repro.common.units import (
    GB,
    KB,
    KIB,
    MB,
    MIB,
)

__all__ = [
    "CerealError",
    "ConfigError",
    "FormatError",
    "HeapError",
    "SimulationError",
    "KB",
    "MB",
    "GB",
    "KIB",
    "MIB",
]
