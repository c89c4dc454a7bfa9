"""Area, power, and energy model (paper Section VI-E, Table V).

The paper synthesizes the Chisel RTL with a TSMC 40 nm library; per-module
area and average power are published in Table V. We reproduce those numbers
as named constants — they are *inputs* to this model, not re-derived — and
recompute the totals from the per-unit values, exactly as the table does.

Energy (Figure 17) is average power times modelled busy time:

* Cereal S/D energy = (relevant unit-pool power + shared-structure power)
  x operation time from the cycle model;
* CPU (Java S/D, Kryo) energy = an active-power share of the host's 140 W
  TDP x the CPU-modelled S/D time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.config import CerealConfig, HostCPUConfig


@dataclass(frozen=True)
class ModuleSpec:
    """One Table V row: per-instance area/power and the instance count."""

    name: str
    area_mm2: float
    power_mw: float
    count: int

    @property
    def total_power_mw(self) -> float:
        return self.power_mw * self.count


# Table V, verbatim per-unit values (40 nm synthesis results).
CEREAL_MODULE_SPECS: Dict[str, ModuleSpec] = {
    "header_manager": ModuleSpec("Header manager", 0.003, 1.3, 8),
    "reference_array_writer": ModuleSpec("Reference array writer", 0.013, 5.8, 8),
    "object_metadata_manager": ModuleSpec("Object metadata manager", 0.014, 7.6, 8),
    "object_handler": ModuleSpec("Object handler", 0.028, 18.4, 8),
    "layout_manager": ModuleSpec("Layout manager", 0.020, 10.9, 8),
    "block_manager": ModuleSpec("Block manager", 0.217, 81.1, 8),
    "block_reconstructor": ModuleSpec("Block reconstructor", 0.011, 6.9, 32),
    "tlb": ModuleSpec("TLB", 0.282, 2.7, 1),
    "mai": ModuleSpec("MAI", 0.161, 0.8, 1),
    "class_id_table": ModuleSpec("Class ID Table (2KB)", 0.230, 1.2, 1),
    "klass_pointer_table": ModuleSpec("Klass Pointer Table (4KB)", 0.472, 5.3, 1),
}

_SERIALIZER_MODULES = (
    "header_manager",
    "reference_array_writer",
    "object_metadata_manager",
    "object_handler",
)
_DESERIALIZER_MODULES = (
    "layout_manager",
    "block_manager",
    "block_reconstructor",
)
_SHARED_MODULES = ("tlb", "mai", "class_id_table", "klass_pointer_table")

# Fraction of TDP a core-parallel software serializer draws while active.
# S/D is low-IPC, memory-bound code: well below the all-core turbo power.
CPU_ACTIVE_POWER_FRACTION = 1.0


def _scale_count(key: str, config: CerealConfig) -> int:
    """Instance count of module ``key`` for a given accelerator config."""
    per_unit = {
        "header_manager": config.num_serializer_units,
        "reference_array_writer": config.num_serializer_units,
        "object_metadata_manager": config.num_serializer_units,
        "object_handler": config.num_serializer_units,
        "layout_manager": config.num_deserializer_units,
        "block_manager": config.num_deserializer_units,
        "block_reconstructor": config.num_deserializer_units
        * config.block_reconstructors_per_du,
    }
    return per_unit.get(key, CEREAL_MODULE_SPECS[key].count)


def cereal_area_mm2(config: CerealConfig | None = None) -> float:
    """Total accelerator area; 3.857 mm^2 for the default configuration."""
    config = config or CerealConfig()
    return sum(
        spec.area_mm2 * _scale_count(key, config)
        for key, spec in CEREAL_MODULE_SPECS.items()
    )


def cereal_average_power_watts(config: CerealConfig | None = None) -> float:
    """Total average power; ~1.232 W for the default configuration."""
    config = config or CerealConfig()
    total_mw = sum(
        spec.power_mw * _scale_count(key, config)
        for key, spec in CEREAL_MODULE_SPECS.items()
    )
    return total_mw / 1000.0


def serializer_power_watts(config: CerealConfig | None = None) -> float:
    """SU pool power plus shared structures (used for serialize energy)."""
    config = config or CerealConfig()
    modules = _SERIALIZER_MODULES + _SHARED_MODULES
    total_mw = sum(
        CEREAL_MODULE_SPECS[key].power_mw * _scale_count(key, config)
        for key in modules
    )
    return total_mw / 1000.0


def deserializer_power_watts(config: CerealConfig | None = None) -> float:
    """DU pool power plus shared structures (used for deserialize energy)."""
    config = config or CerealConfig()
    modules = _DESERIALIZER_MODULES + _SHARED_MODULES
    total_mw = sum(
        CEREAL_MODULE_SPECS[key].power_mw * _scale_count(key, config)
        for key in modules
    )
    return total_mw / 1000.0


def cereal_energy_joules(
    elapsed_seconds: float,
    operation: str = "serialize",
    config: CerealConfig | None = None,
) -> float:
    """Energy of one Cereal operation: pool average power x elapsed time."""
    if elapsed_seconds < 0:
        raise ValueError("elapsed time must be non-negative")
    if operation == "serialize":
        power = serializer_power_watts(config)
    elif operation == "deserialize":
        power = deserializer_power_watts(config)
    else:
        raise ValueError(f"unknown operation {operation!r}")
    return power * elapsed_seconds


def cpu_energy_joules(
    elapsed_seconds: float, host: HostCPUConfig | None = None
) -> float:
    """Energy drawn by the host CPU running a software serializer."""
    if elapsed_seconds < 0:
        raise ValueError("elapsed time must be non-negative")
    host = host or HostCPUConfig()
    return host.tdp_watts * CPU_ACTIVE_POWER_FRACTION * elapsed_seconds


def area_power_table(config: CerealConfig | None = None) -> Tuple[list, float, float]:
    """Rows of Table V: (rows, total_area_mm2, total_power_mw).

    Each row is (name, unit_area, unit_power_mw, count, total_area,
    total_power_mw).
    """
    config = config or CerealConfig()
    rows = []
    for key, spec in CEREAL_MODULE_SPECS.items():
        count = _scale_count(key, config)
        rows.append(
            (
                spec.name,
                spec.area_mm2,
                spec.power_mw,
                count,
                spec.area_mm2 * count,
                spec.power_mw * count,
            )
        )
    return rows, cereal_area_mm2(config), cereal_average_power_watts(config) * 1000.0
