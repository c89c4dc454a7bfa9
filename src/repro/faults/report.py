"""Per-layer fault accounting.

Every resilience layer records what the injector did to it and what it did
about it. A fault is *injected* when the injector fires, *detected* when
the layer noticed (checksum mismatch, missing transfer, caught
``CapacityError``), *recovered* when a retry / re-execution / fallback made
the operation succeed anyway, and a *fallback* when recovery switched to a
software serializer. ``injected - detected`` therefore counts silent
corruption, and ``detected - recovered`` counts faults that escalated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.metrics import get_registry

#: Canonical layer names, in reporting order.
LAYERS = ("transfer", "executor", "accelerator", "heap")

_COUNTER_NAMES = ("injected", "detected", "recovered", "fallbacks")


@dataclass
class LayerFaultStats:
    """Counters for one resilience layer."""

    injected: int = 0
    detected: int = 0
    recovered: int = 0
    fallbacks: int = 0

    def merge(self, other: "LayerFaultStats") -> None:
        self.injected += other.injected
        self.detected += other.detected
        self.recovered += other.recovered
        self.fallbacks += other.fallbacks

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _COUNTER_NAMES}


@dataclass
class FaultReport:
    """Injected / detected / recovered / fallback counts per layer."""

    layers: Dict[str, LayerFaultStats] = field(default_factory=dict)

    def layer(self, name: str) -> LayerFaultStats:
        if name not in self.layers:
            self.layers[name] = LayerFaultStats()
        return self.layers[name]

    # -- recording ----------------------------------------------------------------
    # Each record_* also bumps the process-wide ``faults.<counter>`` metric
    # labeled by layer, so registry snapshots see fault activity without
    # holding a reference to this (per-run) report.

    def record_injected(self, layer: str, count: int = 1) -> None:
        self.layer(layer).injected += count
        get_registry().counter("faults.injected", layer=layer).inc(count)

    def record_detected(self, layer: str, count: int = 1) -> None:
        self.layer(layer).detected += count
        get_registry().counter("faults.detected", layer=layer).inc(count)

    def record_recovered(self, layer: str, count: int = 1) -> None:
        self.layer(layer).recovered += count
        get_registry().counter("faults.recovered", layer=layer).inc(count)

    def record_fallback(self, layer: str, count: int = 1) -> None:
        self.layer(layer).fallbacks += count
        get_registry().counter("faults.fallbacks", layer=layer).inc(count)

    # -- aggregation ---------------------------------------------------------------

    @property
    def totals(self) -> LayerFaultStats:
        total = LayerFaultStats()
        for stats in self.layers.values():
            total.merge(stats)
        return total

    def merge(self, other: "FaultReport") -> None:
        for name, stats in other.layers.items():
            self.layer(name).merge(stats)

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Stable (sorted) nested dict, for comparisons and persistence."""
        return {
            name: self.layers[name].as_dict() for name in sorted(self.layers)
        }

