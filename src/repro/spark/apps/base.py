"""Shared plumbing for the Spark applications."""

from __future__ import annotations

from dataclasses import dataclass

from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import FieldDescriptor, FieldKind, InstanceKlass, KlassRegistry
from repro.spark.backend import SDBackend
from repro.spark.metrics import TimeBreakdown
from repro.workloads.datagen import DeterministicRandom


@dataclass
class AppResult:
    """Outcome of one application run."""

    name: str
    backend_name: str
    breakdown: TimeBreakdown
    records: int

    @property
    def total_ns(self) -> float:
        return self.breakdown.total_ns

    @property
    def sd_fraction(self) -> float:
        return self.breakdown.sd_fraction


def ensure_klass(registry: KlassRegistry, name: str, fields) -> InstanceKlass:
    """Register an instance klass once; idempotent by name."""
    if name in registry:
        klass = registry.by_name(name)
        assert isinstance(klass, InstanceKlass)
        return klass
    klass = InstanceKlass(name, [FieldDescriptor(n, k) for n, k in fields])
    registry.register(klass)
    return klass


def register_backend_classes(backend: SDBackend, registry: KlassRegistry) -> None:
    """Register every klass with backends that require registration."""
    registration = getattr(backend, "accelerator", None)
    if registration is not None:
        for klass in registry:
            if not registration.registration.is_registered(klass):
                registration.register_class(klass)
        return
    serializer = getattr(backend, "serializer", None)
    serializer_registration = getattr(serializer, "registration", None)
    if serializer_registration is not None:
        for klass in registry:
            serializer_registration.register(klass)


def new_double_array(heap: Heap, rng: DeterministicRandom, length: int) -> HeapObject:
    array = heap.new_array(FieldKind.DOUBLE, length)
    array.set_elements([rng.random() * 2.0 - 1.0 for _ in range(length)])
    return array


def new_long_array(heap: Heap, rng: DeterministicRandom, length: int) -> HeapObject:
    array = heap.new_array(FieldKind.LONG, length)
    array.set_elements([rng.next_u64() >> 16 for _ in range(length)])
    return array
