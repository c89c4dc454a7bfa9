"""Reflection cost shims.

Java's built-in serializer extracts fields through ``java.lang.reflect``
(``Class.getField(String name)`` and friends), which performs string lookups
with no type information — a well-known overhead source (paper Section II).
Kryo instead uses ReflectASM-style generated accessors that index fields
directly.

Functionally both read the same slot on our simulated heap; what differs is
the *work done to find it*. These shims perform the real slot access and
simultaneously account that work in a :class:`ReflectionCost`, which the CPU
cost model later converts into instructions and cache accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.jvm.heap import FieldValue, HeapObject
from repro.jvm.klass import InstanceKlass


@dataclass
class ReflectionCost:
    """Operation counters accumulated by the reflection shims."""

    method_invocations: int = 0
    string_comparisons: int = 0
    characters_compared: int = 0
    hash_lookups: int = 0
    indexed_accesses: int = 0
    field_reads: int = 0
    field_writes: int = 0

    def estimated_instructions(self) -> int:
        """Rough x86 instruction estimate for the accounted reflection work.

        Constants follow typical costs: a reflective call is tens of
        instructions of dispatch/boxing; each compared character is a couple
        of instructions; hash probes and indexed accesses are cheap.
        """
        return (
            self.method_invocations * 40
            + self.string_comparisons * 6
            + self.characters_compared * 2
            + self.hash_lookups * 12
            + self.indexed_accesses * 4
            + self.field_reads * 3
            + self.field_writes * 3
        )


class JavaReflection:
    """``java.lang.reflect``-style access: name strings, linear field scans."""

    def __init__(self) -> None:
        self.cost = ReflectionCost()

    def _lookup(self, klass: InstanceKlass, name: str) -> int:
        """Model ``getField(String)``: scan declared fields comparing names."""
        self.cost.method_invocations += 1
        for index, descriptor in enumerate(klass.fields):
            self.cost.string_comparisons += 1
            # Compare up to the first differing character, as strcmp would.
            common = 0
            for a, b in zip(descriptor.name, name):
                common += 1
                if a != b:
                    break
            self.cost.characters_compared += max(1, common)
            if descriptor.name == name:
                return index
        # Field genuinely missing: surface the heap error from field_index.
        return klass.field_index(name)

    def get_field(self, obj: HeapObject, name: str) -> FieldValue:
        klass = obj.klass
        assert isinstance(klass, InstanceKlass)
        self._lookup(klass, name)
        self.cost.field_reads += 1
        return obj.get(name)

    def set_field(self, obj: HeapObject, name: str, value: FieldValue) -> None:
        klass = obj.klass
        assert isinstance(klass, InstanceKlass)
        self._lookup(klass, name)
        self.cost.field_writes += 1
        obj.set(name, value)


class ReflectAsmAccess:
    """ReflectASM-style access: precompiled per-class index tables."""

    def __init__(self) -> None:
        self.cost = ReflectionCost()

    def get_field_by_index(self, obj: HeapObject, index: int) -> FieldValue:
        klass = obj.klass
        assert isinstance(klass, InstanceKlass)
        self.cost.indexed_accesses += 1
        self.cost.field_reads += 1
        return obj.get(klass.fields[index].name)

    def set_field_by_index(
        self, obj: HeapObject, index: int, value: FieldValue
    ) -> None:
        klass = obj.klass
        assert isinstance(klass, InstanceKlass)
        self.cost.indexed_accesses += 1
        self.cost.field_writes += 1
        obj.set(klass.fields[index].name, value)
