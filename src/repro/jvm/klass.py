"""Klass descriptors and the klass registry (simulated metaspace).

A *klass* is HotSpot's type descriptor: it records the object layout —
which 8 B slots hold references — and the total object size (paper
Section II). The Cereal serialization unit fetches this metadata through the
klass pointer in every object header to build the layout bitmap.

Two kinds of klass exist:

* :class:`InstanceKlass` — ordinary classes with a fixed field list. Every
  field occupies one 8 B slot (the paper's layout bitmap maps one bit per
  8 B, so slot granularity is the architected unit).
* :class:`ArrayKlass` — arrays. Their size is per-instance: the slot after
  the header stores the length, followed by one slot per element.

The :class:`KlassRegistry` assigns each klass a metaspace address (the value
stored in object headers) and can resolve addresses back to descriptors,
standing in for the JVM metaspace.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import HeapError

SLOT_BYTES = 8
#: Every object header: mark word, klass pointer and the Section V-E
#: Cereal extension word.
HEADER_SLOTS = 3
HEADER_BYTES = HEADER_SLOTS * SLOT_BYTES


class FieldKind(enum.Enum):
    """Java field types. Every kind occupies one 8 B slot in our layout."""

    BOOLEAN = "boolean"
    BYTE = "byte"
    CHAR = "char"
    SHORT = "short"
    INT = "int"
    FLOAT = "float"
    LONG = "long"
    DOUBLE = "double"
    REFERENCE = "reference"

    @property
    def is_reference(self) -> bool:
        return self is FieldKind.REFERENCE

    @property
    def java_width_bytes(self) -> int:
        """The width the *Java* type would occupy (used by compact formats).

        Our heap stores every field in an 8 B slot, but serializers like Kryo
        write primitives at their natural width; this drives serialized-size
        accounting.
        """
        widths = {
            FieldKind.BOOLEAN: 1,
            FieldKind.BYTE: 1,
            FieldKind.CHAR: 2,
            FieldKind.SHORT: 2,
            FieldKind.INT: 4,
            FieldKind.FLOAT: 4,
            FieldKind.LONG: 8,
            FieldKind.DOUBLE: 8,
            FieldKind.REFERENCE: 8,
        }
        return widths[self]


@dataclass(frozen=True)
class FieldDescriptor:
    """One declared field: its name and kind."""

    name: str
    kind: FieldKind

    def __post_init__(self) -> None:
        if not self.name:
            raise HeapError("field name must be non-empty")


class Klass:
    """Common base for type descriptors."""

    def __init__(self, name: str):
        if not name:
            raise HeapError("klass name must be non-empty")
        self.name = name
        self.metaspace_address: Optional[int] = None
        #: Field name -> (byte offset from the object's address, kind),
        #: filled by :class:`InstanceKlass`; arrays have no named fields.
        self.slot_of: Dict[str, Tuple[int, FieldKind]] = {}

    # Subclasses implement the layout protocol used by heap and serializers.

    is_array: bool

    def instance_slots(self, length: int = 0) -> int:
        """Number of field slots (excluding header) for an instance."""
        raise NotImplementedError

    def reference_slot_indices(self, length: int = 0) -> List[int]:
        """Field-slot indices (0-based, after the header) holding references."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class InstanceKlass(Klass):
    """A normal class: named fields, each in one 8 B slot, declaration order."""

    is_array = False

    def __init__(self, name: str, fields: Sequence[FieldDescriptor] = ()):
        super().__init__(name)
        self.fields: Tuple[FieldDescriptor, ...] = tuple(fields)
        seen = set()
        for descriptor in self.fields:
            if descriptor.name in seen:
                raise HeapError(f"duplicate field name {descriptor.name!r} in {name}")
            seen.add(descriptor.name)
        # The slot-address rule, once per klass: slot i lives at
        # HEADER_BYTES + i * SLOT_BYTES from the object's address.
        self.slot_of.update(
            (descriptor.name, (HEADER_BYTES + index * SLOT_BYTES, descriptor.kind))
            for index, descriptor in enumerate(self.fields)
        )

    def instance_slots(self, length: int = 0) -> int:
        return len(self.fields)

    def reference_slot_indices(self, length: int = 0) -> List[int]:
        return [
            index
            for index, descriptor in enumerate(self.fields)
            if descriptor.kind.is_reference
        ]

    def field_index(self, name: str) -> int:
        """Slot index of field ``name`` (raises for unknown names)."""
        try:
            return (self.slot_of[name][0] - HEADER_BYTES) // SLOT_BYTES
        except KeyError:
            raise HeapError(f"class {self.name} has no field {name!r}") from None


class ArrayKlass(Klass):
    """An array class: one length slot, then the packed element storage.

    As in HotSpot, primitive elements are stored at their natural width
    (a ``char[30]`` occupies 60 B of element storage, not 30 slots); the
    storage is rounded up to whole 8 B slots so the layout bitmap's
    slot-granular view (one bit per 8 B, paper Section IV-A) still covers
    the object exactly. Reference elements occupy one slot each, as the
    bitmap must mark each reference individually.
    """

    is_array = True

    def __init__(self, element_kind: FieldKind):
        super().__init__(f"{element_kind.value}[]")
        self.element_kind = element_kind
        self.element_width = element_kind.java_width_bytes

    def instance_slots(self, length: int = 0) -> int:
        if length < 0:
            raise HeapError(f"array length must be non-negative, got {length}")
        if self.element_kind.is_reference:
            return 1 + length  # length slot + one slot per reference
        element_bytes = length * self.element_width
        return 1 + (element_bytes + SLOT_BYTES - 1) // SLOT_BYTES

    def reference_slot_indices(self, length: int = 0) -> List[int]:
        if not self.element_kind.is_reference:
            return []
        return list(range(1, 1 + length))


class KlassRegistry:
    """Simulated metaspace: assigns klass addresses and resolves them back.

    Klass addresses live in a region disjoint from the heap (high addresses)
    so a klass pointer can never be confused with an object reference.
    """

    METASPACE_BASE = 0x7F00_0000_0000
    _KLASS_STRIDE = 0x1000

    def __init__(self) -> None:
        self._klasses: List[Klass] = []
        self._by_name: Dict[str, Klass] = {}

    def register(self, klass: Klass) -> Klass:
        """Assign a metaspace address; re-registering the same name is an error."""
        if klass.name in self._by_name:
            existing = self._by_name[klass.name]
            if existing is klass:
                return klass
            raise HeapError(f"klass name {klass.name!r} already registered")
        address = self.METASPACE_BASE + len(self._klasses) * self._KLASS_STRIDE
        klass.metaspace_address = address
        self._klasses.append(klass)
        self._by_name[klass.name] = klass
        return klass

    def by_name(self, name: str) -> Klass:
        try:
            return self._by_name[name]
        except KeyError:
            raise HeapError(f"no klass named {name!r}") from None

    def array_klass(self, element_kind: FieldKind) -> ArrayKlass:
        """Fetch (or create) the canonical array klass for ``element_kind``."""
        name = f"{element_kind.value}[]"
        if name in self._by_name:
            klass = self._by_name[name]
            assert isinstance(klass, ArrayKlass)
            return klass
        klass = ArrayKlass(element_kind)
        self.register(klass)
        return klass

    def __len__(self) -> int:
        return len(self._klasses)

    def __iter__(self):
        return iter(self._klasses)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name
