"""The simulated JVM heap and object handles.

Objects are laid out exactly as the paper describes (Section II plus the
Section V-E header extension):

    offset 0   mark word            (8 B)
    offset 8   klass pointer        (8 B)
    offset 16  Cereal extension     (8 B)
    then       fields, one 8 B slot each (arrays: length slot + elements)

The Cereal extension word packs the serialization metadata of Section V-E:

    bits [0, 16)   serialization counter (visited tracking)
    bits [16, 24)  serialization unit ID (shared-object reservation)
    bits [24, 56)  relative address of the already-serialized object
    bits [56, 64)  flags (reserved)

References are stored as absolute 64-bit heap addresses; ``0`` is null.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.common.errors import HeapError
from repro.jvm.layout_cache import KlassLayout, layout_of
from repro.jvm.klass import (
    ArrayKlass,
    FieldKind,
    HEADER_BYTES,
    HEADER_SLOTS,
    Klass,
    KlassRegistry,
    SLOT_BYTES,
)
from repro.jvm.markword import MarkWord, fresh_mark_word
from repro.memory.space import MemorySpace

HEAP_BASE = 0x0001_0000
NULL_ADDRESS = 0

_COUNTER_MASK = 0xFFFF
_UNIT_SHIFT = 16
_UNIT_MASK = 0xFF
_RELADDR_SHIFT = 24
_RELADDR_MASK = 0xFFFF_FFFF
_CLAIM_MASK = (1 << (_RELADDR_SHIFT + 32)) - 1  # counter, unit ID, rel. address
_EXTENSION_OFFSET = 16  # the Cereal extension word
# The header words ``allocate`` writes, packed into the zeroed image in one
# call: mark word and klass pointer, plus (arrays) the zero extension word
# and the length slot. Their offsets give the per-word trace records.
_INSTANCE_HEADER = struct.Struct("<QQ")
_ARRAY_HEADER = struct.Struct("<QQQQ")
_INSTANCE_HEADER_OFFSETS = (0, 8)
_ARRAY_HEADER_OFFSETS = (0, 8, HEADER_BYTES)

FieldValue = Union[int, float, bool, "HeapObject", None]

# struct codes matching the scalar element accessors bit-for-bit: reads are
# sign-aware (BYTE/SHORT decode as two's complement), writes mask to the
# stored width first, exactly like set_element.
_ELEMENT_READ_CODES = {
    FieldKind.BOOLEAN: "B",
    FieldKind.BYTE: "b",
    FieldKind.CHAR: "H",
    FieldKind.SHORT: "h",
    FieldKind.INT: "i",
    FieldKind.FLOAT: "f",
    FieldKind.LONG: "q",
    FieldKind.DOUBLE: "d",
}
_ELEMENT_WRITE_CODES = {
    FieldKind.BOOLEAN: "B",
    FieldKind.BYTE: "B",
    FieldKind.CHAR: "H",
    FieldKind.SHORT: "H",
    FieldKind.INT: "i",
    FieldKind.FLOAT: "f",
    FieldKind.LONG: "q",
    FieldKind.DOUBLE: "d",
}


def _reference_word(value: FieldValue) -> int:
    """The heap word a reference slot stores for ``value``."""
    if value is None:
        return NULL_ADDRESS
    if isinstance(value, HeapObject):
        return value.address
    raise HeapError(
        f"reference slot needs HeapObject or None, got {type(value).__name__}"
    )


class Heap:
    """A bump-pointer heap of HotSpot-layout objects in a `MemorySpace`."""

    def __init__(
        self,
        size_bytes: int = 256 * 1024 * 1024,
        registry: Optional[KlassRegistry] = None,
    ):
        self.registry = registry if registry is not None else KlassRegistry()
        self.memory = MemorySpace(HEAP_BASE + size_bytes)
        self._alloc_ptr = HEAP_BASE
        self._objects: Dict[int, HeapObject] = {}
        self._alloc_order: List[int] = []
        self._serialization_epoch = 0
        self.forced_gc_count = 0

    # -- serialization epochs (Section V-E visited tracking) ------------------------

    def next_serialization_epoch(self, counter_bits: int = 16) -> int:
        """Allocate the next visited-tracking epoch for a serialization.

        The per-object counter field is ``counter_bits`` wide; when the
        epoch would overflow it, the runtime forces a collection that
        clears every object's serialization metadata (the paper's
        ``System.gc()`` escape hatch) and restarts from 1.
        """
        limit = (1 << counter_bits) - 1
        self._serialization_epoch += 1
        if self._serialization_epoch > limit:
            for obj in self.objects():
                obj.clear_serialization_metadata()
            self.forced_gc_count += 1
            self._serialization_epoch = 1
        return self._serialization_epoch

    # -- allocation ------------------------------------------------------------------

    def allocate(self, klass: Klass, length: int = 0) -> "HeapObject":
        """Allocate and zero-initialize an object of ``klass``.

        ``length`` is required (and only meaningful) for array klasses.
        """
        if klass.metaspace_address is None:
            self.registry.register(klass)
        if klass.is_array:
            if length < 0:
                raise HeapError(f"array length must be non-negative, got {length}")
        elif length:
            raise HeapError("length is only valid for array klasses")

        slots = klass.instance_slots(length)
        size = HEADER_BYTES + slots * SLOT_BYTES
        address = self._alloc_ptr
        if address + size > self.memory.size_bytes:
            raise HeapError(
                f"heap exhausted allocating {size} bytes at {address:#x}"
            )
        self._alloc_ptr += size

        image = bytearray(size)
        if klass.is_array:
            # Array length lives in the first field slot.
            _ARRAY_HEADER.pack_into(
                image, 0, fresh_mark_word(address), klass.metaspace_address, 0, length
            )
            offsets = _ARRAY_HEADER_OFFSETS
        else:
            _INSTANCE_HEADER.pack_into(
                image, 0, fresh_mark_word(address), klass.metaspace_address
            )
            offsets = _INSTANCE_HEADER_OFFSETS
        # One page op, traced as a zero fill then one 8 B write per word.
        self.memory.write_image(address, image, offsets)

        obj = HeapObject(self, address, klass, length)
        self._objects[address] = obj
        self._alloc_order.append(address)
        return obj

    def new_instance(self, klass_name: str) -> "HeapObject":
        """Allocate an instance of an already-registered class by name."""
        return self.allocate(self.registry.by_name(klass_name))

    def new_array(self, element_kind: FieldKind, length: int) -> "HeapObject":
        """Allocate an array of ``length`` elements of ``element_kind``."""
        return self.allocate(self.registry.array_klass(element_kind), length)

    def reserve(self, num_bytes: int) -> int:
        """Reserve a raw region for a copy-based deserializer (Skyway/Cereal).

        The caller writes complete object images (headers included) into the
        region and then registers each object with :meth:`register_object`.
        Returns the region's base address.
        """
        if num_bytes <= 0:
            raise HeapError(f"reserve needs a positive size, got {num_bytes}")
        address = self._alloc_ptr
        if address + num_bytes > self.memory.size_bytes:
            raise HeapError(f"heap exhausted reserving {num_bytes} bytes")
        self._alloc_ptr += num_bytes
        return address

    def register_object(
        self, address: int, klass: Klass, length: int = 0
    ) -> "HeapObject":
        """Adopt an object image written into a reserved region."""
        if address in self._objects:
            raise HeapError(f"object already registered at {address:#x}")
        if klass.metaspace_address is None:
            self.registry.register(klass)
        obj = HeapObject(self, address, klass, length)
        self._objects[address] = obj
        self._alloc_order.append(address)
        return obj

    # -- object resolution -------------------------------------------------------------

    def object_at(self, address: int) -> "HeapObject":
        """Resolve a heap address to its object handle."""
        try:
            return self._objects[address]
        except KeyError:
            raise HeapError(f"no object at address {address:#x}") from None

    def deref(self, address: int) -> Optional["HeapObject"]:
        """Like :meth:`object_at` but maps the null address to ``None``."""
        if address == NULL_ADDRESS:
            return None
        return self.object_at(address)

    def objects(self) -> Iterator["HeapObject"]:
        """All live objects in allocation order (heap-walk order)."""
        for address in self._alloc_order:
            yield self._objects[address]

    @property
    def used_bytes(self) -> int:
        return self._alloc_ptr - HEAP_BASE

    @property
    def object_count(self) -> int:
        return len(self._objects)

    # -- decode transactions -----------------------------------------------------------

    def checkpoint(self) -> "HeapCheckpoint":
        """Snapshot the allocation frontier for a decode transaction.

        A bump-pointer heap makes rollback cheap: everything a failed
        decode touched lives in the span ``[checkpoint ptr, current ptr)``
        and at the tail of the allocation order, so no per-object undo log
        is needed.
        """
        return HeapCheckpoint(
            alloc_ptr=self._alloc_ptr, alloc_count=len(self._alloc_order)
        )

    def rollback(self, token: "HeapCheckpoint") -> None:
        """Discard every allocation made after ``token`` was taken.

        Restores the allocation pointer, drops the registered objects, and
        zero-fills the abandoned span so a later allocation over the same
        range starts from cleared memory — leaving no observable trace of
        the failed decode.
        """
        if token.alloc_ptr > self._alloc_ptr or token.alloc_count > len(
            self._alloc_order
        ):
            raise HeapError(
                "stale heap checkpoint: allocation frontier is behind it"
            )
        for address in self._alloc_order[token.alloc_count :]:
            del self._objects[address]
        del self._alloc_order[token.alloc_count :]
        span = self._alloc_ptr - token.alloc_ptr
        if span:
            self.memory.fill(token.alloc_ptr, span, 0)
        self._alloc_ptr = token.alloc_ptr


class HeapCheckpoint:
    """Opaque token marking a heap allocation frontier (see ``checkpoint``)."""

    __slots__ = ("alloc_ptr", "alloc_count")

    def __init__(self, alloc_ptr: int, alloc_count: int):
        self.alloc_ptr = alloc_ptr
        self.alloc_count = alloc_count


class HeapObject:
    """Handle to one object on the simulated heap.

    All accessors read and write the backing :class:`MemorySpace`; the handle
    itself stores only the address, klass, and (for arrays) the length — just
    like a real reference.
    """

    __slots__ = ("heap", "address", "klass", "length")

    def __init__(self, heap: Heap, address: int, klass: Klass, length: int = 0):
        self.heap = heap
        self.address = address
        self.klass = klass
        self.length = length

    # -- geometry ---------------------------------------------------------------------

    @property
    def field_slots(self) -> int:
        return self.klass.instance_slots(self.length)

    @property
    def total_slots(self) -> int:
        return HEADER_SLOTS + self.field_slots

    @property
    def size_bytes(self) -> int:
        return self.total_slots * SLOT_BYTES

    @property
    def fields_base(self) -> int:
        return self.address + HEADER_BYTES

    # -- header -----------------------------------------------------------------------

    @property
    def mark_word(self) -> MarkWord:
        return MarkWord.decode(self.heap.memory.read_u64(self.address))

    @mark_word.setter
    def mark_word(self, value: MarkWord) -> None:
        self.heap.memory.write_u64(self.address, value.encode())

    @property
    def identity_hash(self) -> int:
        return self.mark_word.identity_hash

    # -- Cereal header extension (Section V-E) -------------------------------------------

    @property
    def serialization_counter(self) -> int:
        word = self.heap.memory.read_u64(self.address + _EXTENSION_OFFSET)
        return word & _COUNTER_MASK

    @serialization_counter.setter
    def serialization_counter(self, value: int) -> None:
        if not 0 <= value <= _COUNTER_MASK:
            raise HeapError(f"serialization counter out of 16-bit range: {value}")
        addr = self.address + _EXTENSION_OFFSET
        word = self.heap.memory.read_u64(addr)
        self.heap.memory.write_u64(addr, (word & ~_COUNTER_MASK) | value)

    @property
    def serialization_unit_id(self) -> int:
        word = self.heap.memory.read_u64(self.address + _EXTENSION_OFFSET)
        return (word >> _UNIT_SHIFT) & _UNIT_MASK

    @serialization_unit_id.setter
    def serialization_unit_id(self, value: int) -> None:
        if not 0 <= value <= _UNIT_MASK:
            raise HeapError(f"unit ID out of 8-bit range: {value}")
        addr = self.address + _EXTENSION_OFFSET
        word = self.heap.memory.read_u64(addr)
        word = (word & ~(_UNIT_MASK << _UNIT_SHIFT)) | (value << _UNIT_SHIFT)
        self.heap.memory.write_u64(addr, word)

    @property
    def serialized_relative_address(self) -> int:
        word = self.heap.memory.read_u64(self.address + _EXTENSION_OFFSET)
        return (word >> _RELADDR_SHIFT) & _RELADDR_MASK

    @serialized_relative_address.setter
    def serialized_relative_address(self, value: int) -> None:
        if not 0 <= value <= _RELADDR_MASK:
            raise HeapError(f"relative address out of 32-bit range: {value}")
        addr = self.address + _EXTENSION_OFFSET
        word = self.heap.memory.read_u64(addr)
        word = (word & ~(_RELADDR_MASK << _RELADDR_SHIFT)) | (value << _RELADDR_SHIFT)
        self.heap.memory.write_u64(addr, word)

    def serialization_claim(self) -> "tuple[int, int]":
        """``(serialization_counter, serialization_unit_id)`` from one read."""
        word = self.heap.memory.read_u64(self.address + _EXTENSION_OFFSET)
        return word & _COUNTER_MASK, (word >> _UNIT_SHIFT) & _UNIT_MASK

    def claim_serialization(self, counter: int, unit: int, relative: int) -> None:
        """Set counter, unit ID and relative address with one word write.

        Same range checks, in the same order, as the three setters.
        """
        if not 0 <= counter <= _COUNTER_MASK:
            raise HeapError(f"serialization counter out of 16-bit range: {counter}")
        if not 0 <= unit <= _UNIT_MASK:
            raise HeapError(f"unit ID out of 8-bit range: {unit}")
        if not 0 <= relative <= _RELADDR_MASK:
            raise HeapError(f"relative address out of 32-bit range: {relative}")
        addr = self.address + _EXTENSION_OFFSET
        memory = self.heap.memory
        word = memory.read_u64(addr) & ~_CLAIM_MASK
        memory.write_u64(
            addr,
            word | counter | (unit << _UNIT_SHIFT) | (relative << _RELADDR_SHIFT),
        )

    def clear_serialization_metadata(self) -> None:
        """GC-time reset of the extension word (Section V-E)."""
        self.heap.memory.write_u64(self.address + _EXTENSION_OFFSET, 0)

    # -- named field access (instances) --------------------------------------------------------
    #
    # One slot-address rule: field slot i is the word at
    # ``address + HEADER_BYTES + i * SLOT_BYTES``. ``klass.slot_of`` holds
    # each field's byte offset and kind, so an access is one dict lookup and
    # one typed memory access.

    def _no_field(self, field_name: str) -> HeapError:
        if self.klass.is_array:
            return HeapError(f"{self.klass.name} is not an instance class")
        return HeapError(f"class {self.klass.name} has no field {field_name!r}")

    def get(self, field_name: str) -> FieldValue:
        try:
            offset, kind = self.klass.slot_of[field_name]
        except KeyError:
            raise self._no_field(field_name) from None
        address = self.address + offset
        memory = self.heap.memory
        if kind is FieldKind.REFERENCE:
            return self.heap.deref(memory.read_u64(address))
        if kind is FieldKind.DOUBLE or kind is FieldKind.FLOAT:
            return memory.read_f64(address)
        if kind is FieldKind.BOOLEAN:
            return bool(memory.read_u64(address))
        if kind is FieldKind.CHAR:
            return memory.read_u64(address) & 0xFFFF
        return memory.read_i64(address)

    def set(self, field_name: str, value: FieldValue) -> None:
        try:
            offset, kind = self.klass.slot_of[field_name]
        except KeyError:
            raise self._no_field(field_name) from None
        address = self.address + offset
        memory = self.heap.memory
        if kind is FieldKind.REFERENCE:
            memory.write_u64(address, _reference_word(value))
        elif kind is FieldKind.DOUBLE or kind is FieldKind.FLOAT:
            memory.write_f64(address, float(value))  # type: ignore[arg-type]
        elif kind is FieldKind.BOOLEAN:
            memory.write_u64(address, 1 if value else 0)
        elif kind is FieldKind.CHAR:
            memory.write_u64(address, int(value) & 0xFFFF)  # type: ignore[arg-type]
        else:
            memory.write_i64(address, int(value))  # type: ignore[arg-type]

    # -- element access (arrays) -------------------------------------------------------------

    def _array_klass(self) -> ArrayKlass:
        if not isinstance(self.klass, ArrayKlass):
            raise HeapError(f"{self.klass.name} is not an array class")
        return self.klass

    def _element_address(self, klass: ArrayKlass, index: int) -> int:
        """Address of element ``index``, stored at its natural width from
        the slot after the length (a reference is one 8 B slot)."""
        return self.address + HEADER_BYTES + SLOT_BYTES + index * klass.element_width

    def get_elements(self) -> List[FieldValue]:
        """All array elements in index order, via one bulk memory read.

        Value-equivalent to ``[self.get_element(i) for i in
        range(self.length)]`` but costs one memory call for the whole
        array: a primitive array is one traced access and one ``struct``
        unpack; a reference array is one word run, traced as one 8 B read
        per element like ``get_element``.
        """
        klass = self._array_klass()
        kind = klass.element_kind
        if self.length == 0:
            return []
        if kind is FieldKind.REFERENCE:
            deref = self.heap.deref
            words = self.heap.memory.read_word_run(
                self._element_address(klass, 0), self.length
            )
            return [deref(word) for word in words]
        raw = self.heap.memory.read(
            self._element_address(klass, 0), self.length * klass.element_width
        )
        values = list(
            struct.unpack(f"<{self.length}{_ELEMENT_READ_CODES[kind]}", raw)
        )
        if kind is FieldKind.BOOLEAN:
            return [bool(value) for value in values]
        return values

    def set_elements(self, values: Sequence[FieldValue]) -> None:
        """Write every array element via one bulk memory write.

        Every value is checked first, so a bad one writes and traces
        nothing. A reference array is one word run, traced as one 8 B
        write per element like ``set_element``.
        """
        klass = self._array_klass()
        if len(values) != self.length:
            raise HeapError(
                f"expected {self.length} elements, got {len(values)}"
            )
        if self.length == 0:
            return
        kind = klass.element_kind
        if kind is FieldKind.REFERENCE:
            self.heap.memory.write_word_run(
                self._element_address(klass, 0), [_reference_word(v) for v in values]
            )
            return
        if kind is FieldKind.BOOLEAN:
            raw_values = [1 if value else 0 for value in values]
        elif kind is FieldKind.BYTE:
            raw_values = [int(value) & 0xFF for value in values]  # type: ignore[arg-type]
        elif kind in (FieldKind.CHAR, FieldKind.SHORT):
            raw_values = [int(value) & 0xFFFF for value in values]  # type: ignore[arg-type]
        elif kind in (FieldKind.FLOAT, FieldKind.DOUBLE):
            raw_values = [float(value) for value in values]  # type: ignore[arg-type]
        else:
            raw_values = [int(value) for value in values]  # type: ignore[arg-type]
        self.heap.memory.write(
            self._element_address(klass, 0),
            struct.pack(
                f"<{self.length}{_ELEMENT_WRITE_CODES[kind]}", *raw_values
            ),
        )

    def get_element(self, index: int) -> FieldValue:
        klass = self._array_klass()
        if not 0 <= index < self.length:
            raise HeapError(f"array index {index} out of range [0, {self.length})")
        kind = klass.element_kind
        address = self._element_address(klass, index)
        memory = self.heap.memory
        if kind is FieldKind.REFERENCE:
            return self.heap.deref(memory.read_u64(address))
        if kind is FieldKind.BOOLEAN:
            return bool(memory.read_u8(address))
        if kind is FieldKind.BYTE:
            raw = memory.read_u8(address)
            return raw - 256 if raw >= 128 else raw
        if kind is FieldKind.CHAR:
            return memory.read_u16(address)
        if kind is FieldKind.SHORT:
            raw = memory.read_u16(address)
            return raw - 65536 if raw >= 32768 else raw
        if kind is FieldKind.INT:
            return memory.read_i32(address)
        if kind is FieldKind.FLOAT:
            return memory.read_f32(address)
        if kind is FieldKind.DOUBLE:
            return memory.read_f64(address)
        return memory.read_i64(address)  # LONG

    def set_element(self, index: int, value: FieldValue) -> None:
        klass = self._array_klass()
        if not 0 <= index < self.length:
            raise HeapError(f"array index {index} out of range [0, {self.length})")
        kind = klass.element_kind
        address = self._element_address(klass, index)
        memory = self.heap.memory
        if kind is FieldKind.REFERENCE:
            memory.write_u64(address, _reference_word(value))
            return
        if kind is FieldKind.BOOLEAN:
            memory.write_u8(address, 1 if value else 0)
        elif kind is FieldKind.BYTE:
            memory.write_u8(address, int(value) & 0xFF)  # type: ignore[arg-type]
        elif kind in (FieldKind.CHAR, FieldKind.SHORT):
            memory.write_u16(address, int(value) & 0xFFFF)  # type: ignore[arg-type]
        elif kind is FieldKind.INT:
            memory.write_i32(address, int(value))  # type: ignore[arg-type]
        elif kind is FieldKind.FLOAT:
            memory.write_f32(address, float(value))  # type: ignore[arg-type]
        elif kind is FieldKind.DOUBLE:
            memory.write_f64(address, float(value))  # type: ignore[arg-type]
        else:  # LONG
            memory.write_i64(address, int(value))  # type: ignore[arg-type]

    # -- reference enumeration (what serializers traverse) ------------------------------------

    def layout(self) -> KlassLayout:
        """The memoized :class:`KlassLayout` for this object's shape."""
        return layout_of(self.klass, self.length)

    def reference_slots(self) -> List[int]:
        """Field-slot indices holding references (from the klass layout)."""
        return list(self.layout().reference_slots)

    def referenced_objects(self) -> List[Optional["HeapObject"]]:
        """Children in slot order, ``None`` for null references.

        One gather over the reference slots: the trace of one
        :meth:`~repro.memory.space.MemorySpace.read_u64` per slot.
        """
        layout = layout_of(self.klass, self.length)
        if not layout.reference_slots:
            return []
        heap = self.heap
        fields_base = self.address + HEADER_BYTES
        words = heap.memory.gather_words(
            [fields_base + slot * SLOT_BYTES for slot in layout.reference_slots]
        )
        deref = heap.deref
        return [deref(word) for word in words]

    # -- layout bitmap (paper Figure 4) ----------------------------------------------------------

    def layout_bitmap(self) -> List[int]:
        """One bit per 8 B slot of the whole object, header included.

        A set bit marks a reference slot; header slots and value slots are
        zero. The object's size is recoverable as ``len(bitmap) * 8``.
        """
        return self.layout().bitmap_bits()

    def image_words(self) -> tuple:
        """Every 8 B word of the object image (header included), bulk-read."""
        return self.heap.memory.read_words(self.address, self.total_slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f"[{self.length}]" if self.klass.is_array else ""
        return f"<{self.klass.name}{suffix} @ {self.address:#x}>"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HeapObject)
            and other.heap is self.heap
            and other.address == self.address
        )

    def __hash__(self) -> int:
        return hash((id(self.heap), self.address))
