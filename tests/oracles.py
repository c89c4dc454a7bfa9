"""Deliberately slow reference implementations: the oracles.

Each serializer in :mod:`repro.formats` has exactly one encode and one
decode path, the compiled-plan kernels of :mod:`repro.formats.plans`. The
field-by-field interpreters those kernels replaced live here, as one
subclass per format that overrides only ``serialize`` and ``deserialize``
(for Cereal, ``serialize`` and ``_rebuild``), so header, section and limit
checks stay shared with the product class. Kryo's decode oracle is the
module-level :func:`interpret`, which also decodes ``VersionedKryo``'s
evolved streams over a schema resolution. Beside them sit the per-bit
packing kernels of Section IV-B with their bit-list primitives, the
per-line cache walk the packed-trace replay must match, and the Cereal
units' timing loops one call per item: per-push store buffers, per-call
stream loaders, a ``TLB.translate`` per MAI request and a DRAM access per
32 B block.

The equivalence tests hold the plan kernels byte-identical to these:
streams, sections, work profiles and rebuilt heaps. Do not optimize this
module; its value is that it is obviously correct.

Only the standard library and ``repro`` are imported here, so
``benchmarks/bench_wallclock.py`` can time these oracles with nothing but
numpy installed.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cereal import du as DU
from repro.cereal import su as SU
from repro.cereal.du import DeserializationUnit, DUResult, DUWorkload
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import SerializationUnit, SUResult, SUWorkload
from repro.common.bitutils import bytes_to_bits
from repro.common.errors import (
    FormatError,
    HeapError,
    RegistrationError,
    SimulationError,
    UnknownClassError,
)
from repro.formats import cereal_format as C
from repro.formats import javaser as J
from repro.formats import kryo as K
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    WorkProfile,
)
from repro.formats.cereal_format import CerealSerializer, CerealStreamSections
from repro.formats.javaser import JavaSerializer
from repro.formats.kryo import KryoSerializer
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.packing import PackedArray
from repro.formats.registry import ClassRegistration
from repro.formats.streams import StreamReader, StreamWriter
from repro.formats.varint import (
    INT32_MAX,
    INT32_MIN,
    append_signed_varint,
    int32_range_error,
    read_signed_varint,
)
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject, NULL_ADDRESS
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass
from repro.jvm.klass import HEADER_SLOTS, SLOT_BYTES
from repro.jvm.markword import MarkWord, identity_hash_for
from repro.jvm.reflection import JavaReflection, ReflectAsmAccess
from repro.memory.dram import DRAMModel
from repro.memory.trace import MemoryAccess


class OracleWriter(StreamWriter):
    """:class:`StreamWriter` plus the writes only the oracles make."""

    def write_u32(self, value: int, section: str) -> None:
        self.write_bytes(struct.pack("<I", value), section)

    def write_i64(self, value: int, section: str) -> None:
        self.write_bytes(struct.pack("<q", value), section)

    def write_f64(self, value: float, section: str) -> None:
        self.write_bytes(struct.pack("<d", value), section)

    def write_signed_varint(self, value: int, section: str) -> int:
        """Zig-zag mapped signed varint; returns the encoded length."""
        encoded = bytearray()
        length = append_signed_varint(encoded, value)
        self.write_bytes(encoded, section)
        return length


class OracleReader(StreamReader):
    """:class:`StreamReader` plus the reads only the oracles make."""

    def read_i32(self) -> int:
        return struct.unpack("<i", self.read_bytes(4))[0]

    def read_i64(self) -> int:
        return struct.unpack("<q", self.read_bytes(8))[0]

    def read_f64(self) -> float:
        return struct.unpack("<d", self.read_bytes(8))[0]

    def read_signed_varint(self) -> int:
        value, self._pos = read_signed_varint(self._data, self._pos)
        return value


# -- Java built-in serialization ------------------------------------------------------


class JavaOracle(JavaSerializer):
    """Java S/D through the field-by-field interpreter and reflection shim."""

    def serialize(self, root: HeapObject) -> SerializationResult:
        writer = OracleWriter()
        profile = WorkProfile()
        reflect = JavaReflection()
        handles: Dict[int, int] = {}  # heap address -> stream handle
        class_handles: Dict[str, int] = {}
        next_handle = [0]

        writer.write_u16(J.MAGIC, J._SECTION_META)
        writer.write_u16(J.VERSION, J._SECTION_META)

        def assign_handle() -> int:
            handle = next_handle[0]
            next_handle[0] += 1
            return handle

        def write_class_desc(klass: Klass) -> None:
            existing = class_handles.get(klass.name)
            if existing is not None:
                writer.write_u8(J.TC_REFERENCE, J._SECTION_REFS)
                writer.write_u32(existing, J._SECTION_REFS)
                return
            writer.write_u8(J.TC_CLASSDESC, J._SECTION_META)
            writer.write_utf(klass.name, J._SECTION_TYPES)
            writer.write_u64(J.serial_version_uid(klass), J._SECTION_META)
            writer.write_u8(J.SC_SERIALIZABLE, J._SECTION_META)
            if isinstance(klass, InstanceKlass):
                writer.write_u16(len(klass.fields), J._SECTION_META)
                for descriptor in klass.fields:
                    writer.write_u8(J._TYPE_CODES[descriptor.kind], J._SECTION_META)
                    writer.write_utf(descriptor.name, J._SECTION_TYPES)
                    if descriptor.kind.is_reference:
                        writer.write_utf(J._REFERENCE_TYPE_STRING, J._SECTION_TYPES)
            else:
                assert isinstance(klass, ArrayKlass)
                writer.write_u16(0, J._SECTION_META)
                writer.write_u8(J._TYPE_CODES[klass.element_kind], J._SECTION_META)
            class_handles[klass.name] = assign_handle()
            profile.add_instructions(J._INSTR_PER_CLASSDESC)

        def write_primitive(kind: FieldKind, value) -> None:
            if kind is FieldKind.BOOLEAN:
                writer.write_u8(1 if value else 0, J._SECTION_DATA)
            elif kind is FieldKind.BYTE:
                writer.write_bytes(
                    (int(value) & 0xFF).to_bytes(1, "little"), J._SECTION_DATA
                )
            elif kind is FieldKind.CHAR:
                writer.write_u16(int(value) & 0xFFFF, J._SECTION_DATA)
            elif kind is FieldKind.SHORT:
                writer.write_u16(int(value) & 0xFFFF, J._SECTION_DATA)
            elif kind is FieldKind.INT:
                writer.write_bytes(
                    (int(value) & 0xFFFFFFFF).to_bytes(4, "little"), J._SECTION_DATA
                )
            elif kind is FieldKind.FLOAT:
                writer.write_bytes(struct.pack("<f", float(value)), J._SECTION_DATA)
            elif kind is FieldKind.LONG:
                writer.write_i64(int(value), J._SECTION_DATA)
            elif kind is FieldKind.DOUBLE:
                writer.write_f64(float(value), J._SECTION_DATA)
            else:  # pragma: no cover - guarded by callers
                raise FormatError(f"not a primitive kind: {kind}")
            profile.value_fields += 1
            profile.add_instructions(J._INSTR_PER_PRIMITIVE)

        def emit_object(obj: HeapObject) -> Iterator[Optional[HeapObject]]:
            """Generator writing one object; yields reference children."""
            profile.objects += 1
            profile.add_instructions(J._INSTR_PER_OBJECT)
            profile.aux_random_accesses += J._AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2  # header + klass metadata chase
            if isinstance(obj.klass, ArrayKlass):
                writer.write_u8(J.TC_ARRAY, J._SECTION_META)
                write_class_desc(obj.klass)
                handles[obj.address] = assign_handle()
                writer.write_u32(obj.length, J._SECTION_META)
                if obj.klass.element_kind.is_reference:
                    for index in range(obj.length):
                        profile.reference_fields += 1
                        profile.add_instructions(J._INSTR_PER_REFERENCE)
                        yield obj.get_element(index)  # type: ignore[misc]
                else:
                    # One bulk heap read for the whole element storage.
                    element_kind = obj.klass.element_kind
                    for value in obj.get_elements():
                        write_primitive(element_kind, value)
            else:
                klass = obj.klass
                assert isinstance(klass, InstanceKlass)
                writer.write_u8(J.TC_OBJECT, J._SECTION_META)
                write_class_desc(klass)
                handles[obj.address] = assign_handle()
                for descriptor in klass.fields:
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(J._INSTR_PER_REFERENCE)
                        profile.dependent_loads += 1
                        yield reflect.get_field(obj, descriptor.name)  # type: ignore[misc]
                    else:
                        write_primitive(
                            descriptor.kind, reflect.get_field(obj, descriptor.name)
                        )

        # Iterative driver: keeps the Java recursive write order without
        # Python recursion-depth limits on deep lists.
        stack = [emit_object(root)]
        while stack:
            try:
                child = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if child is None:
                writer.write_u8(J.TC_NULL, J._SECTION_REFS)
            elif child.address in handles:
                writer.write_u8(J.TC_REFERENCE, J._SECTION_REFS)
                writer.write_u32(handles[child.address], J._SECTION_REFS)
            else:
                stack.append(emit_object(child))

        data = writer.getvalue()
        profile.add_instructions(reflect.cost.estimated_instructions())
        profile.add_instructions(len(data) * J._INSTR_PER_STREAM_BYTE)
        profile.bytes_read = ObjectGraph.from_root(root).total_bytes
        profile.bytes_written = len(data)
        stream = SerializedStream(
            format_name=self.name,
            data=data,
            sections=dict(writer.sections),
            object_count=profile.objects,
            graph_bytes=profile.bytes_read,
        )
        stream.check_sections()
        return SerializationResult(stream, profile)

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        limits = resolve_limits(limits)
        limits.check_stream_bytes(len(stream.data))
        reader = OracleReader(stream.data)
        profile = WorkProfile()
        reflect = JavaReflection()
        handle_table: Dict[int, object] = {}  # handle -> HeapObject or Klass
        next_handle = [0]

        if reader.read_u16() != J.MAGIC or reader.read_u16() != J.VERSION:
            raise FormatError("bad Java serialization stream header")

        def assign_handle(value: object) -> None:
            handle_table[next_handle[0]] = value
            next_handle[0] += 1

        def read_class_desc() -> Klass:
            tag = reader.read_u8()
            if tag == J.TC_REFERENCE:
                value = handle_table.get(reader.read_u32())
                if not isinstance(value, Klass):
                    raise FormatError("class-descriptor handle resolves to non-class")
                return value
            if tag != J.TC_CLASSDESC:
                raise FormatError(f"expected class descriptor, got tag {tag:#x}")
            name = reader.read_utf()
            uid = reader.read_u64()
            reader.read_u8()  # flags
            # Resolving a class by name: the expensive string lookup the
            # paper blames for Java S/D type-resolution overhead.
            profile.add_instructions(J._INSTR_PER_CLASSDESC + len(name) * 2)
            try:
                klass = heap.registry.by_name(name)
            except HeapError:
                raise UnknownClassError(
                    repr(name),
                    detail="class name not registered",
                    offset=reader.position,
                ) from None
            if J.serial_version_uid(klass) != uid:
                raise FormatError(f"serialVersionUID mismatch for {name}")
            if isinstance(klass, InstanceKlass):
                nfields = reader.read_u16()
                if nfields != len(klass.fields):
                    raise FormatError(f"field count mismatch for {name}")
                for descriptor in klass.fields:
                    code = reader.read_u8()
                    if J._KIND_BY_CODE.get(code) is not descriptor.kind:
                        raise FormatError(f"field kind mismatch in {name}")
                    reader.read_utf()  # field name
                    if descriptor.kind.is_reference:
                        reader.read_utf()  # type string
            else:
                reader.read_u16()
                reader.read_u8()
            assign_handle(klass)
            return klass

        def read_primitive(kind: FieldKind):
            if kind is FieldKind.BOOLEAN:
                return bool(reader.read_u8())
            if kind is FieldKind.BYTE:
                raw = reader.read_u8()
                return raw - 256 if raw >= 128 else raw
            if kind is FieldKind.CHAR:
                return reader.read_u16()
            if kind is FieldKind.SHORT:
                raw = reader.read_u16()
                return raw - 65536 if raw >= 32768 else raw
            if kind is FieldKind.INT:
                return reader.read_i32()
            if kind is FieldKind.FLOAT:
                return struct.unpack("<f", reader.read_bytes(4))[0]
            if kind is FieldKind.LONG:
                return reader.read_i64()
            if kind is FieldKind.DOUBLE:
                return reader.read_f64()
            raise FormatError(f"not a primitive kind: {kind}")

        def parse_object(tag: int, holder: list):
            """Generator parsing one object; yields to request a reference.

            Appends the allocated object to ``holder`` so the driver can
            recover it when the generator finishes.
            """
            klass = read_class_desc()
            limits.check_objects(profile.objects + 1)
            profile.objects += 1
            profile.allocations += 1
            profile.add_instructions(J._INSTR_PER_OBJECT_DESER + J._INSTR_PER_ALLOC)
            profile.aux_random_accesses += J._AUX_ACCESSES_PER_OBJECT_DESER
            if tag == J.TC_ARRAY:
                if not isinstance(klass, ArrayKlass):
                    raise FormatError("TC_ARRAY with non-array class")
                length = reader.read_u32()
                limits.check_array_length(length)
                obj = heap.allocate(klass, length)
                assign_handle(obj)
                holder.append(obj)
                if klass.element_kind.is_reference:
                    for index in range(length):
                        profile.reference_fields += 1
                        profile.add_instructions(J._INSTR_PER_FIELD_DESER)
                        child = yield obj
                        obj.set_element(index, child)
                else:
                    # Decode the whole element run, then commit it with one
                    # bulk heap write.
                    values = []
                    for index in range(length):
                        values.append(read_primitive(klass.element_kind))
                        profile.value_fields += 1
                        # Primitive array elements bypass reflection.
                        profile.add_instructions(J._INSTR_PER_PRIMITIVE // 4)
                    obj.set_elements(values)
            else:
                if not isinstance(klass, InstanceKlass):
                    raise FormatError("TC_OBJECT with array class")
                obj = heap.allocate(klass)
                assign_handle(obj)
                holder.append(obj)
                for descriptor in klass.fields:
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(J._INSTR_PER_FIELD_DESER)
                        child = yield obj
                        reflect.set_field(obj, descriptor.name, child)
                    else:
                        value = read_primitive(descriptor.kind)
                        reflect.set_field(obj, descriptor.name, value)
                        profile.value_fields += 1
                        profile.add_instructions(J._INSTR_PER_FIELD_DESER)
            return

        def start_content():
            """Read a content tag; returns ('value', v) or ('frame', gen, holder)."""
            tag = reader.read_u8()
            if tag == J.TC_NULL:
                return ("value", None, None)
            if tag == J.TC_REFERENCE:
                value = handle_table.get(reader.read_u32())
                if not isinstance(value, HeapObject):
                    raise FormatError("object handle resolves to non-object")
                return ("value", value, None)
            if tag in (J.TC_OBJECT, J.TC_ARRAY):
                holder: list = []
                return ("frame", parse_object(tag, holder), holder)
            raise FormatError(f"unexpected tag {tag:#x}")

        _UNSET = object()
        kind, payload, holder = start_content()
        if kind == "value":
            raise FormatError("stream root must be an object")
        stack = [(payload, holder)]
        pending = _UNSET
        root_obj: Optional[HeapObject] = None
        while stack:
            gen, gen_holder = stack[-1]
            try:
                if pending is _UNSET:
                    next(gen)
                else:
                    value, pending = pending, _UNSET
                    gen.send(value)
                # The generator requested one reference value.
                kind, payload, holder = start_content()
                if kind == "value":
                    pending = payload
                else:
                    limits.check_depth(len(stack) + 1)
                    stack.append((payload, holder))
            except StopIteration:
                stack.pop()
                if not gen_holder:
                    raise FormatError("object frame finished without allocating")
                finished = gen_holder[0]
                pending = finished
                root_obj = finished  # last finished frame is the root

        if not isinstance(root_obj, HeapObject):
            raise FormatError("deserialization produced no root object")
        profile.bytes_read = len(stream.data)
        profile.bytes_written = ObjectGraph.from_root(root_obj).total_bytes
        profile.add_instructions(reflect.cost.estimated_instructions())
        profile.add_instructions(len(stream.data) * J._INSTR_PER_STREAM_BYTE)
        return DeserializationResult(root_obj, profile)


# -- Kryo -----------------------------------------------------------------------------


#: Per writer field, in writer order: the reader's field index (``None``
#: when the reader dropped the field) and the writer's field kind.
FieldTable = List[Tuple[Klass, Tuple[Tuple[Optional[int], FieldKind], ...]]]


def interpret(
    stream: SerializedStream,
    heap: Heap,
    limits: DecodeLimits,
    field_table: FieldTable,
) -> DeserializationResult:
    """Field-by-field Kryo decode: the oracle the Kryo plan decoder is
    checked against, with :func:`identity_field_table` and with the field
    table of a ``VersionedKryo`` schema resolution.

    ``field_table[class_id]`` is ``(reader klass, fields)``. The stream's
    layout comes from the writer's fields; values land in the reader
    klass's slots. A field the reader dropped is still parsed (reference
    subtrees included, their objects joining the back-reference table and
    staying on the heap, unreachable) so object numbering matches the
    writer's exactly.
    """
    limits.check_stream_bytes(len(stream.data))
    reader = OracleReader(stream.data)
    profile = WorkProfile()
    asm = ReflectAsmAccess()
    objects_by_id: list = []

    def read_primitive(kind: FieldKind):
        if kind is FieldKind.BOOLEAN:
            return bool(reader.read_u8())
        if kind is FieldKind.BYTE:
            raw = reader.read_u8()
            return raw - 256 if raw >= 128 else raw
        if kind in (FieldKind.CHAR, FieldKind.SHORT):
            raw = reader.read_u16()
            if kind is FieldKind.SHORT and raw >= 32768:
                return raw - 65536
            return raw
        if kind is FieldKind.INT:
            value = reader.read_signed_varint()
            if not INT32_MIN <= value <= INT32_MAX:
                raise int32_range_error(value)
            return value
        if kind is FieldKind.LONG:
            return reader.read_signed_varint()
        if kind is FieldKind.FLOAT:
            return struct.unpack("<f", reader.read_bytes(4))[0]
        if kind is FieldKind.DOUBLE:
            return reader.read_f64()
        raise FormatError(f"not a primitive kind: {kind}")

    def parse_object(mark: int):
        class_id = reader.read_varint()
        if class_id >= len(field_table):
            raise UnknownClassError(
                class_id,
                detail=f"registry holds {len(field_table)} classes",
                offset=reader.position,
            )
        klass, fields = field_table[class_id]
        limits.check_objects(len(objects_by_id) + 1)
        profile.objects += 1
        profile.allocations += 1
        profile.add_instructions(K._INSTR_PER_OBJECT_DESER + K._INSTR_PER_ALLOC)
        profile.aux_random_accesses += K._AUX_ACCESSES_PER_OBJECT_DESER
        if mark == K.MARK_ARRAY:
            if not isinstance(klass, ArrayKlass):
                raise FormatError("array marker with non-array class ID")
            length = reader.read_varint()
            limits.check_array_length(length)
            obj = heap.allocate(klass, length)
            objects_by_id.append(obj)
            if klass.element_kind.is_reference:
                for index in range(length):
                    profile.reference_fields += 1
                    profile.add_instructions(K._INSTR_PER_FIELD_DESER)
                    child = yield obj
                    obj.set_element(index, child)
            else:
                # Decode the run, then one bulk heap write.
                values = []
                for index in range(length):
                    values.append(read_primitive(klass.element_kind))
                    profile.value_fields += 1
                    profile.add_instructions(K._INSTR_PER_FIELD_DESER)
                obj.set_elements(values)
        else:
            if not isinstance(klass, InstanceKlass):
                raise FormatError("object marker with array class ID")
            obj = heap.allocate(klass)
            objects_by_id.append(obj)
            for index, kind in fields:
                if kind.is_reference:
                    profile.reference_fields += 1
                    profile.add_instructions(K._INSTR_PER_FIELD_DESER)
                    value = yield obj
                else:
                    value = read_primitive(kind)
                    profile.value_fields += 1
                    profile.add_instructions(K._INSTR_PER_FIELD_DESER)
                if index is not None:
                    asm.set_field_by_index(obj, index, value)
        return

    def start_content():
        mark = reader.read_u8()
        if mark == K.MARK_NULL:
            return ("value", None)
        if mark == K.MARK_BACKREF:
            object_id = reader.read_varint()
            if object_id >= len(objects_by_id):
                raise FormatError(f"forward object reference {object_id}")
            return ("value", objects_by_id[object_id])
        if mark in (K.MARK_OBJECT, K.MARK_ARRAY):
            return ("frame", parse_object(mark))
        raise FormatError(f"unexpected marker {mark:#x}")

    _UNSET = object()
    kind, payload = start_content()
    if kind == "value":
        raise FormatError("stream root must be an object")
    stack = [payload]
    object_count_at_frame = [len(objects_by_id)]
    pending = _UNSET
    root_obj: Optional[HeapObject] = None
    while stack:
        gen = stack[-1]
        try:
            if pending is _UNSET:
                next(gen)
            else:
                value, pending = pending, _UNSET
                gen.send(value)
            kind, payload = start_content()
            if kind == "value":
                pending = payload
            else:
                limits.check_depth(len(stack) + 1)
                stack.append(payload)
                object_count_at_frame.append(len(objects_by_id))
        except StopIteration:
            stack.pop()
            frame_first = object_count_at_frame.pop()
            finished = objects_by_id[frame_first]
            pending = finished
            root_obj = finished

    if not isinstance(root_obj, HeapObject):
        raise FormatError("deserialization produced no root object")
    profile.bytes_read = len(stream.data)
    profile.bytes_written = ObjectGraph.from_root(root_obj).total_bytes
    profile.add_instructions(asm.cost.estimated_instructions())
    profile.add_instructions(len(stream.data) * K._INSTR_PER_STREAM_BYTE)
    return DeserializationResult(root_obj, profile)


def identity_field_table(registration: ClassRegistration) -> FieldTable:
    """The field table that decodes a stream with the writer's own
    registration: every class ID to its klass, every field to itself."""
    return [
        (
            klass,
            ()
            if klass.is_array
            else tuple(
                (index, descriptor.kind)
                for index, descriptor in enumerate(klass.fields)
            ),
        )
        for klass in registration
    ]


class KryoOracle(KryoSerializer):
    """Kryo through the field-by-field encoder and :func:`interpret`."""

    def serialize(self, root: HeapObject) -> SerializationResult:
        writer = OracleWriter()
        profile = WorkProfile()
        asm = ReflectAsmAccess()
        object_ids: Dict[int, int] = {}

        def write_primitive(kind: FieldKind, value) -> None:
            if kind is FieldKind.BOOLEAN:
                writer.write_u8(1 if value else 0, K._SECTION_DATA)
            elif kind is FieldKind.BYTE:
                writer.write_bytes(
                    (int(value) & 0xFF).to_bytes(1, "little"), K._SECTION_DATA
                )
            elif kind in (FieldKind.CHAR, FieldKind.SHORT):
                writer.write_u16(int(value) & 0xFFFF, K._SECTION_DATA)
            elif kind in (FieldKind.INT, FieldKind.LONG):
                writer.write_signed_varint(int(value), K._SECTION_DATA)
            elif kind is FieldKind.FLOAT:
                writer.write_bytes(struct.pack("<f", float(value)), K._SECTION_DATA)
            elif kind is FieldKind.DOUBLE:
                writer.write_f64(float(value), K._SECTION_DATA)
            else:  # pragma: no cover - guarded by callers
                raise FormatError(f"not a primitive kind: {kind}")
            profile.value_fields += 1
            profile.add_instructions(K._INSTR_PER_PRIMITIVE)

        def emit_object(obj: HeapObject):
            profile.objects += 1
            profile.add_instructions(K._INSTR_PER_OBJECT)
            profile.aux_random_accesses += K._AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2
            class_id = self.registration.id_of(obj.klass)
            object_ids[obj.address] = len(object_ids)
            if isinstance(obj.klass, ArrayKlass):
                writer.write_u8(K.MARK_ARRAY, K._SECTION_MARKS)
                writer.write_varint(class_id, K._SECTION_CLASS_IDS)
                writer.write_varint(obj.length, K._SECTION_DATA)
                if obj.klass.element_kind.is_reference:
                    for index in range(obj.length):
                        profile.reference_fields += 1
                        profile.add_instructions(K._INSTR_PER_REFERENCE)
                        yield obj.get_element(index)
                else:
                    # One bulk heap read for the whole element storage.
                    element_kind = obj.klass.element_kind
                    for value in obj.get_elements():
                        write_primitive(element_kind, value)
            else:
                klass = obj.klass
                assert isinstance(klass, InstanceKlass)
                writer.write_u8(K.MARK_OBJECT, K._SECTION_MARKS)
                writer.write_varint(class_id, K._SECTION_CLASS_IDS)
                for index, descriptor in enumerate(klass.fields):
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(K._INSTR_PER_REFERENCE)
                        profile.dependent_loads += 1
                        yield asm.get_field_by_index(obj, index)
                    else:
                        write_primitive(
                            descriptor.kind, asm.get_field_by_index(obj, index)
                        )

        stack = [emit_object(root)]
        while stack:
            try:
                child = next(stack[-1])
            except StopIteration:
                stack.pop()
                continue
            if child is None:
                writer.write_u8(K.MARK_NULL, K._SECTION_MARKS)
            elif child.address in object_ids:
                writer.write_u8(K.MARK_BACKREF, K._SECTION_MARKS)
                writer.write_varint(object_ids[child.address], K._SECTION_REFS)
            else:
                stack.append(emit_object(child))

        data = writer.getvalue()
        profile.add_instructions(asm.cost.estimated_instructions())
        profile.add_instructions(len(data) * K._INSTR_PER_STREAM_BYTE)
        profile.bytes_read = ObjectGraph.from_root(root).total_bytes
        profile.bytes_written = len(data)
        stream = SerializedStream(
            format_name=self.name,
            data=data,
            sections=dict(writer.sections),
            object_count=profile.objects,
            graph_bytes=profile.bytes_read,
        )
        stream.check_sections()
        return SerializationResult(stream, profile)

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        return interpret(
            stream, heap, resolve_limits(limits),
            identity_field_table(self.registration),
        )


# -- Cereal ---------------------------------------------------------------------------


class CerealOracle(CerealSerializer):
    """Cereal through the per-object encoder and the per-slot rebuild."""

    def serialize(self, root: HeapObject) -> SerializationResult:
        graph = ObjectGraph.from_root(root, order="bfs")
        profile = WorkProfile()
        memory = root.heap.memory

        value_words: List[int] = []
        reference_values: List[int] = []
        bitmap_words: List[tuple] = []
        relative_address = graph.relative_address

        for obj, layout in zip(graph.objects, graph.layouts):
            profile.objects += 1
            profile.add_instructions(C._INSTR_PER_OBJECT)
            if not self.registration.is_registered(obj.klass):
                raise RegistrationError(
                    f"class {obj.klass.name!r} not registered with Cereal; "
                    f"call register_class() first"
                )
            class_id = self.registration.id_of(obj.klass)
            bitmap_words.append((layout.bitmap_word, layout.bitmap_width))
            words = memory.read_words(obj.address, layout.total_slots)
            profile.add_instructions(C._INSTR_PER_SLOT * layout.total_slots)

            if not self.strip_mark_word:
                value_words.append(words[C._MARK_SLOT])
            value_words.append(class_id)
            value_words.append(0)  # zeroed extension
            reference_slot_set = layout.reference_slot_set
            for field_slot in range(layout.field_slots):
                raw = words[HEADER_SLOTS + field_slot]
                if field_slot in reference_slot_set:
                    profile.reference_fields += 1
                    if raw == NULL_ADDRESS:
                        reference_values.append(0)
                    else:
                        reference_values.append(relative_address[raw] + 1)
                else:
                    profile.value_fields += 1
                    value_words.append(raw)

        # Frame the three gathered structures into a stream.
        value_bytes = struct.pack(f"<{len(value_words)}Q", *value_words)
        out = bytearray()
        out += self._stream_header(graph.total_bytes, graph.object_count)
        out += struct.pack("<I", len(value_bytes))
        out += value_bytes
        sections = {C.SECTION_META: 13, C.SECTION_VALUES: len(value_bytes)}
        for part, section in self._trailer(reference_values, bitmap_words):
            out += part
            sections[section] = sections.get(section, 0) + len(part)
        data = bytes(out)
        profile.bytes_read = graph.total_bytes
        profile.bytes_written = len(data)
        profile.add_instructions(len(data) // 4)
        stream = SerializedStream(
            format_name=self.name,
            data=data,
            sections=sections,
            object_count=graph.object_count,
            graph_bytes=graph.total_bytes,
        )
        stream.check_sections()
        return SerializationResult(stream, profile)

    def _rebuild(
        self,
        sections: CerealStreamSections,
        references: List[int],
        bitmap_items: List[tuple],
        heap: Heap,
        base: int,
        profile: WorkProfile,
    ) -> HeapObject:
        """Classify every slot of every object against its bitmap, one at
        a time."""
        memory = heap.memory
        value_words_in = sections.value_words
        value_count = len(value_words_in)

        value_cursor = 0
        ref_cursor = 0
        offset = 0
        root_obj: Optional[HeapObject] = None

        for bitmap_word, bitmap_width in bitmap_items:
            address = base + offset
            profile.objects += 1
            profile.allocations += 1
            profile.add_instructions(C._INSTR_PER_OBJECT)
            if bitmap_width < HEADER_SLOTS:
                raise FormatError("layout bitmap smaller than the object header")
            if offset + bitmap_width * SLOT_BYTES > sections.graph_total_bytes:
                raise FormatError(
                    f"object at image offset {offset} extends past the "
                    f"{sections.graph_total_bytes}-byte image"
                )
            klass = None
            # Assemble the whole object image in Python, then commit it to
            # simulated memory with one bulk word write.
            slot_words = []
            for slot in range(bitmap_width):
                profile.add_instructions(C._INSTR_PER_SLOT)
                if (bitmap_word >> (bitmap_width - 1 - slot)) & 1:
                    if ref_cursor >= len(references):
                        raise FormatError("reference array exhausted mid-object")
                    relative = references[ref_cursor]
                    ref_cursor += 1
                    profile.reference_fields += 1
                    if relative == 0:
                        slot_words.append(NULL_ADDRESS)
                    else:
                        slot_words.append(base + relative - 1)
                    continue
                if slot == C._MARK_SLOT and sections.mark_stripped:
                    # Header strip: rebuild the mark word at the receiver.
                    word = MarkWord(
                        identity_hash=identity_hash_for(address)
                    ).encode()
                    profile.add_instructions(C._INSTR_PER_MARK_REBUILD)
                elif value_cursor < value_count:
                    word = value_words_in[value_cursor]
                    value_cursor += 1
                else:
                    raise FormatError("value array exhausted mid-object")
                if slot == C._KLASS_SLOT:
                    # Class ID Table lookup: class ID -> klass address.
                    klass = self.registration.klass_of(word)
                    assert klass.metaspace_address is not None
                    slot_words.append(klass.metaspace_address)
                else:
                    slot_words.append(word)
                profile.value_fields += 1
            memory.write_words(address, slot_words)

            if klass is None:
                raise FormatError("object bitmap marks the klass slot as reference")
            length = 0
            if isinstance(klass, ArrayKlass):
                if bitmap_width <= HEADER_SLOTS:
                    raise FormatError(f"array {klass.name} has no length slot")
                length = slot_words[HEADER_SLOTS]
            obj = heap.register_object(address, klass, length)
            if root_obj is None:
                root_obj = obj
            size = obj.size_bytes
            if size != bitmap_width * SLOT_BYTES:
                raise FormatError(
                    f"bitmap length {bitmap_width} disagrees with object size "
                    f"{size} for {klass.name}"
                )
            offset += size

        self._check_consumed(
            sections, offset, value_cursor, ref_cursor, len(references)
        )
        assert root_obj is not None
        return root_obj


_ORACLES = {
    "java-builtin": JavaOracle,
    "kryo": KryoOracle,
    "cereal": CerealOracle,
}


def oracle_serializer(format_name: str, **kwargs):
    """The oracle for ``format_name``, built with ``kwargs``."""
    try:
        oracle = _ORACLES[format_name]
    except KeyError:
        raise FormatError(f"no oracle serializer for format {format_name!r}") from None
    return oracle(**kwargs)


# -- Section IV-B packing, one bit at a time -----------------------------------------
#
# A line-by-line transcription of the paper's Figure 5 description: every
# item is a list of bits, processed one bit per interpreter iteration. The
# word-level kernels in ``repro.formats.packing`` must stay bit-exact
# against these.


def significant_bits(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1 for zero).

    The packing scheme drops leading zeros but must still emit at least one
    bit so that the end bit has something to terminate.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return max(1, value.bit_length())


def int_to_bits(value: int, width: int) -> List[int]:
    """Big-endian bit list of ``value`` using exactly ``width`` bits.

    ``width`` must be at least 1: a zero-width encoding carries no bits to
    decode and historically produced a silent empty list (so
    ``int_to_bits(0, 0)`` encoded an *absence* rather than a value).
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    if width < value.bit_length():
        raise ValueError(f"width {width} too small for value {value}")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a bit sequence into bytes, MSB-first, zero-padding the tail.

    **Tail padding is lossy about length**: packing ``n`` bits produces
    ``ceil(n / 8)`` bytes, and the pad bits are indistinguishable from
    payload zeros. A round trip through a non-multiple-of-8 bit count must
    therefore carry the declared bit length out of band and pass it to
    :func:`~repro.common.bitutils.bytes_to_bits` via ``bit_count`` —
    otherwise the bit string silently grows to the next byte boundary.
    """
    out = bytearray()
    acc = 0
    count = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit}")
        acc = (acc << 1) | bit
        count += 1
        if count == 8:
            out.append(acc)
            acc = 0
            count = 0
    if count:
        out.append(acc << (8 - count))
    return bytes(out)


def bits_to_word(bits) -> Tuple[int, int]:
    """Fold a big-endian bit list into ``(value, width)``, validating bits."""
    value = 0
    width = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit}")
        value = (value << 1) | bit
        width += 1
    return value, width


def slow_pack_bit_items(items: Sequence[Sequence[int]]) -> PackedArray:
    """Pack pre-extracted significant-bit strings into buckets + end map."""
    packed_bits: List[int] = []
    end_positions: List[int] = []  # index of each item's final byte
    for bits in items:
        item_bits = list(bits) + [1]  # append the end bit
        # Pad this item to a whole number of 1 B buckets.
        padding = (-len(item_bits)) % 8
        item_bits.extend([0] * padding)
        packed_bits.extend(item_bits)
        end_positions.append(len(packed_bits) // 8 - 1)

    data = bits_to_bytes(packed_bits)
    end_map_bits = [0] * len(data)
    for position in end_positions:
        end_map_bits[position] = 1
    return PackedArray(
        data=data, end_map=bits_to_bytes(end_map_bits), item_count=len(items)
    )


def slow_unpack_bit_items(packed: PackedArray) -> List[List[int]]:
    """Inverse of :func:`slow_pack_bit_items`: recover each item's payload."""
    end_bits = bytes_to_bits(packed.end_map, bit_count=len(packed.data))
    items: List[List[int]] = []
    start_byte = 0
    for index, is_end in enumerate(end_bits):
        if not is_end:
            continue
        bucket_bits = bytes_to_bits(packed.data[start_byte : index + 1])
        # The end bit is the last set bit; payload is everything before it.
        last_one = -1
        for position, bit in enumerate(bucket_bits):
            if bit:
                last_one = position
        if last_one < 0:
            raise FormatError("packed item contains no end bit")
        items.append(bucket_bits[:last_one])
        start_byte = index + 1
    if len(items) != packed.item_count:
        raise FormatError(
            f"end map yields {len(items)} items, expected {packed.item_count}"
        )
    if start_byte != len(packed.data):
        raise FormatError(
            f"{len(packed.data) - start_byte} trailing packed bytes after last item"
        )
    return items


def slow_pack_items(values: Sequence[int]) -> PackedArray:
    """Per-bit reference packing of unsigned values."""
    bit_items = [int_to_bits(value, significant_bits(value)) for value in values]
    return slow_pack_bit_items(bit_items)


def slow_unpack_items(packed: PackedArray) -> List[int]:
    """Per-bit inverse of :func:`slow_pack_items`."""
    out: List[int] = []
    for bits in slow_unpack_bit_items(packed):
        value = 0
        for bit in bits:
            value = (value << 1) | bit
        out.append(value)
    return out


def slow_pack_bitmaps(bitmaps: Sequence[Sequence[int]]) -> PackedArray:
    """Per-bit layout-bitmap packing."""
    for bitmap in bitmaps:
        if len(bitmap) == 0:
            raise FormatError("layout bitmap must be non-empty")
        if any(bit not in (0, 1) for bit in bitmap):
            raise FormatError("layout bitmap must contain only 0/1")
    return slow_pack_bit_items([list(bitmap) for bitmap in bitmaps])


def slow_unpack_bitmaps(packed: PackedArray) -> List[List[int]]:
    """Per-bit inverse of :func:`slow_pack_bitmaps`."""
    return slow_unpack_bit_items(packed)


# -- the cache hierarchy, one line at a time -------------------------------------------


def cache_lines(access: MemoryAccess, line_bytes: int = 64) -> range:
    """Indices of the cache lines ``access`` touches."""
    first = access.address // line_bytes
    last = (access.address + access.length - 1) // line_bytes
    return range(first, last + 1)


def access_line(hierarchy, line: int, is_write: bool) -> None:
    """One line through ``hierarchy``'s L1, L2, L3 and prefetch classifier:
    the plain per-line path ``CacheHierarchy.replay`` inlines."""
    stats = hierarchy.stats
    stats.accesses += 1
    if hierarchy.l1.access(line):
        stats.l1_hits += 1
        return
    if hierarchy.l2.access(line):
        stats.l2_hits += 1
        return
    if hierarchy.l3.access(line):
        stats.l3_hits += 1
        return
    stats.dram_accesses += 1
    if is_write:
        stats.write_misses += 1
        stats.writeback_lines += 1  # allocated line eventually written back
    if hierarchy._prefetch.is_sequential(line):
        stats.sequential_misses += 1
    else:
        stats.random_misses += 1


# -- Cereal unit timing: per-call forms of the SU, DU, MAI and DRAM loops --------------


def dram_access(
    dram: DRAMModel, issue_ns: float, address: int, length: int, is_write: bool
) -> float:
    """One DRAM access; returns its completion time in nanoseconds.

    ``length`` is typically one access granule; longer accesses occupy the
    channel proportionally longer.
    """
    if length <= 0:
        raise SimulationError(f"access length must be positive, got {length}")
    if issue_ns < 0:
        raise SimulationError(f"issue time must be non-negative, got {issue_ns}")
    config = dram.config
    channel = (address // config.access_granularity_bytes) % config.channels
    occupancy = dram.occupancy_ns(length)
    if dram.interval_channels is not None:
        start = dram.interval_channels[channel].schedule(issue_ns, occupancy)
    else:
        free = dram.channel_free_ns[channel]
        start = issue_ns if issue_ns >= free else free
        dram.channel_free_ns[channel] = start + occupancy
    completion = start + occupancy + config.zero_load_latency_ns

    stats = dram.stats
    stats.accesses += 1
    stats.busy_time_ns += occupancy
    if is_write:
        stats.write_bytes += length
    else:
        stats.read_bytes += length
    if completion > stats.last_completion_ns:
        stats.last_completion_ns = completion
    return completion


class OracleMAI(MemoryAccessInterface):
    """The MAI one call at a time: a ``TLB.translate`` per request, one
    stats and tracker update and one :func:`dram_access` per 32 B block.

    ``read`` and ``write`` use nothing but the product class's state, so
    they can stand in for its methods on any instance.
    """

    def read(self, when_ns, address, length):
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        self.stats.read_requests += 1
        when_ns += self.tlb.translate(address)
        completion = when_ns
        first = address // self.block_bytes
        for block in range(first, (address + length - 1) // self.block_bytes + 1):
            tracked = self._entries.get(block) if self.coalescing else None
            if tracked is not None:
                self.stats.coalesced_blocks += 1
                block_done = max(when_ns, tracked)
            else:
                self.stats.blocks_read += 1
                block_done = dram_access(
                    self.dram, when_ns, block * self.block_bytes, self.block_bytes,
                    is_write=False,
                )
                block_done += self.config.coherence_extra_read_ns
                self._entries[block] = block_done
                self._entries.move_to_end(block)
                if len(self._entries) > self.config.mai_entries:
                    self._entries.popitem(last=False)
            completion = max(completion, block_done)
        return completion

    def write(self, when_ns, address, length):
        if length <= 0:
            raise SimulationError(f"access length must be positive, got {length}")
        self.stats.write_requests += 1
        when_ns += self.tlb.translate(address)
        first = address // self.block_bytes
        for block in range(first, (address + length - 1) // self.block_bytes + 1):
            self.stats.blocks_written += 1
            done = dram_access(
                self.dram, when_ns, block * self.block_bytes, self.block_bytes,
                is_write=True,
            )
            self._entries[block] = done
            self._entries.move_to_end(block)
            if len(self._entries) > self.config.mai_entries:
                self._entries.popitem(last=False)
            self.last_drain_ns = max(self.last_drain_ns, done)
        return when_ns + 1.0


class BufferedStore:
    """64 B write-combining buffer in front of the MAI (posted stores)."""

    def __init__(self, mai: MemoryAccessInterface, base: int):
        self.mai = mai
        self.base = base
        self.pending = 0
        self.total = 0

    def push(self, when_ns: float, nbytes: int) -> None:
        self.pending += nbytes
        self.total += nbytes
        while self.pending >= SU._STORE_BYTES:
            self.mai.write(
                when_ns, self.base + self.total - self.pending, SU._STORE_BYTES
            )
            self.pending -= SU._STORE_BYTES

    def flush(self, when_ns: float) -> None:
        if self.pending:
            self.mai.write(when_ns, self.base + self.total - self.pending, self.pending)
            self.pending = 0


class StreamPrefetcher:
    """Eager sequential loader with a bounded outstanding-line window.

    Models the layout-bitmap / value-array / reference-array loaders: each
    keeps an internal buffer and issues a new 64 B load whenever a slot
    frees, so the stream arrives at DRAM-bandwidth rate with the zero-load
    latency as a pipeline fill cost.
    """

    def __init__(
        self,
        mai: MemoryAccessInterface,
        base: int,
        length: int,
        start_ns: float,
        depth: int = 8,
    ):
        self.mai = mai
        self.base = base
        self.length = length
        self.depth = depth
        self._completions: List[float] = []
        self._issued = 0
        self._start_ns = start_ns

    def _issue_next(self) -> None:
        offset = self._issued * 64
        if offset >= self.length:
            raise SimulationError("prefetcher ran past its stream")
        window_gate = (
            self._completions[self._issued - self.depth]
            if self._issued >= self.depth
            else self._start_ns
        )
        done = self.mai.read(window_gate, self.base + offset, min(64, self.length - offset))
        self._completions.append(done)
        self._issued += 1

    def available_at(self, byte_position: int) -> float:
        """Time the byte *before* ``byte_position`` has arrived (0 => start)."""
        if byte_position <= 0 or self.length == 0:
            return self._start_ns
        byte_position = min(byte_position, self.length)
        line = (byte_position - 1) // 64
        while self._issued <= line:
            self._issue_next()
        return self._completions[line]


def oracle_su_run(
    unit: SerializationUnit,
    workload: SUWorkload,
    start_ns: float = 0.0,
    serialization_counter: int = 1,
) -> SUResult:
    """:meth:`SerializationUnit.run` with a :class:`BufferedStore` object
    per output buffer and ``max`` for every stage hand-off."""
    pipelined = unit.config.pipelined
    base = SU.OUTPUT_REGION_BASE
    value_store = BufferedStore(unit.mai, base + SU._VALUE_REGION)
    ref_store = BufferedStore(unit.mai, base + SU._REF_REGION)
    bitmap_store = BufferedStore(unit.mai, base + SU._BITMAP_REGION)

    hm_free = omm_free = oh_free = raw_free = start_ns
    counter_ready = start_ns  # serialized-size counter availability
    # When each object's OH finished; the root's enqueuer -1 reads start.
    queued_ns = [0.0] * len(workload.objects) + [start_ns]
    objects = 0
    null_references = 0
    heap_bytes_read = 0
    stalls = 0.0
    fallback_objects = 0
    serialized_size = 0
    own_unit = unit.unit_id + 1
    raw_cycle = 1.0 / SU._RAW_ITEMS_PER_CYCLE

    for target, enqueuer in zip(workload.targets, workload.enqueuers):
        address = workload.addresses[target]
        hm_start = max(hm_free, queued_ns[enqueuer])
        header_done = unit.mai.read(hm_start, address, 16)
        if target < objects:
            hm_free = header_done + SU._HM_CYCLE_NS
            raw_free = max(raw_free, header_done) + raw_cycle
            ref_store.push(raw_free, workload.packed_ref_bytes[target])
            continue
        objects += 1
        total_slots = workload.total_slots[target]
        size_bytes = total_slots * SLOT_BYTES

        assign_ns = max(header_done, counter_ready)
        stalls += max(0.0, counter_ready - header_done)
        obj = workload.objects[target]
        counter, claimed_by = obj.serialization_claim()
        if counter == serialization_counter and claimed_by != own_unit:
            fallback_objects += 1
            assign_ns += SU._FALLBACK_NS
        else:
            obj.claim_serialization(
                serialization_counter, own_unit, serialized_size & 0xFFFF_FFFF
            )
            unit.mai.atomic_rmw(assign_ns, address + 16, 8)
        serialized_size += size_bytes
        hm_free = assign_ns + SU._HM_CYCLE_NS
        raw_free = max(raw_free, assign_ns) + raw_cycle
        ref_store.push(raw_free, workload.packed_ref_bytes[target])

        metaspace_address = workload.metaspace_addresses[target]
        omm_start = max(omm_free, assign_ns)
        metadata_done = unit.mai.read(
            omm_start, metaspace_address, SU._KLASS_METADATA_BYTES
        )
        counter_ready = metadata_done + 1.0
        bitmap_cycles = (
            total_slots + SU._OMM_BITMAP_BITS_PER_CYCLE - 1
        ) // SU._OMM_BITMAP_BITS_PER_CYCLE
        omm_free = metadata_done + bitmap_cycles
        bitmap_store.push(omm_free, (total_slots + 1 + 7) // 8)

        oh_start = max(oh_free, metadata_done)
        load_done = unit.mai.read(oh_start, address, size_bytes)
        heap_bytes_read += size_bytes
        extract_ns = total_slots / SU._OH_SLOTS_PER_CYCLE
        oh_done = max(oh_start, load_done) + extract_ns
        unit.klass_table.lookup(metaspace_address)
        oh_done += 1.0
        oh_free = oh_done
        queued_ns[target] = oh_done

        value_store.push(
            oh_done, (total_slots - workload.reference_slots[target]) * 8
        )
        nulls = workload.null_references[target]
        null_references += nulls
        for _ in range(nulls):
            raw_free = max(raw_free, oh_done) + raw_cycle
            ref_store.push(raw_free, 1)

        if not pipelined:
            barrier = max(hm_free, omm_free, oh_free, raw_free)
            hm_free = omm_free = oh_free = raw_free = barrier

    finish = max(hm_free, omm_free, oh_free, raw_free)
    value_store.flush(finish)
    ref_store.flush(finish)
    bitmap_store.flush(finish)
    end_map_bytes = (ref_store.total + 7) // 8 + (bitmap_store.total + 7) // 8
    unit.mai.write(finish, base + SU._REF_REGION + ref_store.total,
                   max(1, end_map_bytes))
    finish = unit.mai.drain(finish)
    return SUResult(
        start_ns=start_ns,
        finish_ns=finish,
        objects=objects,
        encounters=len(workload.targets),
        null_references=null_references,
        heap_bytes_read=heap_bytes_read,
        value_bytes_written=value_store.total,
        reference_bytes_written=ref_store.total + end_map_bytes,
        bitmap_bytes_written=bitmap_store.total,
        stalls_on_counter_ns=stalls,
        fallback_objects=fallback_objects,
    )


def oracle_du_run(
    unit: DeserializationUnit,
    workload: DUWorkload,
    destination_base: int,
    start_ns: float = 0.0,
) -> DUResult:
    """:meth:`DeserializationUnit.run` with a :class:`StreamPrefetcher`
    object per input stream and ``max`` for every stage hand-off."""
    pipelined = unit.config.pipelined
    reconstructors = unit.config.block_reconstructors_per_du if pipelined else 1
    depth = unit.config.du_prefetch_depth if pipelined else 1
    base = DU.INPUT_REGION_BASE
    bitmap_stream = StreamPrefetcher(
        unit.mai, base + DU._BITMAP_REGION, workload.bitmap_bytes, start_ns, depth
    )
    value_stream = StreamPrefetcher(
        unit.mai, base + DU._VALUE_REGION, workload.value_array_bytes, start_ns,
        depth,
    )
    ref_stream = StreamPrefetcher(
        unit.mai, base + DU._REF_REGION, workload.reference_array_bytes, start_ns,
        depth,
    )
    lm_free = bm_free = finish = start_ns
    reconstructor_free = [start_ns] * reconstructors
    bitmap_pos = value_pos = ref_pos = 0
    blocks = zip(workload.value_slots, workload.reference_bytes, workload.has_header)
    for index, (value_slots, reference_bytes, has_header) in enumerate(blocks):
        bitmap_pos += 1
        lm_ready = bitmap_stream.available_at(min(bitmap_pos, workload.bitmap_bytes))
        lm_time = max(lm_free, lm_ready) + DU._LM_CHUNK_NS
        lm_free = lm_time

        value_pos += value_slots * 8
        ref_pos += reference_bytes
        bm_ready = max(
            value_stream.available_at(value_pos), ref_stream.available_at(ref_pos)
        )
        bm_time = max(bm_free, lm_time, bm_ready) + DU._BM_DISPATCH_NS
        bm_free = bm_time

        slot = reconstructor_free.index(min(reconstructor_free))
        rec_start = max(bm_time, reconstructor_free[slot])
        rec_done = rec_start + DU._RECONSTRUCT_NS
        if has_header:
            unit.class_id_table.lookups += 1
            rec_done += 1.0
        unit.mai.write(rec_done, destination_base + index * 64, 64)
        reconstructor_free[slot] = rec_done
        finish = max(finish, rec_done)

        if not pipelined:
            lm_free = bm_free = rec_done
            reconstructor_free = [rec_done]

    finish = unit.mai.drain(finish)
    block_count = len(workload.value_slots)
    return DUResult(
        start_ns=start_ns,
        finish_ns=finish,
        blocks=block_count,
        image_bytes_written=block_count * 64,
        stream_bytes_read=(
            workload.bitmap_bytes
            + workload.value_array_bytes
            + workload.reference_array_bytes
        ),
    )
