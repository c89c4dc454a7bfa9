"""Java built-in object serialization (``ObjectOutputStream`` model).

Reproduces the serialized-stream structure of paper Figure 1(b) and the
behaviours Section II calls out as expensive:

* every class is described *by name*: the class name string, a
  serialVersionUID, and per-field metadata (type code + field name string,
  plus a type string for reference fields) are embedded in the stream;
* field values are extracted through ``java.lang.reflect`` — modelled by the
  :class:`~repro.jvm.reflection.JavaReflection` shim, which accounts the
  string-matching work that dominates Java S/D time;
* previously-visited objects are written as a 5-byte back reference
  (``TC_REFERENCE`` + handle), which also makes cyclic graphs safe.

Stream grammar (tag bytes follow the real Java protocol values):

    stream    := MAGIC(2) VERSION(2) content
    content   := TC_NULL
               | TC_REFERENCE handle(4)
               | TC_OBJECT classdesc field-values...
               | TC_ARRAY classdesc length(4) elements...
    classdesc := TC_CLASSDESC nameUTF uid(8) flags(1) nfields(2)
                 { typecode(1) nameUTF [typestringUTF] }...
               | TC_REFERENCE handle(4)

Reference-typed fields and array elements recurse into ``content``.

The plan path supplies only the Java-specific preludes (tags, class
descriptors and u32 handles) to the encode walk and decode driver it
shares with Kryo in :mod:`repro.formats.plans`; the interpreter behind
``use_plans=False`` is the independent oracle.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterator, Optional

from repro.common.errors import (
    FormatError,
    HeapError,
    TruncatedStreamError,
    UnknownClassError,
)
from repro.formats import plans as P
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
    WorkProfile,
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.streams import StreamReader, StreamWriter
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass
from repro.jvm.reflection import JavaReflection

MAGIC = 0xACED
VERSION = 5

TC_NULL = 0x70
TC_REFERENCE = 0x71
TC_CLASSDESC = 0x72
TC_OBJECT = 0x73
TC_ARRAY = 0x75

SC_SERIALIZABLE = 0x02

_TYPE_CODES = {
    FieldKind.BOOLEAN: ord("Z"),
    FieldKind.BYTE: ord("B"),
    FieldKind.CHAR: ord("C"),
    FieldKind.SHORT: ord("S"),
    FieldKind.INT: ord("I"),
    FieldKind.FLOAT: ord("F"),
    FieldKind.LONG: ord("J"),
    FieldKind.DOUBLE: ord("D"),
    FieldKind.REFERENCE: ord("L"),
}
_KIND_BY_CODE = {code: kind for kind, code in _TYPE_CODES.items()}

_REFERENCE_TYPE_STRING = "Ljava/lang/Object;"

_SECTION_META = "metadata"
_SECTION_TYPES = "type_strings"
_SECTION_DATA = "field_data"
_SECTION_REFS = "back_references"

# Instruction-cost constants for the WorkProfile. Calibrated so the CPU
# model lands the paper's measured ratios (Figures 3 and 10): Java S/D is
# the slowest library, its deserializer catastrophically so (52x slower
# than Kryo's), with IPC around 1. The serializer side is dominated by the
# handle-table insert, ObjectStreamClass lookup, and block-data framing per
# object; the deserializer additionally pays reflective type resolution and
# per-field string-matched assignment.
_INSTR_PER_OBJECT = 7000  # writeObject0: handle table, desc lookup, framing
_INSTR_PER_PRIMITIVE = 400  # reflective extract + widen + block write
_INSTR_PER_REFERENCE = 700  # reflective get + null/visited checks + recursion
_INSTR_PER_STREAM_BYTE = 1  # buffer copy amortized
_INSTR_PER_OBJECT_DESER = 28000  # readObject0: desc resolution, security
_INSTR_PER_FIELD_DESER = 3000  # reflective Field.set with boxing
_INSTR_PER_ALLOC = 600  # reflective newInstance
_INSTR_PER_CLASSDESC = 2000  # class lookup by name, descriptor construction
_AUX_ACCESSES_PER_OBJECT_SER = 20  # handle-table + desc-cache probes
_AUX_ACCESSES_PER_OBJECT_DESER = 30  # handle table, Field cache, ctor cache

_U32 = struct.Struct("<I")
# The 4-byte stream prelude write_u16(MAGIC)+write_u16(VERSION) produces.
_STREAM_HEADER = struct.pack("<HH", MAGIC, VERSION)


def _read_u32(data: bytes, pos: int):
    """``(u32 at pos, pos + 4)``; a short stream is a truncation."""
    if pos + 4 > len(data):
        raise TruncatedStreamError(
            offset=pos, needed=4, available=len(data) - pos
        )
    return _U32.unpack_from(data, pos)[0], pos + 4


def serial_version_uid(klass: Klass) -> int:
    """Deterministic 64-bit UID from the class name and field signature."""
    h = hashlib.sha256(klass.name.encode("utf-8"))
    if isinstance(klass, InstanceKlass):
        for descriptor in klass.fields:
            h.update(descriptor.name.encode("utf-8"))
            h.update(descriptor.kind.value.encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


class JavaSerializer(Serializer):
    """The baseline Java built-in serializer (paper "Java S/D").

    ``use_plans=True`` (the default) routes S/D through the compiled-plan
    kernels of :mod:`repro.formats.plans`: byte-identical streams, heap
    images, sections, and work profiles, minus the per-object interpretive
    overhead. ``use_plans=False`` keeps the original field-by-field
    interpreter — the oracle the fuzz equivalence tests compare against.
    """

    name = "java-builtin"

    def __init__(self, use_plans: bool = True):
        self.use_plans = use_plans

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        if self.use_plans:
            return self._drain_walk(root)
        writer = StreamWriter()
        profile = WorkProfile()
        reflect = JavaReflection()
        handles: Dict[int, int] = {}  # heap address -> stream handle
        class_handles: Dict[str, int] = {}
        next_handle = [0]

        writer.write_u16(MAGIC, _SECTION_META)
        writer.write_u16(VERSION, _SECTION_META)

        def assign_handle() -> int:
            handle = next_handle[0]
            next_handle[0] += 1
            return handle

        def write_class_desc(klass: Klass) -> None:
            existing = class_handles.get(klass.name)
            if existing is not None:
                writer.write_u8(TC_REFERENCE, _SECTION_REFS)
                writer.write_u32(existing, _SECTION_REFS)
                return
            writer.write_u8(TC_CLASSDESC, _SECTION_META)
            writer.write_utf(klass.name, _SECTION_TYPES)
            writer.write_u64(serial_version_uid(klass), _SECTION_META)
            writer.write_u8(SC_SERIALIZABLE, _SECTION_META)
            if isinstance(klass, InstanceKlass):
                writer.write_u16(len(klass.fields), _SECTION_META)
                for descriptor in klass.fields:
                    writer.write_u8(_TYPE_CODES[descriptor.kind], _SECTION_META)
                    writer.write_utf(descriptor.name, _SECTION_TYPES)
                    if descriptor.kind.is_reference:
                        writer.write_utf(_REFERENCE_TYPE_STRING, _SECTION_TYPES)
            else:
                assert isinstance(klass, ArrayKlass)
                writer.write_u16(0, _SECTION_META)
                writer.write_u8(_TYPE_CODES[klass.element_kind], _SECTION_META)
            class_handles[klass.name] = assign_handle()
            profile.add_instructions(_INSTR_PER_CLASSDESC)

        def write_primitive(kind: FieldKind, value) -> None:
            if kind is FieldKind.BOOLEAN:
                writer.write_u8(1 if value else 0, _SECTION_DATA)
            elif kind is FieldKind.BYTE:
                writer.write_bytes(
                    (int(value) & 0xFF).to_bytes(1, "little"), _SECTION_DATA
                )
            elif kind is FieldKind.CHAR:
                writer.write_u16(int(value) & 0xFFFF, _SECTION_DATA)
            elif kind is FieldKind.SHORT:
                writer.write_u16(int(value) & 0xFFFF, _SECTION_DATA)
            elif kind is FieldKind.INT:
                writer.write_bytes(
                    (int(value) & 0xFFFFFFFF).to_bytes(4, "little"), _SECTION_DATA
                )
            elif kind is FieldKind.FLOAT:
                import struct as _struct

                writer.write_bytes(
                    _struct.pack("<f", float(value)), _SECTION_DATA
                )
            elif kind is FieldKind.LONG:
                writer.write_i64(int(value), _SECTION_DATA)
            elif kind is FieldKind.DOUBLE:
                writer.write_f64(float(value), _SECTION_DATA)
            else:  # pragma: no cover - guarded by callers
                raise FormatError(f"not a primitive kind: {kind}")
            profile.value_fields += 1
            profile.add_instructions(_INSTR_PER_PRIMITIVE)

        def emit_object(obj: HeapObject) -> Iterator[Optional[HeapObject]]:
            """Generator writing one object; yields reference children."""
            profile.objects += 1
            profile.add_instructions(_INSTR_PER_OBJECT)
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2  # header + klass metadata chase
            if isinstance(obj.klass, ArrayKlass):
                writer.write_u8(TC_ARRAY, _SECTION_META)
                write_class_desc(obj.klass)
                handles[obj.address] = assign_handle()
                writer.write_u32(obj.length, _SECTION_META)
                if obj.klass.element_kind.is_reference:
                    for index in range(obj.length):
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_REFERENCE)
                        yield obj.get_element(index)  # type: ignore[misc]
                else:
                    # One bulk heap read for the whole element storage; the
                    # per-element stream encoding (and accounting) is
                    # unchanged.
                    element_kind = obj.klass.element_kind
                    for value in obj.get_elements():
                        write_primitive(element_kind, value)
            else:
                klass = obj.klass
                assert isinstance(klass, InstanceKlass)
                writer.write_u8(TC_OBJECT, _SECTION_META)
                write_class_desc(klass)
                handles[obj.address] = assign_handle()
                for descriptor in klass.fields:
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_REFERENCE)
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
                writer.write_u8(TC_NULL, _SECTION_REFS)
            elif child.address in handles:
                writer.write_u8(TC_REFERENCE, _SECTION_REFS)
                writer.write_u32(handles[child.address], _SECTION_REFS)
            else:
                stack.append(emit_object(child))

        data = writer.getvalue()
        profile.add_instructions(reflect.cost.estimated_instructions())
        profile.add_instructions(len(data) * _INSTR_PER_STREAM_BYTE)
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

    # ------------------------------------------------------- serialize (plan walk)

    def _encode_walk(self, root: HeapObject, out):
        """The plan encoder: Java's prelude over the shared walk
        (:func:`repro.formats.plans.encode_walk`), behind both the
        plan-path :meth:`serialize` and :meth:`serialize_chunks`.

        The prelude writes the tag, then the class descriptor blob (or
        ``TC_REFERENCE`` + u32 class handle) and, for arrays, the u32
        length. Nulls are ``TC_NULL`` and back-references ``TC_REFERENCE``
        + u32 handle, all counted in the back-references section.
        """
        out += _STREAM_HEADER
        meta_count = 4
        type_count = 0
        class_ref_count = 0
        desc_instr = 0
        class_handles: Dict[str, int] = {}
        next_handle = 0

        def prelude(klass: Klass, plan, length: Optional[int]) -> int:
            nonlocal out, meta_count, type_count, class_ref_count, desc_instr
            nonlocal next_handle
            out.append(TC_OBJECT if length is None else TC_ARRAY)
            meta_count += 1
            class_handle = class_handles.get(klass.name)
            if class_handle is None:
                out += plan.desc_blob
                meta_count += plan.desc_meta_bytes
                type_count += plan.desc_type_bytes
                class_handles[klass.name] = next_handle
                next_handle += 1
                desc_instr += plan.desc_ser_instr
            else:
                out.append(TC_REFERENCE)
                out += _U32.pack(class_handle)
                class_ref_count += 5
            handle = next_handle
            next_handle += 1
            if length is not None:
                out += _U32.pack(length)
                meta_count += 4
            return handle

        profile, data_count, nulls, backrefs, backref_bytes = yield from P.encode_walk(
            self.name, root, out, prelude, TC_NULL, TC_REFERENCE, _U32.pack,
            _INSTR_PER_STREAM_BYTE,
        )
        profile.instructions += desc_instr
        ref_count = class_ref_count + nulls + backrefs + backref_bytes
        sections = {_SECTION_META: meta_count, _SECTION_TYPES: type_count}
        if data_count:
            sections[_SECTION_DATA] = data_count
        if ref_count:
            sections[_SECTION_REFS] = ref_count
        return P.ChunkedEncodeSummary(
            self.name, profile.bytes_written, sections, profile,
            profile.objects, profile.bytes_read,
        )

    # ---------------------------------------------------------------- deserialize

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        limits = resolve_limits(limits)
        if self.use_plans:
            return self._deserialize_planned(stream, heap, limits)
        limits.check_stream_bytes(len(stream.data))
        reader = StreamReader(stream.data)
        profile = WorkProfile()
        reflect = JavaReflection()
        handle_table: Dict[int, object] = {}  # handle -> HeapObject or Klass
        next_handle = [0]

        if reader.read_u16() != MAGIC or reader.read_u16() != VERSION:
            raise FormatError("bad Java serialization stream header")

        def assign_handle(value: object) -> None:
            handle_table[next_handle[0]] = value
            next_handle[0] += 1

        def read_class_desc() -> Klass:
            tag = reader.read_u8()
            if tag == TC_REFERENCE:
                value = handle_table.get(reader.read_u32())
                if not isinstance(value, Klass):
                    raise FormatError("class-descriptor handle resolves to non-class")
                return value
            if tag != TC_CLASSDESC:
                raise FormatError(f"expected class descriptor, got tag {tag:#x}")
            name = reader.read_utf()
            uid = reader.read_u64()
            reader.read_u8()  # flags
            # Resolving a class by name: the expensive string lookup the
            # paper blames for Java S/D type-resolution overhead.
            profile.add_instructions(_INSTR_PER_CLASSDESC + len(name) * 2)
            try:
                klass = heap.registry.by_name(name)
            except HeapError:
                raise UnknownClassError(
                    repr(name),
                    detail="class name not registered",
                    offset=reader.position,
                ) from None
            if serial_version_uid(klass) != uid:
                raise FormatError(f"serialVersionUID mismatch for {name}")
            if isinstance(klass, InstanceKlass):
                nfields = reader.read_u16()
                if nfields != len(klass.fields):
                    raise FormatError(f"field count mismatch for {name}")
                for descriptor in klass.fields:
                    code = reader.read_u8()
                    if _KIND_BY_CODE.get(code) is not descriptor.kind:
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
            import struct as _struct

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
                return _struct.unpack("<f", reader.read_bytes(4))[0]
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
            profile.add_instructions(_INSTR_PER_OBJECT_DESER + _INSTR_PER_ALLOC)
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_DESER
            if tag == TC_ARRAY:
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
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
                        child = yield obj
                        obj.set_element(index, child)
                else:
                    # Decode the whole element run, then commit it with one
                    # bulk heap write; stream decode order and accounting
                    # are unchanged.
                    values = []
                    for index in range(length):
                        values.append(read_primitive(klass.element_kind))
                        profile.value_fields += 1
                        # Primitive array elements bypass reflection.
                        profile.add_instructions(_INSTR_PER_PRIMITIVE // 4)
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
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
                        child = yield obj
                        reflect.set_field(obj, descriptor.name, child)
                    else:
                        value = read_primitive(descriptor.kind)
                        reflect.set_field(obj, descriptor.name, value)
                        profile.value_fields += 1
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
            return

        def start_content():
            """Read a content tag; returns ('value', v) or ('frame', gen, holder)."""
            tag = reader.read_u8()
            if tag == TC_NULL:
                return ("value", None, None)
            if tag == TC_REFERENCE:
                value = handle_table.get(reader.read_u32())
                if not isinstance(value, HeapObject):
                    raise FormatError("object handle resolves to non-object")
                return ("value", value, None)
            if tag in (TC_OBJECT, TC_ARRAY):
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
        profile.add_instructions(len(stream.data) * _INSTR_PER_STREAM_BYTE)
        return DeserializationResult(root_obj, profile)

    # ----------------------------------------------------- deserialize (plan kernel)

    @staticmethod
    def _slow_parse_class_desc(data: bytes, pos: int, klass: Klass, name: str) -> int:
        """Field-by-field descriptor parse, used when the fast byte compare
        against the plan's expected descriptor fails.

        Replicates the interpreter exactly — including its leniency about
        field-name strings (read and discarded) and its precise error
        messages for uid/count/kind mismatches. Returns the new cursor.
        """
        reader = StreamReader(data)
        reader._pos = pos
        uid = reader.read_u64()
        reader.read_u8()  # flags
        if serial_version_uid(klass) != uid:
            raise FormatError(f"serialVersionUID mismatch for {name}")
        if isinstance(klass, InstanceKlass):
            nfields = reader.read_u16()
            if nfields != len(klass.fields):
                raise FormatError(f"field count mismatch for {name}")
            for descriptor in klass.fields:
                code = reader.read_u8()
                if _KIND_BY_CODE.get(code) is not descriptor.kind:
                    raise FormatError(f"field kind mismatch in {name}")
                reader.read_utf()  # field name
                if descriptor.kind.is_reference:
                    reader.read_utf()  # type string
        else:
            reader.read_u16()
            reader.read_u8()
        return reader._pos

    def _deserialize_planned(
        self, stream: SerializedStream, heap: Heap, limits: DecodeLimits
    ) -> DeserializationResult:
        """Compiled-plan deserialize: Java's content prelude over the
        shared decode driver (:func:`repro.formats.plans.decode_walk`).

        Class descriptors are validated with one slice comparison against
        the plan's expected bytes; the heap image and profile equal the
        interpreter's.
        """
        data = stream.data
        n_data = len(data)
        limits.check_stream_bytes(n_data)
        if n_data < 4:
            offset = 0 if n_data < 2 else 2
            raise TruncatedStreamError(
                offset=offset, needed=2, available=n_data - offset
            )
        if data[:4] != _STREAM_HEADER:
            raise FormatError("bad Java serialization stream header")

        handle_table: list = []  # Klass and HeapObject entries, handle order
        plans_local: Dict[Klass, object] = {}
        desc_instr = 0

        def content(pos: int):
            nonlocal desc_instr
            if pos >= n_data:
                raise TruncatedStreamError(
                    offset=pos, needed=1, available=n_data - pos
                )
            tag = data[pos]
            pos += 1
            if tag == TC_NULL:
                return pos, None, None, False
            if tag == TC_REFERENCE:  # the hot back-reference path: inline
                if pos + 4 > n_data:
                    raise TruncatedStreamError(
                        offset=pos, needed=4, available=n_data - pos
                    )
                handle = _U32.unpack_from(data, pos)[0]
                pos += 4
                value = handle_table[handle] if handle < len(handle_table) else None
                if not isinstance(value, HeapObject):
                    raise FormatError("object handle resolves to non-object")
                return pos, None, value, False
            if tag not in (TC_OBJECT, TC_ARRAY):
                raise FormatError(f"unexpected tag {tag:#x}")
            if pos >= n_data:
                raise TruncatedStreamError(
                    offset=pos, needed=1, available=n_data - pos
                )
            desc_tag = data[pos]
            pos += 1
            if desc_tag == TC_REFERENCE:
                handle, pos = _read_u32(data, pos)
                klass = handle_table[handle] if handle < len(handle_table) else None
                if not isinstance(klass, Klass):
                    raise FormatError(
                        "class-descriptor handle resolves to non-class"
                    )
                name = None
            elif desc_tag != TC_CLASSDESC:
                raise FormatError(
                    f"expected class descriptor, got tag {desc_tag:#x}"
                )
            else:
                if pos + 2 > n_data:
                    raise TruncatedStreamError(
                        offset=pos, needed=2, available=n_data - pos
                    )
                name_length = data[pos] | (data[pos + 1] << 8)
                pos += 2
                if pos + name_length > n_data:
                    raise TruncatedStreamError(
                        offset=pos, needed=name_length, available=n_data - pos
                    )
                try:
                    name = data[pos:pos + name_length].decode("utf-8")
                except UnicodeDecodeError as error:
                    raise FormatError(
                        f"invalid UTF-8 in stream: {error}"
                    ) from None
                pos += name_length
                try:
                    klass = heap.registry.by_name(name)
                except HeapError:
                    raise UnknownClassError(
                        repr(name), detail="class name not registered", offset=pos
                    ) from None
            plan = plans_local.get(klass)
            if plan is None:
                plan = P.plan_for(self.name, klass)
                plans_local[klass] = plan
            if name is not None:
                tail = plan.desc_tail
                if data[pos:pos + len(tail)] == tail:
                    pos += len(tail)
                else:
                    pos = self._slow_parse_class_desc(data, pos, klass, name)
                desc_instr += plan.desc_de_instr
                handle_table.append(klass)
            return pos, plan, klass, tag == TC_ARRAY

        root, profile = P.decode_walk(
            data, 4, heap, limits, content, _read_u32,
            ("TC_ARRAY with non-array class", "TC_OBJECT with array class"),
            handle_table, _INSTR_PER_STREAM_BYTE,
        )
        profile.instructions += desc_instr
        return DeserializationResult(root, profile)
