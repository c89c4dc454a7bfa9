"""Kryo-style serialization (paper Figure 1(c)).

Kryo's optimizations over Java S/D, all modelled here:

* **Integer class numbering** — every class (including primitives/arrays)
  must be registered up front; the stream stores a small varint class ID
  instead of name strings. The *same* registry must be used to deserialize.
* **Null-check byte** — each object slot starts with a 1-byte marker:
  null, back reference, or new object.
* **Optimized reflection** — field access goes through ReflectASM-style
  index tables (:class:`~repro.jvm.reflection.ReflectAsmAccess`), avoiding
  string lookups entirely.
* **Varint-packed integers** — INT/LONG field values are zig-zag varints.

Stream grammar:

    stream  := content
    content := MARK_NULL
             | MARK_BACKREF objectId(varint)
             | MARK_OBJECT classId(varint) fields...
             | MARK_ARRAY  classId(varint) length(varint) elements...

Reference fields and reference-array elements recurse into ``content``.

S/D supplies only the Kryo-specific preludes (markers, class-ID and
length varints) to the walk and driver shared with Java S/D in
:mod:`repro.formats.plans`. The field-by-field :func:`interpret` decodes
with the field table :func:`repro.formats.secure.resolve_schemas` builds:
it is ``VersionedKryo``'s schema-evolution decoder, and, with every field
mapped to itself, the decode oracle of ``tests/oracles.py``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.common.errors import (
    FormatError,
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
from repro.formats.registry import ClassRegistration
from repro.formats.streams import StreamReader
from repro.formats.varint import (
    INT32_MAX,
    INT32_MIN,
    VarintBytes,
    int32_range_error,
)
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass
from repro.jvm.reflection import ReflectAsmAccess

MARK_NULL = 0x00
MARK_BACKREF = 0x01
MARK_OBJECT = 0x02
MARK_ARRAY = 0x03

_SECTION_MARKS = "null_checks"
_SECTION_CLASS_IDS = "class_ids"
_SECTION_DATA = "field_data"
_SECTION_REFS = "back_references"

# Calibrated against the paper's ratios: Kryo serialization is ~2.3x
# faster than Java S/D (still paying graph traversal and the reference-
# resolver identity map), while deserialization is a tight streaming loop
# ~52x faster than Java's reflective one (Figure 10).
_INSTR_PER_OBJECT = 3900  # serializer dispatch + reference-resolver insert
_INSTR_PER_PRIMITIVE = 80  # ReflectASM accessor + varint/width write
_INSTR_PER_REFERENCE = 160  # resolver lookup + marker
_INSTR_PER_OBJECT_DESER = 420  # registry fetch + resolver append
_INSTR_PER_FIELD_DESER = 45  # ReflectASM indexed set
_INSTR_PER_ALLOC = 70  # instantiator fast path
_INSTR_PER_STREAM_BYTE = 1
_AUX_ACCESSES_PER_OBJECT_SER = 6  # identity-map probe + insert
_AUX_ACCESSES_PER_OBJECT_DESER = 1  # resolver table append


class KryoSerializer(Serializer):
    """Kryo with mandatory type registration ("Kryo" in the paper)."""

    name = "kryo"

    def __init__(self, registration: Optional[ClassRegistration] = None):
        self.registration = (
            registration if registration is not None else ClassRegistration()
        )

    def register(self, klass) -> int:
        """Kryo's ``register(Class)``: required before S/D of that type."""
        return self.registration.register(klass)

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        return self._drain_walk(root)

    def _encode_walk(self, root: HeapObject, out):
        """The plan encoder: Kryo's prelude over the shared walk
        (:func:`repro.formats.plans.encode_walk`), behind both
        :meth:`serialize` and :meth:`serialize_chunks`.

        The prelude writes the marker, the registration's class-ID varint
        and, for arrays, the length varint. Nulls are ``MARK_NULL`` and
        back-references ``MARK_BACKREF`` in the null-check section, with
        the object-ID varint in the back-references section.
        """
        id_of = self.registration.id_of
        varints = VarintBytes()  # class IDs and back-referenced object IDs
        class_id_bytes: Dict[Klass, bytes] = {}  # per-call: registration-local
        class_id_count = 0
        length_count = 0
        next_object_id = 0

        def prelude(klass: Klass, plan, length: Optional[int]) -> int:
            nonlocal out, class_id_count, length_count, next_object_id
            encoded_id = class_id_bytes.get(klass)
            if encoded_id is None:
                encoded_id = class_id_bytes[klass] = varints[id_of(klass)]
            out.append(MARK_OBJECT if length is None else MARK_ARRAY)
            out += encoded_id
            class_id_count += len(encoded_id)
            if length is not None:
                length_count += P.append_varint(out, length)
            object_id = next_object_id
            next_object_id += 1
            return object_id

        profile, data_count, nulls, backrefs, backref_bytes = yield from P.encode_walk(
            self.name, root, out, prelude, MARK_NULL, MARK_BACKREF,
            varints.__getitem__, _INSTR_PER_STREAM_BYTE,
        )
        data_count += length_count
        sections = {
            _SECTION_MARKS: profile.objects + nulls + backrefs,
            _SECTION_CLASS_IDS: class_id_count,
        }
        if data_count:
            sections[_SECTION_DATA] = data_count
        if backref_bytes:
            sections[_SECTION_REFS] = backref_bytes
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
        """Kryo's content prelude over the shared decode driver
        (:func:`repro.formats.plans.decode_walk`)."""
        limits = resolve_limits(limits)
        data = stream.data
        n_data = len(data)
        limits.check_stream_bytes(n_data)
        klass_of = self.registration.klass_of
        read_varint = P.read_varint
        objects_by_id: List[HeapObject] = []
        plans_local: Dict[Klass, object] = {}

        def content(pos: int):
            if pos >= n_data:
                raise TruncatedStreamError(
                    offset=pos, needed=1, available=n_data - pos
                )
            mark = data[pos]
            pos += 1
            if mark == MARK_NULL:
                return pos, None, None, False
            if mark == MARK_BACKREF:
                object_id, pos = read_varint(data, pos)
                if object_id >= len(objects_by_id):
                    raise FormatError(f"forward object reference {object_id}")
                return pos, None, objects_by_id[object_id], False
            if mark not in (MARK_OBJECT, MARK_ARRAY):
                raise FormatError(f"unexpected marker {mark:#x}")
            class_id, pos = read_varint(data, pos)
            klass = klass_of(class_id, offset=pos)
            plan = plans_local.get(klass)
            if plan is None:
                plan = P.plan_for(self.name, klass)
                plans_local[klass] = plan
            return pos, plan, klass, mark == MARK_ARRAY

        root, profile = P.decode_walk(
            data, 0, heap, limits, content, read_varint,
            (
                "array marker with non-array class ID",
                "object marker with array class ID",
            ),
            objects_by_id, _INSTR_PER_STREAM_BYTE,
        )
        return DeserializationResult(root, profile)


# -- the interpreter ------------------------------------------------------------------

#: Per writer field, in writer order: the reader's field index (``None``
#: when the reader dropped the field) and the writer's field kind.
FieldTable = List[Tuple[Klass, Tuple[Tuple[Optional[int], FieldKind], ...]]]


def interpret(
    stream: SerializedStream,
    heap: Heap,
    limits: DecodeLimits,
    field_table: FieldTable,
) -> DeserializationResult:
    """Field-by-field Kryo decode: the schema-evolution decoder, and the
    oracle the plan kernel is checked against.

    ``field_table[class_id]`` is ``(reader klass, fields)``. The stream's
    layout comes from the writer's fields; values land in the reader
    klass's slots. A field the reader dropped is still parsed (reference
    subtrees included, their objects joining the back-reference table and
    staying on the heap, unreachable) so object numbering matches the
    writer's exactly.
    """
    limits.check_stream_bytes(len(stream.data))
    reader = StreamReader(stream.data)
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
        profile.add_instructions(_INSTR_PER_OBJECT_DESER + _INSTR_PER_ALLOC)
        profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_DESER
        if mark == MARK_ARRAY:
            if not isinstance(klass, ArrayKlass):
                raise FormatError("array marker with non-array class ID")
            length = reader.read_varint()
            limits.check_array_length(length)
            obj = heap.allocate(klass, length)
            objects_by_id.append(obj)
            if klass.element_kind.is_reference:
                for index in range(length):
                    profile.reference_fields += 1
                    profile.add_instructions(_INSTR_PER_FIELD_DESER)
                    child = yield obj
                    obj.set_element(index, child)
            else:
                # Decode the run, then one bulk heap write.
                values = []
                for index in range(length):
                    values.append(read_primitive(klass.element_kind))
                    profile.value_fields += 1
                    profile.add_instructions(_INSTR_PER_FIELD_DESER)
                obj.set_elements(values)
        else:
            if not isinstance(klass, InstanceKlass):
                raise FormatError("object marker with array class ID")
            obj = heap.allocate(klass)
            objects_by_id.append(obj)
            for index, kind in fields:
                if kind.is_reference:
                    profile.reference_fields += 1
                    profile.add_instructions(_INSTR_PER_FIELD_DESER)
                    value = yield obj
                else:
                    value = read_primitive(kind)
                    profile.value_fields += 1
                    profile.add_instructions(_INSTR_PER_FIELD_DESER)
                if index is not None:
                    asm.set_field_by_index(obj, index, value)
        return

    def start_content():
        mark = reader.read_u8()
        if mark == MARK_NULL:
            return ("value", None)
        if mark == MARK_BACKREF:
            object_id = reader.read_varint()
            if object_id >= len(objects_by_id):
                raise FormatError(f"forward object reference {object_id}")
            return ("value", objects_by_id[object_id])
        if mark in (MARK_OBJECT, MARK_ARRAY):
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
    profile.add_instructions(len(stream.data) * _INSTR_PER_STREAM_BYTE)
    return DeserializationResult(root_obj, profile)
