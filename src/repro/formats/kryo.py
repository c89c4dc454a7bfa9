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
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.common.errors import FormatError, TruncatedStreamError
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
from repro.formats.streams import StreamReader, StreamWriter
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

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_MASK64 = (1 << 64) - 1


class KryoSerializer(Serializer):
    """Kryo with mandatory type registration ("Kryo" in the paper)."""

    name = "kryo"

    def __init__(
        self,
        registration: Optional[ClassRegistration] = None,
        use_plans: bool = True,
    ):
        self.registration = (
            registration if registration is not None else ClassRegistration()
        )
        # Plan kernels are byte-identical to the interpreter; the class-ID
        # varints depend on this instance's registration, so they are
        # cached per serialize call, not baked into the shared plans.
        self.use_plans = use_plans

    def register(self, klass) -> int:
        """Kryo's ``register(Class)``: required before S/D of that type."""
        return self.registration.register(klass)

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        if self.use_plans:
            return self._drain_walk(root)
        writer = StreamWriter()
        profile = WorkProfile()
        asm = ReflectAsmAccess()
        object_ids: Dict[int, int] = {}

        def write_primitive(kind: FieldKind, value) -> None:
            if kind is FieldKind.BOOLEAN:
                writer.write_u8(1 if value else 0, _SECTION_DATA)
            elif kind is FieldKind.BYTE:
                writer.write_bytes(
                    (int(value) & 0xFF).to_bytes(1, "little"), _SECTION_DATA
                )
            elif kind in (FieldKind.CHAR, FieldKind.SHORT):
                writer.write_u16(int(value) & 0xFFFF, _SECTION_DATA)
            elif kind in (FieldKind.INT, FieldKind.LONG):
                writer.write_signed_varint(int(value), _SECTION_DATA)
            elif kind is FieldKind.FLOAT:
                writer.write_bytes(struct.pack("<f", float(value)), _SECTION_DATA)
            elif kind is FieldKind.DOUBLE:
                writer.write_f64(float(value), _SECTION_DATA)
            else:  # pragma: no cover - guarded by callers
                raise FormatError(f"not a primitive kind: {kind}")
            profile.value_fields += 1
            profile.add_instructions(_INSTR_PER_PRIMITIVE)

        def emit_object(obj: HeapObject):
            profile.objects += 1
            profile.add_instructions(_INSTR_PER_OBJECT)
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2
            class_id = self.registration.id_of(obj.klass)
            object_ids[obj.address] = len(object_ids)
            if isinstance(obj.klass, ArrayKlass):
                writer.write_u8(MARK_ARRAY, _SECTION_MARKS)
                writer.write_varint(class_id, _SECTION_CLASS_IDS)
                writer.write_varint(obj.length, _SECTION_DATA)
                if obj.klass.element_kind.is_reference:
                    for index in range(obj.length):
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_REFERENCE)
                        yield obj.get_element(index)
                else:
                    # One bulk heap read for the whole element storage.
                    element_kind = obj.klass.element_kind
                    for value in obj.get_elements():
                        write_primitive(element_kind, value)
            else:
                klass = obj.klass
                assert isinstance(klass, InstanceKlass)
                writer.write_u8(MARK_OBJECT, _SECTION_MARKS)
                writer.write_varint(class_id, _SECTION_CLASS_IDS)
                for index, descriptor in enumerate(klass.fields):
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_REFERENCE)
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
                writer.write_u8(MARK_NULL, _SECTION_MARKS)
            elif child.address in object_ids:
                writer.write_u8(MARK_BACKREF, _SECTION_MARKS)
                writer.write_varint(object_ids[child.address], _SECTION_REFS)
            else:
                stack.append(emit_object(child))

        data = writer.getvalue()
        profile.add_instructions(asm.cost.estimated_instructions())
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
        """The plan encoder: one generator walk behind both the plan-path
        :meth:`serialize` and :meth:`serialize_chunks` (see
        :mod:`repro.formats.plans`, "chunked execution"). Streams and
        profiles are identical to the interpreter's.
        """
        heap = root.heap
        read = heap.memory.read
        object_at = heap.object_at
        header_slots = heap.header_slots
        id_of = self.registration.id_of
        append_varint = P.append_varint
        append_signed = P.append_signed_varint
        chunk = P.chunk_bytes_of(out)

        mark_count = 0
        class_id_count = 0
        data_count = 0
        ref_count = 0

        object_ids: Dict[int, int] = {}  # heap address -> object id
        next_object_id = 0
        class_id_bytes: Dict[Klass, bytes] = {}  # per-call: registration-local

        objects = 0
        instr = 0
        reflect_instr = 0
        aux = 0
        dep = 0
        value_fields = 0
        reference_fields = 0
        graph_bytes = 0

        plans_local: Dict[Klass, object] = {}

        def emit(obj: HeapObject):
            """Emit one object's prelude; returns a frame if it has more."""
            nonlocal out, mark_count, class_id_count, data_count, next_object_id
            nonlocal objects, instr, reflect_instr, aux, dep
            nonlocal value_fields, reference_fields, graph_bytes
            klass = obj.klass
            plan = plans_local.get(klass)
            if plan is None:
                plan = P.plan_for(self.name, klass, header_slots)
                plans_local[klass] = plan
            encoded_id = class_id_bytes.get(klass)
            if encoded_id is None:
                id_buffer = bytearray()
                append_varint(id_buffer, id_of(klass))
                encoded_id = bytes(id_buffer)
                class_id_bytes[klass] = encoded_id
            objects += 1
            aux += plan.ser_aux
            dep += plan.ser_dep
            object_ids[obj.address] = next_object_id
            next_object_id += 1
            is_array = klass.is_array
            out.append(MARK_ARRAY if is_array else MARK_OBJECT)
            mark_count += 1
            out += encoded_id
            class_id_count += len(encoded_id)
            if is_array:
                length = obj.length
                data_count += append_varint(out, length)
                instr += plan.ser_instr + length * plan.ser_elem_instr
                graph_bytes += obj.size_bytes
                element_base = obj.fields_base + 8
                if plan.is_ref:
                    reference_fields += length
                    if length:
                        addresses = struct.unpack(
                            f"<{length}Q", read(element_base, length * 8)
                        )
                        return [1, addresses, 0]
                    return None
                value_fields += length
                if length == 0:
                    return None
                if plan.copy_elements:
                    nbytes = length * plan.element_width
                    data_count += nbytes
                    if 0 < chunk < nbytes:
                        return [2, element_base, nbytes, 0]
                    out += read(element_base, nbytes)
                    return None
                values = struct.unpack(  # INT/LONG: zig-zag varint each
                    f"<{length}{plan.varint_code}",
                    read(element_base, length * plan.element_width),
                )
                return [3, values, 0]
            instr += plan.ser_instr
            reflect_instr += plan.ser_reflect_instr
            value_fields += plan.n_prim
            reference_fields += plan.n_ref
            data_count += plan.enc_data_bytes
            graph_bytes += plan.size_bytes
            raw = read(obj.address, plan.size_bytes)
            if plan.n_ref == 0:
                for op, start, end in plan.enc_ops:
                    if op == P.OP_COPY:
                        out += raw[start:end]
                    elif op == P.OP_VARINT:
                        data_count += append_signed(
                            out, _I64.unpack_from(raw, start)[0]
                        )
                    else:  # OP_FLOAT
                        out += _F32.pack(_F64.unpack_from(raw, start)[0])
                return None
            return [0, plan.enc_ops, 0, raw]

        frame = emit(root)
        stack: List[list] = [frame] if frame is not None else []
        while stack:
            frame = stack[-1]
            descend = None
            kind = frame[0]
            if kind == 0:  # instance: interleaved value/ref ops
                ops = frame[1]
                index = frame[2]
                raw = frame[3]
                op_count = len(ops)
                while index < op_count:
                    if chunk and out.ready_count:
                        frame[2] = index
                        yield
                    op, start, end = ops[index]
                    index += 1
                    if op == P.OP_COPY:
                        out += raw[start:end]
                    elif op == P.OP_VARINT:
                        data_count += append_signed(
                            out, _I64.unpack_from(raw, start)[0]
                        )
                    elif op == P.OP_FLOAT:
                        out += _F32.pack(_F64.unpack_from(raw, start)[0])
                    else:  # OP_REF
                        address = _U64.unpack_from(raw, start)[0]
                        if address == 0:
                            out.append(MARK_NULL)
                            mark_count += 1
                        else:
                            object_id = object_ids.get(address)
                            if object_id is not None:
                                out.append(MARK_BACKREF)
                                mark_count += 1
                                ref_count += append_varint(out, object_id)
                            else:
                                descend = emit(object_at(address))
                                if descend is not None:
                                    break
                frame[2] = index
            elif kind == 1:  # reference array
                addresses = frame[1]
                index = frame[2]
                count = len(addresses)
                while index < count:
                    if chunk and out.ready_count:
                        frame[2] = index
                        yield
                    address = addresses[index]
                    index += 1
                    if address == 0:
                        out.append(MARK_NULL)
                        mark_count += 1
                    else:
                        object_id = object_ids.get(address)
                        if object_id is not None:
                            out.append(MARK_BACKREF)
                            mark_count += 1
                            ref_count += append_varint(out, object_id)
                        else:
                            descend = emit(object_at(address))
                            if descend is not None:
                                break
                frame[2] = index
            elif kind == 2:  # verbatim primitive array, chunk-sized slices
                element_base = frame[1]
                nbytes = frame[2]
                offset = frame[3]
                while offset < nbytes:
                    if out.ready_count:
                        frame[3] = offset
                        yield
                    step = min(chunk, nbytes - offset)
                    out += read(element_base + offset, step)
                    offset += step
                frame[3] = offset
            else:  # INT/LONG array, zig-zag varint per element
                values = frame[1]
                index = frame[2]
                count = len(values)
                while index < count:
                    if chunk and out.ready_count:
                        frame[2] = index
                        yield
                    data_count += append_signed(out, values[index])
                    index += 1
                frame[2] = index
            if descend is not None:
                stack.append(descend)
            else:
                stack.pop()

        total = len(out)
        instr += reflect_instr + total * _INSTR_PER_STREAM_BYTE
        profile = WorkProfile()
        profile.instructions = instr
        profile.objects = objects
        profile.value_fields = value_fields
        profile.reference_fields = reference_fields
        profile.dependent_loads = dep
        profile.aux_random_accesses = aux
        profile.bytes_read = graph_bytes
        profile.bytes_written = total
        sections = {
            _SECTION_MARKS: mark_count,
            _SECTION_CLASS_IDS: class_id_count,
        }
        if data_count:
            sections[_SECTION_DATA] = data_count
        if ref_count:
            sections[_SECTION_REFS] = ref_count
        return P.ChunkedEncodeSummary(
            self.name, total, sections, profile, objects, graph_bytes
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
            if kind in (FieldKind.INT, FieldKind.LONG):
                return reader.read_signed_varint()
            if kind is FieldKind.FLOAT:
                return struct.unpack("<f", reader.read_bytes(4))[0]
            if kind is FieldKind.DOUBLE:
                return reader.read_f64()
            raise FormatError(f"not a primitive kind: {kind}")

        def parse_object(mark: int):
            class_id = reader.read_varint()
            klass = self.registration.klass_of(class_id, offset=reader.position)
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
                for index, descriptor in enumerate(klass.fields):
                    if descriptor.kind.is_reference:
                        profile.reference_fields += 1
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
                        child = yield obj
                        asm.set_field_by_index(obj, index, child)
                    else:
                        asm.set_field_by_index(
                            obj, index, read_primitive(descriptor.kind)
                        )
                        profile.value_fields += 1
                        profile.add_instructions(_INSTR_PER_FIELD_DESER)
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

    # ----------------------------------------------------- deserialize (plan kernel)

    def _deserialize_planned(
        self, stream: SerializedStream, heap: Heap, limits: DecodeLimits
    ) -> DeserializationResult:
        """Compiled-plan deserialize: identical heap image and profile."""
        data = stream.data
        n_data = len(data)
        limits.check_stream_bytes(n_data)
        max_objects = limits.max_objects
        max_array_length = limits.max_array_length
        max_depth = limits.max_depth
        memory = heap.memory
        header_slots = heap.header_slots
        klass_of = self.registration.klass_of
        read_varint = P.read_varint
        read_signed = P.read_signed_varint
        pos = 0

        objects_by_id: List[HeapObject] = []
        plans_local: Dict[Klass, object] = {}

        objects = 0
        allocations = 0
        instr = 0
        reflect_instr = 0
        aux = 0
        value_fields = 0
        reference_fields = 0
        graph_bytes = 0

        def underflow(count: int) -> FormatError:
            return TruncatedStreamError(
                offset=pos, needed=count, available=n_data - pos
            )

        def run_dec_ops(ops, index: int, words: list) -> int:
            nonlocal pos
            op_count = len(ops)
            while index < op_count:
                op, field_index, extra = ops[index]
                if op == P.DOP_REF:
                    return index
                if op == P.DOP_VARINT:
                    value, pos = read_signed(data, pos)
                    words[field_index] = value & _MASK64
                elif op == P.DOP_WORDS:
                    nbytes = extra * 8
                    if pos + nbytes > n_data:
                        raise underflow(nbytes)
                    words[field_index:field_index + extra] = struct.unpack_from(
                        f"<{extra}Q", data, pos
                    )
                    pos += nbytes
                elif op == P.DOP_FLOAT:
                    if pos + 4 > n_data:
                        raise underflow(4)
                    words[field_index] = _U64.unpack(
                        _F64.pack(_F32.unpack_from(data, pos)[0])
                    )[0]
                    pos += 4
                elif op == P.DOP_BOOL:
                    if pos >= n_data:
                        raise underflow(1)
                    words[field_index] = 1 if data[pos] else 0
                    pos += 1
                elif op == P.DOP_BYTE:
                    if pos >= n_data:
                        raise underflow(1)
                    raw = data[pos]
                    pos += 1
                    words[field_index] = (
                        raw if raw < 128 else (raw - 256) & _MASK64
                    )
                elif op == P.DOP_CHAR:
                    if pos + 2 > n_data:
                        raise underflow(2)
                    words[field_index] = data[pos] | (data[pos + 1] << 8)
                    pos += 2
                else:  # DOP_SHORT
                    if pos + 2 > n_data:
                        raise underflow(2)
                    raw = data[pos] | (data[pos + 1] << 8)
                    pos += 2
                    words[field_index] = (
                        raw if raw < 32768 else (raw - 65536) & _MASK64
                    )
                index += 1
            return index

        def start_content():
            nonlocal pos, objects, allocations, instr, reflect_instr, aux
            nonlocal value_fields, reference_fields, graph_bytes
            if pos >= n_data:
                raise underflow(1)
            mark = data[pos]
            pos += 1
            if mark == MARK_NULL:
                return 0, None
            if mark == MARK_BACKREF:
                object_id, pos = read_varint(data, pos)
                if object_id >= len(objects_by_id):
                    raise FormatError(f"forward object reference {object_id}")
                return 0, objects_by_id[object_id]
            if mark not in (MARK_OBJECT, MARK_ARRAY):
                raise FormatError(f"unexpected marker {mark:#x}")
            class_id, pos = read_varint(data, pos)
            klass = klass_of(class_id, offset=pos)
            plan = plans_local.get(klass)
            if plan is None:
                plan = P.plan_for(self.name, klass, header_slots)
                plans_local[klass] = plan
            objects += 1
            if objects > max_objects:
                limits.check_objects(objects)
            allocations += 1
            aux += plan.de_aux
            if mark == MARK_ARRAY:
                if not isinstance(klass, ArrayKlass):
                    raise FormatError("array marker with non-array class ID")
                length, pos = read_varint(data, pos)
                if length > max_array_length:
                    limits.check_array_length(length)
                obj = heap.allocate(klass, length)
                objects_by_id.append(obj)
                instr += plan.de_instr + length * plan.de_elem_instr
                graph_bytes += obj.size_bytes
                if plan.is_ref:
                    reference_fields += length
                    if length == 0:
                        return 0, obj
                    return 1, [1, obj, [0] * length, 0]
                value_fields += length
                if length == 0:
                    return 0, obj
                element_base = obj.fields_base + 8
                if plan.copy_elements:
                    nbytes = length * plan.element_width
                    if pos + nbytes > n_data:
                        raise underflow(nbytes)
                    memory.write(element_base, data[pos:pos + nbytes])
                    pos += nbytes
                else:  # INT/LONG arrays: zig-zag varint per element
                    values = []
                    for _ in range(length):
                        value, pos = read_signed(data, pos)
                        values.append(value)
                    memory.write(
                        element_base,
                        struct.pack(f"<{length}{plan.varint_code}", *values),
                    )
                return 0, obj
            if not isinstance(klass, InstanceKlass):
                raise FormatError("object marker with array class ID")
            obj = heap.allocate(klass)
            objects_by_id.append(obj)
            instr += plan.de_instr
            reflect_instr += plan.de_reflect_instr
            value_fields += plan.n_prim
            reference_fields += plan.n_ref
            graph_bytes += plan.size_bytes
            words = [0] * plan.field_count
            if plan.n_ref == 0:
                run_dec_ops(plan.dec_ops, 0, words)
                if words:
                    memory.write_words(obj.fields_base, words)
                return 0, obj
            return 1, [0, obj, plan.dec_ops, 0, words]

        _UNSET = object()
        kind, payload = start_content()
        if kind == 0:
            if payload is None:
                raise FormatError("stream root must be an object")
            root_obj = payload
            stack: List[list] = []
        else:
            stack = [payload]
            root_obj = payload[1]
        pending = _UNSET
        while stack:
            frame = stack[-1]
            descend = None
            if frame[0] == 0:  # instance frame
                obj, ops, words = frame[1], frame[2], frame[4]
                index = frame[3]
                if pending is not _UNSET:
                    child, pending = pending, _UNSET
                    words[ops[index][1]] = 0 if child is None else child.address
                    index += 1
                op_count = len(ops)
                while True:
                    index = run_dec_ops(ops, index, words)
                    if index >= op_count:
                        break
                    kind, payload = start_content()
                    if kind == 0:
                        words[ops[index][1]] = (
                            0 if payload is None else payload.address
                        )
                        index += 1
                    else:
                        descend = payload
                        break
                frame[3] = index
                if descend is None:
                    if words:
                        memory.write_words(obj.fields_base, words)
                    stack.pop()
                    pending = obj
            else:  # reference-array frame
                obj, words = frame[1], frame[2]
                index = frame[3]
                if pending is not _UNSET:
                    child, pending = pending, _UNSET
                    words[index] = 0 if child is None else child.address
                    index += 1
                count = len(words)
                while index < count:
                    kind, payload = start_content()
                    if kind == 0:
                        words[index] = 0 if payload is None else payload.address
                        index += 1
                    else:
                        descend = payload
                        break
                frame[3] = index
                if descend is None:
                    memory.write_words(obj.fields_base + 8, words)
                    stack.pop()
                    pending = obj
            if descend is not None:
                if len(stack) >= max_depth:
                    limits.check_depth(len(stack) + 1)
                stack.append(descend)

        instr += reflect_instr + n_data * _INSTR_PER_STREAM_BYTE
        profile = WorkProfile()
        profile.instructions = instr
        profile.objects = objects
        profile.allocations = allocations
        profile.value_fields = value_fields
        profile.reference_fields = reference_fields
        profile.aux_random_accesses = aux
        profile.bytes_read = n_data
        profile.bytes_written = graph_bytes
        return DeserializationResult(root_obj, profile)
