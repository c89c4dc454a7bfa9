"""Java built-in object serialization (``ObjectOutputStream`` model).

Reproduces the serialized-stream structure of paper Figure 1(b) and the
behaviours Section II calls out as expensive:

* every class is described *by name*: the class name string, a
  serialVersionUID, and per-field metadata (type code + field name string,
  plus a type string for reference fields) are embedded in the stream;
* field values are extracted through ``java.lang.reflect`` — each class's
  plan accounts, once, the field-name string matching that
  :class:`~repro.jvm.reflection.JavaReflection` models per access, the
  work that dominates Java S/D time;
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

S/D supplies only the Java-specific preludes (tags, class descriptors and
u32 handles) to the encode walk and decode driver it shares with Kryo in
:mod:`repro.formats.plans`. The field-by-field interpreter they must match
byte for byte is a test oracle (``tests/oracles.py``).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Optional

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
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.streams import StreamReader
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import FieldKind, InstanceKlass, Klass

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

    S/D runs the compiled-plan kernels of :mod:`repro.formats.plans`,
    which account the reflection-shim work per class once.
    """

    name = "java-builtin"

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        return self._drain_walk(root)

    def _encode_walk(self, root: HeapObject, out):
        """The plan encoder: Java's prelude over the shared walk
        (:func:`repro.formats.plans.encode_walk`), behind both
        :meth:`serialize` and :meth:`serialize_chunks`.

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

    @staticmethod
    def _slow_parse_class_desc(data: bytes, pos: int, klass: Klass, name: str) -> int:
        """Field-by-field descriptor parse, used when the fast byte compare
        against the plan's expected descriptor fails.

        Replicates the oracle interpreter's parse exactly — including its
        leniency about field-name strings (read and discarded) and its precise
        error messages for uid/count/kind mismatches. Returns the new cursor.
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

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        """Java's content prelude over the shared decode driver
        (:func:`repro.formats.plans.decode_walk`).

        Class descriptors are validated with one slice comparison against
        the plan's expected bytes.
        """
        limits = resolve_limits(limits)
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
