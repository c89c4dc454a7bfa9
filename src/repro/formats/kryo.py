"""Kryo-style serialization (paper Figure 1(c)).

Kryo's optimizations over Java S/D, all modelled here:

* **Integer class numbering** — every class (including primitives/arrays)
  must be registered up front; the stream stores a small varint class ID
  instead of name strings. The *same* registry must be used to deserialize.
* **Null-check byte** — each object slot starts with a 1-byte marker:
  null, back reference, or new object.
* **Optimized reflection** — field access is ReflectASM-style indexed
  access (:class:`~repro.jvm.reflection.ReflectAsmAccess`), no string
  lookups; the plans book its cost per field.
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
:mod:`repro.formats.plans`. That decode driver is the only Kryo decoder:
``VersionedKryo``'s schema evolution runs it too, with plans compiled
from the schema resolution (:func:`repro.formats.plans.compile_kryo`).
The field-by-field interpreter lives on as the test oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.registry import ClassRegistration
from repro.formats.varint import VarintBytes
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import Klass

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
        """Decode with this registration's plans from the process-wide
        plan cache."""
        klasses = list(self.registration)
        return self._decode(stream, heap, limits, klasses, [None] * len(klasses))

    def _decode(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits],
        klasses: List[Klass],
        plans: list,
    ) -> DeserializationResult:
        """Kryo's content prelude over the shared decode driver
        (:func:`repro.formats.plans.decode_walk`).

        Class ID ``i`` allocates ``klasses[i]`` and decodes with
        ``plans[i]``; a ``None`` plan is fetched from the plan cache on
        first use. ``VersionedKryo`` passes plans compiled from a schema
        resolution instead.
        """
        limits = resolve_limits(limits)
        data = stream.data
        n_data = len(data)
        limits.check_stream_bytes(n_data)
        n_classes = len(klasses)
        read_varint = P.read_varint
        objects_by_id: List[HeapObject] = []

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
            if class_id >= n_classes:
                raise UnknownClassError(
                    class_id,
                    detail=f"registry holds {n_classes} classes",
                    offset=pos,
                )
            plan = plans[class_id]
            if plan is None:
                plan = plans[class_id] = P.plan_for(self.name, klasses[class_id])
            return pos, plan, klasses[class_id], mark == MARK_ARRAY

        root, profile = P.decode_walk(
            data, 0, heap, limits, content, read_varint,
            (
                "array marker with non-array class ID",
                "object marker with array class ID",
            ),
            objects_by_id, _INSTR_PER_STREAM_BYTE,
        )
        return DeserializationResult(root, profile)
