"""Hardened, versioned deserialization (`repro.formats.secure`).

Two defenses layered over the format implementations:

**Transactional decode** — :func:`secure_deserialize` wraps any
:class:`~repro.formats.base.Serializer`: the stream is unframed (CRC
verified) when framed, decoded under a :class:`DecodeLimits` budget, and —
on *any* failure — the heap is rolled back to the pre-decode checkpoint, so
a hostile stream can never leave partially-materialized objects behind.
Every rejection is re-raised as a typed :class:`FormatError` subtype and
counted in `repro.obs` as ``decode.rejected{reason,format}``.

**Schema evolution** — :class:`VersionedKryo` writes a schema header in
front of the Kryo payload: one fingerprinted descriptor per registered
class (name, fields, kinds). On decode the *writer's* schema is resolved
against the *reader's* registry:

* fingerprints all match and class IDs align → the payload is handed to
  the Kryo decoder untouched, with the cached plans (identity path);
* otherwise → each writer class ID gets a Kryo plan compiled from its
  resolution (:func:`repro.formats.plans.compile_kryo`), and the same
  Kryo decoder runs those plans, decoding the writer's layout into the
  reader's classes:

  * field added by the reader → decoded as its zero default;
  * field removed by the reader → decoded per the writer's schema into a
    discard word (reference subtrees are still fully parsed and
    allocated, so back-reference numbering stays consistent);
  * fields reordered or class IDs renumbered → matched by name;

* same-name field with a different kind, or an array whose element kind
  changed → :class:`SchemaMismatchError`;
* writer class the reader never registered → :class:`UnknownClassError`.

Resolutions are counted as ``schema.resolved{outcome}``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import (
    CorruptionError,
    FormatError,
    HeapError,
    MalformedVarintError,
    RegistrationError,
    ResourceLimitError,
    SchemaMismatchError,
    TruncatedStreamError,
    UnknownClassError,
)
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
)
from repro.formats.kryo import KryoSerializer
from repro.formats.limits import DEFAULT_LIMITS, DecodeLimits, resolve_limits
from repro.formats.plans import compile_kryo, schema_fingerprint
from repro.formats.registry import ClassRegistration
from repro.formats.streams import StreamReader, StreamWriter
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass, Klass
from repro.obs.metrics import get_registry

__all__ = [
    "DEFAULT_LIMITS",
    "DecodeLimits",
    "VersionedKryo",
    "decode_stats",
    "schema_fingerprint",
    "secure_deserialize",
    "secure_deserialize_chunks",
]

# Rejection reasons, most specific first: label values for
# ``decode.rejected{reason=...}`` and the keys of decode_stats().
REASON_TRUNCATED = "truncated"
REASON_VARINT = "varint"
REASON_UNKNOWN_CLASS = "unknown_class"
REASON_RESOURCE_LIMIT = "resource_limit"
REASON_SCHEMA = "schema"
REASON_CORRUPTION = "corruption"
REASON_MALFORMED = "malformed"

# Python-level faults a malformed stream could still trip inside a decoder
# (bad struct counts, list overruns, unicode garbage, recursion depth).
# All are converted to FormatError so rejection is always typed.
_WRAPPABLE = (
    struct.error,
    ValueError,
    IndexError,
    KeyError,
    TypeError,
    OverflowError,
    MemoryError,
    RecursionError,
)


def classify_rejection(error: BaseException) -> str:
    """Map an exception raised during decode to its rejection-reason label."""
    if isinstance(error, TruncatedStreamError):
        return REASON_TRUNCATED
    if isinstance(error, MalformedVarintError):
        return REASON_VARINT
    if isinstance(error, UnknownClassError):
        return REASON_UNKNOWN_CLASS
    if isinstance(error, ResourceLimitError):
        return REASON_RESOURCE_LIMIT
    if isinstance(error, SchemaMismatchError):
        return REASON_SCHEMA
    if isinstance(error, CorruptionError):
        return REASON_CORRUPTION
    if isinstance(error, (HeapError,)):
        return REASON_RESOURCE_LIMIT
    if isinstance(error, RegistrationError):
        return REASON_UNKNOWN_CLASS
    return REASON_MALFORMED


def secure_deserialize(
    serializer: Serializer,
    stream: SerializedStream,
    heap: Heap,
    limits: Optional[DecodeLimits] = None,
) -> DeserializationResult:
    """Decode ``stream`` transactionally: typed rejection, no partial heap.

    On success the result is returned and ``decode.accepted`` incremented.
    On *any* failure the heap is rolled back to its pre-call state, the
    failure is counted as ``decode.rejected{reason,format}``, and a
    :class:`FormatError` subtype is raised — untyped Python faults from a
    malformed stream are wrapped, never propagated raw.
    """
    limits = resolve_limits(limits)
    registry = get_registry()
    token = heap.checkpoint()
    try:
        limits.check_stream_bytes(len(stream.data))
        payload = stream.unframed() if stream.is_framed else stream
        result = serializer.deserialize(payload, heap, limits=limits)
    except Exception as error:
        heap.rollback(token)
        reason = classify_rejection(error)
        registry.counter(
            "decode.rejected", format=serializer.name, reason=reason
        ).inc()
        if isinstance(error, FormatError):
            raise
        if isinstance(error, HeapError):
            raise ResourceLimitError(
                "heap_bytes", str(error), heap.memory.size_bytes
            ) from error
        if isinstance(error, RegistrationError):
            raise UnknownClassError("?", detail=str(error)) from error
        if isinstance(error, _WRAPPABLE):
            raise FormatError(
                f"malformed stream: {type(error).__name__}: {error}"
            ) from error
        raise
    registry.counter("decode.accepted", format=serializer.name).inc()
    return result


def secure_deserialize_chunks(
    serializer: Serializer,
    chunks,
    heap: Heap,
    limits: Optional[DecodeLimits] = None,
) -> DeserializationResult:
    """Transactionally decode a sequence of CRC-framed chunks.

    Streaming front end of :func:`secure_deserialize`: each chunk's frame
    is verified (magic, header/payload CRC, strict sequence order) and
    ``DecodeLimits.max_stream_bytes`` is charged incrementally as chunks
    arrive, so a hostile or over-budget stream is rejected *at the
    offending chunk* — later chunks are never read. A stream whose
    LAST-flagged chunk never arrives raises
    :class:`TruncatedStreamError` at the point it went dark. The
    reassembled payload (zero-copy into the decoders via the
    buffer-protocol :class:`StreamReader`) then runs through the same
    checkpoint/rollback decode as the whole-stream path, so rejection
    counters and heap guarantees are shared, not parallel.
    """
    limits = resolve_limits(limits)
    registry = get_registry()
    from repro.formats.chunked import ChunkAssembler

    assembler = ChunkAssembler(limits)
    try:
        for chunk in chunks:
            assembler.push(chunk)
        payload = assembler.payload()
    except Exception as error:
        reason = classify_rejection(error)
        registry.counter(
            "decode.rejected", format=serializer.name, reason=reason
        ).inc()
        if isinstance(error, FormatError):
            raise
        if isinstance(error, _WRAPPABLE):
            raise FormatError(
                f"malformed chunk stream: {type(error).__name__}: {error}"
            ) from error
        raise
    stream = SerializedStream(
        format_name=serializer.name, data=payload, sections={}
    )
    return secure_deserialize(serializer, stream, heap, limits=limits)


def decode_stats() -> Dict[str, object]:
    """Aggregated decode/schema counters (tests, the adversarial bench).

    Returns ``accepted``/``rejected`` totals, a rejection breakdown by
    reason, and the schema-resolution outcome counts, parsed out of the
    process-wide metrics registry.
    """
    accepted = 0
    rejected = 0
    by_reason: Dict[str, int] = {}
    schema: Dict[str, int] = {}
    for key, value in get_registry().snapshot().items():
        if not isinstance(value, int):
            continue
        if key.startswith("decode.accepted"):
            accepted += value
        elif key.startswith("decode.rejected"):
            rejected += value
            for part in key[key.find("{") + 1 : key.rfind("}")].split(","):
                if part.startswith("reason="):
                    reason = part[len("reason=") :]
                    by_reason[reason] = by_reason.get(reason, 0) + value
        elif key.startswith("schema.resolved"):
            for part in key[key.find("{") + 1 : key.rfind("}")].split(","):
                if part.startswith("outcome="):
                    outcome = part[len("outcome=") :]
                    schema[outcome] = schema.get(outcome, 0) + value
    return {
        "accepted": accepted,
        "rejected": rejected,
        "rejected_by_reason": dict(sorted(by_reason.items())),
        "schema_resolutions": dict(sorted(schema.items())),
    }


# -- schema fingerprints and the versioned header ------------------------------------

SCHEMA_MAGIC = b"CSV1"
_SECTION_SCHEMA = "schema"
_MAX_HEADER_CLASSES = 65535
_MAX_HEADER_FIELDS = 4096

_KIND_CODES = {kind: code for code, kind in enumerate(FieldKind)}
_KIND_BY_CODE = {code: kind for kind, code in _KIND_CODES.items()}


@dataclass
class WriterClassSchema:
    """One class as the *writer* described it in the stream header."""

    name: str
    fingerprint: int
    element_kind: Optional[FieldKind]  # set for arrays, None for instances
    fields: Tuple[Tuple[str, FieldKind], ...]  # () for arrays

    @property
    def is_array(self) -> bool:
        return self.element_kind is not None


def write_schema_header(
    writer: StreamWriter, registration: ClassRegistration
) -> None:
    """Append the versioned schema header for every registered class."""
    writer.write_bytes(SCHEMA_MAGIC, _SECTION_SCHEMA)
    writer.write_varint(len(registration), _SECTION_SCHEMA)
    for klass in registration:
        writer.write_utf(klass.name, _SECTION_SCHEMA)
        writer.write_u64(schema_fingerprint(klass), _SECTION_SCHEMA)
        if isinstance(klass, ArrayKlass):
            writer.write_u8(1, _SECTION_SCHEMA)
            writer.write_u8(_KIND_CODES[klass.element_kind], _SECTION_SCHEMA)
        else:
            assert isinstance(klass, InstanceKlass)
            writer.write_u8(0, _SECTION_SCHEMA)
            writer.write_varint(len(klass.fields), _SECTION_SCHEMA)
            for descriptor in klass.fields:
                writer.write_utf(descriptor.name, _SECTION_SCHEMA)
                writer.write_u8(_KIND_CODES[descriptor.kind], _SECTION_SCHEMA)


def read_schema_header(reader: StreamReader) -> List[WriterClassSchema]:
    """Parse the schema header; every read is bounds-checked."""
    if reader.read_bytes(4) != SCHEMA_MAGIC:
        raise FormatError("bad schema header magic")
    n_classes = reader.read_varint()
    if n_classes > _MAX_HEADER_CLASSES:
        raise ResourceLimitError("header_classes", n_classes, _MAX_HEADER_CLASSES)
    out: List[WriterClassSchema] = []
    for _ in range(n_classes):
        name = reader.read_utf()
        fingerprint = reader.read_u64()
        is_array = reader.read_u8()
        if is_array not in (0, 1):
            raise FormatError(f"bad schema array flag {is_array:#x}")
        if is_array:
            code = reader.read_u8()
            kind = _KIND_BY_CODE.get(code)
            if kind is None:
                raise FormatError(f"unknown field-kind code {code:#x}")
            out.append(WriterClassSchema(name, fingerprint, kind, ()))
            continue
        n_fields = reader.read_varint()
        if n_fields > _MAX_HEADER_FIELDS:
            raise ResourceLimitError("header_fields", n_fields, _MAX_HEADER_FIELDS)
        fields = []
        for _ in range(n_fields):
            field_name = reader.read_utf()
            code = reader.read_u8()
            kind = _KIND_BY_CODE.get(code)
            if kind is None:
                raise FormatError(f"unknown field-kind code {code:#x}")
            fields.append((field_name, kind))
        out.append(WriterClassSchema(name, fingerprint, None, tuple(fields)))
    return out


@dataclass
class _Resolution:
    """How one writer class decodes against the reader's registry."""

    reader_klass: Klass
    # Per writer field, in writer order: (reader field index, or None when
    # the reader dropped it; writer kind). The evolved decode compiles
    # (reader_klass, fields) into this class ID's Kryo plan.
    fields: Tuple[Tuple[Optional[int], FieldKind], ...]
    identical: bool  # fingerprint matches AND the class ID aligns


def resolve_schemas(
    writer_classes: List[WriterClassSchema], registration: ClassRegistration
) -> List[_Resolution]:
    """Resolve every writer class against the reader registry.

    Raises :class:`UnknownClassError` for names the reader never
    registered and :class:`SchemaMismatchError` for irreconcilable shape
    changes (instance/array flip, element-kind change, same-name field
    kind change).
    """
    by_name: Dict[str, Tuple[int, Klass]] = {
        klass.name: (class_id, klass)
        for class_id, klass in enumerate(registration)
    }
    resolutions: List[_Resolution] = []
    for writer_id, schema in enumerate(writer_classes):
        entry = by_name.get(schema.name)
        if entry is None:
            raise UnknownClassError(
                repr(schema.name),
                detail="writer class not in reader registry",
            )
        reader_id, reader_klass = entry
        if schema.is_array != reader_klass.is_array:
            raise SchemaMismatchError(
                f"class {schema.name!r} changed between array and instance"
            )
        if schema.is_array:
            assert isinstance(reader_klass, ArrayKlass)
            if schema.element_kind is not reader_klass.element_kind:
                raise SchemaMismatchError(
                    f"array {schema.name!r} element kind changed from "
                    f"{schema.element_kind.value} to "
                    f"{reader_klass.element_kind.value}"
                )
            fields: Tuple[Tuple[Optional[int], FieldKind], ...] = ()
        else:
            assert isinstance(reader_klass, InstanceKlass)
            reader_fields = {
                descriptor.name: (index, descriptor.kind)
                for index, descriptor in enumerate(reader_klass.fields)
            }
            resolved = []
            for field_name, writer_kind in schema.fields:
                reader_index, reader_kind = reader_fields.get(
                    field_name, (None, None)
                )
                if reader_kind is not None and reader_kind is not writer_kind:
                    raise SchemaMismatchError(
                        f"field {schema.name}.{field_name} changed kind from "
                        f"{writer_kind.value} to {reader_kind.value}"
                    )
                resolved.append((reader_index, writer_kind))
            fields = tuple(resolved)
        identical = (
            reader_id == writer_id
            and schema.fingerprint == schema_fingerprint(reader_klass)
        )
        resolutions.append(_Resolution(reader_klass, fields, identical))
    return resolutions


class VersionedKryo(Serializer):
    """Kryo with a fingerprinted schema header and reader-side resolution.

    Serialize writes the header describing *this* registration, then the
    ordinary Kryo payload. Deserialize resolves the stream's writer schema
    against *this* (possibly newer or older) registration. Both outcomes
    run the one Kryo decoder: the identity path with the cached plans,
    any evolution with plans compiled from the resolution, which honor
    add/remove/reorder and renumbered class IDs.
    """

    name = "kryo-versioned"

    def __init__(self, registration: Optional[ClassRegistration] = None):
        self.kryo = KryoSerializer(registration=registration)
        self.registration = self.kryo.registration

    def register(self, klass) -> int:
        return self.registration.register(klass)

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        result = self.kryo.serialize(root)
        header = StreamWriter()
        write_schema_header(header, self.registration)
        sections = {_SECTION_SCHEMA: len(header)}
        sections.update(result.stream.sections)
        result.profile.bytes_written += len(header)
        stream = SerializedStream(
            format_name=self.name,
            data=header.getvalue() + result.stream.data,
            sections=sections,
            object_count=result.stream.object_count,
            graph_bytes=result.stream.graph_bytes,
        )
        stream.check_sections()
        return SerializationResult(stream, result.profile)

    # ---------------------------------------------------------------- deserialize

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        limits = resolve_limits(limits)
        limits.check_stream_bytes(len(stream.data))
        reader = StreamReader(stream.data)
        writer_classes = read_schema_header(reader)
        resolutions = resolve_schemas(writer_classes, self.registration)
        payload = SerializedStream(
            format_name="kryo",
            data=stream.data[reader.position :],
            sections=dict(stream.sections),
            object_count=stream.object_count,
            graph_bytes=stream.graph_bytes,
        )
        if all(r.identical for r in resolutions):
            get_registry().counter("schema.resolved", outcome="identity").inc()
            return self.kryo.deserialize(payload, heap, limits=limits)
        get_registry().counter("schema.resolved", outcome="evolved").inc()
        result = self.kryo._decode(
            payload, heap, limits,
            [r.reader_klass for r in resolutions],
            [compile_kryo(r.reader_klass, r.fields) for r in resolutions],
        )
        # A dropped reference field's subtree is allocated but unreachable:
        # the graph written is what the root reaches.
        result.profile.bytes_written = ObjectGraph.from_root(result.root).total_bytes
        return result
