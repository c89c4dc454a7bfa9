"""Skyway-style serialization (paper Section II, "Skyway Serializer").

Skyway transfers objects as raw memory copies to eliminate per-field
disassembly/reassembly:

* each object's full memory image (header + all 8 B slots) is appended to
  the stream in traversal order;
* the klass pointer in the copied header is replaced by an integer type ID
  from a *global type registry* filled automatically on first use (no manual
  registration, unlike Kryo);
* every reference slot is rewritten in-stream to the target's *relative
  address* — its offset in the deserialized image;
* at the receiver, objects are materialized by one bulk copy, after which
  references are adjusted **sequentially** (relative -> absolute), the
  inefficiency Cereal's decoupled format removes.

Because whole objects are shipped verbatim — headers, nulls, and reference
slots included — Skyway streams are larger than Kryo's (the paper reports a
16% average speedup over Kryo but inflated streams).
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.common.errors import FormatError
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
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject, NULL_ADDRESS
from repro.jvm.klass import ArrayKlass, HEADER_BYTES, HEADER_SLOTS, SLOT_BYTES
from repro.jvm.layout_cache import layout_of
from repro.jvm.markword import fresh_mark_word

_SECTION_META = "metadata"
_SECTION_HEADERS = "headers"
_SECTION_VALUES = "values"
_SECTION_REFS = "references"

_NULL_RELATIVE = 0xFFFF_FFFF_FFFF_FFFF  # sentinel: null reference slot

_U32 = struct.Struct("<I")

# Skyway ships whole objects by copy; per-object work is the visited check
# and address bookkeeping, plus the sequential reference adjustment at the
# receiver (its bottleneck). Calibrated to sit modestly ahead of Kryo
# overall (the paper reports a 16% average speedup).
_INSTR_PER_OBJECT = 2000  # visited map + relative-address bookkeeping
_INSTR_PER_SLOT = 4  # memcpy amortized
_INSTR_PER_REFERENCE = 110  # relative-address rewrite / adjustment
_INSTR_PER_REGISTERED_OBJECT = 150  # receiver-side object table insert
_AUX_ACCESSES_PER_OBJECT_SER = 2  # visited identity-map probe


class SkywaySerializer(Serializer):
    """Skyway: raw object-graph shipping with automatic type registration."""

    name = "skyway"

    def __init__(self, registration: Optional[ClassRegistration] = None):
        self.registration = (
            registration if registration is not None else ClassRegistration()
        )

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        return self._drain_walk(root)

    def _encode_walk(self, root: HeapObject, out):
        """Skyway's one encoder, a generator walk behind both
        :meth:`serialize` and :meth:`serialize_chunks` (see
        :mod:`repro.formats.plans`, "chunked execution"). Over a chunking
        buffer it suspends between objects.

        Each object costs one word-run read of its field slots and one
        packed image append; its heap trace is that of one ``read_u64``
        for the mark word and one per field slot."""
        graph = ObjectGraph.from_root(root)
        profile = WorkProfile()
        heap = root.heap
        memory = heap.memory
        read_u64 = memory.read_u64
        read_word_run = memory.read_word_run
        register = self.registration.register
        relative_address = graph.relative_address
        chunk = P.chunk_bytes_of(out)

        out += _U32.pack(graph.total_bytes)
        out += _U32.pack(graph.object_count)
        header_count = 0
        value_count = 0
        ref_count = 0

        for obj, layout in zip(graph.objects, graph.layouts):
            if chunk and out.ready_count:
                yield
            address = obj.address
            field_slots = layout.field_slots
            references = len(layout.reference_slots)
            profile.objects += 1
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2
            profile.reference_fields += references
            profile.value_fields += field_slots - references
            profile.add_instructions(
                _INSTR_PER_OBJECT
                + field_slots * _INSTR_PER_SLOT
                + references * _INSTR_PER_REFERENCE
            )
            # Header: mark word kept, klass pointer replaced by type ID
            # (automatic registration), extension word zeroed.
            image = [read_u64(address), register(obj.klass), 0]
            image += read_word_run(address + HEADER_BYTES, field_slots)
            for slot in layout.reference_slots:
                raw = image[HEADER_SLOTS + slot]
                image[HEADER_SLOTS + slot] = (
                    _NULL_RELATIVE if raw == NULL_ADDRESS else relative_address[raw]
                )
            out += layout.image_struct.pack(*image)
            header_count += HEADER_BYTES
            ref_count += references * 8
            value_count += (field_slots - references) * 8

        total = len(out)
        profile.bytes_read = graph.total_bytes
        profile.bytes_written = total
        # Bulk copies are cheap per byte; add the memcpy cost.
        profile.add_instructions(graph.total_bytes // 8)
        sections = {_SECTION_META: 8, _SECTION_HEADERS: header_count}
        if value_count:
            sections[_SECTION_VALUES] = value_count
        if ref_count:
            sections[_SECTION_REFS] = ref_count
        return P.ChunkedEncodeSummary(
            self.name, total, sections, profile,
            graph.object_count, graph.total_bytes,
        )

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
        profile = WorkProfile()
        total_bytes = reader.read_u32()
        object_count = reader.read_u32()
        if total_bytes <= 0 or object_count <= 0:
            raise FormatError("empty Skyway stream")
        # The header's claims are checked against the budget *and* against
        # the actual stream before any heap space is reserved: a header
        # cannot make the receiver commit more memory than the sender shipped
        # bytes for (minus per-object header overlap, bounded by 8x).
        limits.check_objects(object_count)
        limits.check_graph_bytes(total_bytes)
        if total_bytes > len(stream.data) * 8:
            raise FormatError(
                f"Skyway header claims {total_bytes} image bytes from a "
                f"{len(stream.data)}-byte stream"
            )

        base = heap.reserve(total_bytes)
        memory = heap.memory
        offset = 0
        root_obj: Optional[HeapObject] = None
        # Reference slots to patch: absolute slot address, relative target.
        pending_slots = []
        pending_targets = []
        object_addresses = []

        for _ in range(object_count):
            address = base + offset
            if offset + HEADER_BYTES > total_bytes:
                raise FormatError(
                    f"Skyway header declares more objects than fit in its "
                    f"{total_bytes}-byte image"
                )
            mark_raw = reader.read_u64()
            type_id = reader.read_u64()
            klass = self.registration.klass_of(type_id, offset=reader.position)
            if klass.metaspace_address is None:
                heap.registry.register(klass)
            reader.read_u64()  # the zeroed extension word
            image = [mark_raw, klass.metaspace_address, 0]

            # First slot of an array is its length; we must read it before we
            # can size the object.
            if isinstance(klass, ArrayKlass):
                length = reader.read_u64()
                limits.check_array_length(length)
                image.append(length)
            else:
                length = 0
            field_slots = klass.instance_slots(length)
            size_bytes = (HEADER_SLOTS + field_slots) * SLOT_BYTES
            if offset + size_bytes > total_bytes:
                # A lying length or type ID would otherwise let slot writes
                # run past the reserved region into unrelated heap memory.
                raise FormatError(
                    f"Skyway object at image offset {offset} extends "
                    f"{size_bytes} bytes past the {total_bytes}-byte image"
                )
            # The remaining slots (an array's length slot is already read).
            slots = HEADER_SLOTS + field_slots - len(image)
            image += reader.read_u64_run(slots)
            # Sequential reference adjustment (Skyway's bottleneck): each
            # reference slot is written null now and patched below.
            reference_slots = layout_of(klass, length).reference_slots
            fields_base = address + HEADER_BYTES
            for slot in reference_slots:
                raw = image[HEADER_SLOTS + slot]
                if raw != _NULL_RELATIVE:
                    pending_slots.append(fields_base + slot * SLOT_BYTES)
                    pending_targets.append(raw)
                image[HEADER_SLOTS + slot] = NULL_ADDRESS
            memory.write_word_run(address, image)

            references = len(reference_slots)
            profile.objects += 1
            profile.allocations += 1
            profile.reference_fields += references
            profile.dependent_loads += references
            profile.value_fields += slots - references
            profile.add_instructions(
                _INSTR_PER_OBJECT
                + _INSTR_PER_REGISTERED_OBJECT
                + slots * _INSTR_PER_SLOT
                + references * _INSTR_PER_REFERENCE
            )

            obj = heap.register_object(address, klass, length)
            object_addresses.append(address)
            if root_obj is None:
                root_obj = obj
            offset += size_bytes

        if offset != total_bytes:
            raise FormatError(
                f"Skyway stream size mismatch: walked {offset}, header said "
                f"{total_bytes}"
            )
        # Reference adjustment pass: relative -> absolute, validated
        # against the set of object starts actually materialized so a
        # corrupted stream cannot produce dangling references.
        valid_targets = {obj_address - base for obj_address in object_addresses}
        if not valid_targets.issuperset(pending_targets):
            relative = next(r for r in pending_targets if r not in valid_targets)
            raise FormatError(
                f"relative address {relative} does not target an object"
            )
        memory.scatter_words(
            pending_slots, [base + relative for relative in pending_targets]
        )

        assert root_obj is not None
        profile.bytes_read = len(stream.data)
        profile.bytes_written = total_bytes
        profile.add_instructions(total_bytes // 8)
        return DeserializationResult(root_obj, profile)


def strip_mark_word(obj: HeapObject) -> int:
    """Reconstruct a fresh mark word for a header-stripped object.

    Used by the header-strip size optimization (paper Figure 16): when the
    mark word is dropped from the stream, the receiver must rebuild it, and
    the identity hash changes.
    """
    return fresh_mark_word(obj.address)
