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
from repro.jvm.klass import ArrayKlass, SLOT_BYTES
from repro.jvm.markword import MarkWord, identity_hash_for

_SECTION_META = "metadata"
_SECTION_HEADERS = "headers"
_SECTION_VALUES = "values"
_SECTION_REFS = "references"

_NULL_RELATIVE = 0xFFFF_FFFF_FFFF_FFFF  # sentinel: null reference slot

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

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
        buffer it suspends between objects."""
        graph = ObjectGraph.from_root(root)
        profile = WorkProfile()
        heap = root.heap
        memory = heap.memory
        chunk = P.chunk_bytes_of(out)

        out += _U32.pack(graph.total_bytes)
        out += _U32.pack(graph.object_count)
        header_count = 0
        value_count = 0
        ref_count = 0

        for obj in graph:
            if chunk and out.ready_count:
                yield
            profile.objects += 1
            profile.add_instructions(_INSTR_PER_OBJECT)
            profile.aux_random_accesses += _AUX_ACCESSES_PER_OBJECT_SER
            profile.dependent_loads += 2
            # Header: mark word kept, klass pointer replaced by type ID
            # (automatic registration), extension word zeroed.
            out += _U64.pack(memory.read_u64(obj.address))
            out += _U64.pack(self.registration.register(obj.klass))
            header_count += 16
            if heap.cereal_extension:
                out += _U64.pack(0)
                header_count += 8
            reference_slots = set(obj.reference_slots())
            for slot in range(obj.field_slots):
                raw = memory.read_u64(obj.slot_address(slot))
                profile.add_instructions(_INSTR_PER_SLOT)
                if slot in reference_slots:
                    profile.reference_fields += 1
                    profile.add_instructions(_INSTR_PER_REFERENCE)
                    if raw == NULL_ADDRESS:
                        out += _U64.pack(_NULL_RELATIVE)
                    else:
                        out += _U64.pack(graph.relative_address[raw])
                    ref_count += 8
                else:
                    profile.value_fields += 1
                    out += _U64.pack(raw)
                    value_count += 8

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
        header_slots = heap.header_slots
        offset = 0
        root_obj: Optional[HeapObject] = None
        pending_reference_slots = []  # (absolute slot address, relative target)
        object_addresses = []

        for _ in range(object_count):
            address = base + offset
            if offset + heap.header_bytes > total_bytes:
                raise FormatError(
                    f"Skyway header declares more objects than fit in its "
                    f"{total_bytes}-byte image"
                )
            mark_raw = reader.read_u64()
            type_id = reader.read_u64()
            klass = self.registration.klass_of(type_id, offset=reader.position)
            memory.write_u64(address, mark_raw)
            assert klass.metaspace_address is not None or True
            if klass.metaspace_address is None:
                heap.registry.register(klass)
            memory.write_u64(address + 8, klass.metaspace_address)
            if heap.cereal_extension:
                reader.read_u64()
                memory.write_u64(address + 16, 0)
            profile.objects += 1
            profile.allocations += 1
            profile.add_instructions(_INSTR_PER_OBJECT + _INSTR_PER_REGISTERED_OBJECT)

            # First slot of an array is its length; we must read it before we
            # can size the object.
            fields_base = address + header_slots * SLOT_BYTES
            if isinstance(klass, ArrayKlass):
                length_word = reader.read_u64()
                length = length_word
                limits.check_array_length(length)
                first_slot = 1
            else:
                length = 0
                first_slot = 0
            field_slots = klass.instance_slots(length)
            size_bytes = (header_slots + field_slots) * SLOT_BYTES
            if offset + size_bytes > total_bytes:
                # A lying length or type ID would otherwise let slot writes
                # run past the reserved region into unrelated heap memory.
                raise FormatError(
                    f"Skyway object at image offset {offset} extends "
                    f"{size_bytes} bytes past the {total_bytes}-byte image"
                )
            if first_slot:
                memory.write_u64(fields_base, length_word)
            reference_slots = set(klass.reference_slot_indices(length))
            for slot in range(first_slot, field_slots):
                raw = reader.read_u64()
                slot_address = fields_base + slot * SLOT_BYTES
                profile.add_instructions(_INSTR_PER_SLOT)
                if slot in reference_slots:
                    # Sequential reference adjustment (Skyway's bottleneck):
                    # each rewrite depends on stream order.
                    profile.reference_fields += 1
                    profile.dependent_loads += 1
                    profile.add_instructions(_INSTR_PER_REFERENCE)
                    if raw == _NULL_RELATIVE:
                        memory.write_u64(slot_address, NULL_ADDRESS)
                    else:
                        pending_reference_slots.append((slot_address, raw))
                        memory.write_u64(slot_address, NULL_ADDRESS)
                else:
                    profile.value_fields += 1
                    memory.write_u64(slot_address, raw)

            obj = heap.register_object(address, klass, length)
            object_addresses.append(obj.address)
            if root_obj is None:
                root_obj = obj
            offset += obj.size_bytes

        if offset != total_bytes:
            raise FormatError(
                f"Skyway stream size mismatch: walked {offset}, header said "
                f"{total_bytes}"
            )
        # Reference adjustment pass: relative -> absolute, validated
        # against the set of object starts actually materialized so a
        # corrupted stream cannot produce dangling references.
        valid_targets = {obj_address - base for obj_address in object_addresses}
        for slot_address, relative in pending_reference_slots:
            if relative not in valid_targets:
                raise FormatError(
                    f"relative address {relative} does not target an object"
                )
            memory.write_u64(slot_address, base + relative)

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
    return MarkWord(identity_hash=identity_hash_for(obj.address)).encode()
