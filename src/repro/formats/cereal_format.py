"""The Cereal serialization format (paper Section IV, Figures 4 and 5).

The stream decouples three structures so hardware can process them in
parallel (value copying and reference adjustment become independent):

* **value array** — every *value* slot of every object, in image order:
  the mark word, the class-ID word (the klass pointer translated through
  the Klass Pointer Table), the zeroed Cereal extension word, and all
  primitive field slots, each 8 B;
* **reference array** — one entry per *reference* slot in image order: the
  target's relative address in the deserialized image (biased by +1 so 0
  encodes null), packed with the Section IV-B scheme;
* **layout bitmaps** — per-object bitmaps, one bit per 8 B slot (1 =
  reference), packed with the same scheme. A bitmap's bit length times 8 is
  the object's size, so no separate size table is needed.

Objects appear in **breadth-first** order — the order the hardware's header
manager queue discovers them (Section V-B).

Stream framing (all little-endian):

    u32 graph_total_bytes     u32 object_count
    u32 value_array_bytes     value array
    u32 ref_data_bytes        u32 ref_end_map_bytes      u32 ref_count
    packed references         reference end map
    u32 bitmap_data_bytes     u32 bitmap_end_map_bytes
    packed layout bitmaps     bitmap end map

This module is the *functional reference implementation*; the cycle-level
model in :mod:`repro.cereal` produces identical bytes while accounting time.
S/D runs one compiled plan per object shape (:mod:`repro.formats.plans`).
The per-object encoder and per-slot rebuild they must match byte for byte
are test oracles (``tests/oracles.py``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.config import CerealConfig
from repro.common.errors import (
    FormatError,
    RegistrationError,
    TruncatedStreamError,
)
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
    WorkProfile,
)
from repro.formats import plans as P
from repro.formats.packing import (
    PackedArray,
    pack_bitmap_words,
    pack_items,
    unpack_bitmap_words,
    unpack_items,
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.registry import ClassRegistration
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import Heap, HeapObject, NULL_ADDRESS
from repro.jvm.klass import ArrayKlass, HEADER_SLOTS, SLOT_BYTES
from repro.jvm.markword import fresh_mark_word

SECTION_META = "metadata"
SECTION_VALUES = "value_array"
SECTION_REFS = "reference_array"
SECTION_REF_END_MAP = "reference_end_map"
SECTION_BITMAPS = "layout_bitmap"
SECTION_BITMAP_END_MAP = "bitmap_end_map"

_MARK_SLOT = 0
_KLASS_SLOT = 1

# Stream framing flags (one byte after the graph size / object count).
_FLAG_PACKED = 0x01
_FLAG_MARK_STRIPPED = 0x02

_INSTR_PER_OBJECT = 20
_INSTR_PER_SLOT = 2
_INSTR_PER_MARK_REBUILD = 12


@dataclass
class CerealStreamSections:
    """Decoded views of a Cereal stream's three structures.

    ``packed`` selects which representation is populated: the optimized
    Section IV-B format carries :class:`PackedArray`s, the Section IV-A
    baseline carries raw 8 B reference words and each length-prefixed
    bitmap as a ``(word, width)`` pair.

    Each packed array is unpacked at most once: :meth:`reference_values`
    and :meth:`layout_bitmap_words` keep their first result, so the
    functional rebuild and the DU workload built from one sections object
    share the lists. Callers must not mutate them.
    """

    graph_total_bytes: int
    object_count: int
    value_words: List[int]
    references: Optional[PackedArray] = None
    bitmaps: Optional[PackedArray] = None
    packed: bool = True
    mark_stripped: bool = False
    raw_references: Optional[List[int]] = None
    raw_bitmap_words: Optional[List[tuple]] = None
    _reference_values: Optional[List[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _bitmap_words: Optional[List[tuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def reference_values(self) -> List[int]:
        """Reference-array entries (relative+1, 0=null), either format."""
        if self._reference_values is None:
            if self.packed:
                assert self.references is not None
                self._reference_values = unpack_items(self.references)
            else:
                assert self.raw_references is not None
                self._reference_values = self.raw_references
        return self._reference_values

    def layout_bitmap_words(self) -> List[tuple]:
        """Per-object layout bitmaps as ``(word, width)`` pairs, either format."""
        if self._bitmap_words is None:
            if self.packed:
                assert self.bitmaps is not None
                self._bitmap_words = unpack_bitmap_words(self.bitmaps)
            else:
                assert self.raw_bitmap_words is not None
                self._bitmap_words = self.raw_bitmap_words
        return self._bitmap_words

    @property
    def reference_count(self) -> int:
        if self.packed:
            assert self.references is not None
            return self.references.item_count
        assert self.raw_references is not None
        return len(self.raw_references)


class CerealSerializer(Serializer):
    """Functional model of Cereal's S/D with the optimized packed format.

    ``RegisterClass`` must be called for every serializable type, mirroring
    the hardware's Klass Pointer Table / Class ID Table population
    (Section V-A); the tables bound the number of types (Section V-E).

    ``strip_mark_word=True`` enables the header-strip size optimization of
    Figure 16: mark words are dropped from the value array and rebuilt at
    the receiver (identity hashes change).
    """

    name = "cereal"

    def __init__(
        self,
        registration: Optional[ClassRegistration] = None,
        strip_mark_word: bool = False,
        use_packing: bool = True,
    ):
        if registration is None:
            # The Class ID Table's size bounds the types (Section V-E).
            registration = ClassRegistration(
                max_entries=CerealConfig.max_class_types
            )
        self.registration = registration
        self.strip_mark_word = strip_mark_word
        # use_packing=False emits the Section IV-A baseline format: raw
        # 8 B reference offsets and an 8 B length word per layout bitmap.
        self.use_packing = use_packing

    def register_class(self, klass) -> int:
        """The paper's ``RegisterClass(Class Type)`` API."""
        return self.registration.register(klass)

    # ------------------------------------------------------------------ serialize

    def serialize(self, root: HeapObject) -> SerializationResult:
        return self._drain_walk(root)

    def _encode_walk(self, root: HeapObject, out):
        """The plan encoder: one generator walk behind both
        :meth:`serialize` and :meth:`serialize_chunks` (see
        :mod:`repro.formats.plans`, "chunked execution").

        Each distinct ``(klass, length)`` shape compiles once (process-wide
        cache) into precomputed value/reference word-index tuples, so the
        per-object work is two index-gather loops over one bulk word read.
        The value frame declares the value-array length before the values,
        so a first pass resolves every object's plan (which sizes the
        frame) and a second streams the value words. References and
        bitmaps, the trailing sections, gather during that pass and are
        framed at the end by :meth:`_trailer`.
        """
        graph = ObjectGraph.from_root(root, order="bfs")
        heap = root.heap
        read_words = heap.memory.read_words
        registration = self.registration
        relative_address = graph.relative_address
        strip_mark = self.strip_mark_word
        chunk = P.chunk_bytes_of(out)

        # Pass 1: (plan, class ID) per object, one cache probe per shape.
        shapes: dict = {}
        object_plans = []
        # Per object: the mark word (unless stripped), the class ID and
        # the zeroed extension word, then the plan's value slots.
        value_word_total = graph.object_count * (2 if strip_mark else 3)
        for obj in graph.objects:
            klass = obj.klass
            shape = (klass, obj.length)
            entry = shapes.get(shape)
            if entry is None:
                if not registration.is_registered(klass):
                    raise RegistrationError(
                        f"class {klass.name!r} not registered with Cereal; "
                        f"call register_class() first"
                    )
                plan = P.plan_for("cereal", klass, obj.length)
                entry = (plan, registration.id_of(klass))
                shapes[shape] = entry
            object_plans.append(entry)
            value_word_total += entry[0].n_value

        out += self._stream_header(graph.total_bytes, graph.object_count)
        out += struct.pack("<I", value_word_total * 8)

        # Pass 2: value words in chunk-sized batches (one batch when flat).
        batch_words = max(1, chunk // 8) if chunk else value_word_total
        instr = 0
        value_fields = 0
        reference_fields = 0
        values: List[int] = []
        reference_values: List[int] = []
        bitmap_words: List[tuple] = []
        append_value = values.append
        append_ref = reference_values.append
        append_bitmap = bitmap_words.append
        for obj, (plan, class_id) in zip(graph.objects, object_plans):
            instr += plan.instr
            append_bitmap((plan.bitmap_word, plan.bitmap_width))
            words = read_words(obj.address, plan.total_slots)
            if not strip_mark:
                append_value(words[_MARK_SLOT])
            append_value(class_id)
            append_value(0)  # zeroed extension
            for index in plan.value_word_indices:
                append_value(words[index])
            for index in plan.ref_word_indices:
                raw = words[index]
                if raw == NULL_ADDRESS:
                    append_ref(0)
                else:
                    append_ref(relative_address[raw] + 1)
            value_fields += plan.n_value
            reference_fields += plan.n_ref
            if len(values) >= batch_words:
                out += struct.pack(f"<{len(values)}Q", *values)
                values.clear()
                if chunk and out.ready_count:
                    yield
        if values:
            out += struct.pack(f"<{len(values)}Q", *values)

        sections = {SECTION_META: 13, SECTION_VALUES: value_word_total * 8}
        for part, section in self._trailer(reference_values, bitmap_words):
            sections[section] = sections.get(section, 0) + len(part)
            if not chunk:
                out += part
                continue
            for offset in range(0, len(part), chunk):
                if out.ready_count:
                    yield
                out += part[offset:offset + chunk]

        total = len(out)
        profile = WorkProfile()
        profile.objects = graph.object_count
        profile.instructions = instr + total // 4
        profile.value_fields = value_fields
        profile.reference_fields = reference_fields
        profile.bytes_read = graph.total_bytes
        profile.bytes_written = total
        return P.ChunkedEncodeSummary(
            self.name, total, sections, profile,
            graph.object_count, graph.total_bytes,
        )

    def _stream_header(self, graph_total_bytes: int, object_count: int) -> bytes:
        """Graph size, object count and format flags: the first 9 bytes."""
        flags = (_FLAG_PACKED if self.use_packing else 0) | (
            _FLAG_MARK_STRIPPED if self.strip_mark_word else 0
        )
        return struct.pack("<IIB", graph_total_bytes, object_count, flags)

    def _trailer(
        self, reference_values: List[int], bitmap_words: List[tuple]
    ) -> List[tuple]:
        """The reference and bitmap structures, framed, as ``(bytes,
        section)`` parts in stream order (frame words count as metadata)."""
        if self.use_packing:
            refs = pack_items(reference_values)
            bitmaps = pack_bitmap_words(bitmap_words)
            return [
                (
                    struct.pack(
                        "<III", len(refs.data), len(refs.end_map), refs.item_count
                    ),
                    SECTION_META,
                ),
                (refs.data, SECTION_REFS),
                (refs.end_map, SECTION_REF_END_MAP),
                (
                    struct.pack("<II", len(bitmaps.data), len(bitmaps.end_map)),
                    SECTION_META,
                ),
                (bitmaps.data, SECTION_BITMAPS),
                (bitmaps.end_map, SECTION_BITMAP_END_MAP),
            ]
        # Baseline (Section IV-A): 8 B per reference, and each bitmap
        # stored as an 8 B bit-length word plus its raw bytes.
        ref_bytes = struct.pack(f"<{len(reference_values)}Q", *reference_values)
        bitmap_chunks = []
        for word, width in bitmap_words:
            nbytes = (width + 7) // 8
            bitmap_chunks.append(struct.pack("<Q", width))
            bitmap_chunks.append(
                (word << (nbytes * 8 - width)).to_bytes(nbytes, "big")
            )
        bitmap_bytes = b"".join(bitmap_chunks)
        return [
            (struct.pack("<I", len(reference_values)), SECTION_META),
            (ref_bytes, SECTION_REFS),
            (struct.pack("<I", len(bitmap_bytes)), SECTION_META),
            (bitmap_bytes, SECTION_BITMAPS),
        ]

    # -------------------------------------------------------------- stream decoding

    @staticmethod
    def decode_sections(
        stream: SerializedStream, limits: Optional[DecodeLimits] = None
    ) -> CerealStreamSections:
        """Parse the framing into the three structures (no object rebuild).

        The stream-size limit is checked before any parsing.
        """
        data = stream.data
        resolve_limits(limits).check_stream_bytes(len(data))
        if len(data) < 13:
            raise FormatError("Cereal stream too short for framing")
        offset = 0

        def take(count: int) -> bytes:
            nonlocal offset
            if offset + count > len(data):
                raise TruncatedStreamError(
                    offset=offset, needed=count, available=len(data) - offset
                )
            out = data[offset : offset + count]
            offset += count
            return out

        graph_total, object_count, flags = struct.unpack("<IIB", take(9))
        packed = bool(flags & _FLAG_PACKED)
        mark_stripped = bool(flags & _FLAG_MARK_STRIPPED)
        (value_len,) = struct.unpack("<I", take(4))
        if value_len % SLOT_BYTES:
            raise FormatError("value array length not slot aligned")
        value_bytes = take(value_len)
        value_words = list(
            struct.unpack(f"<{value_len // SLOT_BYTES}Q", value_bytes)
        )
        if packed:
            ref_data_len, ref_end_len, ref_count = struct.unpack("<III", take(12))
            references = PackedArray(
                data=take(ref_data_len),
                end_map=take(ref_end_len),
                item_count=ref_count,
            )
            bitmap_data_len, bitmap_end_len = struct.unpack("<II", take(8))
            bitmaps = PackedArray(
                data=take(bitmap_data_len),
                end_map=take(bitmap_end_len),
                item_count=object_count,
            )
            raw_references = None
            raw_bitmap_words = None
        else:
            references = None
            bitmaps = None
            (ref_count,) = struct.unpack("<I", take(4))
            raw_references = list(
                struct.unpack(f"<{ref_count}Q", take(ref_count * 8))
            )
            (bitmap_len,) = struct.unpack("<I", take(4))
            bitmap_blob = take(bitmap_len)
            raw_bitmap_words = []
            cursor = 0
            for _ in range(object_count):
                if cursor + 8 > len(bitmap_blob):
                    raise FormatError("baseline bitmap table truncated")
                (bit_length,) = struct.unpack(
                    "<Q", bitmap_blob[cursor : cursor + 8]
                )
                cursor += 8
                byte_length = (bit_length + 7) // 8
                chunk = bitmap_blob[cursor : cursor + byte_length]
                if len(chunk) != byte_length:
                    raise FormatError("baseline bitmap truncated")
                cursor += byte_length
                # The bitmap is MSB-first; drop the tail padding bits.
                padding = byte_length * 8 - bit_length
                word = int.from_bytes(chunk, "big") >> padding
                raw_bitmap_words.append((word, bit_length))
            if cursor != len(bitmap_blob):
                raise FormatError("trailing bytes in baseline bitmap table")
        if offset != len(data):
            raise FormatError(f"{len(data) - offset} trailing bytes in Cereal stream")
        return CerealStreamSections(
            graph_total_bytes=graph_total,
            object_count=object_count,
            value_words=value_words,
            references=references,
            bitmaps=bitmaps,
            packed=packed,
            mark_stripped=mark_stripped,
            raw_references=raw_references,
            raw_bitmap_words=raw_bitmap_words,
        )

    # ---------------------------------------------------------------- deserialize

    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
        sections: Optional[CerealStreamSections] = None,
    ) -> DeserializationResult:
        """Rebuild ``stream`` into ``heap``.

        ``sections``, when given, must be ``decode_sections(stream)``: a
        caller that also times the stream (the Cereal device) decodes it
        once and shares the unpacked arrays with this rebuild.
        """
        limits = resolve_limits(limits)
        if sections is None:
            sections = self.decode_sections(stream, limits)
        else:
            limits.check_stream_bytes(len(stream.data))
        profile = WorkProfile()
        if sections.object_count == 0:
            raise FormatError("empty Cereal stream")
        limits.check_objects(sections.object_count)
        limits.check_graph_bytes(sections.graph_total_bytes)

        references = sections.reference_values()
        bitmap_items = sections.layout_bitmap_words()
        if len(bitmap_items) != sections.object_count:
            raise FormatError(
                f"header claims {sections.object_count} objects, bitmap "
                f"table holds {len(bitmap_items)}"
            )
        # Every non-null entry must be an object start + 1. Checked before
        # any write, so no entry is translated past the image (or past 64
        # bits) and a corrupted stream cannot leave dangling references.
        targets = {0}
        start = 1
        for _, width in bitmap_items:
            targets.add(start)
            start += width * SLOT_BYTES
        if not targets.issuperset(references):
            relative = next(r for r in references if r not in targets)
            raise FormatError(
                f"reference offset {relative - 1} does not target an object"
            )
        base = heap.reserve(sections.graph_total_bytes)
        root_obj = self._rebuild(
            sections, references, bitmap_items, heap, base, profile
        )
        profile.bytes_read = len(stream.data)
        profile.bytes_written = sections.graph_total_bytes
        profile.add_instructions(sections.graph_total_bytes // 8)
        return DeserializationResult(root_obj, profile)

    def _rebuild(
        self,
        sections: CerealStreamSections,
        references: List[int],
        bitmap_items: List[tuple],
        heap: Heap,
        base: int,
        profile: WorkProfile,
    ) -> HeapObject:
        """Rebuild every object from its bitmap's memoized plan.

        Each image is a slice of the value array and a slice of the
        reference array (translated to heap addresses once per call),
        permuted into slot order by the plan; it is committed with one
        bulk word write and registered, in stream order. The work profile
        is summed from the section sizes.
        """
        graph_total = sections.graph_total_bytes
        values = sections.value_words
        value_count = len(values)
        ref_count = len(references)
        stripped = sections.mark_stripped
        shift = base - 1
        addresses = [relative + shift if relative else NULL_ADDRESS
                     for relative in references]

        write_words = heap.memory.write_words
        register_object = heap.register_object
        klass_of = self.registration.klass_of
        shapes: dict = {}   # (word, width) -> per-call plan tuple
        klasses: dict = {}  # class ID -> (klass, klass address, size or 0)
        offset = value_cursor = ref_cursor = 0
        root: Optional[HeapObject] = None
        for item in bitmap_items:
            shape = shapes.get(item)
            if shape is None:
                width = item[1]
                if width < HEADER_SLOTS:
                    raise FormatError(
                        "layout bitmap smaller than the object header"
                    )
                plan = P.bitmap_rebuild_plan(*item)
                if plan.klass_index is None:
                    raise FormatError(
                        "object bitmap marks the klass slot as reference"
                    )
                rebuild_mark = stripped and plan.mark_is_value
                shape = (
                    plan.n_value - rebuild_mark,
                    plan.n_ref,
                    rebuild_mark,
                    plan.klass_index,
                    plan.gather,
                    width * SLOT_BYTES,
                )
                shapes[item] = shape
            n_value, n_ref, rebuild_mark, klass_index, gather, size = shape
            if offset + size > graph_total:
                # A lying bitmap would otherwise let the image walk write
                # past the reserved region into unrelated heap memory.
                raise FormatError(
                    f"object at image offset {offset} extends past the "
                    f"{graph_total}-byte image"
                )
            value_end = value_cursor + n_value
            if value_end > value_count:
                raise FormatError("value array exhausted mid-object")
            ref_end = ref_cursor + n_ref
            if ref_end > ref_count:
                raise FormatError("reference array exhausted mid-object")
            address = base + offset
            image = values[value_cursor:value_end]
            value_cursor = value_end
            if rebuild_mark:
                # Header strip: rebuild the mark word at the receiver.
                image.insert(_MARK_SLOT, fresh_mark_word(address))
            if n_ref:
                image += addresses[ref_cursor:ref_end]
                ref_cursor = ref_end
            # Class ID Table lookup: class ID -> klass address.
            class_id = image[klass_index]
            entry = klasses.get(class_id)
            if entry is None:
                klass = klass_of(class_id)
                assert klass.metaspace_address is not None
                entry = (klass, klass.metaspace_address,
                         0 if isinstance(klass, ArrayKlass)
                         else (HEADER_SLOTS + klass.instance_slots()) * SLOT_BYTES)
                klasses[class_id] = entry
            klass, image[klass_index], klass_size = entry
            if gather is not None:
                image = gather(image)
            write_words(address, image)
            if klass_size:
                obj = register_object(address, klass)
            elif size > HEADER_SLOTS * SLOT_BYTES:
                obj = register_object(address, klass, image[HEADER_SLOTS])
                klass_size = obj.size_bytes
            else:
                raise FormatError(f"array {klass.name} has no length slot")
            if root is None:
                root = obj
            if klass_size != size:
                raise FormatError(
                    f"bitmap length {size // SLOT_BYTES} disagrees with object "
                    f"size {klass_size} for {klass.name}"
                )
            offset += size

        self._check_consumed(
            sections, offset, value_cursor, ref_cursor, ref_count
        )
        objects = sections.object_count
        slots = graph_total // SLOT_BYTES
        value_fields = slots - ref_count
        profile.objects = profile.allocations = objects
        profile.value_fields = value_fields
        profile.reference_fields = ref_count
        # Each rebuilt mark word is a value slot the value array lacks.
        profile.instructions = (
            _INSTR_PER_OBJECT * objects
            + _INSTR_PER_SLOT * slots
            + _INSTR_PER_MARK_REBUILD * (value_fields - value_count)
        )
        assert root is not None
        return root

    @staticmethod
    def _check_consumed(
        sections: CerealStreamSections,
        offset: int,
        value_cursor: int,
        ref_cursor: int,
        ref_count: int,
    ) -> None:
        """The walk must end exactly at the image, value and reference ends."""
        if offset != sections.graph_total_bytes:
            raise FormatError(
                f"image walked {offset} bytes, header said "
                f"{sections.graph_total_bytes}"
            )
        if ref_cursor != ref_count:
            raise FormatError("unconsumed reference-array entries")
        if value_cursor != len(sections.value_words):
            raise FormatError("unconsumed value-array words")
