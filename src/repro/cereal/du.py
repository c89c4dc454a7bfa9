"""Deserialization Unit timing model (paper Section V-C, Figure 8).

The DU turns a Cereal stream back into a heap image at 64 B *block*
granularity, which is what makes it fast: the decoupled format means a
block can be rebuilt knowing only its 8 layout-bitmap bits, the next N
values, and the next M references — independent of object boundaries.

* **layout manager** — eagerly prefetches the packed layout bitmap through
  an internal buffer, unpacks it, and per 64 B block counts the 0s/1s in
  the 8-bit chunk (single cycle) before handing it to the block manager.
* **block manager** — eagerly prefetches the value array and the packed
  reference array, unpacks references, and for each block pulls exactly
  ``zeros`` values and ``ones`` references, dispatching the bundle to a
  free block reconstructor together with the destination address.
* **block reconstructors** (4 per DU by default) — scatter values and
  references into a 64 B output block according to the bitmap, translate a
  class ID to a klass address through the Class ID Table when the block
  holds an object header, and post the 64 B write.

With ``pipelined=False`` ("Cereal Vanilla") there is a single reconstructor
and no eager prefetch: every block's loads are issued on demand and the
whole per-block chain serializes.

:meth:`DeserializationUnit.run` times an operation in one loop over the
blocks. The line each block waits for in the bitmap, value and reference
streams is computed once per run from the :class:`DUWorkload` columns,
and the loop issues the loaders' windowed line reads itself. The
per-call loader objects are the oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace
from itertools import accumulate
from typing import List, Optional

from repro.common.config import CerealConfig
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.tables import ClassIDTable

# Synthetic placement of the incoming stream (e.g. a receive buffer).
INPUT_REGION_BASE = 0x60_0000_0000
_VALUE_REGION = 0x0_0000_0000
_REF_REGION = 0x1_0000_0000
_BITMAP_REGION = 0x2_0000_0000

_LM_CHUNK_NS = 1.0  # unpack + popcount of one 8-bit chunk
_BM_DISPATCH_NS = 1.0  # block-manager retrieval + dispatch
_RECONSTRUCT_NS = 9.0  # scan 8 slots + issue write

# Set bits of every byte value, for ``bytes.translate``.
_POPCOUNT = bytes(bin(value).count("1") for value in range(256))


@dataclass
class BlockDescriptor:
    """Input requirements of one 64 B output block."""

    value_slots: int  # zeros in the 8-bit bitmap chunk
    reference_slots: int  # ones in the chunk
    has_header: bool  # block contains an object's class-ID slot
    reference_bytes: int  # packed reference-array bytes this block consumes


@dataclass
class DUWorkload:
    """Stream-side description of one deserialization operation.

    Per-block requirements are columns with one entry per 64 B output
    block; :attr:`blocks` views them as :class:`BlockDescriptor` rows.
    """

    image_bytes: int
    value_slots: List[int]  # zeros in each block's 8-bit bitmap chunk
    reference_slots: List[int]  # ones in each chunk
    has_header: bytes  # 1 where the block holds an object's class-ID slot
    reference_bytes: List[int]  # packed reference-array bytes per block
    value_array_bytes: int
    reference_array_bytes: int
    bitmap_bytes: int

    @property
    def blocks(self) -> List[BlockDescriptor]:
        return [
            BlockDescriptor(values, refs, bool(header), ref_bytes)
            for values, refs, header, ref_bytes in zip(
                self.value_slots,
                self.reference_slots,
                self.has_header,
                self.reference_bytes,
            )
        ]

    @classmethod
    def from_stream_sections(cls, sections) -> "DUWorkload":
        """Build block columns from decoded Cereal stream sections.

        ``sections`` is a :class:`repro.formats.cereal_format.CerealStreamSections`.
        The per-object ``(word, width)`` bitmaps are joined into one bit
        string of the image's slots, read back as one byte per 8-slot block
        (the tail zero-padded), and each byte's popcount is the block's
        reference count. Prefix sums then give the packed reference bytes
        each block consumes.
        """
        items = sections.layout_bitmap_words()
        references = sections.reference_values()

        # The sentinel bit above each word keeps its leading zeros.
        bits = "".join([bin(word | 1 << width)[3:] for word, width in items])
        slot_count = len(bits)
        block_count = (slot_count + 7) >> 3
        tail = block_count * 8 - slot_count
        chunks = (
            int(bits + "0" * tail, 2).to_bytes(block_count, "big")
            if block_count
            else b""
        )
        reference_slots = list(chunks.translate(_POPCOUNT))
        value_slots = [8 - ones for ones in reference_slots]
        if tail:
            value_slots[-1] -= tail

        has_header = bytearray(block_count)
        object_start = 0
        for _, width in items:
            klass_slot = object_start + 1  # klass slot is slot 1
            if klass_slot < slot_count:
                has_header[klass_slot >> 3] = 1
            object_start += width

        if sections.packed:
            ref_sizes = [
                ((value.bit_length() or 1) + 8) >> 3 for value in references
            ]
        else:
            ref_sizes = [8] * len(references)  # baseline: raw 8 B offsets
        ref_ends = list(accumulate(ref_sizes, initial=0))
        ones_ends = list(accumulate(reference_slots, initial=0))
        if ones_ends[-1] >= len(ref_ends):
            # More reference slots than entries: the tail blocks pay only
            # for the entries that remain.
            ref_ends += [ref_ends[-1]] * (ones_ends[-1] + 1 - len(ref_ends))
        reference_bytes = [
            ref_ends[stop] - ref_ends[begin]
            for begin, stop in zip(ones_ends, ones_ends[1:])
        ]

        if sections.packed:
            reference_array_bytes = (
                len(sections.references.data) + len(sections.references.end_map)
            )
            bitmap_bytes = (
                len(sections.bitmaps.data) + len(sections.bitmaps.end_map)
            )
        else:
            reference_array_bytes = len(references) * 8
            bitmap_bytes = sum(8 + (width + 7) // 8 for _, width in items)
        return cls(
            image_bytes=sections.graph_total_bytes,
            value_slots=value_slots,
            reference_slots=reference_slots,
            has_header=bytes(has_header),
            reference_bytes=reference_bytes,
            value_array_bytes=len(sections.value_words) * 8,
            reference_array_bytes=reference_array_bytes,
            bitmap_bytes=bitmap_bytes,
        )


@dataclass
class DUResult:
    """Timing and traffic of one deserialization operation on one DU."""

    start_ns: float
    finish_ns: float
    blocks: int
    image_bytes_written: int
    stream_bytes_read: int

    @property
    def elapsed_ns(self) -> float:
        return self.finish_ns - self.start_ns


class DeserializationUnit:
    """Cycle-accounted model of one DU."""

    def __init__(
        self,
        mai: MemoryAccessInterface,
        class_id_table: ClassIDTable,
        config: Optional[CerealConfig] = None,
        unit_id: int = 0,
    ):
        self.mai = mai
        self.class_id_table = class_id_table
        self.config = config or CerealConfig()
        self.unit_id = unit_id

    def run(
        self,
        workload: DUWorkload,
        destination_base: int,
        start_ns: float = 0.0,
    ) -> DUResult:
        """Simulate deserializing ``workload`` into memory at ``destination_base``."""
        pipelined = self.config.pipelined
        reconstructors = (
            self.config.block_reconstructors_per_du if pipelined else 1
        )
        depth = self.config.du_prefetch_depth if pipelined else 1
        mai_read = self.mai.read
        mai_write = self.mai.write

        # The three stream loaders. Each keeps ``depth`` 64 B lines in
        # flight: line L issues when line L - depth has arrived, and the
        # first ``depth`` lines at the start. A loader's arrival list opens
        # with ``depth`` start times, so line L arrives at index L + depth
        # and its issue gate is index L. The index each block waits for is
        # computed once here from the block's running stream position;
        # ``depth - 1`` (a start time) means it needs no byte.
        bitmap_bytes = workload.bitmap_bytes
        value_bytes = workload.value_array_bytes
        ref_bytes = workload.reference_array_bytes
        block_count = len(workload.value_slots)
        bitmap_waits = [
            (min(position, bitmap_bytes) - 1) // 64 + depth
            for position in range(1, block_count + 1)
        ]
        value_waits = [
            (min(position, value_bytes) - 1) // 64 + depth
            for position in accumulate(slots * 8 for slots in workload.value_slots)
        ]
        ref_waits = [
            (min(position, ref_bytes) - 1) // 64 + depth
            for position in accumulate(workload.reference_bytes)
        ]
        bitmap_arrivals = [start_ns] * depth
        value_arrivals = [start_ns] * depth
        ref_arrivals = [start_ns] * depth
        bitmap_base = INPUT_REGION_BASE + _BITMAP_REGION
        value_base = INPUT_REGION_BASE + _VALUE_REGION
        ref_base = INPUT_REGION_BASE + _REF_REGION

        lm_free = start_ns
        bm_free = start_ns
        # Free times of the reconstructor pool as a heap: the earliest-free
        # reconstructor takes the next block, and which one of equally
        # free reconstructors that is never changes a time.
        reconstructor_free = [start_ns] * reconstructors
        finish = start_ns
        headers = 0

        # Every stage hand-off is ``max(a, b)`` written as a comparison
        # that keeps ``a`` unless ``b`` is strictly larger, as max does.
        blocks = zip(workload.has_header, bitmap_waits, value_waits, ref_waits)
        for index, (has_header, bitmap_wait, value_wait, ref_wait) in enumerate(
            blocks
        ):
            # Layout manager: the packed bitmap for 8 slots is ~1 byte + its
            # end-map share; consume proportionally.
            if bitmap_wait >= len(bitmap_arrivals):
                _load(mai_read, bitmap_arrivals, depth, bitmap_base, bitmap_bytes,
                      bitmap_wait)
            lm_ready = bitmap_arrivals[bitmap_wait]
            if lm_ready > lm_free:
                lm_free = lm_ready
            lm_free += _LM_CHUNK_NS

            # Block manager: needs the block's values and references.
            if value_wait >= len(value_arrivals):
                _load(mai_read, value_arrivals, depth, value_base, value_bytes,
                      value_wait)
            if ref_wait >= len(ref_arrivals):
                _load(mai_read, ref_arrivals, depth, ref_base, ref_bytes, ref_wait)
            bm_ready = value_arrivals[value_wait]
            if ref_arrivals[ref_wait] > bm_ready:
                bm_ready = ref_arrivals[ref_wait]
            if lm_free > bm_free:
                bm_free = lm_free
            if bm_ready > bm_free:
                bm_free = bm_ready
            bm_free += _BM_DISPATCH_NS

            # Block reconstructor: earliest-free of the pool.
            rec_done = reconstructor_free[0]
            if not rec_done > bm_free:
                rec_done = bm_free
            rec_done += _RECONSTRUCT_NS
            if has_header:
                headers += 1
                rec_done += 1.0
            mai_write(rec_done, destination_base + index * 64, 64)
            heapreplace(reconstructor_free, rec_done)
            if rec_done > finish:
                finish = rec_done

            if not pipelined:
                # Vanilla: the whole per-block chain serializes.
                lm_free = bm_free = rec_done

        self.class_id_table.lookups += headers
        finish = self.mai.drain(finish)
        return DUResult(
            start_ns=start_ns,
            finish_ns=finish,
            blocks=block_count,
            image_bytes_written=block_count * 64,
            stream_bytes_read=bitmap_bytes + value_bytes + ref_bytes,
        )


def _load(read, arrivals: List[float], depth: int, base: int, length: int,
          wait: int) -> None:
    """Issue a stream loader's line reads until ``arrivals[wait]`` exists."""
    for line in range(len(arrivals) - depth, wait - depth + 1):
        offset = line * 64
        rest = length - offset
        arrivals.append(read(arrivals[line], base + offset, rest if rest < 64 else 64))
