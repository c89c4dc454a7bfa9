"""Serialization Unit timing model (paper Section V-B, Figure 7).

The SU is a four-stage pipeline working through the object graph in the
order its internal reference queue discovers it (breadth-first):

* **header manager (HM)** — reads each encountered object's header, checks
  the visited counter, assigns/fetches the relative address, and updates
  the header with an atomic RMW through the MAI. For a *new* object it
  cannot proceed past the relative-address assignment until the object
  metadata manager has returned the previous new object's size (the
  serialized-size counter dependency the paper calls out).
* **object metadata manager (OMM)** — fetches the klass metadata (object
  layout + size) from memory, generates the packed layout bitmap, and
  stores it (posted 64 B writes).
* **object handler (OH)** — loads the object image, separates values from
  references using the layout, translates the klass pointer to a class ID
  through the Klass Pointer Table CAM, buffers values into 64 B chunks
  stored to the value array, and feeds extracted references back to the HM
  queue (in original order, via the MAI reorder buffers).
* **reference array writer (RAW)** — packs each relative address
  (significant bits + end bit, Section IV-B) into the reference array.

With ``pipelined=False`` ("Cereal Vanilla", Figure 10) the stages do not
overlap across objects: each object's full HM→OMM→OH→RAW chain completes
before the next encounter starts.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.bitutils import significant_bits
from repro.common.config import CerealConfig
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.tables import KlassPointerTable
from repro.formats.registry import ClassRegistration
from repro.jvm.heap import HeapObject
from repro.jvm.klass import SLOT_BYTES

# Synthetic physical placement of the serialized output (disjoint from the
# heap) so output writes map onto DRAM channels like any other traffic.
OUTPUT_REGION_BASE = 0x40_0000_0000
_VALUE_REGION = 0x0_0000_0000
_REF_REGION = 0x1_0000_0000
_BITMAP_REGION = 0x2_0000_0000

_HM_CYCLE_NS = 1.0  # per-encounter header-manager occupancy
_OMM_BITMAP_BITS_PER_CYCLE = 64  # bitmap generation throughput
_OH_SLOTS_PER_CYCLE = 1.0  # value/reference extraction rate
_RAW_ITEMS_PER_CYCLE = 1.0  # packing throughput
_KLASS_METADATA_BYTES = 32  # layout + size fetched per class
_FALLBACK_NS = 60.0  # software visited-hash insert when a header is foreign


@dataclass
class SUResult:
    """Timing and traffic of one serialization operation on one SU."""

    start_ns: float
    finish_ns: float
    objects: int
    encounters: int  # reference-queue pops (visited re-encounters included)
    null_references: int
    heap_bytes_read: int
    value_bytes_written: int
    reference_bytes_written: int
    bitmap_bytes_written: int
    stalls_on_counter_ns: float = 0.0
    # Section V-E shared-object support: objects whose header area was
    # reserved by a different unit, forcing the software-fallback path
    # (a thread-local hash table instead of the header metadata).
    fallback_objects: int = 0

    @property
    def elapsed_ns(self) -> float:
        return self.finish_ns - self.start_ns

    @property
    def stream_bytes_written(self) -> int:
        return (
            self.value_bytes_written
            + self.reference_bytes_written
            + self.bitmap_bytes_written
        )


class _BufferedStore:
    """64 B write-combining buffer in front of the MAI (posted stores)."""

    def __init__(self, mai: MemoryAccessInterface, base: int, chunk: int = 64):
        self.mai = mai
        self.base = base
        self.chunk = chunk
        self.pending = 0
        self.total = 0

    def push(self, when_ns: float, nbytes: int) -> None:
        self.pending += nbytes
        self.total += nbytes
        while self.pending >= self.chunk:
            self.mai.write(when_ns, self.base + self.total - self.pending, self.chunk)
            self.pending -= self.chunk

    def flush(self, when_ns: float) -> None:
        if self.pending:
            self.mai.write(when_ns, self.base + self.total - self.pending, self.pending)
            self.pending = 0


class SerializationUnit:
    """Cycle-accounted model of one SU."""

    def __init__(
        self,
        mai: MemoryAccessInterface,
        klass_table: KlassPointerTable,
        config: Optional[CerealConfig] = None,
        unit_id: int = 0,
    ):
        self.mai = mai
        self.klass_table = klass_table
        self.config = config or CerealConfig()
        self.unit_id = unit_id

    def run(
        self,
        root: HeapObject,
        registration: ClassRegistration,
        start_ns: float = 0.0,
        output_base: int = OUTPUT_REGION_BASE,
        serialization_counter: int = 1,
    ) -> SUResult:
        """Simulate serializing the graph under ``root``; returns timing.

        Visited tracking uses the Section V-E header-extension mechanism
        when the heap carries the Cereal extension: an object is "visited"
        when its header's 16-bit counter equals ``serialization_counter``,
        and the unit claims the header area by writing its unit ID. A
        header already claimed by a *different* unit in the same counter
        epoch forces the software-fallback path for that object (thread-
        local hash table), which costs extra time but stays functionally
        identical.
        """
        pipelined = self.config.pipelined
        heap = root.heap
        use_header_metadata = heap.cereal_extension

        value_store = _BufferedStore(self.mai, output_base + _VALUE_REGION)
        ref_store = _BufferedStore(self.mai, output_base + _REF_REGION)
        bitmap_store = _BufferedStore(self.mai, output_base + _BITMAP_REGION)

        hm_free = start_ns
        omm_free = start_ns
        oh_free = start_ns
        raw_free = start_ns
        counter_ready = start_ns  # serialized-size counter availability

        visited: Dict[int, bool] = {}
        fallback_visited: Dict[int, int] = {}  # software hash table path
        # Queue entries: (object, time the reference became available to HM).
        queue: deque = deque([(root, start_ns)])
        objects = 0
        encounters = 0
        null_references = 0
        heap_bytes_read = 0
        stalls = 0.0
        fallback_objects = 0
        serialized_size = 0  # the HM's running relative-address counter
        own_unit = self.unit_id + 1
        mai_read = self.mai.read
        object_at = heap.object_at
        raw_cycle = 1.0 / _RAW_ITEMS_PER_CYCLE

        while queue:
            obj, available_ns = queue.popleft()
            encounters += 1
            address = obj.address

            # -- header manager: read and inspect the (extended) header.
            hm_start = max(hm_free, available_ns)
            header_done = mai_read(hm_start, address, 16)
            if use_header_metadata:
                # One read of the extension word serves both the visited
                # check and the claim below. Only this unit's own claim
                # counts: a header claimed by a different unit belongs to a
                # concurrent operation whose stream this one cannot reference.
                counter, unit = obj.serialization_claim()
                current_epoch = counter == serialization_counter
                seen = current_epoch and unit == own_unit
            else:
                seen = address in visited
            if seen or address in fallback_visited:
                # Relative address already in the header: forward to RAW.
                hm_free = header_done + _HM_CYCLE_NS
                raw_free = max(raw_free, header_done) + raw_cycle
                ref_store.push(raw_free, self._packed_ref_bytes(obj))
                continue
            objects += 1
            layout = obj.layout()
            total_slots = layout.total_slots
            size_bytes = total_slots * SLOT_BYTES

            # New object: assigning its relative address needs the size
            # counter, which the OMM updates for the previous new object.
            assign_ns = max(header_done, counter_ready)
            stalls += max(0.0, counter_ready - header_done)
            if not use_header_metadata:
                visited[address] = True
                self.mai.atomic_rmw(assign_ns, address + 16, 8)
            elif current_epoch:
                # Another unit holds this header in the current epoch
                # (shared object across concurrent operations). Software
                # fallback: thread-local hash-table insert + probe
                # replaces the header RMW (Section V-E).
                fallback_visited[address] = serialized_size
                fallback_objects += 1
                assign_ns += _FALLBACK_NS
            else:
                obj.claim_serialization(
                    serialization_counter, own_unit, serialized_size & 0xFFFF_FFFF
                )
                self.mai.atomic_rmw(assign_ns, address + 16, 8)
            serialized_size += size_bytes
            hm_free = assign_ns + _HM_CYCLE_NS
            raw_free = max(raw_free, assign_ns) + raw_cycle
            ref_store.push(raw_free, self._packed_ref_bytes(obj))

            # -- object metadata manager: fetch klass metadata, make bitmap.
            metaspace_address = obj.klass.metaspace_address
            assert metaspace_address is not None
            omm_start = max(omm_free, assign_ns)
            metadata_done = mai_read(
                omm_start, metaspace_address, _KLASS_METADATA_BYTES
            )
            counter_ready = metadata_done + 1.0
            bitmap_cycles = (
                total_slots + _OMM_BITMAP_BITS_PER_CYCLE - 1
            ) // _OMM_BITMAP_BITS_PER_CYCLE
            omm_free = metadata_done + bitmap_cycles
            # Packed layout bitmap: one bit per slot plus the end bit.
            bitmap_store.push(omm_free, (total_slots + 1 + 7) // 8)

            # -- object handler: load the object, split values/references.
            oh_start = max(oh_free, metadata_done)
            load_done = mai_read(oh_start, address, size_bytes)
            heap_bytes_read += size_bytes
            extract_ns = total_slots / _OH_SLOTS_PER_CYCLE
            oh_done = max(oh_start, load_done) + extract_ns
            # Klass pointer -> class ID CAM lookup (single cycle).
            self.klass_table.lookup(metaspace_address)
            oh_done += 1.0
            oh_free = oh_done

            reference_slots = layout.reference_slots
            value_store.push(oh_done, (total_slots - len(reference_slots)) * 8)
            if reference_slots:
                words = obj.image_words()
                header_slots = layout.header_slots
                for slot in reference_slots:
                    child_address = words[header_slots + slot]
                    if child_address:
                        queue.append((object_at(child_address), oh_done))
                    else:
                        null_references += 1
                        raw_free = max(raw_free, oh_done) + raw_cycle
                        ref_store.push(raw_free, 1)  # packed null: 1 bucket

            if not pipelined:
                # Cereal Vanilla: full per-object chain, no stage overlap.
                barrier = max(hm_free, omm_free, oh_free, raw_free)
                hm_free = omm_free = oh_free = raw_free = barrier
                counter_ready = min(counter_ready, barrier)

        finish = max(hm_free, omm_free, oh_free, raw_free)
        value_store.flush(finish)
        ref_store.flush(finish)
        bitmap_store.flush(finish)
        # End maps for the two packed structures (1 bit per packed byte).
        end_map_bytes = (ref_store.total + 7) // 8 + (bitmap_store.total + 7) // 8
        self.mai.write(finish, OUTPUT_REGION_BASE + _REF_REGION + ref_store.total,
                       max(1, end_map_bytes))
        finish = self.mai.drain(finish)

        return SUResult(
            start_ns=start_ns,
            finish_ns=finish,
            objects=objects,
            encounters=encounters,
            null_references=null_references,
            heap_bytes_read=heap_bytes_read,
            value_bytes_written=value_store.total,
            reference_bytes_written=ref_store.total + end_map_bytes,
            bitmap_bytes_written=bitmap_store.total,
            stalls_on_counter_ns=stalls,
            fallback_objects=fallback_objects,
        )

    # -- packed-size helpers (exact per-item byte counts, Section IV-B) ----------

    @staticmethod
    def _packed_ref_bytes(obj: HeapObject) -> int:
        """Packed bytes of one relative-address item for ``obj``.

        The relative address is bounded by the graph size; we use the
        object's own image offset proxy (its heap offset) which has the
        same magnitude distribution. Exact stream bytes come from the
        functional encoder; this is timing-side accounting only.
        """
        relative = max(1, obj.address & 0xFFFF_FFFF)
        return (significant_bits(relative) + 1 + 7) // 8
