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

:meth:`SerializationUnit.run` times an operation in one loop over the
workload's reference-queue pops. The three 64 B write-combining output
buffers are running byte counts in that loop, and the stage hand-offs are
comparisons with ``max``'s tie order; the MAI calls are the only calls
per item. The per-push buffer objects are the oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.config import CerealConfig
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.tables import KlassPointerTable
from repro.jvm.heap import HeapObject
from repro.jvm.klass import HEADER_SLOTS, SLOT_BYTES

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
_STORE_BYTES = 64  # write-combining buffer: one MAI write per 64 B


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


@dataclass
class SUWorkload:
    """Heap-side description of one serialization operation.

    One breadth-first pass over the graph in the SU's reference-queue
    order, stored as columns. Per-object columns hold one entry per object
    in first-encounter order; the encounter columns hold one entry per
    reference-queue pop. A pop whose target index equals the number of
    objects popped before it is that object's first encounter.
    """

    objects: List[HeapObject]
    addresses: List[int]
    total_slots: List[int]
    reference_slots: List[int]  # reference-slot count per object
    metaspace_addresses: List[int]
    packed_ref_bytes: List[int]  # packed relative-address item per object
    null_references: List[int]  # null reference slots per object
    targets: List[int]  # per pop: index of the popped object
    enqueuers: List[int]  # per pop: index of the object that queued it, -1 for the root

    @classmethod
    def from_root(cls, root: HeapObject) -> "SUWorkload":
        """Walk the graph under ``root`` once and build the columns.

        The reference queue holds heap addresses; it is FIFO, so pops come
        in push order and the list of pushed addresses is the pop order.
        Each packed relative-address item is sized from the low 32 bits of
        the object's heap address, a proxy with the magnitude of a graph
        offset: this is timing-side accounting, the exact stream bytes come
        from the functional encoder.
        """
        heap = root.heap
        object_at = heap.object_at
        index: Dict[int, int] = {}  # address -> object index
        objects: List[HeapObject] = []
        addresses: List[int] = []
        total_slots: List[int] = []
        reference_slots: List[int] = []
        metaspace_addresses: List[int] = []
        packed_ref_bytes: List[int] = []
        null_references: List[int] = []
        queued = [root.address]
        enqueuers = [-1]
        targets: List[int] = []
        for address, enqueuer in zip(queued, enqueuers):
            target = index.get(address)
            if target is None:
                target = index[address] = len(objects)
                obj = object_at(address)
                layout = obj.layout()
                metaspace_address = obj.klass.metaspace_address
                assert metaspace_address is not None
                slots = layout.reference_slots
                nulls = 0
                if slots:
                    words = obj.image_words()
                    for slot in slots:
                        child_address = words[HEADER_SLOTS + slot]
                        if child_address:
                            queued.append(child_address)
                            enqueuers.append(target)
                        else:
                            nulls += 1
                objects.append(obj)
                addresses.append(address)
                total_slots.append(layout.total_slots)
                reference_slots.append(len(slots))
                metaspace_addresses.append(metaspace_address)
                relative = max(1, address & 0xFFFF_FFFF)
                packed_ref_bytes.append((relative.bit_length() + 8) >> 3)
                null_references.append(nulls)
            targets.append(target)
        return cls(
            objects, addresses, total_slots, reference_slots,
            metaspace_addresses, packed_ref_bytes, null_references, targets,
            enqueuers,
        )


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
        workload: SUWorkload,
        start_ns: float = 0.0,
        serialization_counter: int = 1,
    ) -> SUResult:
        """Time serializing the walked graph of ``workload``.

        Visited tracking is local to this walk: an encounter is a revisit
        when its target was popped before. A new object's header is read
        once, for the Section V-E header-extension mechanism: a header
        claimed by a *different* unit in the current counter epoch belongs
        to a concurrent operation whose stream this one cannot reference,
        so that object takes the software-fallback path (thread-local hash
        table), which costs extra time but stays functionally identical.
        Any other header is claimed by writing ``serialization_counter``,
        this unit's ID and the relative address;
        a claim this unit left in an earlier, finished operation is stale.
        """
        pipelined = self.config.pipelined
        mai = self.mai
        mai_read = mai.read
        mai_write = mai.write
        atomic_rmw = mai.atomic_rmw
        klass_lookup = self.klass_table.lookup

        # The three 64 B write-combining buffers as running (pending,
        # total) byte counts: a push posts one MAI write for every full
        # 64 B it completes, at the push's time.
        value_base = OUTPUT_REGION_BASE + _VALUE_REGION
        ref_base = OUTPUT_REGION_BASE + _REF_REGION
        bitmap_base = OUTPUT_REGION_BASE + _BITMAP_REGION
        value_pending = value_total = 0
        ref_pending = ref_total = 0
        bitmap_pending = bitmap_total = 0

        hm_free = omm_free = oh_free = raw_free = start_ns
        counter_ready = start_ns  # serialized-size counter availability

        heap_objects = workload.objects
        addresses = workload.addresses
        all_total_slots = workload.total_slots
        all_reference_slots = workload.reference_slots
        metaspace_addresses = workload.metaspace_addresses
        packed_ref_bytes = workload.packed_ref_bytes
        all_null_references = workload.null_references
        # When each object's OH finished, i.e. when the references it
        # queued became available to the HM. The root's enqueuer is -1,
        # which reads the start time in the last entry.
        queued_ns = [0.0] * len(heap_objects) + [start_ns]
        objects = 0
        null_references = 0
        heap_bytes_read = 0
        stalls = 0.0
        fallback_objects = 0
        serialized_size = 0  # the HM's running relative-address counter
        own_unit = self.unit_id + 1
        raw_cycle = 1.0 / _RAW_ITEMS_PER_CYCLE

        # Every stage hand-off is ``max(a, b)`` written as a comparison
        # that keeps ``a`` unless ``b`` is strictly larger, as max does.
        for target, enqueuer in zip(workload.targets, workload.enqueuers):
            address = addresses[target]

            # -- header manager: read and inspect the (extended) header.
            hm_start = queued_ns[enqueuer]
            if not hm_start > hm_free:
                hm_start = hm_free
            header_done = mai_read(hm_start, address, 16)
            if target < objects:
                # Relative address already in the header: forward to RAW.
                hm_free = header_done + _HM_CYCLE_NS
                if header_done > raw_free:
                    raw_free = header_done
                raw_free += raw_cycle
                ref_pending += packed_ref_bytes[target]
                ref_total += packed_ref_bytes[target]
                while ref_pending >= _STORE_BYTES:
                    mai_write(raw_free, ref_base + ref_total - ref_pending,
                              _STORE_BYTES)
                    ref_pending -= _STORE_BYTES
                continue
            objects += 1
            total_slots = all_total_slots[target]
            size_bytes = total_slots * SLOT_BYTES

            # New object: assigning its relative address needs the size
            # counter, which the OMM updates for the previous new object.
            if counter_ready > header_done:
                assign_ns = counter_ready
                stalls += counter_ready - header_done
            else:
                assign_ns = header_done
            obj = heap_objects[target]
            counter, unit = obj.serialization_claim()
            if counter == serialization_counter and unit != own_unit:
                # Another unit holds this header in the current epoch
                # (shared object across concurrent operations).
                # Software fallback: thread-local hash-table insert +
                # probe replaces the header RMW (Section V-E).
                fallback_objects += 1
                assign_ns += _FALLBACK_NS
            else:
                obj.claim_serialization(
                    serialization_counter, own_unit,
                    serialized_size & 0xFFFF_FFFF,
                )
                atomic_rmw(assign_ns, address + 16, 8)
            serialized_size += size_bytes
            hm_free = assign_ns + _HM_CYCLE_NS
            if assign_ns > raw_free:
                raw_free = assign_ns
            raw_free += raw_cycle
            ref_pending += packed_ref_bytes[target]
            ref_total += packed_ref_bytes[target]
            while ref_pending >= _STORE_BYTES:
                mai_write(raw_free, ref_base + ref_total - ref_pending, _STORE_BYTES)
                ref_pending -= _STORE_BYTES

            # -- object metadata manager: fetch klass metadata, make bitmap.
            metaspace_address = metaspace_addresses[target]
            if assign_ns > omm_free:
                omm_free = assign_ns
            metadata_done = mai_read(
                omm_free, metaspace_address, _KLASS_METADATA_BYTES
            )
            counter_ready = metadata_done + 1.0
            omm_free = metadata_done + (
                total_slots + _OMM_BITMAP_BITS_PER_CYCLE - 1
            ) // _OMM_BITMAP_BITS_PER_CYCLE
            # Packed layout bitmap: one bit per slot plus the end bit.
            bitmap_pending += (total_slots + 1 + 7) // 8
            bitmap_total += (total_slots + 1 + 7) // 8
            while bitmap_pending >= _STORE_BYTES:
                mai_write(omm_free, bitmap_base + bitmap_total - bitmap_pending,
                          _STORE_BYTES)
                bitmap_pending -= _STORE_BYTES

            # -- object handler: load the object, split values/references.
            if metadata_done > oh_free:
                oh_free = metadata_done
            load_done = mai_read(oh_free, address, size_bytes)
            heap_bytes_read += size_bytes
            if load_done > oh_free:
                oh_free = load_done
            oh_free += total_slots / _OH_SLOTS_PER_CYCLE
            # Klass pointer -> class ID CAM lookup (single cycle).
            klass_lookup(metaspace_address)
            oh_free += 1.0
            queued_ns[target] = oh_free

            value_bytes = (total_slots - all_reference_slots[target]) * 8
            value_pending += value_bytes
            value_total += value_bytes
            while value_pending >= _STORE_BYTES:
                mai_write(oh_free, value_base + value_total - value_pending,
                          _STORE_BYTES)
                value_pending -= _STORE_BYTES
            nulls = all_null_references[target]
            null_references += nulls
            for _ in range(nulls):
                if oh_free > raw_free:
                    raw_free = oh_free
                raw_free += raw_cycle
                ref_pending += 1  # packed null: 1 bucket
                ref_total += 1
                if ref_pending >= _STORE_BYTES:
                    mai_write(raw_free, ref_base + ref_total - ref_pending,
                              _STORE_BYTES)
                    ref_pending -= _STORE_BYTES

            if not pipelined:
                # Cereal Vanilla: full per-object chain, no stage overlap.
                barrier = max(hm_free, omm_free, oh_free, raw_free)
                hm_free = omm_free = oh_free = raw_free = barrier

        finish = max(hm_free, omm_free, oh_free, raw_free)
        if value_pending:
            mai_write(finish, value_base + value_total - value_pending, value_pending)
        if ref_pending:
            mai_write(finish, ref_base + ref_total - ref_pending, ref_pending)
        if bitmap_pending:
            mai_write(finish, bitmap_base + bitmap_total - bitmap_pending,
                      bitmap_pending)
        # End maps for the two packed structures (1 bit per packed byte).
        end_map_bytes = (ref_total + 7) // 8 + (bitmap_total + 7) // 8
        mai_write(finish, ref_base + ref_total, max(1, end_map_bytes))
        finish = mai.drain(finish)

        return SUResult(
            start_ns=start_ns,
            finish_ns=finish,
            objects=objects,
            encounters=len(workload.targets),
            null_references=null_references,
            heap_bytes_read=heap_bytes_read,
            value_bytes_written=value_total,
            reference_bytes_written=ref_total + end_map_bytes,
            bitmap_bytes_written=bitmap_total,
            stalls_on_counter_ns=stalls,
            fallback_objects=fallback_objects,
        )

