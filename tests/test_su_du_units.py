"""Direct unit tests for the SU and DU timing models (below the façade)."""

import contextlib
import dataclasses
import random
from collections import deque
from typing import Dict

import pytest

from repro.cereal import CerealAccelerator, DeviceSimulator
from repro.cereal.du import (
    _LM_CHUNK_NS,
    _POPCOUNT,
    BlockDescriptor,
    DeserializationUnit,
    DUWorkload,
)
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import (
    _BITMAP_REGION,
    _FALLBACK_NS,
    _HM_CYCLE_NS,
    _KLASS_METADATA_BYTES,
    _OH_SLOTS_PER_CYCLE,
    _OMM_BITMAP_BITS_PER_CYCLE,
    _RAW_ITEMS_PER_CYCLE,
    _REF_REGION,
    _VALUE_REGION,
    OUTPUT_REGION_BASE,
    SerializationUnit,
    SUResult,
    SUWorkload,
)
from repro.cereal.tables import ClassIDTable, KlassPointerTable
from repro.cereal.tlb import TLB
from repro.common.bitstream import word_to_bits
from repro.common.config import CerealConfig
from repro.common.errors import SimulationError
from repro.formats import CerealSerializer, ClassRegistration
from repro.formats.cereal_format import CerealStreamSections
from repro.formats.packing import pack_bitmap_words, pack_items
from repro.jvm import Heap
from repro.jvm.heap import HeapObject
from repro.jvm.klass import HEADER_SLOTS, SLOT_BYTES, FieldKind
from repro.memory.dram import DRAMModel
from repro.workloads import MICROBENCH_CONFIGS
from repro.workloads.micro import _BUILDERS, register_micro_klasses
from tests.oracles import (
    BufferedStore,
    OracleMAI,
    StreamPrefetcher,
    oracle_du_run,
    oracle_su_run,
    significant_bits,
)
from tests.test_serializers import (
    build_mixed,
    build_primitive_array,
    build_reference_array,
    build_shared,
    build_tree,
    make_registry,
)


def make_su(config=None, unit_id=0):
    registry = make_registry()
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    mai = MemoryAccessInterface(DRAMModel(), config or CerealConfig())
    table = KlassPointerTable()
    for class_id, klass in enumerate(registration):
        table.install(klass.metaspace_address, class_id)
    unit = SerializationUnit(mai, table, config or CerealConfig(), unit_id=unit_id)
    heap = Heap(registry=registry)
    return unit, heap, registration, mai


class TestUnitRates:
    """The per-cycle rates the SU and DU timing models charge."""

    def test_reference_array_writer_packs_one_item_per_cycle(self):
        assert _RAW_ITEMS_PER_CYCLE == 1.0

    def test_omm_makes_one_64_bit_bitmap_beat_per_cycle(self):
        assert _OMM_BITMAP_BITS_PER_CYCLE == 64

        def beats(slots):
            return (
                slots + _OMM_BITMAP_BITS_PER_CYCLE - 1
            ) // _OMM_BITMAP_BITS_PER_CYCLE

        assert beats(64) == 1  # exactly one 64-bit beat
        assert beats(65) == 2  # spills into a second beat

    def test_layout_manager_takes_one_cycle_per_8_slot_chunk(self):
        assert _LM_CHUNK_NS == 1.0

    def test_popcount_table_covers_every_byte(self):
        assert len(_POPCOUNT) == 256
        for value in range(256):
            assert _POPCOUNT[value] == bin(value).count("1")


class TestBufferedStore:
    def test_writes_in_64b_chunks(self):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        store = BufferedStore(mai, 0x1000)
        store.push(0.0, 40)
        assert mai.stats.write_requests == 0  # below the 64 B threshold
        store.push(0.0, 40)
        assert mai.stats.write_requests == 1  # crossed: one chunk flushed
        assert store.pending == 16

    def test_flush_drains_partial(self):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        store = BufferedStore(mai, 0x1000)
        store.push(0.0, 10)
        store.flush(0.0)
        assert store.pending == 0
        assert mai.stats.write_requests == 1

    def test_total_accumulates(self):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        store = BufferedStore(mai, 0x1000)
        store.push(0.0, 100)
        store.push(0.0, 100)
        assert store.total == 200


class TestSerializationUnit:
    def test_start_time_offsets_result(self):
        unit, heap, registration, _ = make_su()
        root = build_tree(heap, depth=3)
        late = unit.run(SUWorkload.from_root(root), start_ns=1000.0,
                        serialization_counter=1)
        assert late.start_ns == 1000.0
        assert late.finish_ns > 1000.0

    def test_output_traffic_matches_stream_structure(self):
        unit, heap, registration, _ = make_su()
        root = build_tree(heap, depth=4)
        result = unit.run(SUWorkload.from_root(root), serialization_counter=1)
        # Full binary tree of depth 4 -> 31 Node objects, each 6 slots
        # (3 header + 1 value + 2 references).
        assert result.objects == 31
        assert result.value_bytes_written == 31 * (6 - 2) * 8
        assert result.bitmap_bytes_written == 31  # ceil((6+1)/8) per object

    def test_unit_ids_recorded_in_headers(self):
        unit, heap, registration, _ = make_su(unit_id=3)
        root = build_tree(heap, depth=2)
        unit.run(SUWorkload.from_root(root), serialization_counter=7)
        assert root.serialization_unit_id == 4  # unit_id + 1
        assert root.serialization_counter == 7

    def test_mai_sees_header_rmws(self):
        unit, heap, registration, mai = make_su()
        root = build_tree(heap, depth=3)
        unit.run(SUWorkload.from_root(root), serialization_counter=1)
        assert mai.stats.atomic_rmws == 15  # one per new object (depth-3 tree)


class TestStreamPrefetcher:
    def make(self, length, depth=8, start=0.0):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        return StreamPrefetcher(mai, 0x1000_0000, length, start, depth)

    def test_zero_position_is_free(self):
        prefetcher = self.make(1024)
        assert prefetcher.available_at(0) == 0.0

    def test_first_byte_pays_latency(self):
        prefetcher = self.make(1024)
        assert prefetcher.available_at(1) >= 40.0

    def test_positions_monotone_per_channel(self):
        prefetcher = self.make(64 * 64)
        times = [prefetcher.available_at(p) for p in range(64, 64 * 64, 64)]
        # Lines interleave over 4 DRAM channels; each channel delivers its
        # lines in order (the first line additionally carries the
        # compulsory TLB walk, delaying channel 0's whole stream).
        for channel in range(4):
            lane = times[channel::4]
            assert lane == sorted(lane)

    def test_position_clamped_to_length(self):
        prefetcher = self.make(100)
        assert prefetcher.available_at(10_000) == prefetcher.available_at(100)

    def test_deeper_window_is_faster(self):
        shallow = self.make(64 * 256, depth=1)
        deep = self.make(64 * 256, depth=16)
        assert deep.available_at(64 * 256) < shallow.available_at(64 * 256)

    def test_overrun_rejected(self):
        prefetcher = self.make(0)
        assert prefetcher.available_at(0) == 0.0
        with pytest.raises(SimulationError):
            prefetcher._issue_next()


class TestDeserializationUnitDirect:
    def make_workload(self, blocks=16, values=6, refs=2):
        return DUWorkload(
            image_bytes=blocks * 64,
            value_slots=[values] * blocks,
            reference_slots=[refs] * blocks,
            has_header=bytes(index % 2 == 0 for index in range(blocks)),
            reference_bytes=[refs * 2] * blocks,
            value_array_bytes=blocks * values * 8,
            reference_array_bytes=blocks * refs * 2,
            bitmap_bytes=blocks * 2,
        )

    def make_du(self, config=None):
        mai = MemoryAccessInterface(DRAMModel(), config or CerealConfig())
        table = ClassIDTable()
        table.install(0, 0x7F00_0000_0000)
        return DeserializationUnit(mai, table, config or CerealConfig()), mai

    def test_blocks_and_bytes_accounted(self):
        du, _ = self.make_du()
        workload = self.make_workload(blocks=16)
        result = du.run(workload, destination_base=0x2000_0000)
        assert result.blocks == 16
        assert result.image_bytes_written == 16 * 64
        assert result.stream_bytes_read == (
            workload.value_array_bytes
            + workload.reference_array_bytes
            + workload.bitmap_bytes
        )

    def test_header_blocks_hit_class_id_table(self):
        du, _ = self.make_du()
        workload = self.make_workload(blocks=16)
        du.run(workload, destination_base=0x2000_0000)
        assert du.class_id_table.lookups == 8  # every even block

    def test_output_writes_reach_dram(self):
        du, mai = self.make_du()
        workload = self.make_workload(blocks=4)
        du.run(workload, destination_base=0x2000_0000)
        # 4 output blocks x 64 B, each split into two 32 B MAI blocks.
        assert mai.stats.blocks_written == 8

    def test_vanilla_serializes_chain(self):
        pipelined, _ = self.make_du()
        vanilla, _ = self.make_du(CerealConfig().vanilla())
        workload = self.make_workload(blocks=64)
        fast = pipelined.run(workload, destination_base=0x2000_0000)
        slow = vanilla.run(workload, destination_base=0x2000_0000)
        assert slow.elapsed_ns > fast.elapsed_ns


def _oracle_du_workload(sections):
    """The per-slot DU workload build the columnar one replaced.

    Kept verbatim: flattens every bitmap into a bit list and slices it into
    8-slot blocks. Returns ``(blocks, image, value, reference, bitmap
    bytes)``.
    """
    bitmaps = [
        word_to_bits(word, width) for word, width in sections.layout_bitmap_words()
    ]
    references = sections.reference_values()

    flat_bits = []
    header_slots = []  # absolute slot index of each klass slot
    slot_cursor = 0
    for bitmap in bitmaps:
        header_slots.append(slot_cursor + 1)  # klass slot is slot 1
        flat_bits.extend(bitmap)
        slot_cursor += len(bitmap)

    if sections.packed:
        ref_sizes = [
            (significant_bits(value) + 1 + 7) // 8 for value in references
        ]
    else:
        ref_sizes = [8] * len(references)  # baseline: raw 8 B offsets

    blocks = []
    header_set = set(header_slots)
    ref_index = 0
    for block_start in range(0, len(flat_bits), 8):
        chunk = flat_bits[block_start : block_start + 8]
        ones = sum(chunk)
        ref_bytes = sum(ref_sizes[ref_index : ref_index + ones])
        ref_index += ones
        blocks.append(
            BlockDescriptor(
                value_slots=len(chunk) - ones,
                reference_slots=ones,
                has_header=any(
                    (block_start + i) in header_set for i in range(len(chunk))
                ),
                reference_bytes=ref_bytes,
            )
        )
    if sections.packed:
        reference_array_bytes = (
            len(sections.references.data) + len(sections.references.end_map)
        )
        bitmap_bytes = (
            len(sections.bitmaps.data) + len(sections.bitmaps.end_map)
        )
    else:
        reference_array_bytes = len(references) * 8
        bitmap_bytes = sum(8 + (len(b) + 7) // 8 for b in bitmaps)
    return (
        blocks,
        sections.graph_total_bytes,
        len(sections.value_words) * 8,
        reference_array_bytes,
        bitmap_bytes,
    )


def _assert_matches_oracle(sections):
    workload = DUWorkload.from_stream_sections(sections)
    blocks, image, values, refs, bitmaps = _oracle_du_workload(sections)
    assert workload.blocks == blocks
    assert all(
        type(block.has_header) is bool for block in workload.blocks
    )
    assert (
        workload.image_bytes,
        workload.value_array_bytes,
        workload.reference_array_bytes,
        workload.bitmap_bytes,
    ) == (image, values, refs, bitmaps)


def _sections(bitmaps, references, packed):
    """Hand-built sections over ``(word, width)`` bitmaps."""
    slots = sum(width for _, width in bitmaps)
    common = dict(
        graph_total_bytes=slots * 8,
        object_count=len(bitmaps),
        value_words=[0] * (slots - sum(bin(word).count("1") for word, _ in bitmaps)),
        packed=packed,
    )
    if packed:
        return CerealStreamSections(
            references=pack_items(references),
            bitmaps=pack_bitmap_words(bitmaps),
            **common,
        )
    return CerealStreamSections(
        raw_references=list(references),
        raw_bitmap_words=list(bitmaps),
        **common,
    )


class TestDUWorkloadOracle:
    """The columnar DU workload matches the per-slot oracle block for block."""

    @pytest.mark.parametrize("packing", [True, False], ids=["packed", "baseline"])
    @pytest.mark.parametrize(
        "build", [build_tree, build_shared, build_mixed, build_reference_array,
                  build_primitive_array],
    )
    def test_real_streams(self, packing, build):
        registry = make_registry()
        registration = ClassRegistration()
        for klass in registry:
            registration.register(klass)
        heap = Heap(registry=registry)
        codec = CerealSerializer(registration, use_packing=packing)
        stream = codec.serialize(build(heap)).stream
        _assert_matches_oracle(CerealSerializer.decode_sections(stream))

    @pytest.mark.parametrize("packed", [True, False], ids=["packed", "baseline"])
    @pytest.mark.parametrize("seed", range(20))
    def test_random_bitmaps(self, packed, seed):
        """Odd widths, single-slot objects, null and wide references."""
        rng = random.Random(seed)
        bitmaps = []
        for _ in range(rng.randint(0, 40)):
            width = rng.choice([1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 64, 71])
            bitmaps.append((rng.getrandbits(width), width))
        ones = sum(bin(word).count("1") for word, _ in bitmaps)
        references = [
            rng.choice([0, 1, rng.getrandbits(12), rng.getrandbits(40)])
            for _ in range(ones)
        ]
        _assert_matches_oracle(_sections(bitmaps, references, packed))

    @pytest.mark.parametrize("extra", [-3, -1, 1, 4])
    def test_reference_count_mismatch(self, extra):
        """Blocks past the last entry pay only for the entries that remain."""
        bitmaps = [(0b00110011_1, 9), (0b0111, 4), (0b1, 1), (0b10101, 5)]
        ones = sum(bin(word).count("1") for word, _ in bitmaps)
        references = [300 * index for index in range(ones + extra)]
        _assert_matches_oracle(_sections(bitmaps, references, packed=False))

    def test_empty_and_zero_width_bitmaps(self):
        _assert_matches_oracle(_sections([], [], packed=False))
        _assert_matches_oracle(_sections([(0, 0), (0b11, 2), (0, 0)], [5, 0],
                                         packed=False))


# -- the per-object SU walk the column walk replaced ---------------------------


def _oracle_su_run(
    su: SerializationUnit,
    root: HeapObject,
    start_ns: float = 0.0,
    output_base: int = OUTPUT_REGION_BASE,
    serialization_counter: int = 1,
) -> SUResult:
    """The per-object SU walk the column walk replaced, kept verbatim.

    It reads every encountered header, looks up the layout, reads the
    image words and resolves each child per run, and tracks visited
    objects through the header claims. Only ``registration``, which it
    never read, is dropped. Reading the claims as visited marks is where
    it differs from the column walk: a claim the same unit left in an
    earlier operation of the same epoch prunes its walk
    (``TestSUConcurrentOracle``).

    Simulate serializing the graph under ``root``; returns timing.

    Visited tracking uses the Section V-E header-extension mechanism: an
    object is "visited" when its header's 16-bit counter equals
    ``serialization_counter``,
    and the unit claims the header area by writing its unit ID. A
    header already claimed by a *different* unit in the same counter
    epoch forces the software-fallback path for that object (thread-
    local hash table), which costs extra time but stays functionally
    identical.
    """
    pipelined = su.config.pipelined
    heap = root.heap

    value_store = BufferedStore(su.mai, output_base + _VALUE_REGION)
    ref_store = BufferedStore(su.mai, output_base + _REF_REGION)
    bitmap_store = BufferedStore(su.mai, output_base + _BITMAP_REGION)

    hm_free = start_ns
    omm_free = start_ns
    oh_free = start_ns
    raw_free = start_ns
    counter_ready = start_ns  # serialized-size counter availability

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
    own_unit = su.unit_id + 1
    mai_read = su.mai.read
    object_at = heap.object_at
    raw_cycle = 1.0 / _RAW_ITEMS_PER_CYCLE

    while queue:
        obj, available_ns = queue.popleft()
        encounters += 1
        address = obj.address

        # -- header manager: read and inspect the (extended) header.
        hm_start = max(hm_free, available_ns)
        header_done = mai_read(hm_start, address, 16)
        # One read of the extension word serves both the visited check
        # and the claim below. Only this unit's own claim counts: a header
        # claimed by a different unit belongs to a concurrent operation
        # whose stream this one cannot reference.
        counter, unit = obj.serialization_claim()
        current_epoch = counter == serialization_counter
        seen = current_epoch and unit == own_unit
        if seen or address in fallback_visited:
            # Relative address already in the header: forward to RAW.
            hm_free = header_done + _HM_CYCLE_NS
            raw_free = max(raw_free, header_done) + raw_cycle
            ref_store.push(raw_free, _oracle_packed_ref_bytes(obj))
            continue
        objects += 1
        layout = obj.layout()
        total_slots = layout.total_slots
        size_bytes = total_slots * SLOT_BYTES

        # New object: assigning its relative address needs the size
        # counter, which the OMM updates for the previous new object.
        assign_ns = max(header_done, counter_ready)
        stalls += max(0.0, counter_ready - header_done)
        if current_epoch:
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
            su.mai.atomic_rmw(assign_ns, address + 16, 8)
        serialized_size += size_bytes
        hm_free = assign_ns + _HM_CYCLE_NS
        raw_free = max(raw_free, assign_ns) + raw_cycle
        ref_store.push(raw_free, _oracle_packed_ref_bytes(obj))

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
        su.klass_table.lookup(metaspace_address)
        oh_done += 1.0
        oh_free = oh_done

        reference_slots = layout.reference_slots
        value_store.push(oh_done, (total_slots - len(reference_slots)) * 8)
        if reference_slots:
            words = obj.image_words()
            for slot in reference_slots:
                child_address = words[HEADER_SLOTS + slot]
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
    su.mai.write(finish, OUTPUT_REGION_BASE + _REF_REGION + ref_store.total,
                   max(1, end_map_bytes))
    finish = su.mai.drain(finish)

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


def _oracle_packed_ref_bytes(obj: HeapObject) -> int:
    """Packed bytes of one relative-address item for ``obj``.

    The relative address is bounded by the graph size; we use the
    object's own image offset proxy (its heap offset) which has the
    same magnitude distribution. Exact stream bytes come from the
    functional encoder; this is timing-side accounting only.
    """
    relative = max(1, obj.address & 0xFFFF_FFFF)
    return (significant_bits(relative) + 1 + 7) // 8


def _reachable(root):
    """Every object reachable from ``root``, by address, breadth first."""
    seen = {root.address: root}
    queue = deque([root])
    while queue:
        for child in queue.popleft().referenced_objects():
            if child is not None and child.address not in seen:
                seen[child.address] = child
                queue.append(child)
    return list(seen.values())


def _su_outcome(unit, root, result):
    """Everything the SU run models or leaves behind, for comparison."""
    mai = unit.mai
    heap = root.heap
    words = [heap.memory.read_u64(obj.address + 16) for obj in _reachable(root)]
    return {
        "result": result,
        "mai": dataclasses.replace(mai.stats),
        "dram": dataclasses.replace(mai.dram.stats),
        "tlb": (mai.tlb.hits, mai.tlb.misses),
        "klass_lookups": unit.klass_table.lookups,
        "extension_words": words,
    }


def _new_su_run(unit, root, **kwargs):
    return unit.run(SUWorkload.from_root(root), **kwargs)


def _compare_su(build, registry, config=None, unit_id=0, **kwargs):
    """Run the column walk and the oracle on two identical fresh heaps.

    ``build(heap)`` returns the root; both heaps share ``registry``, so
    every address and klass pointer is the same on both sides.
    """
    config = config or CerealConfig()
    outcomes = []
    for runner in (_oracle_su_run, _new_su_run):
        heap = Heap(registry=registry)
        root = build(heap)
        table = KlassPointerTable()
        for class_id, klass in enumerate(registry):
            table.install(klass.metaspace_address, class_id)
        mai = MemoryAccessInterface(DRAMModel(), config)
        unit = SerializationUnit(mai, table, config, unit_id=unit_id)
        outcomes.append(_su_outcome(unit, root, runner(unit, root, **kwargs)))
    oracle, new = outcomes
    for key in oracle:
        assert new[key] == oracle[key], key
    return new["result"]


def _micro_registry():
    registry = make_registry()
    register_micro_klasses(registry)
    return registry


def _miniature(name, scale=64):
    """A Table II graph at ``scale`` objects per paper-scale unit."""
    config = MICROBENCH_CONFIGS[name]
    config = dataclasses.replace(config, paper_objects=scale * config.scale)
    return lambda heap: _BUILDERS[config.shape](heap, config)


def _random_graph(seed, count=60):
    """Seeded random graph: shared children, cycles, nulls and arrays."""

    def build(heap):
        rng = random.Random(seed)
        objects = []
        for _ in range(count):
            kind = rng.choice(["Node", "Node", "Mixed", "Point", "refs",
                               "longs", "doubles"])
            if kind == "refs":
                objects.append(heap.new_array(FieldKind.REFERENCE,
                                              rng.randint(0, 9)))
            elif kind == "longs":
                objects.append(heap.new_array(FieldKind.LONG, rng.randint(0, 20)))
            elif kind == "doubles":
                objects.append(heap.new_array(FieldKind.DOUBLE,
                                              rng.randint(0, 20)))
            else:
                objects.append(heap.new_instance(kind))

        def pick():
            return None if rng.random() < 0.25 else rng.choice(objects)

        for obj in objects:
            name = obj.klass.name
            if name == "Node":
                obj.set("value", rng.getrandbits(40))
                obj.set("left", pick())
                obj.set("right", pick())
            elif name == "Mixed":
                obj.set("child", pick())
            elif obj.klass.is_array and obj.klass.element_kind is FieldKind.REFERENCE:
                for index in range(obj.length):
                    obj.set_element(index, pick())
        root = heap.new_array(FieldKind.REFERENCE, 8)
        for index in range(8):
            root.set_element(index, pick())
        return root

    return build


class TestSUColumnWalkOracle:
    """The column walk matches the per-object oracle field for field."""

    @pytest.mark.parametrize("name", sorted(MICROBENCH_CONFIGS))
    @pytest.mark.parametrize("vanilla", [False, True], ids=["pipelined", "vanilla"])
    def test_table_ii_miniatures(self, name, vanilla):
        config = CerealConfig().vanilla() if vanilla else None
        result = _compare_su(_miniature(name), _micro_registry(), config=config)
        assert result.objects > 1

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        result = _compare_su(_random_graph(seed), make_registry(),
                             serialization_counter=3)
        assert result.encounters >= result.objects

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_vanilla(self, seed):
        _compare_su(_random_graph(seed), make_registry(),
                    config=CerealConfig().vanilla())

    @pytest.mark.parametrize("build", [build_tree, build_shared, build_mixed,
                                       build_primitive_array,
                                       build_reference_array])
    def test_start_time_and_unit(self, build):
        _compare_su(build, make_registry(), unit_id=5, start_ns=1234.5,
                    serialization_counter=9)

    def test_addresses_across_a_packed_width_step(self):
        """Objects on both sides of 0x40_0000, where the packed item of a
        23-bit address takes one byte more than that of a 22-bit one."""

        def build(heap):
            heap.new_array(FieldKind.LONG, (0x40_0000 - 0x1_0000) // 8 - 40)
            return build_tree(heap, depth=5)

        result = _compare_su(build, make_registry())
        assert result.objects == 63

    def test_stale_claims_of_other_units(self):
        """Headers claimed by other units in earlier epochs are reclaimed."""

        def build(heap):
            root = _random_graph(1)(heap)
            for index, obj in enumerate(_reachable(root)):
                obj.claim_serialization(index % 3, index % 4, 8 * index)
            return root

        _compare_su(build, make_registry(), unit_id=2, serialization_counter=3)

    def test_eight_units_on_one_out_of_order_dram(self):
        """Eight units sharing one out-of-order DRAM, as a device batch."""
        registry = _micro_registry()
        outcomes = []
        for runner in (_oracle_su_run, _new_su_run):
            heap = Heap(registry=registry)
            roots = [_miniature(name)(heap) for name in sorted(MICROBENCH_CONFIGS)]
            roots += roots[:2]
            table = KlassPointerTable()
            for class_id, klass in enumerate(registry):
                table.install(klass.metaspace_address, class_id)
            config = CerealConfig()
            dram = DRAMModel(out_of_order=True)
            runs = []
            for unit_id, root in enumerate(roots):
                mai = MemoryAccessInterface(dram, config)
                unit = SerializationUnit(mai, table, config, unit_id=unit_id)
                epoch = heap.next_serialization_epoch()
                result = runner(unit, root, start_ns=7.0 * unit_id,
                                serialization_counter=epoch)
                runs.append(_su_outcome(unit, root, result))
            outcomes.append(runs)
        oracle, new = outcomes
        assert len(new) == 8
        for got, want in zip(new, oracle):
            for key in want:
                assert got[key] == want[key], key


def _concurrent(roots_for, oracle, monkeypatch):
    """``serialize_concurrent`` on a fresh heap, through the column walk or
    the oracle, with each op's outcome recorded as its SU run returns."""
    registry = make_registry()
    accelerator = CerealAccelerator()
    for klass in registry:
        accelerator.register_class(klass)
    heap = Heap(registry=registry)
    roots = roots_for(heap)
    run = SerializationUnit.run
    outcomes = []

    def recording_run(unit, workload, **kwargs):
        root = workload.objects[0]
        if oracle:
            result = _oracle_su_run(unit, root, **kwargs)
        else:
            result = run(unit, workload, **kwargs)
        outcomes.append(_su_outcome(unit, root, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(SerializationUnit, "run", recording_run)
        accelerator.serialize_concurrent(roots)
    return outcomes


def _roots_sharing_tree(count, depth=3):
    def roots_for(heap):
        shared = build_tree(heap, depth=depth)
        roots = []
        for _ in range(count):
            root = heap.new_instance("Node")
            root.set("left", shared)
            roots.append(root)
        return roots

    return roots_for


class TestSUConcurrentOracle:
    def test_two_roots_foreign_claim_fallback(self, monkeypatch):
        roots_for = _roots_sharing_tree(2)
        oracle = _concurrent(roots_for, True, monkeypatch)
        new = _concurrent(roots_for, False, monkeypatch)
        assert [outcome["result"].fallback_objects for outcome in new] == [0, 15]
        assert new == oracle

    def test_reused_unit_is_the_one_change(self, monkeypatch):
        """With more roots than SUs, root 8 runs on unit 0 again in the same
        epoch. The oracle reads root 0's finished claims as its own visited
        marks and prunes the walk; the column walk reclaims them."""
        roots_for = _roots_sharing_tree(9)
        oracle = _concurrent(roots_for, True, monkeypatch)
        new = _concurrent(roots_for, False, monkeypatch)
        assert new[:8] == oracle[:8]
        assert oracle[8]["result"].objects == 1
        assert new[8]["result"].objects == 16
        assert new[8]["result"].fallback_objects == 0


# -- the unit loops against their per-call oracles ------------------------------


def _unit_outcome(unit, result):
    """Everything one SU or DU run models or leaves behind in its MAI,
    TLB, DRAM and lookup table."""
    mai = unit.mai
    table = unit.klass_table if isinstance(unit, SerializationUnit) else (
        unit.class_id_table
    )
    return {
        "result": result,
        "mai": dataclasses.replace(mai.stats),
        "tracker": list(mai._entries.items()),
        "drain": mai.last_drain_ns,
        "tlb": (mai.tlb.hits, mai.tlb.misses, list(mai.tlb._pages)),
        "dram": dataclasses.replace(mai.dram.stats),
        "channels": list(mai.dram.channel_free_ns),
        "lookups": table.lookups,
    }


@contextlib.contextmanager
def _unit_runs(monkeypatch, oracle):
    """Record the outcome of every SU and DU run as it returns. With
    ``oracle`` the per-call forms run: per-push store buffers, per-call
    stream loaders, a ``TLB.translate`` per MAI request and a DRAM access
    per 32 B block."""
    outcomes = []

    def recording(run):
        def record(unit, *args, **kwargs):
            result = run(unit, *args, **kwargs)
            outcomes.append(_unit_outcome(unit, result))
            return result

        return record

    with monkeypatch.context() as patch:
        if oracle:
            patch.setattr(SerializationUnit, "run", recording(oracle_su_run))
            patch.setattr(DeserializationUnit, "run", recording(oracle_du_run))
            patch.setattr(MemoryAccessInterface, "read", OracleMAI.read)
            patch.setattr(MemoryAccessInterface, "write", OracleMAI.write)
        else:
            patch.setattr(SerializationUnit, "run", recording(SerializationUnit.run))
            patch.setattr(DeserializationUnit, "run",
                          recording(DeserializationUnit.run))
        yield outcomes


def _both(monkeypatch, scenario):
    """``scenario()``'s return value and unit outcomes through the unit
    loops and through the oracles; asserts they are identical."""
    runs = []
    for oracle in (True, False):
        with _unit_runs(monkeypatch, oracle) as outcomes:
            runs.append((scenario(), outcomes))
    (oracle_value, oracle_units), (value, units) = runs
    assert len(units) == len(oracle_units)
    for index, (got, want) in enumerate(zip(units, oracle_units)):
        for key in want:
            assert got[key] == want[key], (index, key)
    assert value == oracle_value
    return value, units


def _accelerator(registry, config=None):
    """A fresh device, so lookup counts start at zero in every scenario."""
    accelerator = CerealAccelerator(config)
    for klass in registry:
        accelerator.register_class(klass)
    return accelerator


class TestUnitLoopsMatchPerCallOracles:
    """SU, DU and MAI loops equal their per-call forms in every output."""

    @pytest.mark.parametrize("detour", [0.0, 25.0], ids=["clean", "detour"])
    @pytest.mark.parametrize("coalescing", [True, False], ids=["coalesce", "no-coalesce"])
    @pytest.mark.parametrize("vanilla", [False, True], ids=["pipelined", "vanilla"])
    @pytest.mark.parametrize("name", sorted(MICROBENCH_CONFIGS))
    def test_table_ii_graphs(self, monkeypatch, name, vanilla, coalescing, detour):
        config = CerealConfig(coherence_extra_read_ns=detour)
        if vanilla:
            config = config.vanilla()
        registry = _micro_registry()

        def scenario():
            accelerator = _accelerator(registry, config)
            heap = Heap(registry=registry)
            root = _miniature(name)(heap)
            stream = accelerator.codec.serialize(root).stream
            workload = DUWorkload.from_stream_sections(
                CerealSerializer.decode_sections(stream)
            )

            def mai():
                # 4 KiB pages in 4 entries: misses and evictions occur.
                tlb = TLB(entries=4, page_bytes=4096)
                return MemoryAccessInterface(DRAMModel(), config, tlb, coalescing)

            su = SerializationUnit(mai(), accelerator.klass_pointer_table, config)
            su.run(SUWorkload.from_root(root),
                   serialization_counter=heap.next_serialization_epoch())
            du = DeserializationUnit(mai(), accelerator.class_id_table, config)
            du.run(workload, destination_base=root.address, start_ns=3.5)

        _, (su_outcome, du_outcome) = _both(monkeypatch, scenario)
        assert su_outcome["tlb"][1] > 4  # the TLB evicted
        if coalescing:
            assert su_outcome["mai"].coalesced_blocks > 0
        assert du_outcome["lookups"] > 0

    def test_shared_object_fallback(self, monkeypatch):
        registry = make_registry()
        roots_for = _roots_sharing_tree(3, depth=4)

        def scenario():
            accelerator = _accelerator(registry)
            heap = Heap(registry=registry)
            return [timing for _, timing, _ in
                    accelerator.serialize_concurrent(roots_for(heap))]

        _, units = _both(monkeypatch, scenario)
        assert [unit["result"].fallback_objects for unit in units] == [0, 31, 31]

    @pytest.mark.parametrize("kind", ["serialize", "deserialize"])
    def test_eight_unit_device_batch(self, monkeypatch, kind):
        """Eight units on one interval-scheduled DRAM, as a device batch."""
        registry = _micro_registry()
        names = sorted(MICROBENCH_CONFIGS)

        def scenario():
            accelerator = _accelerator(registry)
            heap = Heap(registry=registry)
            roots = [_miniature(name)(heap) for name in names + names[:2]]
            if kind == "serialize":
                requests = [("serialize", root) for root in roots]
            else:
                requests = [
                    ("deserialize", accelerator.codec.serialize(root).stream,
                     Heap(registry=registry))
                    for root in roots
                ]
            run = DeviceSimulator(accelerator).run(requests)
            return run.wall_time_ns, run.dram_bytes, [
                (op.kind, op.unit_index, op.start_ns, op.finish_ns, op.graph_bytes)
                for op in run.operations
            ]

        _, units = _both(monkeypatch, scenario)
        assert len(units) == 8
        assert len({unit["result"].start_ns for unit in units}) == 1
