"""Direct unit tests for the SU and DU timing models (below the façade)."""

import random

import pytest

from repro.cereal.du import (
    BlockDescriptor,
    DeserializationUnit,
    DUWorkload,
    _StreamPrefetcher,
)
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import SerializationUnit, _BufferedStore
from repro.cereal.tables import ClassIDTable, KlassPointerTable
from repro.common.bitstream import word_to_bits
from repro.common.bitutils import significant_bits
from repro.common.config import CerealConfig
from repro.common.errors import SimulationError
from repro.formats import CerealSerializer, ClassRegistration
from repro.formats.cereal_format import CerealStreamSections
from repro.formats.packing import pack_bitmap_words, pack_items
from repro.jvm import Heap
from repro.memory.dram import DRAMModel
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


class TestBufferedStore:
    def test_writes_in_64b_chunks(self):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        store = _BufferedStore(mai, 0x1000)
        store.push(0.0, 40)
        assert mai.stats.write_requests == 0  # below the 64 B threshold
        store.push(0.0, 40)
        assert mai.stats.write_requests == 1  # crossed: one chunk flushed
        assert store.pending == 16

    def test_flush_drains_partial(self):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        store = _BufferedStore(mai, 0x1000)
        store.push(0.0, 10)
        store.flush(0.0)
        assert store.pending == 0
        assert mai.stats.write_requests == 1

    def test_total_accumulates(self):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        store = _BufferedStore(mai, 0x1000)
        store.push(0.0, 100)
        store.push(0.0, 100)
        assert store.total == 200


class TestSerializationUnit:
    def test_start_time_offsets_result(self):
        unit, heap, registration, _ = make_su()
        root = build_tree(heap, depth=3)
        late = unit.run(root, registration, start_ns=1000.0,
                        serialization_counter=1)
        assert late.start_ns == 1000.0
        assert late.finish_ns > 1000.0

    def test_output_traffic_matches_stream_structure(self):
        unit, heap, registration, _ = make_su()
        root = build_tree(heap, depth=4)
        result = unit.run(root, registration, serialization_counter=1)
        # Full binary tree of depth 4 -> 31 Node objects, each 6 slots
        # (3 header + 1 value + 2 references).
        assert result.objects == 31
        assert result.value_bytes_written == 31 * (6 - 2) * 8
        assert result.bitmap_bytes_written == 31  # ceil((6+1)/8) per object

    def test_unit_ids_recorded_in_headers(self):
        unit, heap, registration, _ = make_su(unit_id=3)
        root = build_tree(heap, depth=2)
        unit.run(root, registration, serialization_counter=7)
        assert root.serialization_unit_id == 4  # unit_id + 1
        assert root.serialization_counter == 7

    def test_without_extension_uses_internal_tracking(self):
        registry = make_registry()
        registration = ClassRegistration()
        for klass in registry:
            registration.register(klass)
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        table = KlassPointerTable()
        for class_id, klass in enumerate(registration):
            table.install(klass.metaspace_address, class_id)
        unit = SerializationUnit(mai, table, CerealConfig())
        heap = Heap(registry=registry, cereal_extension=False)
        root = build_shared(heap)
        result = unit.run(root, registration, serialization_counter=1)
        assert result.objects == 2
        assert result.encounters == 3

    def test_mai_sees_header_rmws(self):
        unit, heap, registration, mai = make_su()
        root = build_tree(heap, depth=3)
        unit.run(root, registration, serialization_counter=1)
        assert mai.stats.atomic_rmws == 15  # one per new object (depth-3 tree)


class TestStreamPrefetcher:
    def make(self, length, depth=8, start=0.0):
        mai = MemoryAccessInterface(DRAMModel(), CerealConfig())
        return _StreamPrefetcher(mai, 0x1000_0000, length, start, depth)

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
    bitmaps = sections.layout_bitmaps()
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
        raw_bitmaps=[word_to_bits(word, width) for word, width in bitmaps],
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
