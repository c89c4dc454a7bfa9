"""The planned Cereal rebuild against the per-slot oracle.

``CerealSerializer.deserialize`` rebuilds every object from a memoized
plan per layout bitmap; ``CerealOracle`` in ``tests/oracles.py`` keeps
the per-slot walk as the oracle. These tests hold the two to the same heap pages, registered
objects, work profile and memory-trace records on shapes the Table II
graphs lack (interleaved value and reference slots, reference and
primitive arrays, null references) in packed, baseline and mark-stripped
streams, and to the same accept/reject verdict on corrupted streams.
"""

from __future__ import annotations

import struct

import pytest

from tests.oracles import CerealOracle, oracle_serializer
from tests.test_adversarial_decode import GOLDEN_SEEDS, heap_state

from repro.common.errors import FormatError
from repro.formats import CerealSerializer, ClassRegistration
from repro.formats.adversarial import as_stream, build_corpus
from repro.formats.base import SerializedStream
from repro.formats.packing import pack_bitmap_words, pack_items
from repro.formats.secure import secure_deserialize
from repro.jvm import FieldKind, Heap
from repro.jvm.klass import HEADER_SLOTS, FieldDescriptor, InstanceKlass, KlassRegistry
from repro.memory.trace import MemoryTrace
from repro.workloads import build_microbench
from repro.workloads.micro import register_micro_klasses

_VARIANTS = {
    "packed": {},
    "baseline": {"use_packing": False},
    "stripped": {"strip_mark_word": True},
}


def _registry() -> KlassRegistry:
    registry = KlassRegistry()
    registry.register(
        InstanceKlass(
            "Mixed",
            [
                FieldDescriptor("id", FieldKind.LONG),
                FieldDescriptor("left", FieldKind.REFERENCE),
                FieldDescriptor("count", FieldKind.INT),
                FieldDescriptor("right", FieldKind.REFERENCE),
                FieldDescriptor("weight", FieldKind.DOUBLE),
                FieldDescriptor("payload", FieldKind.REFERENCE),
            ],
        )
    )
    registry.register(
        InstanceKlass(
            "RefFirst",
            [
                FieldDescriptor("next", FieldKind.REFERENCE),
                FieldDescriptor("value", FieldKind.LONG),
            ],
        )
    )
    return registry


def _mixed_graph(heap: Heap):
    """A reference array over interleaved instances, primitive arrays,
    nested reference arrays, nulls and a cycle."""
    nodes = []
    for index in range(40):
        node = heap.new_instance("Mixed")
        node.set("id", index * 0x9E3779B9 - 2**40)
        node.set("count", -index)
        node.set("weight", index / 7.0)
        nodes.append(node)
    for index, node in enumerate(nodes):
        node.set("left", nodes[(index * 7) % len(nodes)] if index % 3 else None)
        node.set("right", nodes[index - 1] if index % 4 else None)
        if index % 5 == 0:
            longs = heap.new_array(FieldKind.LONG, index + 1)
            for slot in range(index + 1):
                longs.set_element(slot, slot - index)
            node.set("payload", longs)
        elif index % 5 == 1:
            node.set("payload", heap.new_array(FieldKind.BYTE, index))
    chain = None
    for index in range(12):
        link = heap.new_instance("RefFirst")
        link.set("next", chain)
        link.set("value", index)
        chain = link
    inner = heap.new_array(FieldKind.REFERENCE, 5)
    inner.set_element(1, chain)
    inner.set_element(3, inner)  # a cycle through the array itself
    root = heap.new_array(FieldKind.REFERENCE, 64)
    for slot in range(64):
        if slot % 3 == 0:
            root.set_element(slot, nodes[slot % len(nodes)])
        elif slot % 3 == 1 and slot < 20:
            root.set_element(slot, heap.new_array(FieldKind.INT, slot))
    root.set_element(2, inner)
    root.set_element(5, heap.new_array(FieldKind.REFERENCE, 0))
    root.set_element(8, heap.new_array(FieldKind.DOUBLE, 0))
    return root


def _decode_state(serializer, stream, registry):
    """Everything a decode leaves behind: pages, objects, profile, trace."""
    heap = Heap(registry=registry)
    trace = MemoryTrace()
    heap.memory.trace = trace
    result = serializer.deserialize(stream, heap)
    heap.memory.trace = None
    pages = {index: bytes(page) for index, page in heap.memory._pages.items()}
    objects = [(obj.address, obj.klass.name, obj.length) for obj in heap.objects()]
    return {
        "pages": pages,
        "objects": objects,
        "root": result.root.address,
        "profile": vars(result.profile),
        "trace": (list(trace.addresses), list(trace.lengths)),
    }


def _pair(registration, **kwargs):
    return (
        CerealSerializer(registration, **kwargs),
        CerealOracle(registration, **kwargs),
    )


def _baseline_bytes(graph_total, object_count, flags, values, refs, bitmaps):
    """A Section IV-A stream (raw references, length-prefixed bitmaps)."""
    bitmap_table = b"".join(
        struct.pack("<Q", width)
        + (word << ((width + 7) // 8 * 8 - width)).to_bytes((width + 7) // 8, "big")
        for word, width in bitmaps
    )
    return (
        struct.pack("<IIB", graph_total, object_count, flags)
        + struct.pack("<I", len(values) * 8)
        + struct.pack(f"<{len(values)}Q", *values)
        + struct.pack("<I", len(refs))
        + struct.pack(f"<{len(refs)}Q", *refs)
        + struct.pack("<I", len(bitmap_table))
        + bitmap_table
    )


def _packed_bytes(graph_total, object_count, flags, values, refs, bitmaps):
    """A Section IV-B stream of the given structures."""
    packed_refs = pack_items(refs)
    packed_bitmaps = pack_bitmap_words(bitmaps)
    return (
        struct.pack("<IIB", graph_total, object_count, flags)
        + struct.pack("<I", len(values) * 8)
        + struct.pack(f"<{len(values)}Q", *values)
        + struct.pack(
            "<III", len(packed_refs.data), len(packed_refs.end_map),
            packed_refs.item_count,
        )
        + packed_refs.data
        + packed_refs.end_map
        + struct.pack("<II", len(packed_bitmaps.data), len(packed_bitmaps.end_map))
        + packed_bitmaps.data
        + packed_bitmaps.end_map
    )


class TestPlannedRebuildMatchesOracle:
    @pytest.fixture(scope="class")
    def mixed(self):
        registry = _registry()
        heap = Heap(registry=registry)
        root = _mixed_graph(heap)
        registration = ClassRegistration()
        for klass in registry:
            registration.register(klass)
        return registry, root, registration

    @pytest.mark.parametrize("variant", sorted(_VARIANTS))
    def test_same_heap_objects_profile_and_trace(self, mixed, variant):
        registry, root, registration = mixed
        planned, oracle = _pair(registration, **_VARIANTS[variant])
        stream = planned.serialize(root).stream
        assert stream.data == oracle.serialize(root).stream.data
        fast = _decode_state(planned, stream, registry)
        slow = _decode_state(oracle, stream, registry)
        for key in ("pages", "objects", "root", "profile", "trace"):
            assert fast[key] == slow[key], (variant, key)
        assert len(fast["objects"]) == stream.object_count

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_same_verdict_on_the_adversarial_corpus(self, seed):
        corpus = build_corpus(seed=seed)
        planned = corpus.serializer_for("cereal")
        oracle = oracle_serializer("cereal", registration=corpus.registration)
        samples = [s for s in corpus.samples if s.format_name == "cereal"]
        assert samples
        for sample in samples:
            verdicts = []
            for serializer in (planned, oracle):
                heap = corpus.fresh_heap()
                before = heap_state(heap)
                try:
                    secure_deserialize(
                        serializer, as_stream("cereal", sample.data), heap
                    )
                except FormatError:
                    assert heap_state(heap) == before, sample.name
                    verdicts.append("reject")
                else:
                    verdicts.append("accept")
            assert verdicts[0] == verdicts[1], (sample.name, verdicts)


class TestCraftedFaults:
    """Both rebuilds reject each fault with a FormatError of their own."""

    @pytest.fixture(scope="class")
    def valid(self):
        registry = _registry()
        heap = Heap(registry=registry)
        root = _mixed_graph(heap)
        registration = ClassRegistration()
        for klass in registry:
            registration.register(klass)
        serializer = CerealSerializer(registration)
        stream = serializer.serialize(root).stream
        sections = serializer.decode_sections(stream)
        return registry, registration, HEADER_SLOTS, (
            sections.graph_total_bytes,
            sections.object_count,
            list(sections.value_words),
            list(sections.reference_values()),
            list(sections.layout_bitmap_words()),
        )

    @staticmethod
    def _assert_both_reject(registry, registration, data):
        for serializer in (
            CerealSerializer(registration), CerealOracle(registration)
        ):
            stream = SerializedStream(format_name="cereal", data=data)
            with pytest.raises(FormatError):
                serializer.deserialize(stream, Heap(registry=registry))

    @staticmethod
    def _faults(header_slots, graph_total, count, values, refs, bitmaps):
        first_ref = next(i for i, ref in enumerate(refs) if ref)
        klass_word, klass_width = bitmaps[0]
        yield "short value array", (graph_total, count, values[:-1], refs, bitmaps)
        klass_as_ref = [(klass_word | 1 << (klass_width - 2), klass_width)]
        yield "klass slot marked as a reference", (
            graph_total, count, values, refs, klass_as_ref + bitmaps[1:]
        )
        unknown = list(values)
        unknown[1] = 10_000
        yield "unknown class id", (graph_total, count, unknown, refs, bitmaps)
        lying = [(klass_word << 1, klass_width + 1)] + bitmaps[1:]
        yield "lying width", (graph_total, count, values, refs, lying)
        dangling = list(refs)
        dangling[first_ref] += 8
        yield "dangling offset", (graph_total, count, values, dangling, bitmaps)
        yield "short reference array", (graph_total, count, values, refs[:-1], bitmaps)
        # Translated naively, this entry would not fit a 64-bit heap word.
        huge = list(refs)
        huge[first_ref] = 2**64 - 1
        yield "reference past 64 bits", (graph_total, count, values, huge, bitmaps)

    @pytest.mark.parametrize("packed", (True, False))
    def test_every_fault_rejected_on_both_paths(self, valid, packed):
        registry, registration, header_slots, parts = valid
        encode = _packed_bytes if packed else _baseline_bytes
        flags = 0x01 if packed else 0
        assert CerealSerializer(registration).deserialize(
            SerializedStream(format_name="cereal",
                             data=encode(*parts[:2], flags, *parts[2:])),
            Heap(registry=registry),
        )
        faults = list(self._faults(header_slots, *parts))
        assert len(faults) == 7
        for name, (graph_total, count, values, refs, bitmaps) in faults:
            data = encode(graph_total, count, flags, values, refs, bitmaps)
            try:
                self._assert_both_reject(registry, registration, data)
            except AssertionError as error:
                raise AssertionError(f"{name}: {error}") from None

    def test_short_reference_array_in_a_baseline_stream(self):
        """One reference entry cut from a Section IV-A list stream (count
        lowered by one, its 8 bytes dropped) runs the walk off the end of
        the reference array; that is a FormatError, not an IndexError."""
        heap = Heap(registry=None)
        register_micro_klasses(heap.registry)
        root = build_microbench(heap, "list-small")
        registration = ClassRegistration()
        for klass in heap.registry:
            registration.register(klass)
        data = CerealSerializer(registration, use_packing=False).serialize(
            root
        ).stream.data
        (value_len,) = struct.unpack_from("<I", data, 9)
        at = 13 + value_len
        (ref_count,) = struct.unpack_from("<I", data, at)
        end = at + 4 + ref_count * 8
        crafted = (
            data[:at]
            + struct.pack("<I", ref_count - 1)
            + data[at + 4:end - 8]
            + data[end:]
        )
        self._assert_both_reject(heap.registry, registration, crafted)

    def test_array_without_a_length_slot(self, valid):
        """An array klass with a header-only bitmap has no length to read."""
        registry, registration, header_slots, _ = valid
        array_id = registration.id_of(registry.array_klass(FieldKind.LONG))
        values = [0, array_id] + [0] * (header_slots - 2)
        data = _baseline_bytes(
            header_slots * 8, 1, 0, values, [], [(0, header_slots)]
        )
        self._assert_both_reject(registry, registration, data)
