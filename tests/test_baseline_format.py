"""Tests for the Section IV-A baseline Cereal format (packing disabled)."""

import struct

import pytest

from repro.cereal.du import DUWorkload
from repro.common.errors import FormatError
from repro.formats import CerealSerializer, ClassRegistration, graphs_equivalent
from repro.formats.base import SerializedStream
from repro.jvm import Heap
from tests.test_serializers import (
    build_cycle,
    build_reference_array,
    build_shared,
    build_tree,
    make_registry,
)


@pytest.fixture
def setup():
    registry = make_registry()
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    packed = CerealSerializer(registration)
    baseline = CerealSerializer(registration, use_packing=False)
    heap = Heap(registry=registry)
    return registry, packed, baseline, heap


class TestBaselineRoundTrip:
    @pytest.mark.parametrize(
        "builder", [build_tree, build_shared, build_cycle, build_reference_array]
    )
    def test_round_trip(self, setup, builder):
        registry, _, baseline, heap = setup
        root = builder(heap)
        receiver = Heap(registry=registry)
        rebuilt = baseline.deserialize(baseline.serialize(root).stream, receiver).root
        assert graphs_equivalent(root, rebuilt)

    def test_streams_self_describing(self, setup):
        """A packed decoder reads a baseline stream via the flags byte."""
        registry, packed, baseline, heap = setup
        root = build_tree(heap, depth=4)
        stream = baseline.serialize(root).stream
        receiver = Heap(registry=registry)
        # Deserializing with the *packed* serializer instance must work:
        # the format flag in the stream drives decoding.
        rebuilt = packed.deserialize(stream, receiver).root
        assert graphs_equivalent(root, rebuilt)

    def test_sections_flagging(self, setup):
        _, packed, baseline, heap = setup
        root = build_tree(heap, depth=3)
        packed_sections = CerealSerializer.decode_sections(
            packed.serialize(root).stream
        )
        baseline_sections = CerealSerializer.decode_sections(
            baseline.serialize(root).stream
        )
        assert packed_sections.packed is True
        assert baseline_sections.packed is False
        assert (
            packed_sections.reference_values()
            == baseline_sections.reference_values()
        )
        assert (
            packed_sections.layout_bitmap_words()
            == baseline_sections.layout_bitmap_words()
        )


class TestBaselineBitmapTable:
    """Each length-prefixed bitmap is read straight into ``(word, width)``."""

    @staticmethod
    def _table(setup):
        """A baseline stream split at its bitmap table: (head, blob)."""
        _, _, baseline, heap = setup
        stream = baseline.serialize(build_tree(heap, depth=3)).stream
        blob_start = len(stream.data) - stream.sections["layout_bitmap"]
        return stream.data[: blob_start - 4], stream.data[blob_start:]

    @staticmethod
    def _decode(head, blob):
        data = head + struct.pack("<I", len(blob)) + blob
        return CerealSerializer.decode_sections(SerializedStream("cereal", data))

    def test_padding_bits_are_dropped(self, setup):
        head, blob = self._table(setup)
        words = self._decode(head, blob).layout_bitmap_words()
        (width,) = struct.unpack("<Q", blob[:8])
        nbytes = (width + 7) // 8
        assert nbytes * 8 > width  # the first bitmap has tail padding
        padded = bytearray(blob)
        padded[8 + nbytes - 1] |= (1 << (nbytes * 8 - width)) - 1
        assert self._decode(head, bytes(padded)).layout_bitmap_words() == words

    def test_truncated_bitmap_rejected(self, setup):
        head, blob = self._table(setup)
        with pytest.raises(FormatError, match="baseline bitmap truncated"):
            self._decode(head, blob[:-1])
        (width,) = struct.unpack("<Q", blob[:8])
        with pytest.raises(FormatError, match="bitmap table truncated"):
            self._decode(head, blob[: 8 + (width + 7) // 8 + 4])

    def test_trailing_bytes_rejected(self, setup):
        head, blob = self._table(setup)
        with pytest.raises(FormatError, match="trailing bytes in baseline"):
            self._decode(head, blob + b"\x00")


class TestBaselineSizeOverhead:
    def test_packing_shrinks_the_stream(self, setup):
        """Section IV-B exists because IV-A is bigger — verify directly."""
        _, packed, baseline, heap = setup
        root = build_tree(heap, depth=7)
        packed_size = packed.serialize(root).stream.size_bytes
        baseline_size = baseline.serialize(root).stream.size_bytes
        assert packed_size < baseline_size

    def test_baseline_metadata_is_8b_per_ref_and_object(self, setup):
        _, _, baseline, heap = setup
        root = build_tree(heap, depth=4)
        stream = baseline.serialize(root).stream
        sections = CerealSerializer.decode_sections(stream)
        assert stream.sections["reference_array"] == 8 * sections.reference_count
        expected_bitmap = sum(
            8 + (width + 7) // 8 for _, width in sections.layout_bitmap_words()
        )
        assert stream.sections["layout_bitmap"] == expected_bitmap


class TestBaselineOnAccelerator:
    def test_du_workload_from_baseline_stream(self, setup):
        _, _, baseline, heap = setup
        root = build_tree(heap, depth=4)
        sections = CerealSerializer.decode_sections(
            baseline.serialize(root).stream
        )
        workload = DUWorkload.from_stream_sections(sections)
        slot_total = sum(
            b.value_slots + b.reference_slots for b in workload.blocks
        )
        assert slot_total * 8 == workload.image_bytes
        assert workload.reference_array_bytes == 8 * sections.reference_count

    def test_baseline_stream_costs_more_du_bandwidth(self, setup):
        """The DU reads more reference/bitmap bytes without packing."""
        registry, packed, baseline, heap = setup
        root = build_tree(heap, depth=7)
        packed_sections = CerealSerializer.decode_sections(
            packed.serialize(root).stream
        )
        baseline_sections = CerealSerializer.decode_sections(
            baseline.serialize(root).stream
        )
        packed_wl = DUWorkload.from_stream_sections(packed_sections)
        baseline_wl = DUWorkload.from_stream_sections(baseline_sections)
        assert (
            baseline_wl.reference_array_bytes > packed_wl.reference_array_bytes
        )
        assert baseline_wl.bitmap_bytes > packed_wl.bitmap_bytes
