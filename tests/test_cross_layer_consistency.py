"""Cross-layer consistency: the timing models vs the functional encoder.

The SU/DU cycle models account their own output/input traffic; the
functional :class:`~repro.formats.CerealSerializer` owns the actual bytes.
These tests pin the two layers together so they cannot drift: the SU's
value-array write accounting must equal the functional value array, the DU
workload's stream byte counts must match the decoded sections, and the
accelerator façade must report the functional stream's sizes.
"""

import pytest

from repro.cereal import CerealAccelerator
from repro.cereal.du import DUWorkload
from repro.formats.cereal_format import CerealSerializer
from repro.jvm import Heap
from repro.workloads import build_microbench
from repro.workloads.micro import register_micro_klasses


@pytest.fixture(scope="module")
def measured():
    """One accelerator pass over each microbenchmark shape."""
    out = {}
    for workload in ("tree-narrow", "list-small", "graph-sparse"):
        heap = Heap()
        register_micro_klasses(heap.registry)
        accelerator = CerealAccelerator()
        for klass in heap.registry:
            accelerator.register_class(klass)
        root = build_microbench(heap, workload)
        result, timing, su = accelerator.serialize(root)
        receiver = Heap(registry=heap.registry)
        _, de_timing, du = accelerator.deserialize(result.stream, receiver)
        out[workload] = (result, timing, su, de_timing, du)
    return out


@pytest.mark.parametrize(
    "workload", ["tree-narrow", "list-small", "graph-sparse"]
)
class TestSUAgainstFunctionalStream:
    def test_value_bytes_match(self, measured, workload):
        result, _, su, _, _ = measured[workload]
        assert su.value_bytes_written == result.stream.sections["value_array"]

    def test_heap_bytes_equal_graph_size(self, measured, workload):
        result, _, su, _, _ = measured[workload]
        assert su.heap_bytes_read == result.stream.graph_bytes

    def test_object_counts_agree(self, measured, workload):
        result, timing, su, _, _ = measured[workload]
        assert su.objects == result.stream.object_count == timing.objects

    def test_su_packed_bitmap_estimate_close(self, measured, workload):
        """The SU's per-object packed-bitmap size is exact, so its total
        must match the functional packed bitmap payload."""
        result, _, su, _, _ = measured[workload]
        assert su.bitmap_bytes_written == result.stream.sections["layout_bitmap"]

    def test_su_reference_traffic_within_bounds(self, measured, workload):
        """The SU's ref-byte estimate is approximate (timing side only) but
        must stay within 3x of the functional packed reference array."""
        result, _, su, _, _ = measured[workload]
        functional = (
            result.stream.sections["reference_array"]
            + result.stream.sections["reference_end_map"]
        )
        assert functional / 3 < su.reference_bytes_written < functional * 3


@pytest.mark.parametrize(
    "workload", ["tree-narrow", "list-small", "graph-sparse"]
)
class TestDUAgainstFunctionalStream:
    def test_workload_streams_match_sections(self, measured, workload):
        result, _, _, _, _ = measured[workload]
        sections = CerealSerializer.decode_sections(result.stream)
        du_workload = DUWorkload.from_stream_sections(sections)
        assert du_workload.value_array_bytes == result.stream.sections["value_array"]
        assert du_workload.reference_array_bytes == (
            result.stream.sections["reference_array"]
            + result.stream.sections["reference_end_map"]
        )
        assert du_workload.bitmap_bytes == (
            result.stream.sections["layout_bitmap"]
            + result.stream.sections["bitmap_end_map"]
        )

    def test_blocks_cover_image_exactly(self, measured, workload):
        result, _, _, _, du = measured[workload]
        sections = CerealSerializer.decode_sections(result.stream)
        assert du.blocks * 64 >= sections.graph_total_bytes
        assert (du.blocks - 1) * 64 < sections.graph_total_bytes

    def test_du_timing_reports_stream_bytes(self, measured, workload):
        result, _, _, de_timing, du = measured[workload]
        assert de_timing.stream_bytes == result.stream.size_bytes
        assert du.stream_bytes_read < result.stream.size_bytes  # no framing


@pytest.mark.parametrize(
    "workload", ["tree-narrow", "list-small", "graph-sparse"]
)
class TestTimingSanity:
    def test_dram_traffic_at_least_graph_size(self, measured, workload):
        """Serialization must read at least the whole graph from DRAM."""
        result, timing, _, _, _ = measured[workload]
        assert timing.dram_bytes >= result.stream.graph_bytes

    def test_deser_dram_traffic_covers_image_and_stream(self, measured, workload):
        result, _, _, de_timing, _ = measured[workload]
        floor = result.stream.graph_bytes  # image writes alone
        assert de_timing.dram_bytes >= floor

    def test_throughput_below_dram_peak(self, measured, workload):
        _, timing, _, de_timing, _ = measured[workload]
        peak = 76.8  # B/ns, i.e. 76.8 GB/s
        assert timing.graph_bytes / timing.elapsed_ns < peak
        assert de_timing.graph_bytes / de_timing.elapsed_ns < peak
