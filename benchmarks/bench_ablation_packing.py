"""Ablation — object packing on/off (Section IV-A baseline vs IV-B packed).

Quantifies what the packing scheme buys on each microbenchmark: the
baseline format stores 8 B reference offsets and an 8 B layout-bitmap
length per object; packing keeps significant bits plus end bits/maps.
"""

from _golden import check
from repro.analysis import ReportTable
from repro.cpu import SoftwarePlatform
from repro.formats import ClassRegistration, CerealSerializer
from repro.jvm import Heap
from repro.workloads import MICROBENCH_CONFIGS, build_microbench
from repro.workloads.micro import register_micro_klasses


class _TracedPlatform(SoftwarePlatform):
    """Keeps the trace records and touched 64 B lines of its last call (the
    trace stores a write's length as ``~length``)."""

    def _finish(self, name, op, profile, trace):
        self.records = trace.total_count
        self.lines = sum(
            (address + (~length if length < 0 else length) - 1) // 64 - address // 64 + 1
            for address, length in zip(trace.addresses, trace.lengths)
        )
        return super()._finish(name, op, profile, trace)


def _graph(workload):
    """(heap, root, registration) of one Table II graph."""
    heap = Heap()
    register_micro_klasses(heap.registry)
    root = build_microbench(heap, workload)
    registration = ClassRegistration()
    for klass in heap.registry:
        registration.register(klass)
    return heap, root, registration


def _sizes(workload):
    """Serialize with both real formats; return (values, baseline, packed)
    where baseline/packed are the metadata (references + bitmaps) bytes of
    the Section IV-A and IV-B encodings respectively."""
    _, root, registration = _graph(workload)
    packed_stream = CerealSerializer(registration).serialize(root).stream
    baseline_stream = (
        CerealSerializer(registration, use_packing=False).serialize(root).stream
    )
    packed = (
        packed_stream.sections["reference_array"]
        + packed_stream.sections["reference_end_map"]
        + packed_stream.sections["layout_bitmap"]
        + packed_stream.sections["bitmap_end_map"]
    )
    baseline = (
        baseline_stream.sections["reference_array"]
        + baseline_stream.sections["layout_bitmap"]
    )
    values = packed_stream.sections["value_array"]
    return values, baseline, packed


def test_ablation_packing_metadata_savings(benchmark, results_dir):
    def build():
        table = ReportTable(
            "Ablation: packed vs baseline metadata (refs + bitmaps)",
            ["Workload", "Values (KiB)", "Baseline meta", "Packed meta", "Saving"],
        )
        metadata = {}
        for workload in MICROBENCH_CONFIGS:
            values, baseline, packed = _sizes(workload)
            saving = 1.0 - packed / baseline
            metadata[workload] = (baseline, packed)
            table.add_row(
                workload,
                f"{values / 1024:.1f}",
                f"{baseline / 1024:.1f} KiB",
                f"{packed / 1024:.1f} KiB",
                f"{saving * 100:.1f}%",
            )
        table.show()
        table.save(results_dir, "ablation_packing")
        return metadata

    metadata = benchmark.pedantic(build, rounds=1, iterations=1)
    # Section sizes are integer byte counts and the graphs are seeded, so
    # a moved graph builder or Cereal section split shows up exactly here.
    check("ablation_packing", {
        workload: {"baseline": baseline, "packed": packed}
        for workload, (baseline, packed) in metadata.items()
    })
    # Packing always shrinks the metadata, everywhere.
    assert all(1.0 - p / b > 0.3 for b, p in metadata.values())
    # It pays off most where references dominate in bytes saved, not as
    # a fraction. A packed bitmap drops its 8 B length word almost
    # entirely, but a packed reference keeps the significant bits of its
    # target's offset. graph-dense's metadata is ~98% references whose
    # random targets span a ~530 KiB image (~19-bit offsets, ~2.7 B per
    # packed reference), so its *fractional* saving is the lowest of the
    # six graphs (0.651) while its absolute saving is the largest.
    saved = {w: b - p for w, (b, p) in metadata.items()}
    assert max(saved, key=saved.get) == "graph-dense"


def test_ablation_packing_whole_stream_effect(benchmark, results_dir):
    """Per-stream effect: metadata savings matter less on value-heavy shapes."""

    def effect(workload):
        values, baseline, packed = _sizes(workload)
        whole_baseline = values + baseline
        whole_packed = values + packed
        return 1.0 - whole_packed / whole_baseline

    def build():
        return effect("graph-dense"), effect("list-large")

    dense, list_large = benchmark(build)
    assert dense > list_large


def test_ablation_packing_software_decode_pinned():
    """Each format's software-Cereal decode (the Spark fallback path): trace
    records, replayed cache lines and modelled ns, exactly."""
    formats = {"packed": {}, "baseline": {"use_packing": False},
               "stripped": {"strip_mark_word": True}}
    measured = {}
    for workload in MICROBENCH_CONFIGS:
        heap, root, registration = _graph(workload)
        measured[workload] = {}
        for name, options in formats.items():
            serializer = CerealSerializer(registration, **options)
            platform = _TracedPlatform()
            _, run = platform.run_deserialize(
                serializer, serializer.serialize(root).stream, Heap(registry=heap.registry)
            )
            measured[workload][name] = (platform.records, platform.lines, run.timing.time_ns)
    check("software_cereal_decode", measured)
