"""Figure 16 — Compression rate of Cereal's object packing scheme.

Paper: packing the reference offsets and layout bitmaps (plus optional
mark-word stripping) reduces the stream by 28.3% on average versus the
baseline format of Section IV-A; reference-rich NWeight compresses best,
while value-dominated ML apps (SVM, Bayes, LR) barely change.

Every size is the encoder's own: the packed size is the stream's length,
the header-strip size drops one 8 B mark word per object, and the
baseline size re-frames the stream's sections the way
``CerealSerializer(use_packing=False)`` does.
``test_fig16_sizes_match_the_encoder`` checks all three against real
encodes of the six Table II graphs.
"""

from _golden import check
from repro.analysis import ReportTable
from repro.formats import CerealSerializer, ClassRegistration
from repro.formats.cereal_format import SECTION_VALUES
from repro.jvm import Heap
from repro.workloads import MICROBENCH_CONFIGS, build_microbench
from repro.workloads.micro import register_micro_klasses

# Section IV-A framing: the 13 B stream header (graph size, object count,
# flags, value-array length) and one 4 B length before each of the
# reference and bitmap arrays.
_BASELINE_METADATA_BYTES = 21

def _stream_sizes(stream) -> tuple:
    """(baseline, packed, packed + header strip) bytes of a packed stream."""
    sections = CerealSerializer.decode_sections(stream)
    bitmap_bytes = sum(
        8 + (width + 7) // 8 for _, width in sections.layout_bitmap_words()
    )
    baseline = (
        _BASELINE_METADATA_BYTES
        + stream.sections[SECTION_VALUES]
        + 8 * sections.reference_count
        + bitmap_bytes
    )
    packed = stream.size_bytes
    return baseline, packed, packed - 8 * stream.object_count


def _app_bytes(streams) -> tuple:
    sizes = [_stream_sizes(stream) for stream in streams]
    return tuple(sum(column) for column in zip(*sizes))


def test_fig16_sizes_match_the_encoder():
    for workload in MICROBENCH_CONFIGS:
        heap = Heap()
        register_micro_klasses(heap.registry)
        root = build_microbench(heap, workload)
        registration = ClassRegistration()
        for klass in heap.registry:
            registration.register(klass)

        def size(**options):
            serializer = CerealSerializer(registration, **options)
            return serializer.serialize(root).stream.size_bytes

        packed = CerealSerializer(registration).serialize(root).stream
        assert _stream_sizes(packed) == (
            size(use_packing=False),
            size(),
            size(strip_mark_word=True),
        ), workload


def test_fig16_compression_rate(benchmark, spark_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 16: packing compression rate per Spark app",
            ["App", "Packing", "Packing + header strip"],
        )
        totals = {}
        rates = {}
        for app, streams in spark_results.cereal_streams.items():
            baseline, packed, stripped = totals[app] = _app_bytes(streams)
            packing_rate = 1.0 - packed / baseline
            strip_rate = 1.0 - stripped / baseline
            rates[app] = (packing_rate, strip_rate)
            table.add_row(
                app, f"{packing_rate * 100:.1f}%", f"{strip_rate * 100:.1f}%"
            )
        average = sum(rate for rate, _ in rates.values()) / len(rates)
        table.add_note(f"average packing rate {average * 100:.1f}% (paper: 28.3%)")
        table.show()
        table.save(results_dir, "fig16_compression")
        return totals, rates, average

    totals, rates, average = benchmark.pedantic(build, rounds=1, iterations=1)
    # Stream bytes summed over each app's Cereal streams, exactly.
    check("fig16", {
        app: dict(zip(("baseline", "packed", "stripped"), sizes))
        for app, sizes in totals.items()
    })
    assert 0.1 < average < 0.5  # paper: 28.3% average
    # Header stripping always helps on top of packing.
    for packing_rate, strip_rate in rates.values():
        assert strip_rate > packing_rate
        assert packing_rate > 0.0


def test_fig16_nweight_compresses_best(benchmark, spark_results, results_dir):
    """The reference-rich graph app benefits most from reference packing."""

    def best():
        rates = {}
        for app, streams in spark_results.cereal_streams.items():
            baseline, packed, _ = _app_bytes(streams)
            rates[app] = 1.0 - packed / baseline
        value_apps = [rates[app] for app in ("svm", "lr")]
        return rates["nweight"], max(value_apps)

    nweight, best_value_app = benchmark(best)
    assert nweight > best_value_app
