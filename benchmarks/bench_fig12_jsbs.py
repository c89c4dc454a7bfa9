"""Figure 12 — Java Serialization Benchmark Suite comparison.

Paper: Cereal delivers 43.4x higher average S/D throughput than the 88
other libraries; even against Kryo-manual (the fastest library) Cereal is
15.1x faster, and Cereal's stream is 46% smaller than the suite average.

The four measured implementations (java-builtin, kryo, kryo-manual as a
constant-factor variant of kryo, skyway) anchor the field; the remaining
84 entries come from calibrated cost profiles relative to Java S/D.
"""

from _golden import check
from repro.analysis import ReportTable
from repro.workloads import JSBS_LIBRARY_PROFILES
from repro.workloads.jsbs import KRYO_MANUAL_TIME_FACTOR


def _field(jsbs_results):
    """(name, round_trip_ns, size_bytes) for every suite entry."""
    java_rt = jsbs_results.round_trip_ns("java")
    java_size = jsbs_results.java.stream_bytes
    entries = [
        ("java-builtin", java_rt, java_size),
        ("kryo", jsbs_results.round_trip_ns("kryo"), jsbs_results.kryo.stream_bytes),
        (
            "kryo-manual",
            jsbs_results.round_trip_ns("kryo") * KRYO_MANUAL_TIME_FACTOR,
            jsbs_results.kryo.stream_bytes,
        ),
        (
            "skyway",
            jsbs_results.round_trip_ns("skyway"),
            jsbs_results.skyway.stream_bytes,
        ),
    ]
    for profile in JSBS_LIBRARY_PROFILES:
        entries.append(
            (
                profile.name,
                java_rt * profile.time_factor,
                java_size * profile.size_factor,
            )
        )
    return entries


def test_fig12_average_speedup(benchmark, jsbs_results, results_dir):
    def build():
        entries = _field(jsbs_results)
        cereal_rt = jsbs_results.round_trip_ns("cereal")
        speedups = [rt / cereal_rt for _, rt, _ in entries]
        table = ReportTable(
            "Figure 12: Cereal speedup over the JSBS field (top/bottom 10)",
            ["Library", "Round trip (us)", "Cereal speedup"],
        )
        ranked = sorted(zip(entries, speedups), key=lambda pair: pair[1])
        shown = ranked[:10] + ranked[-10:]
        for (name, rt, _), speedup in shown:
            table.add_row(name, f"{rt / 1000:.2f}", f"{speedup:.1f}x")
        mean = sum(speedups) / len(speedups)
        table.add_note(f"libraries: {len(entries)}; arithmetic-mean speedup {mean:.1f}x")
        table.add_note("paper: 43.4x average over 88 libraries")
        table.show()
        table.save(results_dir, "fig12_jsbs_speedup")
        return entries, speedups, mean

    entries, speedups, mean = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(entries) == 88  # "88 other S/D libraries"
    assert 20 < mean < 90  # paper: 43.4x
    assert all(speedup > 1 for speedup in speedups)  # Cereal beats every entry


def test_fig12_fastest_library_margin(benchmark, jsbs_results, results_dir):
    def margin():
        cereal_rt = jsbs_results.round_trip_ns("cereal")
        fastest = min(rt for _, rt, _ in _field(jsbs_results))
        return fastest / cereal_rt

    value = benchmark(margin)
    # Paper: 15.1x over Kryo-manual, the fastest library in the suite. Our
    # Kryo deserializer model is very fast on the small, string-heavy
    # MediaContent object, so the modelled margin is smaller (documented in
    # EXPERIMENTS.md); Cereal must still clearly beat the fastest library.
    assert 1.5 < value < 40


def test_fig12_size_comparison(benchmark, jsbs_results, results_dir):
    def build():
        entries = _field(jsbs_results)
        sizes = [size for _, _, size in entries]
        cereal_size = jsbs_results.cereal.stream_bytes
        average = sum(sizes) / len(sizes)
        table = ReportTable(
            "Figure 12 (sizes): serialized MediaContent",
            ["Library", "Size (B)"],
        )
        table.add_row("suite average", f"{average:.0f}")
        table.add_row("cereal", f"{cereal_size}")
        table.add_note("paper: Cereal 46% below the suite average")
        table.show()
        table.save(results_dir, "fig12_jsbs_sizes")
        return average, cereal_size

    average, cereal_size = benchmark.pedantic(build, rounds=1, iterations=1)
    # Paper: Cereal is 46% below the suite average; with natural-width
    # (packed) array elements on the heap, our Cereal stream lands below
    # the average too (the margin is smaller — see EXPERIMENTS.md).
    assert cereal_size < average


def test_fig12_round_trips_pinned(jsbs_results):
    """The four measured round trips and stream sizes, exactly."""
    check("fig12", {
        name: {
            "round_trip_ns": jsbs_results.round_trip_ns(name),
            "stream_bytes": getattr(jsbs_results, name).stream_bytes,
        }
        for name in ("java", "kryo", "skyway", "cereal")
    })
