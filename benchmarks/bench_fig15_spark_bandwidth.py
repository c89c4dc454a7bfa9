"""Figure 15 — Bandwidth utilization during Spark S/D operations.

Paper: the trends mirror the microbenchmarks — Cereal uses substantially
more memory bandwidth than the software schemes, and deserialization
significantly more than serialization.
"""

from _golden import check
from repro.analysis import ReportTable
from repro.common.config import DRAMConfig

_PEAK = DRAMConfig().peak_bandwidth_bytes_per_sec


def _utilization(result, kind, unit_pool=1):
    """Aggregate DRAM bytes / S/D *kernel* time for one app run.

    Kernel time excludes the serializer-independent framework stream path,
    so this measures what the serializer engine itself demands of DRAM
    while active — the quantity Figure 15 plots.
    """
    ops = [op for op in result.breakdown.operations if op.kind == kind]
    if not ops:
        return 0.0
    total_bytes = sum(op.dram_bytes for op in ops)
    total_time = sum(op.kernel_time_ns for op in ops)
    if total_time <= 0:
        return 0.0
    achieved = total_bytes / (total_time * 1e-9) * unit_pool
    return min(1.0, achieved / _PEAK)


def test_fig15_spark_bandwidth(benchmark, spark_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 15: Spark S/D bandwidth utilization (ser / deser)",
            ["App", "Java S/D", "Kryo", "Cereal (device)"],
        )
        rows = {}
        for app in spark_results.apps():
            java = spark_results.results["java-builtin"][app]
            kryo = spark_results.results["kryo"][app]
            cereal = spark_results.results["cereal"][app]
            rows[app] = {
                "java": (_utilization(java, "serialize"), _utilization(java, "deserialize")),
                "kryo": (_utilization(kryo, "serialize"), _utilization(kryo, "deserialize")),
                # The device runs its 8-unit pools on concurrent partitions.
                "cereal": (
                    _utilization(cereal, "serialize", unit_pool=8),
                    _utilization(cereal, "deserialize", unit_pool=8),
                ),
            }
            table.add_row(
                app,
                f"{rows[app]['java'][0] * 100:.2f} / {rows[app]['java'][1] * 100:.2f}%",
                f"{rows[app]['kryo'][0] * 100:.2f} / {rows[app]['kryo'][1] * 100:.2f}%",
                f"{rows[app]['cereal'][0] * 100:.1f} / {rows[app]['cereal'][1] * 100:.1f}%",
            )
        table.show()
        table.save(results_dir, "fig15_spark_bandwidth")
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    check("fig15", rows)
    for app, row in rows.items():
        # Cereal uses substantially more bandwidth than either software path.
        assert row["cereal"][0] > row["java"][0]
        assert row["cereal"][1] > row["java"][1]
    # Deserialization streams harder than serialization for Cereal on average.
    avg_ser = sum(r["cereal"][0] for r in rows.values()) / len(rows)
    avg_de = sum(r["cereal"][1] for r in rows.values()) / len(rows)
    assert avg_de > avg_ser
