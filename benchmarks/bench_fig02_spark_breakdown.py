"""Figure 2 — Runtime breakdown of the six Spark applications.

Paper: with Java S/D, S/D averages 39.5% of execution time (up to 90.9%
for SVM); with Kryo, 28.3% (up to 83.4% for SVM).

The bands below state the paper's claim; ``benchmarks/golden/fig02.json``
pins the modelled buckets behind every share exactly.
"""

from _golden import check
from repro.analysis import ReportTable

def test_fig02_breakdown_ns_pinned(spark_results):
    """(compute_ns, gc_ns, io_ns, sd_ns) of each app's breakdown."""
    check("fig02", {
        backend: {
            app: (
                result.breakdown.compute_ns,
                result.breakdown.gc_ns,
                result.breakdown.io_ns,
                result.breakdown.sd_ns,
            )
            for app, result in spark_results.results[backend].items()
        }
        for backend in ("java-builtin", "kryo")
    })


def _breakdown_table(title, results, results_dir, filename):
    table = ReportTable(
        title, ["App", "Compute %", "GC %", "IO %", "S/D %", "Total (ms)"]
    )
    fractions = []
    for app, result in results.items():
        f = result.breakdown.fractions()
        fractions.append(f["sd"])
        table.add_row(
            app,
            f"{f['compute'] * 100:.1f}",
            f"{f['gc'] * 100:.1f}",
            f"{f['io'] * 100:.1f}",
            f"{f['sd'] * 100:.1f}",
            f"{result.total_ns / 1e6:.1f}",
        )
    average = sum(fractions) / len(fractions)
    table.add_note(f"average S/D share: {average * 100:.1f}%")
    table.show()
    table.save(results_dir, filename)
    return fractions, average


def test_fig02a_java_breakdown(benchmark, spark_results, results_dir):
    java = spark_results.results["java-builtin"]
    fractions, average = benchmark.pedantic(
        _breakdown_table,
        args=("Figure 2(a): runtime breakdown, Java S/D", java, results_dir,
              "fig02a_breakdown_java"),
        rounds=1,
        iterations=1,
    )
    # Paper: average 39.5%, max 90.9% (SVM).
    assert 0.25 < average < 0.55
    svm_fraction = java["svm"].breakdown.sd_fraction
    assert svm_fraction == max(fractions)
    assert svm_fraction > 0.75


def test_fig02b_kryo_breakdown(benchmark, spark_results, results_dir):
    kryo = spark_results.results["kryo"]
    fractions, average = benchmark.pedantic(
        _breakdown_table,
        args=("Figure 2(b): runtime breakdown, Kryo", kryo, results_dir,
              "fig02b_breakdown_kryo"),
        rounds=1,
        iterations=1,
    )
    # Paper: average 28.3%, max 83.4% (SVM).
    assert 0.15 < average < 0.45
    assert kryo["svm"].breakdown.sd_fraction == max(fractions)
    assert kryo["svm"].breakdown.sd_fraction > 0.6


def test_fig02_kryo_reduces_sd_share(benchmark, spark_results, results_dir):
    java = spark_results.results["java-builtin"]
    kryo = spark_results.results["kryo"]

    def shares():
        java_avg = sum(r.breakdown.sd_fraction for r in java.values()) / len(java)
        kryo_avg = sum(r.breakdown.sd_fraction for r in kryo.values()) / len(kryo)
        return java_avg, kryo_avg

    java_avg, kryo_avg = benchmark(shares)
    assert kryo_avg < java_avg
