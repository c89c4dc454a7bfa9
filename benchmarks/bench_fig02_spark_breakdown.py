"""Figure 2 — Runtime breakdown of the six Spark applications.

Paper: with Java S/D, S/D averages 39.5% of execution time (up to 90.9%
for SVM); with Kryo, 28.3% (up to 83.4% for SVM).

The bands below state the paper's claim; ``PINNED_BREAKDOWN_NS`` pins the
modelled buckets behind every share exactly.
"""

from repro.analysis import ReportTable

# (compute_ns, gc_ns, io_ns, sd_ns) of each app's breakdown (modelled ns)
# per backend. The apps, their inputs and the cost models are seeded, so
# these are exact.
PINNED_BREAKDOWN_NS = {
    "java-builtin": {
        "nweight": (135027200.0, 5997568.0, 44000000.0, 172236458.57983193),
        "svm": (33200853.333333347, 26110208.0, 20000000.0, 647785075.3725493),
        "bayes": (155579695.55555555, 4590592.0, 100000000.0, 87787237.9133987),
        "lr": (888533866.6666666, 18860032.0, 150000000.0, 465412170.9477124),
        "terasort": (25301045.712882787, 5384192.0, 180000000.0, 119378651.23809522),
        "als": (205340799.99999994, 3349504.0, 70000000.0, 108776304.81419232),
    },
    "kryo": {
        "nweight": (135027200.0, 5997568.0, 44000000.0, 62209040.71895424),
        "svm": (33200853.333333347, 26110208.0, 20000000.0, 451380631.6339865),
        "bayes": (155579695.55555555, 4590592.0, 100000000.0, 16287351.070261436),
        "lr": (888533866.6666666, 18860032.0, 150000000.0, 347472555.7843137),
        "terasort": (25301045.712882787, 5384192.0, 180000000.0, 76878678.13725491),
        "als": (205340799.99999994, 3349504.0, 70000000.0, 67444545.35947713),
    },
}


def test_fig02_breakdown_ns_pinned(spark_results):
    measured = {
        backend: {
            app: (
                result.breakdown.compute_ns,
                result.breakdown.gc_ns,
                result.breakdown.io_ns,
                result.breakdown.sd_ns,
            )
            for app, result in spark_results.results[backend].items()
        }
        for backend in PINNED_BREAKDOWN_NS
    }
    assert measured == PINNED_BREAKDOWN_NS


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
