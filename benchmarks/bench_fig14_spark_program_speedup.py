"""Figure 14 — Whole-program speedups on the six Spark applications.

Paper: accelerating S/D improves end-to-end application performance by
1.81x over Java S/D (up to 4.66x) and 1.69x over Kryo (up to 4.53x).

The bands below state the paper's claim; ``PINNED_TOTAL_NS`` pins the
modelled run time behind every ratio exactly.
"""

from repro.analysis import ReportTable, geomean

# Each app's total_ns (modelled ns) per backend. The apps, their inputs
# and the cost models are seeded, so these are exact.
PINNED_TOTAL_NS = {
    "java-builtin": {
        "nweight": 357261226.57983196,
        "svm": 727096136.7058827,
        "bayes": 347957525.46895427,
        "lr": 1522806069.614379,
        "terasort": 330063888.95097804,
        "als": 387466608.8141923,
    },
    "kryo": {
        "nweight": 247233808.71895424,
        "svm": 530691692.96731985,
        "bayes": 276457638.625817,
        "lr": 1404866454.4509802,
        "terasort": 287563915.8501377,
        "als": 346134849.35947704,
    },
    "cereal": {
        "nweight": 204416576.0,
        "svm": 138353602.0,
        "bayes": 270213237.5555555,
        "lr": 1100572038.6666665,
        "terasort": 222742802.37954944,
        "als": 290222416.99999994,
    },
}


def test_fig14_total_ns_pinned(spark_results):
    measured = {
        backend: {
            app: result.total_ns
            for app, result in spark_results.results[backend].items()
        }
        for backend in PINNED_TOTAL_NS
    }
    assert measured == PINNED_TOTAL_NS


def test_fig14_program_speedups(benchmark, spark_results, results_dir):
    def build():
        java = spark_results.results["java-builtin"]
        kryo = spark_results.results["kryo"]
        cereal = spark_results.results["cereal"]
        table = ReportTable(
            "Figure 14: Spark whole-program speedup",
            ["App", "Cereal vs Java", "Cereal vs Kryo"],
        )
        vs_java, vs_kryo = [], []
        for app in java:
            j = java[app].total_ns / cereal[app].total_ns
            k = kryo[app].total_ns / cereal[app].total_ns
            vs_java.append(j)
            vs_kryo.append(k)
            table.add_row(app, f"{j:.2f}x", f"{k:.2f}x")
        table.add_row(
            "GEOMEAN", f"{geomean(vs_java):.2f}x", f"{geomean(vs_kryo):.2f}x"
        )
        table.add_note("paper: 1.81x (up to 4.66x) and 1.69x (up to 4.53x)")
        table.show()
        table.save(results_dir, "fig14_program_speedup")
        return vs_java, vs_kryo

    vs_java, vs_kryo = benchmark.pedantic(build, rounds=1, iterations=1)
    assert 1.3 < geomean(vs_java) < 2.6  # paper: 1.81x
    assert 1.1 < geomean(vs_kryo) < 2.3  # paper: 1.69x
    assert max(vs_java) > 3.0  # SVM's big win (paper: up to 4.66x)
    assert all(v >= 1.0 for v in vs_java)  # never a slowdown


def test_fig14_svm_benefits_most(benchmark, spark_results, results_dir):
    def best_app():
        java = spark_results.results["java-builtin"]
        cereal = spark_results.results["cereal"]
        speedups = {
            app: java[app].total_ns / cereal[app].total_ns for app in java
        }
        return max(speedups, key=speedups.get)

    assert benchmark(best_app) == "svm"
