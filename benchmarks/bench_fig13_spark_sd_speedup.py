"""Figure 13 — S/D speedups on the six Spark applications.

Paper: Kryo achieves only 1.67x over Java S/D; Cereal achieves 7.97x over
Java S/D and 4.81x over Kryo.

The bands below state the paper's claim; ``PINNED_SD_NS`` pins the
modelled S/D time behind every ratio exactly.
"""

from repro.analysis import ReportTable, geomean

# breakdown.sd_ns (modelled ns) per backend and app. The apps, their
# inputs and the cost models are seeded, so these are exact.
PINNED_SD_NS = {
    "java-builtin": {
        "nweight": 172236458.57983193,
        "svm": 647785075.3725493,
        "bayes": 87787237.9133987,
        "lr": 465412170.9477124,
        "terasort": 119378651.23809522,
        "als": 108776304.81419232,
    },
    "kryo": {
        "nweight": 62209040.71895424,
        "svm": 451380631.6339865,
        "bayes": 16287351.070261436,
        "lr": 347472555.7843137,
        "terasort": 76878678.13725491,
        "als": 67444545.35947713,
    },
    "cereal": {
        "nweight": 19391807.999999985,
        "svm": 59042540.66666666,
        "bayes": 10042949.999999996,
        "lr": 43178139.99999997,
        "terasort": 12057564.666666664,
        "als": 11532113.0,
    },
}


def _sd_times(spark_results, backend):
    return {
        app: result.breakdown.sd_ns
        for app, result in spark_results.results[backend].items()
    }


def test_fig13_sd_ns_pinned(spark_results):
    measured = {
        backend: _sd_times(spark_results, backend) for backend in PINNED_SD_NS
    }
    assert measured == PINNED_SD_NS


def test_fig13_sd_speedups(benchmark, spark_results, results_dir):
    def build():
        java = _sd_times(spark_results, "java-builtin")
        kryo = _sd_times(spark_results, "kryo")
        cereal = _sd_times(spark_results, "cereal")
        table = ReportTable(
            "Figure 13: Spark S/D speedup",
            ["App", "Kryo / Java", "Cereal / Java", "Cereal / Kryo"],
        )
        ratios = {"jk": [], "jc": [], "kc": []}
        for app in java:
            jk = java[app] / kryo[app]
            jc = java[app] / cereal[app]
            kc = kryo[app] / cereal[app]
            ratios["jk"].append(jk)
            ratios["jc"].append(jc)
            ratios["kc"].append(kc)
            table.add_row(app, f"{jk:.2f}x", f"{jc:.2f}x", f"{kc:.2f}x")
        table.add_row(
            "GEOMEAN",
            f"{geomean(ratios['jk']):.2f}x",
            f"{geomean(ratios['jc']):.2f}x",
            f"{geomean(ratios['kc']):.2f}x",
        )
        table.add_note("paper: Kryo 1.67x, Cereal 7.97x / 4.81x")
        table.show()
        table.save(results_dir, "fig13_spark_sd_speedup")
        return {key: geomean(values) for key, values in ratios.items()}

    means = benchmark.pedantic(build, rounds=1, iterations=1)
    # Kryo's gain inside Spark is modest (paper: 1.67x).
    assert 1.2 < means["jk"] < 3.5
    # Cereal's S/D speedups (paper: 7.97x over Java, 4.81x over Kryo).
    assert 5 < means["jc"] < 16
    assert 2.5 < means["kc"] < 8


def test_fig13_cereal_wins_every_app(benchmark, spark_results, results_dir):
    def worst():
        java = _sd_times(spark_results, "java-builtin")
        cereal = _sd_times(spark_results, "cereal")
        return min(java[app] / cereal[app] for app in java)

    assert benchmark(worst) > 2.0
