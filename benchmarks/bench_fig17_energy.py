"""Figure 17 — S/D energy on the Spark applications, normalized to Java S/D.

Paper: Kryo saves modest energy (its speedup on the same CPU); Cereal saves
313.6x (serialize) / 165.4x (deserialize) vs Java S/D and 227.75x / 136.28x
overall vs Java and Kryo respectively, by combining high speedups with a
~1.2 W accelerator against a 140 W host.
"""

from _golden import check
from repro.analysis import ReportTable, geomean
from repro.cereal.power import cereal_energy_joules, cpu_energy_joules


def _sd_energy(result, backend, kind):
    """Energy of one app's serialize or deserialize time on its engine."""
    time_s = (
        result.breakdown.serialize_ns
        if kind == "serialize"
        else result.breakdown.deserialize_ns
    ) * 1e-9
    if backend == "cereal":
        return cereal_energy_joules(time_s, kind)
    return cpu_energy_joules(time_s)


def test_fig17_energy(benchmark, spark_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 17: S/D energy normalized to Java S/D (ser / deser)",
            ["App", "Kryo", "Cereal"],
        )
        kryo_savings = {"serialize": [], "deserialize": []}
        cereal_savings = {"serialize": [], "deserialize": []}
        per_app = {}
        for app in spark_results.apps():
            java = spark_results.results["java-builtin"][app]
            kryo = spark_results.results["kryo"][app]
            cereal = spark_results.results["cereal"][app]
            cells = {}
            for kind in ("serialize", "deserialize"):
                base = _sd_energy(java, "java-builtin", kind)
                k = _sd_energy(kryo, "kryo", kind)
                c = _sd_energy(cereal, "cereal", kind)
                kryo_savings[kind].append(base / k)
                cereal_savings[kind].append(base / c)
                cells[kind] = (k / base, c / base)
            per_app[app] = {
                name: {kind: savings[kind][-1] for kind in savings}
                for name, savings in (("kryo", kryo_savings), ("cereal", cereal_savings))
            }
            table.add_row(
                app,
                f"{cells['serialize'][0]:.2f} / {cells['deserialize'][0]:.2f}",
                f"{cells['serialize'][1]:.5f} / {cells['deserialize'][1]:.5f}",
            )
        table.add_note("paper: Cereal saves 313.6x ser / 165.4x deser vs Java S/D")
        table.show()
        table.save(results_dir, "fig17_energy")
        return kryo_savings, cereal_savings, per_app

    kryo_savings, cereal_savings, per_app = benchmark.pedantic(build, rounds=1, iterations=1)
    check("fig17", per_app)  # each app's energy saving over Java S/D, exactly
    # Kryo saves energy in proportion to its speedup (same device).
    assert 1.0 < geomean(kryo_savings["serialize"] + kryo_savings["deserialize"]) < 6
    # Cereal's savings are orders of magnitude (paper: 313.6x / 165.4x).
    ser_saving = geomean(cereal_savings["serialize"])
    de_saving = geomean(cereal_savings["deserialize"])
    assert ser_saving > 100
    assert de_saving > 100


def test_fig17_total_savings_vs_both_baselines(
    benchmark, spark_results, results_dir
):
    """Paper headline: 227.75x vs Java built-in and 136.28x vs Kryo."""

    def totals():
        ratios_java, ratios_kryo = [], []
        for app in spark_results.apps():
            java = spark_results.results["java-builtin"][app]
            kryo = spark_results.results["kryo"][app]
            cereal = spark_results.results["cereal"][app]
            cereal_total = _sd_energy(cereal, "cereal", "serialize") + _sd_energy(
                cereal, "cereal", "deserialize"
            )
            java_total = _sd_energy(java, "java-builtin", "serialize") + _sd_energy(
                java, "java-builtin", "deserialize"
            )
            kryo_total = _sd_energy(kryo, "kryo", "serialize") + _sd_energy(
                kryo, "kryo", "deserialize"
            )
            ratios_java.append(java_total / cereal_total)
            ratios_kryo.append(kryo_total / cereal_total)
        return geomean(ratios_java), geomean(ratios_kryo)

    vs_java, vs_kryo = benchmark(totals)
    assert 100 < vs_java < 2500  # paper: 227.75x
    assert 50 < vs_kryo < 1500  # paper: 136.28x
    assert vs_java > vs_kryo
