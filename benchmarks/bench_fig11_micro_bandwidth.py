"""Figure 11 — DRAM bandwidth utilization on microbenchmarks.

Paper: Java S/D and Kryo use 2.7-4.5% of the 76.8 GB/s peak; Cereal (with
its 8-unit pools busy) reaches 20.9% average (up to 74.5%) when
serializing and 31.1% average (up to 83.3%) when deserializing.
"""

from _golden import check, check_hostbench
from conftest import SOFTWARE_SERIALIZERS
from repro.analysis import ReportTable
from repro.workloads import MICROBENCH_CONFIGS


def _bandwidth_table(micro_results, results_dir):
    table = ReportTable(
        "Figure 11: bandwidth utilization (ser / deser)",
        ["Workload", "Java S/D", "Kryo", "Cereal (device)"],
    )
    cereal_ser, cereal_de = [], []
    software = []
    for workload in MICROBENCH_CONFIGS:
        row = micro_results.results[workload]
        java, kryo, cereal = row["java-builtin"], row["kryo"], row["cereal"]
        ser_8u, de_8u = (run[0] for run in cereal.device_runs)
        cereal_ser.append(ser_8u)
        cereal_de.append(de_8u)
        software.extend(
            [java.serialize_bandwidth, java.deserialize_bandwidth,
             kryo.serialize_bandwidth, kryo.deserialize_bandwidth]
        )
        table.add_row(
            workload,
            f"{java.serialize_bandwidth * 100:.2f} / {java.deserialize_bandwidth * 100:.2f}%",
            f"{kryo.serialize_bandwidth * 100:.2f} / {kryo.deserialize_bandwidth * 100:.2f}%",
            f"{ser_8u * 100:.1f} / {de_8u * 100:.1f}%",
        )
    table.add_note("Cereal column: all 8 SUs / 8 DUs busy (device level)")
    table.show()
    table.save(results_dir, "fig11_bandwidth")
    return software, cereal_ser, cereal_de


def test_fig11_bandwidth_utilization(benchmark, micro_results, results_dir):
    software, cereal_ser, cereal_de = benchmark.pedantic(
        _bandwidth_table, args=(micro_results, results_dir), rounds=1, iterations=1
    )
    avg_ser = sum(cereal_ser) / len(cereal_ser)
    avg_de = sum(cereal_de) / len(cereal_de)
    # The accelerator uses an order of magnitude more bandwidth than software.
    assert avg_ser > 4 * max(software)
    assert avg_de > avg_ser  # deserialization streams harder (paper)
    assert 0.08 < avg_ser < 0.6  # paper: 20.9% average
    assert 0.1 < avg_de < 0.9  # paper: 31.1% average


def test_fig11_software_is_starved(benchmark, micro_results, results_dir):
    def worst():
        return max(
            max(m.serialize_bandwidth, m.deserialize_bandwidth)
            for row in micro_results.results.values()
            for name, m in row.items()
            if name in ("java-builtin", "kryo")
        )

    assert benchmark(worst) < 0.12


def test_fig11_utilizations_pinned(micro_results):
    """Software utilizations and the 8-unit batches' (utilization, wall
    ns, DRAM bytes), exactly."""
    check_hostbench("micro-sw", micro_results.hostbench_ops(
        "micro-sw", SOFTWARE_SERIALIZERS,
        {"serialize": {"bandwidth_utilization": "serialize_bandwidth"},
         "deserialize": {"bandwidth_utilization": "deserialize_bandwidth"}},
    ))
    device = {
        graph: dict(zip(("serialize", "deserialize"), row["cereal"].device_runs))
        for graph, row in micro_results.results.items()
    }
    # hostbench skips the two costliest graphs' batches, so the store pins them.
    check("fig11_device8", {g: device.pop(g) for g in ("graph-dense", "tree-wide")})
    check_hostbench("micro-cereal", {
        f"micro-cereal/{graph}/device8/{op}": {"bandwidth_utilization": run[0]}
        for graph, runs in device.items()
        for op, run in runs.items()
    })
