"""Figure 3 — CPU characterization of the S/D process.

(a) IPC of Java S/D and Kryo is low (paper: ~1.01 and ~0.96);
(b) LLC miss rates are high (little temporal locality);
(c) both use only a few percent of DRAM bandwidth;
(d) Kryo's speedup over Java S/D is modest for serialization.
"""

from _golden import check_hostbench
from repro.analysis import ReportTable, geomean
from repro.workloads import MICROBENCH_CONFIGS


def test_fig03a_ipc(benchmark, micro_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 3(a): S/D IPC on the host CPU",
            ["Workload", "Java ser", "Java deser", "Kryo ser", "Kryo deser"],
        )
        ipcs = []
        for workload in MICROBENCH_CONFIGS:
            java = micro_results.results[workload]["java-builtin"]
            kryo = micro_results.results[workload]["kryo"]
            ipcs.extend(
                [java.serialize_ipc, java.deserialize_ipc,
                 kryo.serialize_ipc, kryo.deserialize_ipc]
            )
            table.add_row(
                workload,
                f"{java.serialize_ipc:.2f}",
                f"{java.deserialize_ipc:.2f}",
                f"{kryo.serialize_ipc:.2f}",
                f"{kryo.deserialize_ipc:.2f}",
            )
        table.add_note("paper: Java S/D ~1.01, Kryo ~0.96 on a 4-wide core")
        table.show()
        table.save(results_dir, "fig03a_ipc")
        return ipcs

    ipcs = benchmark.pedantic(build, rounds=1, iterations=1)
    # All S/D IPCs sit far below the machine's 4-wide issue rate.
    assert all(ipc < 2.0 for ipc in ipcs)
    assert geomean(ipcs) < 1.8


def test_fig03b_llc_miss_rate(benchmark, micro_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 3(b): LLC miss rate during serialization",
            ["Workload", "Java S/D", "Kryo"],
        )
        rates = []
        for workload in MICROBENCH_CONFIGS:
            java = micro_results.results[workload]["java-builtin"]
            kryo = micro_results.results[workload]["kryo"]
            rates.extend([java.llc_miss_rate, kryo.llc_miss_rate])
            table.add_row(
                workload,
                f"{java.llc_miss_rate * 100:.1f}%",
                f"{kryo.llc_miss_rate * 100:.1f}%",
            )
        table.add_note("footprints exceed the (scaled) LLC: low temporal locality")
        table.show()
        table.save(results_dir, "fig03b_llc")
        return rates

    rates = benchmark.pedantic(build, rounds=1, iterations=1)
    assert sum(rates) / len(rates) > 0.4  # high miss rates on average


def test_fig03c_bandwidth(benchmark, micro_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 3(c): DRAM bandwidth utilization (software S/D)",
            ["Workload", "Java ser", "Java deser", "Kryo ser", "Kryo deser"],
        )
        utils = []
        for workload in MICROBENCH_CONFIGS:
            java = micro_results.results[workload]["java-builtin"]
            kryo = micro_results.results[workload]["kryo"]
            utils.extend(
                [java.serialize_bandwidth, java.deserialize_bandwidth,
                 kryo.serialize_bandwidth, kryo.deserialize_bandwidth]
            )
            table.add_row(
                workload,
                f"{java.serialize_bandwidth * 100:.2f}%",
                f"{java.deserialize_bandwidth * 100:.2f}%",
                f"{kryo.serialize_bandwidth * 100:.2f}%",
                f"{kryo.deserialize_bandwidth * 100:.2f}%",
            )
        table.add_note("paper: Java ~2.7-3.5%, Kryo ~4.1-4.5% of 76.8 GB/s")
        table.show()
        table.save(results_dir, "fig03c_bandwidth")
        return utils

    utils = benchmark.pedantic(build, rounds=1, iterations=1)
    # Single-digit utilization: limited MLP starves the memory system.
    assert all(u < 0.12 for u in utils)


def test_fig03d_kryo_speedup(benchmark, micro_results, results_dir):
    def build():
        table = ReportTable(
            "Figure 3(d): Kryo speedup over Java S/D",
            ["Workload", "Serialize", "Deserialize"],
        )
        ser, deser = [], []
        for workload in MICROBENCH_CONFIGS:
            s = micro_results.speedup_over_java(workload, "kryo", "serialize")
            d = micro_results.speedup_over_java(workload, "kryo", "deserialize")
            ser.append(s)
            deser.append(d)
            table.add_row(workload, f"{s:.2f}x", f"{d:.2f}x")
        table.add_note("serialization gains are marginal; deserialization large")
        table.show()
        table.save(results_dir, "fig03d_kryo_speedup")
        return ser, deser

    ser, deser = benchmark.pedantic(build, rounds=1, iterations=1)
    assert 1.2 < geomean(ser) < 4.0  # paper: 2.30x
    assert geomean(deser) > 10  # paper: 52.3x


def test_fig03_pinned_to_hostbench(micro_results):
    """IPC, LLC miss rate and bandwidth utilization, exactly."""
    check_hostbench("micro-sw", micro_results.hostbench_ops(
        "micro-sw", ("java-builtin", "kryo"),
        {"serialize": {"ipc": "serialize_ipc", "llc_miss_rate": "llc_miss_rate",
                       "bandwidth_utilization": "serialize_bandwidth"},
         "deserialize": {"ipc": "deserialize_ipc",
                         "bandwidth_utilization": "deserialize_bandwidth"}},
    ))
