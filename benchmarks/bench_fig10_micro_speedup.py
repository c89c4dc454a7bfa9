"""Figure 10 — Microbenchmark S/D speedups over Java S/D (log scale).

Paper: Kryo 2.30x (ser) / 52.3x (deser); Cereal 26.5x (ser) / 364.5x
(deser); "Cereal Vanilla" (no pipelining, one block reconstructor) shows
the fine-grained parallelism's contribution.
"""

import dataclasses

from _golden import check, check_hostbench
from conftest import SOFTWARE_SERIALIZERS
from repro.analysis import ReportTable, geomean
from repro.workloads import MICROBENCH_CONFIGS


def _speedup_table(micro_results, op, results_dir, filename):
    table = ReportTable(
        f"Figure 10: {op} speedup over Java S/D",
        ["Workload", "Kryo", "Cereal Vanilla", "Cereal"],
    )
    kryo, vanilla, cereal = [], [], []
    for workload in MICROBENCH_CONFIGS:
        k = micro_results.speedup_over_java(workload, "kryo", op)
        v = micro_results.speedup_over_java(workload, "cereal-vanilla", op)
        c = micro_results.speedup_over_java(workload, "cereal", op)
        kryo.append(k)
        vanilla.append(v)
        cereal.append(c)
        table.add_row(workload, f"{k:.1f}x", f"{v:.1f}x", f"{c:.1f}x")
    table.add_row(
        "GEOMEAN",
        f"{geomean(kryo):.1f}x",
        f"{geomean(vanilla):.1f}x",
        f"{geomean(cereal):.1f}x",
    )
    table.show()
    table.save(results_dir, filename)
    return geomean(kryo), geomean(vanilla), geomean(cereal)


def test_fig10_serialization_speedup(benchmark, micro_results, results_dir):
    kryo, vanilla, cereal = benchmark.pedantic(
        _speedup_table,
        args=(micro_results, "serialize", results_dir, "fig10_serialize"),
        rounds=1,
        iterations=1,
    )
    # Paper: Kryo 2.30x, Cereal 26.5x.
    assert 1.2 < kryo < 4.5
    assert 12 < cereal < 60
    assert cereal > kryo  # the accelerator dominates software
    assert cereal > vanilla  # pipelining matters


def test_fig10_deserialization_speedup(benchmark, micro_results, results_dir):
    kryo, vanilla, cereal = benchmark.pedantic(
        _speedup_table,
        args=(micro_results, "deserialize", results_dir, "fig10_deserialize"),
        rounds=1,
        iterations=1,
    )
    # Paper: Kryo 52.3x, Cereal 364.5x.
    assert 10 < kryo < 120
    assert 100 < cereal < 900
    assert cereal > kryo
    assert cereal > vanilla


def test_fig10_deser_gains_exceed_ser(benchmark, micro_results, results_dir):
    """The decoupled format benefits deserialization the most (Section VI-B)."""

    def ratio():
        ser = [
            micro_results.speedup_over_java(w, "cereal", "serialize")
            for w in MICROBENCH_CONFIGS
        ]
        deser = [
            micro_results.speedup_over_java(w, "cereal", "deserialize")
            for w in MICROBENCH_CONFIGS
        ]
        return geomean(deser) / geomean(ser)

    value = benchmark(ratio)
    assert value > 3.0  # paper: 364.5 / 26.5 = 13.8


def test_fig10_times_pinned_to_hostbench(micro_results):
    """Every software and Cereal S/D time behind the speedups, exactly."""
    times = {"serialize": "serialize_time_ns", "deserialize": "deserialize_time_ns"}
    check_hostbench("micro-sw", micro_results.hostbench_ops(
        "micro-sw", SOFTWARE_SERIALIZERS,
        {op: {"time_ns": attribute} for op, attribute in times.items()},
    ))
    check_hostbench("micro-cereal", micro_results.hostbench_ops(
        "micro-cereal", ("cereal",),
        {op: {"elapsed_ns": attribute} for op, attribute in times.items()},
    ))


def test_fig10_vanilla_pinned(micro_results):
    """Cereal Vanilla's serialize (the unpipelined SU walk no hostbench
    workload runs): SUResult fields, elapsed ns and DRAM bytes, exactly."""
    pinned = {}
    for graph, row in micro_results.results.items():
        m = row["cereal-vanilla"]
        pinned[graph] = dict(dataclasses.asdict(m.su), elapsed_ns=m.serialize_time_ns,
                             dram_bytes=m.serialize_dram_bytes)
    check("fig10_vanilla", pinned)
