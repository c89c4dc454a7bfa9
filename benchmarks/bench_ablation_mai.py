"""Ablation — MAI request coalescing and entry count (Section V-A).

The MAI's 64-entry associative memory coalesces repeat accesses to 32 B
blocks (repeated klass-metadata fetches, shared-object header reads).
Disabling coalescing or shrinking the tracker shows its contribution.
Every run's modelled ns, MAI blocks and DRAM accesses are pinned in
``benchmarks/golden/ablation.json``.
"""

from _golden import check
from conftest import traffic

from repro.analysis import ReportTable
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import SerializationUnit, SUWorkload
from repro.cereal.tables import KlassPointerTable
from repro.common.config import CerealConfig
from repro.formats import ClassRegistration
from repro.jvm import Heap
from repro.memory.dram import DRAMModel
from repro.workloads import build_microbench
from repro.workloads.micro import register_micro_klasses


def _run_su(root, registration, coalescing=True, mai_entries=64):
    config = CerealConfig(mai_entries=mai_entries)
    mai = MemoryAccessInterface(DRAMModel(), config, coalescing=coalescing)
    table = KlassPointerTable()
    for class_id, klass in enumerate(registration):
        table.install(klass.metaspace_address, class_id)
    unit = SerializationUnit(mai, table, config)
    # Each run takes its own visited-tracking epoch, as every operation
    # does (Section V-E).
    epoch = root.heap.next_serialization_epoch()
    result = unit.run(SUWorkload.from_root(root), serialization_counter=epoch)
    return result, mai


def _setup(workload="tree-narrow"):
    heap = Heap()
    register_micro_klasses(heap.registry)
    root = build_microbench(heap, workload)
    registration = ClassRegistration()
    for klass in heap.registry:
        registration.register(klass)
    return root, registration


def test_ablation_mai_coalescing(benchmark, results_dir):
    def build():
        root, registration = _setup()
        with_coalescing, mai_on = _run_su(root, registration, coalescing=True)
        without, mai_off = _run_su(root, registration, coalescing=False)
        table = ReportTable(
            "Ablation: MAI coalescing (tree-narrow serialization)",
            ["Configuration", "Time (us)", "DRAM blocks read", "Coalesced"],
        )
        table.add_row(
            "coalescing on",
            f"{with_coalescing.elapsed_ns / 1000:.2f}",
            mai_on.stats.blocks_read,
            mai_on.stats.coalesced_blocks,
        )
        table.add_row(
            "coalescing off",
            f"{without.elapsed_ns / 1000:.2f}",
            mai_off.stats.blocks_read,
            mai_off.stats.coalesced_blocks,
        )
        table.show()
        table.save(results_dir, "ablation_mai_coalescing")
        return with_coalescing, without, mai_on, mai_off

    with_c, without, mai_on, mai_off = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    check("ablation", {
        "mai/coalescing-on": traffic(with_c.elapsed_ns, mai_on),
        "mai/coalescing-off": traffic(without.elapsed_ns, mai_off),
    })
    assert with_c.elapsed_ns < without.elapsed_ns
    assert mai_on.stats.coalesced_blocks > 0
    assert mai_on.stats.blocks_read < mai_off.stats.blocks_read


def test_ablation_mai_entry_count(benchmark, results_dir):
    def build():
        root, registration = _setup("graph-dense")
        table = ReportTable(
            "Ablation: MAI entries (graph-dense serialization)",
            ["Entries", "Time (ms)", "Coalescing rate"],
        )
        times = {}
        pins = {}
        for entries in (8, 64, 256):
            result, mai = _run_su(root, registration, mai_entries=entries)
            times[entries] = result.elapsed_ns
            pins[f"mai/entries-{entries}"] = traffic(result.elapsed_ns, mai)
            table.add_row(
                entries,
                f"{result.elapsed_ns / 1e6:.3f}",
                f"{mai.stats.coalescing_rate * 100:.1f}%",
            )
        table.add_note("paper configuration: 64 entries")
        table.show()
        table.save(results_dir, "ablation_mai_entries")
        return times, pins

    times, pins = benchmark.pedantic(build, rounds=1, iterations=1)
    check("ablation", pins)
    # A larger window can only help (more coalescing opportunities kept).
    assert times[64] <= times[8] * 1.01
    assert times[256] <= times[64] * 1.01
