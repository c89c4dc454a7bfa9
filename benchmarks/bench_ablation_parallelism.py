"""Ablation — parallelism levels in the accelerator (Section V-D).

Sweeps the DU's block-reconstructor count and toggles SU pipelining to
show where Figure 10's "Cereal vs Cereal Vanilla" gap comes from, plus an
operation-level-parallelism sweep over the unit-pool size. Every run's
modelled ns (and, for single operations, MAI blocks and DRAM accesses) is
pinned in ``benchmarks/golden/ablation.json``.
"""

from _golden import check
from conftest import traffic
from repro.analysis import ReportTable
from repro.cereal import CerealAccelerator
from repro.common.config import CerealConfig
from repro.jvm import Heap
from repro.workloads import build_microbench
from repro.workloads.micro import register_micro_klasses

_WORKLOAD = "tree-narrow"


def _setup():
    heap = Heap()
    register_micro_klasses(heap.registry)
    root = build_microbench(heap, _WORKLOAD)
    return heap, root


def _accelerator(config, registry):
    accelerator = CerealAccelerator(config)
    for klass in registry:
        accelerator.register_class(klass)
    return accelerator


def test_ablation_block_reconstructors(benchmark, results_dir, memory_systems):
    def build():
        heap, root = _setup()
        base = _accelerator(CerealConfig(), heap.registry)
        stream = base.serialize(root)[0].stream
        table = ReportTable(
            "Ablation: DU block reconstructors",
            ["Reconstructors", "Deserialize (us)", "Speedup vs 1"],
        )
        times = {}
        pins = {}
        for count in (1, 2, 4, 8):
            accelerator = _accelerator(
                CerealConfig(block_reconstructors_per_du=count),
                heap.registry,
            )
            receiver = Heap(registry=heap.registry)
            _, timing, _ = accelerator.deserialize(stream, receiver)
            times[count] = timing.elapsed_ns
            pins[f"parallelism/reconstructors-{count}"] = traffic(
                timing.elapsed_ns, memory_systems[-1]
            )
            table.add_row(
                count,
                f"{timing.elapsed_ns / 1000:.2f}",
                f"{times[1] / timing.elapsed_ns:.2f}x",
            )
        table.add_note("paper configuration: 4 reconstructors per DU")
        table.show()
        table.save(results_dir, "ablation_reconstructors")
        return times, pins

    times, pins = benchmark.pedantic(build, rounds=1, iterations=1)
    check("ablation", pins)
    assert times[4] <= times[1]  # more reconstructors never hurt
    # Diminishing returns: the 4->8 step buys less than 1->4.
    gain_1_4 = times[1] / times[4]
    gain_4_8 = times[4] / times[8]
    assert gain_4_8 <= gain_1_4 + 0.05


def test_ablation_du_prefetch_depth(benchmark, results_dir, memory_systems):
    """Stream-loader buffer depth vs the shared memory path.

    Shallow buffers leave the loaders latency-bound; around depth 4 the
    shared DRAM path (three read streams plus the reconstructors' 64 B
    writes) becomes the bound and further depth buys nothing.
    """

    def build():
        heap, root = _setup()
        base = _accelerator(CerealConfig(), heap.registry)
        stream = base.serialize(root)[0].stream
        table = ReportTable(
            "Ablation: DU stream-loader prefetch depth",
            ["Depth", "Deserialize (us)", "Speedup vs 1"],
        )
        times = {}
        pins = {}
        for depth in (1, 4, 8, 16, 32):
            accelerator = _accelerator(
                CerealConfig(du_prefetch_depth=depth), heap.registry
            )
            receiver = Heap(registry=heap.registry)
            _, timing, _ = accelerator.deserialize(stream, receiver)
            times[depth] = timing.elapsed_ns
            pins[f"parallelism/prefetch-depth-{depth}"] = traffic(
                timing.elapsed_ns, memory_systems[-1]
            )
            table.add_row(
                depth,
                f"{timing.elapsed_ns / 1000:.2f}",
                f"{times[1] / timing.elapsed_ns:.2f}x",
            )
        table.add_note("default depth: 8 (sized to the loaders' buffers)")
        table.show()
        table.save(results_dir, "ablation_prefetch_depth")
        return times, pins

    times, pins = benchmark.pedantic(build, rounds=1, iterations=1)
    check("ablation", pins)
    assert times[8] < times[1]  # deeper prefetch hides DRAM latency
    assert times[32] <= times[8] * 1.001  # monotone (saturates)
    # Beyond depth ~4 the shared memory path is the bound, so gains level
    # off — the same effect that caps a DU at ~25 ns/block (Figure 10).
    assert times[1] / times[8] > 1.2


def test_ablation_su_pipelining(benchmark, results_dir, memory_systems):
    def build():
        heap, root = _setup()
        pipelined = _accelerator(CerealConfig(), heap.registry)
        vanilla = _accelerator(CerealConfig().vanilla(), heap.registry)
        _, t_pipe, _ = pipelined.serialize(root)
        pipe_mai = memory_systems[-1]
        _, t_vanilla, _ = vanilla.serialize(root)
        check("ablation", {
            "parallelism/serialize-pipelined": traffic(t_pipe.elapsed_ns, pipe_mai),
            "parallelism/serialize-vanilla": traffic(
                t_vanilla.elapsed_ns, memory_systems[-1]
            ),
        })
        table = ReportTable(
            "Ablation: SU pipelining",
            ["Configuration", "Serialize (us)"],
        )
        table.add_row("pipelined", f"{t_pipe.elapsed_ns / 1000:.2f}")
        table.add_row("vanilla (no overlap)", f"{t_vanilla.elapsed_ns / 1000:.2f}")
        table.show()
        table.save(results_dir, "ablation_pipelining")
        return t_pipe.elapsed_ns, t_vanilla.elapsed_ns

    pipe_ns, vanilla_ns = benchmark.pedantic(build, rounds=1, iterations=1)
    assert vanilla_ns > 1.2 * pipe_ns


def test_ablation_operation_level_parallelism(benchmark, results_dir):
    def build():
        heap, root = _setup()
        accelerator = _accelerator(CerealConfig(), heap.registry)
        _, timing, _ = accelerator.serialize(root)
        table = ReportTable(
            "Ablation: unit-pool size for 16 concurrent serialize ops",
            ["SUs", "Batch time (us)", "Scaling vs 1 SU"],
        )
        results = {}
        for units in (1, 2, 4, 8):
            config = CerealConfig(num_serializer_units=units)
            pool = CerealAccelerator(config, registration=accelerator.registration)
            batch_ns = pool.run_batch([timing] * 16)
            results[units] = batch_ns
            table.add_row(
                units,
                f"{batch_ns / 1000:.1f}",
                f"{results[1] / batch_ns:.2f}x",
            )
        table.show()
        table.save(results_dir, "ablation_unit_pool")
        return results

    results = benchmark.pedantic(build, rounds=1, iterations=1)
    check("ablation", {
        f"parallelism/unit-pool-{units}": {"batch_ns": batch_ns}
        for units, batch_ns in results.items()
    })
    assert results[8] < results[1]
    # Near-linear until the batch no longer fills the pool.
    assert results[1] / results[8] > 4
