"""Ablation — cache-coherence latency tolerance (Section V-E).

Cereal joins the on-chip coherence domain and fetches up-to-date copies
with ``get`` messages; the paper argues the potential latency increase
"can be effectively tolerated by Cereal's pipelined execution". This
ablation sweeps the extra per-read latency and compares the pipelined
units against the unpipelined vanilla configuration. Every run's modelled
ns, MAI blocks and DRAM accesses are pinned in
``benchmarks/golden/ablation.json``.
"""

from _golden import check
from conftest import traffic
from repro.analysis import ReportTable
from repro.cereal import CerealAccelerator
from repro.common.config import CerealConfig
from repro.jvm import Heap
from repro.workloads import build_microbench
from repro.workloads.micro import register_micro_klasses

_SWEEP_NS = (0.0, 20.0, 40.0, 80.0)


def _setup():
    heap = Heap()
    register_micro_klasses(heap.registry)
    root = build_microbench(heap, "tree-narrow")
    base = CerealAccelerator()
    for klass in heap.registry:
        base.register_class(klass)
    return heap, root, base


def test_ablation_coherence_tolerance(benchmark, results_dir, memory_systems):
    def build():
        heap, root, base = _setup()
        stream = base.serialize(root)[0].stream
        table = ReportTable(
            "Ablation: coherence get-latency tolerance (deserialize)",
            ["Extra ns/read", "Pipelined (us)", "Vanilla (us)"],
        )
        pipelined = {}
        vanilla = {}
        pins = {}
        for extra in _SWEEP_NS:
            pipe_acc = CerealAccelerator(
                CerealConfig(coherence_extra_read_ns=extra),
                registration=base.registration,
            )
            van_acc = CerealAccelerator(
                CerealConfig(coherence_extra_read_ns=extra).vanilla(),
                registration=base.registration,
            )
            _, p, _ = pipe_acc.deserialize(stream, Heap(registry=heap.registry))
            pins[f"coherence/deserialize-{extra:.0f}"] = traffic(
                p.elapsed_ns, memory_systems[-1]
            )
            _, v, _ = van_acc.deserialize(stream, Heap(registry=heap.registry))
            pins[f"coherence/deserialize-vanilla-{extra:.0f}"] = traffic(
                v.elapsed_ns, memory_systems[-1]
            )
            pipelined[extra] = p.elapsed_ns
            vanilla[extra] = v.elapsed_ns
            table.add_row(
                f"{extra:.0f}",
                f"{p.elapsed_ns / 1000:.2f}",
                f"{v.elapsed_ns / 1000:.2f}",
            )
        table.show()
        table.save(results_dir, "ablation_coherence")
        return pipelined, vanilla, pins

    pipelined, vanilla, pins = benchmark.pedantic(build, rounds=1, iterations=1)
    check("ablation", pins)
    worst = max(_SWEEP_NS)
    pipe_slowdown = pipelined[worst] / pipelined[0.0]
    van_slowdown = vanilla[worst] / vanilla[0.0]
    # Pipelined execution absorbs the added latency better than vanilla.
    assert pipe_slowdown < van_slowdown
    # Tripling effective read latency costs the pipelined DU < 3x.
    assert pipe_slowdown < 3.0


def test_ablation_coherence_serialization_side(benchmark, results_dir,
                                               memory_systems):
    """The SU's dependent header chain is more exposed than the DU."""

    def build():
        heap, root, base = _setup()
        clean = base.serialize(root)[1].elapsed_ns
        clean_mai = memory_systems[-1]
        coherent_acc = CerealAccelerator(
            CerealConfig(coherence_extra_read_ns=40.0),
            registration=base.registration,
        )
        coherent = coherent_acc.serialize(root)[1].elapsed_ns
        return clean, coherent, {
            "coherence/serialize-0": traffic(clean, clean_mai),
            "coherence/serialize-40": traffic(coherent, memory_systems[-1]),
        }

    clean, coherent, pins = benchmark.pedantic(build, rounds=1, iterations=1)
    check("ablation", pins)
    assert coherent > clean
