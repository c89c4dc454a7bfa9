"""NWeight: n-hop neighbour weight computation on a graph (HiBench).

A graph-parallel workload: vertices carry adjacency lists of weighted
edges; each iteration shuffles vertex state along edges and combines
weights. The records are reference-rich (vertex -> edge array -> edge
objects), which is exactly where Cereal's reference packing shines
(Figure 16: NWeight has the best compression ratio) and where Java S/D's
type-string metadata bloats the stream (Figure 2: up to 13.9% I/O
overhead from the inflated shuffle data).
"""

from __future__ import annotations

from repro.jvm.klass import FieldKind
from repro.spark.apps.base import (
    AppResult,
    ensure_klass,
    register_backend_classes,
)
from repro.spark.backend import SDBackend
from repro.spark.engine import MiniSparkContext
from repro.workloads.datagen import DeterministicRandom

_VERTICES = 280
_PARTITIONS = 4
_EDGES_PER_VERTEX = 12
_HOPS = 2
# Represents the full-scale fan-in: each scaled vertex stands for ~4096
# real vertices of combine work (calibrated against Figure 2).
_COMBINE_INSTR_PER_EDGE = 180_000.0


def run_nweight(
    backend: SDBackend,
    scale: float = 1.0,
    injector=None,
    frame_streams: bool = False,
) -> AppResult:
    context = MiniSparkContext(
        backend,
        injector=injector,
        frame_streams=frame_streams,
    )
    registry = context.registry
    edge_klass = ensure_klass(
        registry,
        "Edge",
        [("target", FieldKind.INT), ("weight", FieldKind.DOUBLE)],
    )
    vertex_klass = ensure_klass(
        registry,
        "Vertex",
        [
            ("vertex_id", FieldKind.INT),
            ("weight", FieldKind.DOUBLE),
            ("edges", FieldKind.REFERENCE),
        ],
    )
    registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(backend, registry)

    rng = DeterministicRandom(seed=0x4E1)
    count = max(_PARTITIONS, int(_VERTICES * scale))
    heap = context.executor_heap

    context.read_input(22e6)  # edge-list text (Table III: 156 MB, scaled share)
    vertices = []
    for vertex_id in range(count):
        vertex = heap.allocate(vertex_klass)
        vertex.set("vertex_id", vertex_id)
        vertex.set("weight", 1.0)
        edges = heap.new_array(FieldKind.REFERENCE, _EDGES_PER_VERTEX)
        for slot in range(_EDGES_PER_VERTEX):
            edge = heap.allocate(edge_klass)
            edge.set("target", rng.randint(0, count - 1))
            edge.set("weight", rng.random())
            edges.set_element(slot, edge)
        vertex.set("edges", edges)
        vertices.append(vertex)
    dataset = context.parallelize(vertices, _PARTITIONS)
    dataset.foreach_compute(20_000.0)  # adjacency construction

    for _ in range(_HOPS):
        # Exchange vertex state along edges: shuffle vertices by the
        # partition of their first edge target (message grouping).
        dataset = dataset.shuffle(
            key_fn=lambda v: v.get("edges").get_element(0).get("target"),
            num_partitions=_PARTITIONS,
            instructions_per_record=80.0,
        )
        dataset.foreach_compute(_COMBINE_INSTR_PER_EDGE * _EDGES_PER_VERTEX)

    dataset.collect()
    return AppResult(
        name="nweight",
        backend_name=backend.name,
        breakdown=context.breakdown,
        records=count,
    )
