"""Alternating Least Squares matrix factorization (HiBench ALS).

Iteratively alternates between solving user factors and item factors;
each half-iteration shuffles the other side's factor vectors (dense
double arrays) to where the ratings live and solves a small least-squares
system per entity. The factor-vector shuffles make S/D a steady moderate
share of the runtime (Figure 2).
"""

from __future__ import annotations

from repro.jvm.klass import FieldKind
from repro.spark.apps.base import (
    AppResult,
    ensure_klass,
    new_double_array,
    register_backend_classes,
)
from repro.spark.backend import SDBackend
from repro.spark.engine import MiniSparkContext
from repro.workloads.datagen import DeterministicRandom

_USERS = 360
_ITEMS = 200
_PARTITIONS = 4
_RANK = 8
_ITERATIONS = 3
# Normal-equation solve per entity: k^2 accumulate + k^3/3 Cholesky.
# Normal-equation solves for the full-scale entity block behind each
# scaled factor row (calibrated against Figure 2).
_SOLVE_INSTR = 1_100_000.0


def run_als(
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
    factor_klass = ensure_klass(
        registry,
        "FactorRow",
        [("entity_id", FieldKind.INT), ("factors", FieldKind.REFERENCE)],
    )
    registry.array_klass(FieldKind.DOUBLE)
    registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(backend, registry)

    rng = DeterministicRandom(seed=0xA15)
    users = max(_PARTITIONS, int(_USERS * scale))
    items = max(_PARTITIONS, int(_ITEMS * scale))
    heap = context.executor_heap

    context.read_input(35e6)  # rating triplets (Table III: 1331 MB, scaled)

    def make_rows(count):
        rows = []
        for entity_id in range(count):
            row = heap.allocate(factor_klass)
            row.set("entity_id", entity_id)
            row.set("factors", new_double_array(heap, rng, _RANK))
            rows.append(row)
        return rows

    user_factors = context.parallelize(make_rows(users), _PARTITIONS)
    item_factors = context.parallelize(make_rows(items), _PARTITIONS)

    for _ in range(_ITERATIONS):
        # Solve users: ship item factors to the rating partitions.
        item_factors = item_factors.shuffle(
            key_fn=lambda r: r.get("entity_id"),
            num_partitions=_PARTITIONS,
            instructions_per_record=40.0,
        )
        user_factors.foreach_compute(_SOLVE_INSTR)
        # Solve items: ship user factors back the other way.
        user_factors = user_factors.shuffle(
            key_fn=lambda r: r.get("entity_id"),
            num_partitions=_PARTITIONS,
            instructions_per_record=40.0,
        )
        item_factors.foreach_compute(_SOLVE_INSTR)

    user_factors.collect()
    item_factors.collect()
    return AppResult(
        name="als",
        backend_name=backend.name,
        breakdown=context.breakdown,
        records=users + items,
    )
