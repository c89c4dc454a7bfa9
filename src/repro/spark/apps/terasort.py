"""TeraSort: range-partitioned sort of 100-byte records (HiBench Sort).

Pipeline: HDFS read -> parse records -> range shuffle -> per-partition
sort -> HDFS write. S/D happens on both sides of the shuffle; compute is
parsing plus the O(n log n) sort; I/O is the dominant byte mover (3 GB in
Table III, the largest input of the suite).
"""

from __future__ import annotations

import math

from repro.jvm.klass import FieldKind
from repro.spark.apps.base import (
    AppResult,
    ensure_klass,
    new_long_array,
    register_backend_classes,
)
from repro.spark.backend import SDBackend
from repro.spark.engine import MiniSparkContext
from repro.workloads.datagen import DeterministicRandom

_RECORDS = 2000
_PARTITIONS = 4
_RECORD_BYTES = 100  # 10 B key + 90 B payload, as in TeraGen
_PAYLOAD_LONGS = 11
_PARSE_INSTR = 60_000.0  # per scaled record: full-scale block parse
_SORT_INSTR_PER_CMP = 6_000.0


def run_terasort(
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
    record_klass = ensure_klass(
        registry,
        "TeraRecord",
        [("key", FieldKind.LONG), ("payload", FieldKind.REFERENCE)],
    )
    registry.array_klass(FieldKind.LONG)
    registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(backend, registry)

    rng = DeterministicRandom(seed=0x7E7A)
    count = max(_PARTITIONS, int(_RECORDS * scale))
    heap = context.executor_heap

    context.read_input(45e6)  # TeraGen input (Table III: 3072 MB, scaled)
    records = []
    for _ in range(count):
        record = heap.allocate(record_klass)
        record.set("key", rng.next_u64() >> 1)
        record.set("payload", new_long_array(heap, rng, _PAYLOAD_LONGS))
        records.append(record)
    dataset = context.parallelize(records, _PARTITIONS)
    dataset.foreach_compute(_PARSE_INSTR)

    # Range partition on the key's top bits, then sort each partition.
    key_space = 1 << 63
    sorted_ds = dataset.shuffle(
        key_fn=lambda r: int(r.get("key") * _PARTITIONS // key_space),
        num_partitions=_PARTITIONS,
        instructions_per_record=60.0,
    )

    def sort_partition(partition):
        partition.sort(key=lambda r: r.get("key"))
        return partition

    comparisons = max(1.0, math.log2(max(2, count / _PARTITIONS)))
    sorted_ds = sorted_ds.map_partitions(
        sort_partition, instructions_per_record=_SORT_INSTR_PER_CMP * comparisons
    )
    context.write_output(45e6)

    return AppResult(
        name="terasort",
        backend_name=backend.name,
        breakdown=context.breakdown,
        records=count,
    )
