"""Naive Bayes classification (HiBench Bayes).

A single-pass aggregation workload: read documents, tokenize (the
compute-heavy part), shuffle per-(class, term) counts, and aggregate into
the model. S/D comes from the count shuffle and the model collect; the
tokenization compute and the large text input keep the S/D share moderate
(Figure 2).
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

_DOCUMENTS = 700
_PARTITIONS = 4
_TERMS_PER_DOC = 24
_VOCABULARY = 320
_CLASSES = 8
_DOC_BYTES = 1600  # raw text per document
# Tokenization of the full-scale document block behind each scaled doc
# (calibrated against Figure 2: Bayes is compute- and I/O-heavy).
_TOKENIZE_INSTR = 2_000_000.0


def run_bayes(
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
    count_klass = ensure_klass(
        registry,
        "TermCount",
        [
            ("class_id", FieldKind.INT),
            ("term_id", FieldKind.INT),
            ("count", FieldKind.LONG),
        ],
    )
    registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(backend, registry)

    rng = DeterministicRandom(seed=0xBA7E)
    documents = max(_PARTITIONS, int(_DOCUMENTS * scale))
    heap = context.executor_heap

    context.read_input(50e6)  # corpus read (Table III: 1126 MB, scaled)
    # Tokenize: each document yields per-term counts (pre-combined locally).
    # Map-side combine: per-document counts are merged locally before any
    # record is materialized, as Spark's aggregator does before the shuffle.
    combined = {}
    for _ in range(documents):
        class_id = rng.randint(0, _CLASSES - 1)
        for _ in range(_TERMS_PER_DOC):
            term = rng.randint(0, _VOCABULARY - 1)
            key = (class_id, term)
            combined[key] = combined.get(key, 0) + 1
    counts = []
    for (class_id, term), count in combined.items():
        record = heap.allocate(count_klass)
        record.set("class_id", class_id)
        record.set("term_id", term)
        record.set("count", count)
        counts.append(record)
    dataset = context.parallelize(counts, _PARTITIONS)
    context.account_compute(_TOKENIZE_INSTR * documents)

    # Shuffle counts by (class, term); aggregate into the model.
    aggregated = dataset.shuffle(
        key_fn=lambda r: r.get("class_id") * _VOCABULARY + r.get("term_id"),
        num_partitions=_PARTITIONS,
        instructions_per_record=50.0,
    )

    def combine(partition):
        merged = {}
        for record in partition:
            key = (record.get("class_id"), record.get("term_id"))
            merged[key] = merged.get(key, 0) + record.get("count")
        out = []
        for (class_id, term_id), total in merged.items():
            record = heap.allocate(count_klass)
            record.set("class_id", class_id)
            record.set("term_id", term_id)
            record.set("count", total)
            out.append(record)
        return out

    model = aggregated.map_partitions(combine, instructions_per_record=35.0)
    model.collect()

    return AppResult(
        name="bayes",
        backend_name=backend.name,
        breakdown=context.breakdown,
        records=len(counts),
    )
