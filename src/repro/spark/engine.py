"""Mini-Spark execution engine.

Supports exactly the dataflow shapes the six HiBench-style applications
need, with faithful S/D call sites (paper Section III lists them):

* ``parallelize`` / ``read_input`` — dataset creation and HDFS-style input
  I/O accounting;
* ``map_partitions`` — narrow transformations with explicit per-record
  compute cost;
* ``shuffle`` — the wide dependency: every (source partition, target
  partition) bucket is wrapped in a reference array and pushed through the
  configured S/D backend, once on the map side (serialize) and once on the
  reduce side (deserialize);
* ``cache`` / ``cache_serialized`` / ``CachedDataset.read`` — Spark's
  cache storage levels, owned by the tiered executor memory manager
  (:mod:`repro.memstore`): deserialized-on-heap reads are free but pin
  graph bytes against the heap budget, serialized-off-heap pays a
  deserialization on *every* read (this is what makes iterative ML apps
  S/D-bound, SVM most of all — paper Figure 2), and spilled entries add
  disk I/O on top;
* ``collect`` — driver-side aggregation (serialize at executors,
  deserialize at the driver).

GC time is modelled as a copying-collector cost per allocated byte whose
rate rises with heap occupancy (:class:`~repro.memstore.model.GcCostModel`
— flat and seed-identical while nothing is pinned on-heap); I/O as
disk-bandwidth transfers. Compute uses a higher IPC than S/D code: user
numeric kernels pipeline well.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.common.config import DISK_BANDWIDTH
from repro.common.errors import ConfigError, ExecutorLostError
from repro.faults.injector import FaultInjector
from repro.formats.base import SerializedStream
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import FieldKind, KlassRegistry
from repro.memstore import (
    TIER_SERIALIZED,
    CacheEntry,
    ExecutorMemoryManager,
    MemstoreConfig,
)
from repro.obs.trace import Tracer, get_tracer
from repro.spark.backend import SDBackend
from repro.spark.metrics import TimeBreakdown
from repro.spark.transfer import (
    ChunkingConfig,
    ChunkTransferStats,
    ResilientTransfer,
)

_EXECUTOR_HEAP_BYTES = 512 * 1024 * 1024
_COMPUTE_IPC = 2.5  # user numeric code pipelines better than S/D code
_CLOCK_GHZ = 3.6


class MiniSparkContext:
    """One application run: heaps, backend, and the time ledger."""

    def __init__(
        self,
        backend: SDBackend,
        registry: Optional[KlassRegistry] = None,
        injector: Optional[FaultInjector] = None,
        frame_streams: bool = False,
        tracer: Optional[Tracer] = None,
        chunking: Optional[ChunkingConfig] = None,
        memstore_config: Optional[MemstoreConfig] = None,
    ):
        self.backend = backend
        self.registry = registry if registry is not None else KlassRegistry()
        self.executor_heap = Heap(
            size_bytes=_EXECUTOR_HEAP_BYTES, registry=self.registry
        )
        self.driver_heap = Heap(
            size_bytes=_EXECUTOR_HEAP_BYTES // 4, registry=self.registry
        )
        self.breakdown = TimeBreakdown()
        self._last_alloc_mark = 0
        self.injector = injector
        self.tracer = tracer if tracer is not None else get_tracer()
        self.chunking = chunking
        self.chunk_stats: List[ChunkTransferStats] = []
        # Payload chunks + encode time per pending stream, keyed by id();
        # every chunked-mode stream is stashed at creation and popped at
        # its (single) delivery, so ids cannot be confused across streams.
        self._pending_chunks: Dict[int, tuple] = {}
        self.transfer = ResilientTransfer(
            self.breakdown,
            injector=injector,
            frame_streams=frame_streams,
        )
        # The GC budget defaults to the modelled executor heap; an explicit
        # MemstoreConfig decouples the two (e.g. for budget sweeps).
        self.memstore_config = (
            memstore_config
            if memstore_config is not None
            else MemstoreConfig(budget_bytes=_EXECUTOR_HEAP_BYTES)
        )
        self.gc_model = self.memstore_config.build_gc_model()
        self.memstore = ExecutorMemoryManager(
            self.memstore_config,
            self.breakdown,
            gc_model=self.gc_model,
            tracer=self.tracer,
            injector=injector,
            transfer=self.transfer,
        )

    # -- tracing ---------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, **attrs):
        """A spark-stage span whose clock is the time ledger.

        The ledger (``breakdown.total_ns``) only moves when operations are
        accounted, so the span's simulated bounds are the ledger totals at
        stage entry and exit — nested stages (map side inside a shuffle)
        nest in the trace exactly as the ``with`` blocks nest here.
        """
        tracer = self.tracer
        if not tracer.enabled:
            yield None
            return
        tracer.advance(self.breakdown.total_ns)
        with tracer.span(name, category="spark", track="spark", **attrs) as span:
            try:
                yield span
            finally:
                tracer.advance(self.breakdown.total_ns)

    # -- time accounting -------------------------------------------------------------

    def account_compute(self, instructions: float) -> None:
        self.breakdown.compute_ns += instructions / (_COMPUTE_IPC * _CLOCK_GHZ)

    def account_io(self, nbytes: float) -> None:
        self.breakdown.io_ns += nbytes / DISK_BANDWIDTH * 1e9

    def _account_gc(self) -> None:
        """Charge GC for heap growth since the last mark.

        The rate is the occupancy-driven curve: bytes pinned on-heap by
        deserialized-tier cache entries raise the cost of *all* other
        allocation. The mark is monotone — it only ever moves forward, so
        no byte of growth is charged twice.
        """
        used = self.executor_heap.used_bytes + self.driver_heap.used_bytes
        grown = used - self._last_alloc_mark
        if grown > 0:
            self.breakdown.gc_ns += self.gc_model.charge_ns(
                grown, self.memstore.on_heap_bytes
            )
            self._last_alloc_mark = used

    def _sync_gc_mark(self) -> None:
        """Advance the GC mark past *functional* allocations without
        charging — used when the model charges (or deliberately exempts)
        the same bytes through the memstore's tier accounting instead."""
        used = self.executor_heap.used_bytes + self.driver_heap.used_bytes
        if used > self._last_alloc_mark:
            self._last_alloc_mark = used

    # -- S/D plumbing -------------------------------------------------------------------

    def _wrap_records(self, records: Sequence[HeapObject], heap: Heap) -> HeapObject:
        """Wrap a record bucket in a reference array so it has one root."""
        array = heap.new_array(FieldKind.REFERENCE, len(records))
        array.set_elements(records)
        return array

    def _unwrap_records(self, root: HeapObject) -> List[HeapObject]:
        return [record for record in root.get_elements() if record is not None]

    def serialize_bucket(
        self, records: Sequence[HeapObject], site: str
    ) -> SerializedStream:
        root = self._wrap_records(records, self.executor_heap)
        if self.chunking is not None and hasattr(
            self.backend, "serialize_chunked"
        ):
            stream, op, chunks = self.backend.serialize_chunked(
                root, site, self.chunking.chunk_bytes
            )
            if site != "cache":  # cached streams are never delivered
                self._pending_chunks[id(stream)] = (chunks, op.time_ns)
        else:
            stream, op = self.backend.serialize(root, site)
            if self.chunking is not None and site != "cache":
                # Backend has no cursor path (e.g. the accelerator): the
                # delivery still streams, splitting the finished bytes.
                self._pending_chunks[id(stream)] = (None, op.time_ns)
        self.breakdown.add_operation(op)
        self._account_gc()
        return stream

    def deliver_stream(
        self, stream: SerializedStream, site: str
    ) -> SerializedStream:
        """Route a bucket through chunked or whole-stream delivery."""
        pending = self._pending_chunks.pop(id(stream), None)
        if self.chunking is None or pending is None:
            return self.transfer.deliver(stream, site)
        chunks, encode_ns = pending
        delivered, stats = self.transfer.deliver_chunked(
            stream,
            site,
            chunks=chunks,
            encode_ns=encode_ns,
            config=self.chunking,
        )
        self.chunk_stats.append(stats)
        return delivered

    def deserialize_bucket(
        self, stream: SerializedStream, site: str, heap: Optional[Heap] = None
    ) -> List[HeapObject]:
        heap = heap or self.executor_heap
        if self.injector is not None and self.injector.heap_exhausted(site):
            # Destination heap exhausted: run an emergency collection big
            # enough to evacuate the incoming graph, then proceed.
            pause_bytes = max(stream.graph_bytes, stream.size_bytes)
            self.breakdown.gc_ns += pause_bytes * self.gc_model.ns_per_byte(
                self.memstore.on_heap_bytes
            )
            self.injector.report.record_injected("heap")
            self.injector.report.record_detected("heap")
            self.injector.report.record_recovered("heap")
        root, op = self.backend.deserialize(stream, heap, site)
        self.breakdown.add_operation(op)
        self._account_gc()
        return self._unwrap_records(root)

    # -- dataset creation ------------------------------------------------------------------

    def read_input(self, nbytes: float) -> None:
        """HDFS input read (pure I/O; record parsing is app compute)."""
        self.account_io(nbytes)

    def write_output(self, nbytes: float) -> None:
        self.account_io(nbytes)

    def broadcast(self, root: HeapObject, num_partitions: int) -> List[HeapObject]:
        """Driver -> executors broadcast (e.g. the model weights each
        iteration): serialize once at the driver, deserialize once per
        executor partition. Returns the per-partition replicas."""
        with self.stage("spark.broadcast", partitions=num_partitions):
            stream, op = self.backend.serialize(root, "broadcast")
            self.breakdown.add_operation(op)
            replicas = []
            for _ in range(num_partitions):
                if self.chunking is not None:
                    delivered, stats = self.transfer.deliver_chunked(
                        stream,
                        "broadcast",
                        encode_ns=op.time_ns,
                        config=self.chunking,
                    )
                    self.chunk_stats.append(stats)
                else:
                    delivered = self.transfer.deliver(stream, "broadcast")
                replica, read_op = self.backend.deserialize(
                    delivered, self.executor_heap, "broadcast"
                )
                self.breakdown.add_operation(read_op)
                replicas.append(replica)
            self._account_gc()
        return replicas

    def parallelize(
        self, records: Sequence[HeapObject], num_partitions: int
    ) -> "PartitionedDataset":
        if num_partitions <= 0:
            raise ConfigError("num_partitions must be positive")
        partitions: List[List[HeapObject]] = [[] for _ in range(num_partitions)]
        for index, record in enumerate(records):
            partitions[index % num_partitions].append(record)
        self._account_gc()
        return PartitionedDataset(self, partitions)


@dataclass
class CachedDataset:
    """A cached RDD: one memstore entry per partition.

    The functional serialize/deserialize runs once at cache time; every
    ``read()`` goes through the memory manager, which charges whatever the
    entry's *current* tier costs (free for deserialized-on-heap, a fresh
    deserialize plus rebuild GC for serialized, disk I/O on top for
    spilled) while reusing the materialized records, keeping the Python
    run time linear. Tiers can shift between reads as later admissions
    evict under pressure.
    """

    context: MiniSparkContext
    entries: List[CacheEntry]

    @property
    def streams(self) -> List[SerializedStream]:
        """The compact streams backing each partition (any tier)."""
        return [entry.stream for entry in self.entries]

    def read(self) -> "PartitionedDataset":
        partitions = self.context.memstore.read_cached(self.entries)
        return PartitionedDataset(self.context, partitions)


class PartitionedDataset:
    """An RDD-alike: a list of partitions of heap objects."""

    def __init__(self, context: MiniSparkContext, partitions: List[List[HeapObject]]):
        self.context = context
        self.partitions = partitions

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def record_count(self) -> int:
        return sum(len(p) for p in self.partitions)

    # -- narrow ---------------------------------------------------------------------------

    def map_partitions(
        self,
        fn: Callable[[List[HeapObject]], List[HeapObject]],
        instructions_per_record: float = 0.0,
    ) -> "PartitionedDataset":
        out = []
        for partition in self.partitions:
            out.append(fn(partition))
            self.context.account_compute(instructions_per_record * len(partition))
        self.context._account_gc()
        return PartitionedDataset(self.context, out)

    def foreach_compute(self, instructions_per_record: float) -> None:
        """Pure compute pass over every record (no new dataset)."""
        self.context.account_compute(instructions_per_record * self.record_count)

    # -- wide ------------------------------------------------------------------------------

    def shuffle(
        self,
        key_fn: Callable[[HeapObject], int],
        num_partitions: Optional[int] = None,
        instructions_per_record: float = 40.0,
    ) -> "PartitionedDataset":
        """Hash-shuffle: serialize map-side buckets, deserialize reduce-side.

        When the fault injector declares a map-side executor lost, the
        bucket it produced is gone; the records that produced it are still
        known (the lineage), so the map task re-runs for that bucket —
        re-grouping compute plus a fresh serialize — exactly Spark's
        lineage-based stage recovery, bounded by the retry policy.
        """
        num_partitions = num_partitions or self.num_partitions
        with self.context.stage(
            "spark.shuffle", partitions=num_partitions, records=self.record_count
        ):
            buckets: Dict[int, List[SerializedStream]] = {
                target: [] for target in range(num_partitions)
            }
            with self.context.stage("shuffle.map"):
                for partition in self.partitions:
                    grouped: Dict[int, List[HeapObject]] = {}
                    for record in partition:
                        target = key_fn(record) % num_partitions
                        grouped.setdefault(target, []).append(record)
                    self.context.account_compute(
                        instructions_per_record * len(partition)
                    )
                    for target, records in grouped.items():
                        stream = self.context.serialize_bucket(
                            records, site="shuffle"
                        )
                        stream = self._recover_lost_bucket(
                            stream, records, instructions_per_record
                        )
                        buckets[target].append(stream)

            out: List[List[HeapObject]] = []
            with self.context.stage("shuffle.reduce"):
                for target in range(num_partitions):
                    merged: List[HeapObject] = []
                    for stream in buckets[target]:
                        delivered = self.context.deliver_stream(
                            stream, "shuffle"
                        )
                        merged.extend(
                            self.context.deserialize_bucket(
                                delivered, site="shuffle"
                            )
                        )
                    out.append(merged)
        return PartitionedDataset(self.context, out)

    def _recover_lost_bucket(
        self,
        stream: SerializedStream,
        records: List[HeapObject],
        instructions_per_record: float,
    ) -> SerializedStream:
        """Re-execute the map task while the injector keeps killing it."""
        injector = self.context.injector
        if injector is None:
            return stream
        attempts = 0
        while injector.executor_lost():
            injector.report.record_injected("executor")
            injector.report.record_detected("executor")
            attempts += 1
            if attempts > self.context.transfer.retry.max_retries:
                raise ExecutorLostError(
                    f"map executor lost {attempts} consecutive times; "
                    f"lineage re-execution budget exhausted"
                )
            # Lineage re-execution: re-run the grouping compute and
            # re-serialize the bucket from its source records.
            self.context.account_compute(
                instructions_per_record * len(records)
            )
            stream = self.context.serialize_bucket(records, site="shuffle")
            injector.report.record_recovered("executor")
        return stream

    # -- caching -------------------------------------------------------------------------------

    def cache(self, tier: str = TIER_SERIALIZED) -> CachedDataset:
        """Cache every partition in the executor memory manager.

        The serialize and deserialize both run once, functionally, to
        capture the entry's cost templates and materialized records; what
        the *model* charges is decided by the manager from the tier each
        partition lands in (``deserialized`` / ``serialized`` / ``spilled``
        / ``auto`` — see :mod:`repro.memstore.tiers`). Admissions may evict
        earlier entries: caching is itself a source of memory pressure.
        """
        context = self.context
        entries = []
        with context.stage(
            "spark.cache", partitions=self.num_partitions, tier=tier
        ):
            for index, partition in enumerate(self.partitions):
                root = context._wrap_records(partition, context.executor_heap)
                stream, serialize_op = context.backend.serialize(root, "cache")
                read_root, read_op = context.backend.deserialize(
                    stream, context.executor_heap, "cache"
                )
                records = context._unwrap_records(read_root)
                # The functional round-trip's heap growth is tier
                # bookkeeping, not nursery churn: the manager charges (or
                # deliberately exempts) those bytes per tier semantics.
                context._sync_gc_mark()
                entries.append(
                    context.memstore.admit(
                        index,
                        stream,
                        records,
                        serialize_op,
                        read_op,
                        tier=tier,
                    )
                )
        return CachedDataset(context=context, entries=entries)

    def cache_serialized(self) -> CachedDataset:
        """Spark's MEMORY_ONLY_SER: the serialized-off-heap tier."""
        return self.cache(tier=TIER_SERIALIZED)

    # -- actions ----------------------------------------------------------------------------------

    def collect(self) -> List[HeapObject]:
        """Ship every partition to the driver through the backend."""
        results: List[HeapObject] = []
        with self.context.stage("spark.collect", partitions=self.num_partitions):
            for partition in self.partitions:
                if not partition:
                    continue
                stream = self.context.serialize_bucket(partition, site="collect")
                delivered = self.context.deliver_stream(stream, "collect")
                results.extend(
                    self.context.deserialize_bucket(
                        delivered, site="collect", heap=self.context.driver_heap
                    )
                )
        return results
