"""Tests for the mini-Spark engine, backends, and the six applications."""

import pytest

from repro.cereal import CerealAccelerator
from repro.formats import JavaSerializer, KryoSerializer
from repro.jvm import Heap
from repro.jvm.klass import FieldDescriptor, FieldKind, InstanceKlass
from repro.spark import (
    CerealBackend,
    MiniSparkContext,
    SoftwareBackend,
)
from repro.spark.apps import PAPER_INPUT_MB, SPARK_APPS
from repro.spark.apps.base import new_double_array, new_long_array
from repro.spark.metrics import SDOperation, TimeBreakdown
from repro.workloads.datagen import DeterministicRandom


def _count(breakdown, kind):
    """The breakdown's S/D operations of ``kind``."""
    return sum(1 for op in breakdown.operations if op.kind == kind)


def kv_klass():
    return InstanceKlass(
        "KV",
        [FieldDescriptor("key", FieldKind.LONG), FieldDescriptor("value", FieldKind.LONG)],
    )


def make_context():
    context = MiniSparkContext(SoftwareBackend(KryoSerializer()))
    klass = context.registry.register(kv_klass())
    context.registry.array_klass(FieldKind.REFERENCE)
    backend_reg = context.backend.serializer.registration
    for k in context.registry:
        backend_reg.register(k)
    return context, klass


def make_records(context, klass, count):
    records = []
    for index in range(count):
        record = context.executor_heap.allocate(klass)
        record.set("key", index)
        record.set("value", index * 10)
        records.append(record)
    return records


class TestTimeBreakdown:
    def test_fractions_sum_to_one(self):
        breakdown = TimeBreakdown(compute_ns=10, gc_ns=20, io_ns=30)
        breakdown.add_operation(
            SDOperation("serialize", "shuffle", 40, 100, 200, 5)
        )
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert breakdown.sd_fraction == pytest.approx(0.4)

    def test_operation_split(self):
        breakdown = TimeBreakdown()
        breakdown.add_operation(SDOperation("serialize", "cache", 5, 1, 1, 1))
        breakdown.add_operation(SDOperation("deserialize", "cache", 7, 1, 1, 1))
        assert breakdown.serialize_ns == 5
        assert breakdown.deserialize_ns == 7
        assert _count(breakdown, "serialize") == 1
        assert _count(breakdown, "deserialize") == 1

    def test_empty_fractions(self):
        assert TimeBreakdown().fractions()["sd"] == 0.0


class TestEngine:
    def test_parallelize_balances(self):
        context, klass = make_context()
        records = make_records(context, klass, 10)
        dataset = context.parallelize(records, 4)
        sizes = [len(p) for p in dataset.partitions]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_shuffle_preserves_records_and_partitions_by_key(self):
        context, klass = make_context()
        records = make_records(context, klass, 20)
        dataset = context.parallelize(records, 4)
        shuffled = dataset.shuffle(key_fn=lambda r: r.get("key") % 2, num_partitions=2)
        assert shuffled.record_count == 20
        for partition_index, partition in enumerate(shuffled.partitions):
            assert all(r.get("key") % 2 == partition_index for r in partition)

    def test_shuffle_records_are_reconstructed_copies(self):
        context, klass = make_context()
        records = make_records(context, klass, 4)
        dataset = context.parallelize(records, 2)
        shuffled = dataset.shuffle(key_fn=lambda r: 0, num_partitions=1)
        values = sorted(r.get("value") for r in shuffled.partitions[0])
        assert values == [0, 10, 20, 30]
        original = {r.address for r in records}
        assert all(r.address not in original for r in shuffled.partitions[0])

    def test_shuffle_accounts_sd_operations(self):
        context, klass = make_context()
        dataset = context.parallelize(make_records(context, klass, 8), 2)
        dataset.shuffle(key_fn=lambda r: r.get("key"), num_partitions=2)
        assert _count(context.breakdown, "serialize") > 0
        assert _count(context.breakdown, "deserialize") > 0
        assert context.breakdown.sd_ns > 0

    def test_cache_read_multiplies_deserialization(self):
        context, klass = make_context()
        dataset = context.parallelize(make_records(context, klass, 8), 2)
        cached = dataset.cache_serialized()
        base_deser = context.breakdown.deserialize_ns
        first = cached.read()
        after_one = context.breakdown.deserialize_ns
        cached.read()
        after_two = context.breakdown.deserialize_ns
        assert after_one > base_deser
        assert after_two - after_one == pytest.approx(after_one - base_deser)
        assert first.record_count == 8

    def test_collect_reaches_driver_heap(self):
        context, klass = make_context()
        dataset = context.parallelize(make_records(context, klass, 6), 2)
        collected = dataset.collect()
        assert len(collected) == 6
        assert all(r.heap is context.driver_heap for r in collected)

    def test_compute_and_io_accounting(self):
        context, _ = make_context()
        context.account_compute(9e9)  # 9 G instructions at 2.5 IPC, 3.6 GHz
        assert context.breakdown.compute_ns == pytest.approx(1e9)
        context.account_io(500e6)
        assert context.breakdown.io_ns == pytest.approx(1e9)

    def test_gc_charged_for_allocation(self):
        context, klass = make_context()
        context.parallelize(make_records(context, klass, 50), 2)
        assert context.breakdown.gc_ns > 0


class TestInputArrays:
    def test_bulk_inputs_draw_values_in_index_order(self):
        heap = Heap(registry=None)
        doubles = new_double_array(heap, DeterministicRandom(7), 33)
        longs = new_long_array(heap, DeterministicRandom(7), 33)
        rng = DeterministicRandom(7)
        assert doubles.get_elements() == [
            rng.random() * 2.0 - 1.0 for _ in range(33)
        ]
        rng = DeterministicRandom(7)
        assert longs.get_elements() == [rng.next_u64() >> 16 for _ in range(33)]


class TestBackends:
    def test_software_backend_names(self):
        assert SoftwareBackend(JavaSerializer()).name == "java-builtin"
        assert SoftwareBackend(KryoSerializer()).name == "kryo"

    def test_framework_cost_added(self):
        accelerator = CerealAccelerator()
        cereal = MiniSparkContext(CerealBackend(accelerator))
        cereal_klass = cereal.registry.register(kv_klass())
        cereal.registry.array_klass(FieldKind.REFERENCE)
        for k in cereal.registry:
            accelerator.register_class(k)
        for context, klass in (make_context(), (cereal, cereal_klass)):
            records = make_records(context, klass, 8)
            stream = context.serialize_bucket(records, "shuffle")
            context.deserialize_bucket(stream, "shuffle")
            ser, de = context.breakdown.operations[-2:]
            assert (ser.kind, de.kind) == ("serialize", "deserialize")
            for op in (ser, de):
                assert op.stream_bytes == stream.size_bytes
                assert op.kernel_time_ns > 0
                # Kernel time plus the per-byte framework stream path, exactly.
                assert op.time_ns == (
                    op.kernel_time_ns
                    + op.stream_bytes * context.backend.stream_ns_per_byte
                )

    def test_cereal_backend_round_trip(self):
        accelerator = CerealAccelerator()
        context = MiniSparkContext(CerealBackend(accelerator))
        klass = context.registry.register(kv_klass())
        context.registry.array_klass(FieldKind.REFERENCE)
        for k in context.registry:
            accelerator.register_class(k)
        records = make_records(context, klass, 6)
        dataset = context.parallelize(records, 2)
        shuffled = dataset.shuffle(key_fn=lambda r: r.get("key"), num_partitions=2)
        assert shuffled.record_count == 6


@pytest.mark.parametrize("app_name", sorted(SPARK_APPS))
class TestApplications:
    def test_runs_on_kryo(self, app_name):
        result = SPARK_APPS[app_name](SoftwareBackend(KryoSerializer()), scale=0.1)
        assert result.name == app_name
        assert result.total_ns > 0
        assert result.breakdown.sd_ns > 0
        assert result.records > 0

    def test_runs_on_cereal(self, app_name):
        result = SPARK_APPS[app_name](CerealBackend(CerealAccelerator()), scale=0.1)
        assert result.breakdown.sd_ns > 0

    def test_paper_input_documented(self, app_name):
        assert PAPER_INPUT_MB[app_name] > 0


class TestApplicationShapes:
    def test_svm_is_sd_dominated_with_software(self):
        """Figure 2: SVM spends ~90% of its time in S/D with Java S/D."""
        result = SPARK_APPS["svm"](SoftwareBackend(JavaSerializer()), scale=0.25)
        assert result.sd_fraction > 0.6

    def test_cereal_shrinks_sd_share(self):
        kryo = SPARK_APPS["terasort"](SoftwareBackend(KryoSerializer()), scale=0.25)
        cereal = SPARK_APPS["terasort"](CerealBackend(CerealAccelerator()), scale=0.25)
        assert cereal.breakdown.sd_ns < kryo.breakdown.sd_ns

    def test_non_sd_time_backend_invariant(self):
        """Compute/IO must not depend on the serializer choice."""
        kryo = SPARK_APPS["als"](SoftwareBackend(KryoSerializer()), scale=0.2)
        cereal = SPARK_APPS["als"](CerealBackend(CerealAccelerator()), scale=0.2)
        assert kryo.breakdown.compute_ns == pytest.approx(
            cereal.breakdown.compute_ns, rel=1e-6
        )
        assert kryo.breakdown.io_ns == pytest.approx(
            cereal.breakdown.io_ns, rel=1e-6
        )
