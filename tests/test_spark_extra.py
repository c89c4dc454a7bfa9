"""Additional mini-Spark coverage: Skyway backend, engine edge cases."""

import pytest

from repro.formats import KryoSerializer, SkywaySerializer
from repro.jvm.klass import FieldDescriptor, FieldKind, InstanceKlass
from repro.spark import MiniSparkContext, SoftwareBackend
from repro.spark.apps import SPARK_APPS


def make_context(serializer=None):
    backend = SoftwareBackend(serializer or KryoSerializer())
    context = MiniSparkContext(backend)
    klass = context.registry.register(
        InstanceKlass(
            "Item",
            [
                FieldDescriptor("key", FieldKind.LONG),
                FieldDescriptor("payload", FieldKind.REFERENCE),
            ],
        )
    )
    context.registry.array_klass(FieldKind.LONG)
    context.registry.array_klass(FieldKind.REFERENCE)
    registration = getattr(context.backend.serializer, "registration", None)
    if registration is not None:
        for k in context.registry:
            registration.register(k)
    return context, klass


def make_items(context, klass, count):
    items = []
    for index in range(count):
        item = context.executor_heap.allocate(klass)
        item.set("key", index)
        payload = context.executor_heap.new_array(FieldKind.LONG, 4)
        payload.set_element(0, index * 7)
        item.set("payload", payload)
        items.append(item)
    return items


class TestSkywayBackend:
    def test_apps_run_on_skyway(self):
        result = SPARK_APPS["terasort"](SoftwareBackend(SkywaySerializer()), scale=0.1)
        assert result.breakdown.sd_ns > 0

    def test_skyway_kernel_fast_but_streams_inflated(self):
        """Related work: Skyway's S/D *kernel* beats Kryo's, but its raw
        object images double the stream volume, so the byte-proportional
        framework path claws the advantage back (consistent with Skyway's
        own modest 16% end-to-end claim)."""
        from repro.formats import JavaSerializer

        java = SPARK_APPS["als"](SoftwareBackend(JavaSerializer()), scale=0.25)
        kryo = SPARK_APPS["als"](SoftwareBackend(KryoSerializer()), scale=0.25)
        skyway = SPARK_APPS["als"](SoftwareBackend(SkywaySerializer()), scale=0.25)

        def kernel_ns(result):
            return sum(op.kernel_time_ns for op in result.breakdown.operations)

        def stream_bytes(breakdown):
            return sum(op.stream_bytes for op in breakdown.operations)

        assert kernel_ns(skyway) < kernel_ns(java)
        assert kernel_ns(skyway) < 1.5 * kernel_ns(kryo)
        assert (
            stream_bytes(skyway.breakdown)
            > 1.5 * stream_bytes(kryo.breakdown)
        )
        # End to end, Skyway stays in Kryo's neighbourhood.
        ratio = kryo.breakdown.sd_ns / skyway.breakdown.sd_ns
        assert 0.4 < ratio < 2.0

    def test_skyway_shuffle_functionally_correct(self):
        context, klass = make_context(SkywaySerializer())
        items = make_items(context, klass, 12)
        dataset = context.parallelize(items, 3)
        shuffled = dataset.shuffle(key_fn=lambda r: r.get("key") % 2,
                                   num_partitions=2)
        assert shuffled.record_count == 12
        values = sorted(
            r.get("payload").get_element(0) for r in
            shuffled.partitions[0] + shuffled.partitions[1]
        )
        assert values == sorted(index * 7 for index in range(12))


class TestEngineEdgeCases:
    def test_empty_partition_shuffle(self):
        context, klass = make_context()
        items = make_items(context, klass, 3)
        dataset = context.parallelize(items, 4)  # one partition empty
        shuffled = dataset.shuffle(key_fn=lambda r: 0, num_partitions=2)
        assert shuffled.record_count == 3
        assert shuffled.partitions[1] == []

    def test_zero_partitions_rejected(self):
        context, _ = make_context()
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            context.parallelize([], 0)

    def test_collect_empty_dataset(self):
        context, _ = make_context()
        dataset = context.parallelize([], 2)
        assert dataset.collect() == []

    def test_map_partitions_counts_compute(self):
        context, klass = make_context()
        items = make_items(context, klass, 10)
        dataset = context.parallelize(items, 2)
        before = context.breakdown.compute_ns
        dataset.map_partitions(lambda p: p, instructions_per_record=900.0)
        assert context.breakdown.compute_ns == pytest.approx(
            before + 10 * 900.0 / (2.5 * 3.6)
        )

    def test_cached_dataset_rereads_same_records(self):
        context, klass = make_context()
        items = make_items(context, klass, 6)
        cached = context.parallelize(items, 2).cache_serialized()
        first = cached.read()
        second = cached.read()
        keys_first = sorted(r.get("key") for p in first.partitions for r in p)
        keys_second = sorted(r.get("key") for p in second.partitions for r in p)
        assert keys_first == keys_second == list(range(6))
        # Reads hand out fresh partition lists, not aliases.
        first.partitions[0].clear()
        assert cached.read().record_count == 6

    def test_shuffle_operation_sites_tagged(self):
        context, klass = make_context()
        items = make_items(context, klass, 8)
        context.parallelize(items, 2).shuffle(key_fn=lambda r: r.get("key"))
        sites = {op.site for op in context.breakdown.operations}
        assert sites == {"shuffle"}

    def test_gc_accounts_deserialization_allocations(self):
        context, klass = make_context()
        items = make_items(context, klass, 8)
        dataset = context.parallelize(items, 2)
        gc_before = context.breakdown.gc_ns
        dataset.shuffle(key_fn=lambda r: r.get("key"))
        assert context.breakdown.gc_ns > gc_before
