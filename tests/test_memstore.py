"""Tiered executor memory manager: GC curve, tiers, policies, accounting.

Covers the memstore acceptance criteria:

* :class:`GcCostModel` boundary behaviour — empty heap, the knee,
  exactly-at-budget, over-budget clamping, monotone super-linear rise;
* ``_account_gc`` invariants — mark monotonicity, zero charge on
  no-growth passes, ``_sync_gc_mark`` exempting functional allocations;
* the ``CachedDataset.read`` double-charge fix — rebuild GC flows
  through exactly one path;
* tier cost semantics — deserialized reads are free but pin heap,
  serialized reads pay S/D + rebuild GC, spilled reads add disk I/O;
* eviction/placement policies and pressure-driven demotion ladders;
* determinism, executor-loss recovery, and metrics/span reconciliation.
"""

import pytest

from repro.common.errors import ConfigError
from repro.faults import FaultInjector, FaultPolicy
from repro.formats import KryoSerializer
from repro.jvm.klass import FieldDescriptor, FieldKind, InstanceKlass
from repro.memstore import (
    TIER_AUTO,
    TIER_DESERIALIZED,
    TIER_SERIALIZED,
    TIER_SPILLED,
    GC_KNEE,
    GC_MAX_MULTIPLIER,
    ExecutorMemoryManager,
    GcCostModel,
    MemstoreConfig,
    make_policy,
)
from repro.obs import Tracer
from repro.spark import MiniSparkContext, SoftwareBackend, TimeBreakdown
from repro.spark.metrics import SDOperation

BASE = 8.0


# -- GcCostModel -------------------------------------------------------------------------


class TestGcCostModel:
    def test_empty_heap_is_seed_identical(self):
        model = GcCostModel(budget_bytes=1000)
        assert model.multiplier(0) == 1.0
        assert model.ns_per_byte(0) == BASE
        assert model.charge_ns(100, 0) == pytest.approx(100 * BASE)

    def test_flat_below_knee(self):
        assert GC_KNEE == 0.3
        model = GcCostModel(budget_bytes=1000)
        assert model.multiplier(299) == 1.0
        assert model.multiplier(300) == 1.0  # knee is inclusive

    def test_exactly_at_budget_hits_max(self):
        assert GC_MAX_MULTIPLIER == 24.0
        model = GcCostModel(budget_bytes=1000)
        assert model.multiplier(1000) == 24.0

    def test_over_budget_clamped(self):
        model = GcCostModel(budget_bytes=1000)
        assert model.multiplier(5000) == 24.0
        assert model.occupancy(5000) == 5.0  # occupancy itself is honest

    def test_monotone_and_superlinear(self):
        model = GcCostModel(budget_bytes=1000)
        points = [model.multiplier(x) for x in range(0, 1100, 50)]
        assert points == sorted(points)
        # Quadratic between knee and budget: the second half of the ramp
        # gains more than the first half.
        low = model.multiplier(650) - model.multiplier(300)
        high = model.multiplier(1000) - model.multiplier(650)
        assert high > low > 0.0

    def test_zero_or_negative_growth_charges_nothing(self):
        model = GcCostModel(budget_bytes=1000)
        assert model.charge_ns(0, 900) == 0.0
        assert model.charge_ns(-64, 900) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            GcCostModel(budget_bytes=0)


class TestMemstoreConfig:
    def test_defaults_and_derived_budgets(self):
        config = MemstoreConfig(budget_bytes=1000, storage_fraction=0.6)
        assert config.heap_tier_budget_bytes == 600
        assert config.resolved_offheap_budget_bytes == 1000
        model = config.build_gc_model()
        assert model.budget_bytes == 1000

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemstoreConfig(budget_bytes=0)
        with pytest.raises(ConfigError):
            MemstoreConfig(budget_bytes=10, storage_fraction=0.0)
        with pytest.raises(ConfigError):
            MemstoreConfig(budget_bytes=10, offheap_budget_bytes=-1)
        with pytest.raises(ConfigError):
            MemstoreConfig(budget_bytes=10, policy="round-robin")


# -- manager unit tests (no engine) ------------------------------------------------------


def _ops(stream_bytes=100, graph_bytes=400, ser_ns=50.0, deser_ns=70.0):
    serialize_op = SDOperation(
        "serialize", "cache", ser_ns, stream_bytes, graph_bytes, 4
    )
    read_op = SDOperation(
        "deserialize", "cache", deser_ns, stream_bytes, graph_bytes, 4
    )
    return serialize_op, read_op


def _manager(budget=10_000, fraction=1.0, offheap=None, policy="lru"):
    config = MemstoreConfig(
        budget_bytes=budget,
        storage_fraction=fraction,
        offheap_budget_bytes=offheap,
        policy=policy,
    )
    return ExecutorMemoryManager(config, TimeBreakdown())


class TestTierCosts:
    def test_deserialized_admission_and_reads_are_free_but_pin_heap(self):
        manager = _manager()
        serialize_op, read_op = _ops()
        entry = manager.admit(0, None, ["r"], serialize_op, read_op,
                              tier=TIER_DESERIALIZED)
        assert manager.breakdown.total_ns == 0.0
        assert manager.on_heap_bytes == 400
        assert manager.read_entry(entry) == ["r"]
        assert manager.breakdown.total_ns == 0.0  # reads cost nothing

    def test_serialized_charges_once_then_per_read(self):
        manager = _manager()
        serialize_op, read_op = _ops()
        entry = manager.admit(0, None, ["r"], serialize_op, read_op,
                              tier=TIER_SERIALIZED)
        assert manager.breakdown.serialize_ns == 50.0
        assert manager.on_heap_bytes == 0
        assert manager.offheap_bytes == 100
        manager.read_entry(entry)
        assert manager.breakdown.deserialize_ns == 70.0
        assert manager.breakdown.gc_ns == pytest.approx(400 * BASE)
        manager.read_entry(entry)
        assert manager.breakdown.deserialize_ns == 140.0
        assert manager.breakdown.gc_ns == pytest.approx(2 * 400 * BASE)

    def test_spilled_adds_disk_io_both_ways(self):
        manager = _manager(offheap=50)  # stream of 100 B cannot fit
        serialize_op, read_op = _ops()
        entry = manager.admit(0, None, ["r"], serialize_op, read_op,
                              tier=TIER_SERIALIZED)
        assert entry.tier == TIER_SPILLED
        # Admission: serialize + disk write of the stream.
        assert manager.breakdown.serialize_ns == 50.0
        assert manager.breakdown.io_ns == pytest.approx(100 * 2.0)
        assert manager.spilled_bytes == 100
        manager.read_entry(entry)
        # Read: disk read + deserialize + rebuild GC.
        assert manager.breakdown.io_ns == pytest.approx(2 * 100 * 2.0)
        assert manager.breakdown.deserialize_ns == 70.0
        assert manager.breakdown.gc_ns == pytest.approx(400 * BASE)

    def test_rebuild_gc_priced_by_pinned_live_set(self):
        manager = _manager(budget=1000)
        big_ser, big_read = _ops(graph_bytes=900)
        manager.admit(0, None, ["big"], big_ser, big_read,
                      tier=TIER_DESERIALIZED)
        serialize_op, read_op = _ops(graph_bytes=100)
        entry = manager.admit(1, None, ["r"], serialize_op, read_op,
                              tier=TIER_SERIALIZED)
        before = manager.breakdown.gc_ns
        manager.read_entry(entry)
        charged = manager.breakdown.gc_ns - before
        # 900/1000 occupancy: the rebuild pays well above the base rate.
        assert charged > 100 * BASE * 5

    def test_unknown_tier_rejected(self):
        manager = _manager()
        serialize_op, read_op = _ops()
        with pytest.raises(ConfigError):
            manager.admit(0, None, [], serialize_op, read_op, tier="onheap")


class TestEvictionAndDemotion:
    def test_heap_pressure_demotes_lru_victim(self):
        manager = _manager(budget=1000, fraction=1.0)
        ops = [_ops(graph_bytes=400) for _ in range(3)]
        entries = [
            manager.admit(i, None, [i], s, r, tier=TIER_DESERIALIZED)
            for i, (s, r) in enumerate(ops)
        ]
        # Third admission exceeds 1000 B of heap: entry 0 (LRU) demotes.
        assert entries[0].tier == TIER_SERIALIZED
        assert entries[1].tier == TIER_DESERIALIZED
        assert entries[2].tier == TIER_DESERIALIZED
        assert manager.on_heap_bytes == 800
        assert manager.offheap_bytes == 100
        assert manager.transitions == [
            (0, TIER_DESERIALIZED, TIER_SERIALIZED, "pressure")
        ]
        # The demotion paid the victim's serialize.
        assert manager.breakdown.serialize_ns == 50.0

    def test_cascading_demotion_reaches_disk(self):
        manager = _manager(budget=1000, fraction=1.0, offheap=150)
        ops = [_ops(graph_bytes=400, stream_bytes=100) for _ in range(4)]
        entries = [
            manager.admit(i, None, [i], s, r, tier=TIER_DESERIALIZED)
            for i, (s, r) in enumerate(ops)
        ]
        tiers = [e.tier for e in entries]
        # Two demotions to off-heap fill its 150 B; the next one spills.
        assert tiers.count(TIER_DESERIALIZED) == 2
        assert TIER_SPILLED in tiers or manager.spilled_bytes > 0
        assert manager.on_heap_bytes <= 1000
        assert manager.offheap_bytes <= 150

    def test_reads_refresh_lru_order(self):
        manager = _manager(budget=1000, fraction=1.0)
        a_ops, b_ops = _ops(graph_bytes=400), _ops(graph_bytes=400)
        a = manager.admit(0, None, ["a"], *a_ops, tier=TIER_DESERIALIZED)
        b = manager.admit(1, None, ["b"], *b_ops, tier=TIER_DESERIALIZED)
        manager.read_entry(a)  # a is now the most recently used
        c_ops = _ops(graph_bytes=400)
        manager.admit(2, None, ["c"], *c_ops, tier=TIER_DESERIALIZED)
        assert a.tier == TIER_DESERIALIZED
        assert b.tier == TIER_SERIALIZED  # b was the stale one

    def test_size_policy_evicts_largest(self):
        manager = _manager(budget=1000, fraction=1.0, policy="size")
        small = _ops(graph_bytes=200)
        large = _ops(graph_bytes=600)
        manager.admit(0, None, ["s"], *small, tier=TIER_DESERIALIZED)
        big = manager.admit(1, None, ["l"], *large, tier=TIER_DESERIALIZED)
        trigger = _ops(graph_bytes=400)
        manager.admit(2, None, ["t"], *trigger, tier=TIER_DESERIALIZED)
        assert big.tier == TIER_SERIALIZED  # largest demoted first

    def test_cost_policy_evicts_fewest_expected_rereads(self):
        manager = _manager(budget=10_000, offheap=250, policy="cost")
        hot_ops = _ops(stream_bytes=100)
        cold_ops = _ops(stream_bytes=100)
        hot = manager.admit(0, None, ["hot"], *hot_ops, tier=TIER_SERIALIZED)
        cold = manager.admit(1, None, ["cold"], *cold_ops,
                             tier=TIER_SERIALIZED)
        manager.read_entry(hot)
        manager.read_entry(hot)
        trigger = _ops(stream_bytes=100)
        manager.admit(2, None, ["t"], *trigger, tier=TIER_SERIALIZED)
        assert cold.tier == TIER_SPILLED  # fewest re-reads -> cheapest loss
        assert hot.tier == TIER_SERIALIZED

    def test_auto_placement_prefers_heap_when_sd_is_expensive(self):
        manager = _manager(budget=100_000, policy="cost")
        costly = _ops(graph_bytes=400, deser_ns=1e6)
        entry = manager.admit(0, None, ["r"], *costly, tier=TIER_AUTO)
        assert entry.tier == TIER_DESERIALIZED
        # Near the budget, residency's GC penalty outweighs cheap S/D.
        tight = _manager(budget=1000, policy="cost")
        cheap = _ops(graph_bytes=900, deser_ns=10.0)
        entry = tight.admit(0, None, ["r"], *cheap, tier=TIER_AUTO)
        assert entry.tier == TIER_SERIALIZED

    def test_policy_factory_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_policy("clairvoyant")
        assert make_policy("lru").name == "lru"


class TestStatsAndObservability:
    def test_stats_reconcile_with_state(self):
        manager = _manager(offheap=50)
        serialize_op, read_op = _ops()
        entry = manager.admit(0, None, ["r"], serialize_op, read_op,
                              tier=TIER_SERIALIZED)
        manager.read_entry(entry)
        stats = manager.stats()
        assert stats["by_tier"][TIER_SPILLED] == 1
        assert stats["spills"] == 0  # direct overflow, not a demotion
        assert stats["reads"][TIER_SPILLED] == 1
        assert stats["charged_total_ns"] == pytest.approx(
            manager.breakdown.total_ns
        )

    def test_spans_cover_charges_exactly(self):
        tracer = Tracer(enabled=True, capacity=1 << 12)
        config = MemstoreConfig(budget_bytes=10_000)
        manager = ExecutorMemoryManager(
            config, TimeBreakdown(), tracer=tracer
        )
        serialize_op, read_op = _ops()
        entry = manager.admit(0, None, ["r"], serialize_op, read_op,
                              tier=TIER_SERIALIZED)
        manager.read_entry(entry)
        manager.read_entry(entry)
        spans = [s for s in tracer.spans() if s.name.startswith("memstore.")]
        assert [s.name for s in spans] == [
            "memstore.admit", "memstore.read", "memstore.read",
        ]
        span_sum = sum(s.end_ns - s.start_ns for s in spans)
        assert span_sum == pytest.approx(manager.charged_total_ns, abs=1.0)


# -- engine integration ------------------------------------------------------------------


def _context(memstore_config=None, injector=None):
    context = MiniSparkContext(
        SoftwareBackend(KryoSerializer()),
        memstore_config=memstore_config,
        injector=injector,
    )
    klass = context.registry.register(
        InstanceKlass(
            "KV",
            [
                FieldDescriptor("key", FieldKind.LONG),
                FieldDescriptor("value", FieldKind.LONG),
            ],
        )
    )
    context.registry.array_klass(FieldKind.REFERENCE)
    context.registry.array_klass(FieldKind.LONG)
    registration = context.backend.serializer.registration
    for k in context.registry:
        registration.register(k)
    return context, klass


def _records(context, klass, count):
    records = []
    for index in range(count):
        record = context.executor_heap.allocate(klass)
        record.set("key", index)
        record.set("value", index * 3)
        records.append(record)
    return records


class TestAccountGcInvariants:
    def test_no_growth_charges_nothing(self):
        context, klass = _context()
        _records(context, klass, 10)
        context._account_gc()
        before = context.breakdown.gc_ns
        context._account_gc()
        context._account_gc()
        assert context.breakdown.gc_ns == before

    def test_mark_is_monotone(self):
        context, klass = _context()
        marks = [context._last_alloc_mark]
        for _ in range(4):
            _records(context, klass, 5)
            context._account_gc()
            marks.append(context._last_alloc_mark)
        assert marks == sorted(marks)
        assert marks[-1] > marks[0]

    def test_sync_mark_exempts_functional_allocations(self):
        context, klass = _context()
        context._account_gc()
        before = context.breakdown.gc_ns
        _records(context, klass, 10)
        context._sync_gc_mark()
        context._account_gc()  # growth already marked: nothing to charge
        assert context.breakdown.gc_ns == before

    def test_growth_charged_at_base_rate_with_empty_store(self):
        context, klass = _context()
        context._account_gc()
        mark = context._last_alloc_mark
        before = context.breakdown.gc_ns
        _records(context, klass, 10)
        context._account_gc()
        grown = context._last_alloc_mark - mark
        assert grown > 0
        assert context.breakdown.gc_ns - before == pytest.approx(grown * BASE)


class TestCachedDatasetAccounting:
    def test_read_rebuild_gc_single_path(self):
        """The double-charge fix: each read charges the rebuilt graph's GC
        exactly once, and the cache-time functional materialization is not
        pre-charged on top of it."""
        context, klass = _context()
        dataset = context.parallelize(_records(context, klass, 12), 3)
        cached = dataset.cache_serialized()
        graph_bytes = sum(e.graph_bytes for e in cached.entries)

        gc_before = context.breakdown.gc_ns
        cached.read()
        first_read = context.breakdown.gc_ns - gc_before
        assert first_read == pytest.approx(graph_bytes * BASE)

        gc_before = context.breakdown.gc_ns
        cached.read()
        second_read = context.breakdown.gc_ns - gc_before
        assert second_read == pytest.approx(first_read)

        # And a later engine-side pass finds no unmarked growth left over
        # from the cache's functional round-trip.
        gc_before = context.breakdown.gc_ns
        context._account_gc()
        assert context.breakdown.gc_ns == gc_before

    def test_deserialized_tier_reads_are_free(self):
        context, klass = _context()
        dataset = context.parallelize(_records(context, klass, 12), 3)
        cached = dataset.cache(tier=TIER_DESERIALIZED)
        assert all(e.tier == TIER_DESERIALIZED for e in cached.entries)
        total_before = context.breakdown.total_ns
        result = cached.read()
        assert context.breakdown.total_ns == total_before
        assert result.record_count == 12
        assert context.memstore.on_heap_bytes > 0

    def test_deserialized_residency_amplifies_other_gc(self):
        # Probe the cached graph's footprint, then pick a budget that the
        # deserialized tier fills to ~90% occupancy (past the GC knee).
        probe, klass = _context()
        probe.parallelize(_records(probe, klass, 300), 2).cache(
            tier=TIER_DESERIALIZED
        )
        budget = int(probe.memstore.on_heap_bytes / 0.9)
        config = MemstoreConfig(budget_bytes=budget, storage_fraction=1.0)

        def run(tier):
            context, klass = _context(memstore_config=config)
            dataset = context.parallelize(_records(context, klass, 300), 2)
            dataset.cache(tier=tier)
            gc_before = context.breakdown.gc_ns
            heap = context.executor_heap

            def churn(partition):
                for _ in partition:
                    heap.new_array(FieldKind.LONG, 16)
                return partition

            dataset.map_partitions(churn)
            return context.breakdown.gc_ns - gc_before

        pressured = run(TIER_DESERIALIZED)
        flat = run(TIER_SERIALIZED)
        assert flat > 0
        assert pressured > flat  # same churn, costlier with pinned heap

    def test_streams_property_backwards_compatible(self):
        context, klass = _context()
        cached = context.parallelize(
            _records(context, klass, 6), 2
        ).cache_serialized()
        assert len(cached.streams) == 2
        assert all(s.size_bytes > 0 for s in cached.streams)

    def test_whole_run_deterministic(self):
        def run():
            config = MemstoreConfig(
                budget_bytes=256 * 1024, storage_fraction=1.0, policy="cost"
            )
            context, klass = _context(memstore_config=config)
            dataset = context.parallelize(_records(context, klass, 64), 4)
            cached = dataset.cache(tier=TIER_AUTO)
            for _ in range(3):
                cached.read()
            return (
                context.breakdown.total_ns,
                tuple(context.memstore.transitions),
                tuple(e.tier for e in cached.entries),
            )

        assert run() == run()

    def test_executor_loss_rebuilds_cached_entry(self):
        injector = FaultInjector(
            FaultPolicy(seed=3, executor_loss_prob=1.0)
        )
        context, klass = _context(injector=injector)
        cached = context.parallelize(
            _records(context, klass, 8), 2
        ).cache_serialized()
        serialize_before = context.breakdown.serialize_ns
        result = cached.read()  # every read loses its executor once
        assert result.record_count == 8
        assert context.breakdown.serialize_ns > serialize_before
        stats = injector.report.layer("executor")
        assert stats.injected == 2
        assert stats.detected == stats.recovered == 2
        assert context.memstore.lost == 2

    def test_zero_probability_injector_leaves_cache_costs_unchanged(self):
        baseline_context, klass = _context()
        cached = baseline_context.parallelize(
            _records(baseline_context, klass, 8), 2
        ).cache_serialized()
        cached.read()
        baseline = baseline_context.breakdown.total_ns

        injected_context, klass = _context(
            injector=FaultInjector(FaultPolicy(seed=9))
        )
        cached = injected_context.parallelize(
            _records(injected_context, klass, 8), 2
        ).cache_serialized()
        cached.read()
        assert injected_context.breakdown.total_ns == baseline
