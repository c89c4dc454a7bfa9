"""Tests for the CPU cost model: caches, core model, harness."""

from array import array

import pytest

from repro.common.config import HostCPUConfig, SystemConfig
import repro.cpu.harness as harness
from repro.cpu import CacheHierarchy, CPUCostModel, SoftwarePlatform
from repro.cpu.cache import CacheStats
from repro.formats.base import WorkProfile
from repro.jvm import Heap
from repro.memory.trace import MemoryTrace
from tests.test_serializers import build_tree, make_registry, make_serializer


def round_trip_timings(platform, serializer, root, receiver):
    """(serialize timing, deserialize timing) of one software round trip."""
    result, ser_run = platform.run_serialize(serializer, root)
    _, de_run = platform.run_deserialize(serializer, result.stream, receiver)
    return ser_run.timing, de_run.timing


def reads(addresses, length=8):
    trace = MemoryTrace()
    trace.record_many(addresses, length)
    return trace


class TestCacheHierarchy:
    def test_repeat_access_hits_l1(self):
        cache = CacheHierarchy()
        cache.replay(reads([0x100, 0x100, 0x100]))
        assert cache.stats.l1_hits == 2
        assert cache.stats.dram_accesses == 1

    def test_l1_capacity_spill_to_l2(self):
        host = HostCPUConfig()
        cache = CacheHierarchy(host)
        lines = host.l1.size_bytes // 64 * 2  # twice L1 capacity
        addresses = [i * 64 for i in range(lines)]
        cache.replay(reads(addresses))
        cache.replay(reads(addresses))  # second pass: L1 misses, L2 hits
        assert cache.stats.l2_hits > 0

    def test_sequential_misses_classified_prefetchable(self):
        cache = CacheHierarchy()
        cache.replay(reads([i * 64 for i in range(100)]))
        assert cache.stats.sequential_misses > 90
        assert cache.stats.random_misses <= 10

    def test_random_misses_classified_random(self):
        cache = CacheHierarchy()
        addresses = [(i * 7919 * 64) % (1 << 30) for i in range(200)]
        cache.replay(reads(addresses))
        assert cache.stats.random_misses > cache.stats.sequential_misses

    def test_write_misses_counted_with_writeback(self):
        cache = CacheHierarchy()
        trace = MemoryTrace()
        trace.record_many([i * 64 for i in range(10)], 64, write=True)
        cache.replay(trace)
        assert cache.stats.write_misses == 10
        assert cache.stats.dram_bytes() == 10 * 2 * 64  # fill + writeback

    def test_llc_miss_rate_bounds(self):
        cache = CacheHierarchy()
        cache.replay(reads([i * 64 for i in range(50)]))
        assert 0.0 <= cache.stats.llc_miss_rate <= 1.0


class TestCoreModel:
    def make_stats(self, random_misses=0, sequential=0, l2=0, l3=0):
        stats = CacheStats()
        stats.random_misses = random_misses
        stats.sequential_misses = sequential
        stats.dram_accesses = random_misses + sequential
        stats.l2_hits = l2
        stats.l3_hits = l3
        stats.accesses = stats.dram_accesses + l2 + l3
        return stats

    def test_compute_bound_when_no_misses(self):
        model = CPUCostModel()
        profile = WorkProfile(instructions=170_000)
        result = model.estimate(profile, self.make_stats())
        assert result.ipc == pytest.approx(model.host.base_ipc, rel=0.01)

    def test_random_misses_add_serialized_stalls(self):
        model = CPUCostModel()
        profile = WorkProfile(instructions=1000, mlp=1.0)
        with_misses = model.estimate(profile, self.make_stats(random_misses=100))
        without = model.estimate(profile, self.make_stats())
        stall = with_misses.cycles - without.cycles
        expected = 100 * model.dram.zero_load_latency_ns * model.host.clock_ghz
        assert stall == pytest.approx(expected, rel=0.01)

    def test_higher_mlp_reduces_stalls(self):
        model = CPUCostModel()
        low = model.estimate(
            WorkProfile(instructions=1000, mlp=1.0), self.make_stats(random_misses=50)
        )
        high = model.estimate(
            WorkProfile(instructions=1000, mlp=4.0), self.make_stats(random_misses=50)
        )
        assert high.cycles < low.cycles

    def test_mlp_clamped_to_mshr_limit(self):
        model = CPUCostModel()
        result = model.estimate(
            WorkProfile(instructions=10, mlp=1000.0), self.make_stats(random_misses=10)
        )
        assert result.effective_mlp == model.host.max_outstanding_misses

    def test_sequential_misses_bandwidth_bound(self):
        model = CPUCostModel()
        seq = model.estimate(
            WorkProfile(instructions=10, mlp=1.0), self.make_stats(sequential=1000)
        )
        rnd = model.estimate(
            WorkProfile(instructions=10, mlp=1.0), self.make_stats(random_misses=1000)
        )
        assert seq.cycles < rnd.cycles  # prefetched streams are cheaper

    def test_bandwidth_utilization_bounded(self):
        model = CPUCostModel()
        result = model.estimate(
            WorkProfile(instructions=100, mlp=10.0),
            self.make_stats(sequential=10_000),
        )
        assert 0.0 < result.bandwidth_utilization <= 1.0


class TestSoftwarePlatform:
    @pytest.fixture
    def registry(self):
        return make_registry()

    def test_java_slower_than_kryo(self, registry):
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        root = build_tree(heap, depth=8)
        java_ser, java_de = round_trip_timings(platform, 
            make_serializer("java", registry), root, receiver
        )
        heap2 = Heap(registry=registry)
        receiver2 = Heap(registry=registry)
        root2 = build_tree(heap2, depth=8)
        kryo_ser, kryo_de = round_trip_timings(platform, 
            make_serializer("kryo", registry), root2, receiver2
        )
        assert java_ser.time_ns > kryo_ser.time_ns
        assert java_de.time_ns > kryo_de.time_ns

    def test_paper_ratio_shapes_hold(self, registry):
        """Figure 10 shape on a scaled tree: Kryo ~2-3x ser, tens-of-x deser."""
        host = HostCPUConfig().scaled_caches(100)
        platform = SoftwarePlatform(SystemConfig(host=host))
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        root = build_tree(heap, depth=10)
        j_ser, j_de = round_trip_timings(platform, 
            make_serializer("java", registry), root, receiver
        )
        heap2 = Heap(registry=registry)
        receiver2 = Heap(registry=registry)
        root2 = build_tree(heap2, depth=10)
        k_ser, k_de = round_trip_timings(platform, 
            make_serializer("kryo", registry), root2, receiver2
        )
        assert 1.5 < j_ser.time_ns / k_ser.time_ns < 4.0
        assert 20 < j_de.time_ns / k_de.time_ns < 100

    def test_ipc_is_low_for_serialization(self, registry):
        """Figure 3a: S/D code runs at IPC around 1 on the 4-wide host."""
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        root = build_tree(heap, depth=8)
        _, run = platform.run_serialize(make_serializer("java", registry), root)
        assert run.timing.ipc < 2.0

    def test_bandwidth_utilization_single_digit(self, registry):
        """Figure 3c: software serializers use a tiny bandwidth fraction."""
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        root = build_tree(heap, depth=8)
        _, run = platform.run_serialize(make_serializer("java", registry), root)
        assert run.timing.bandwidth_utilization < 0.10

    def test_trace_restored_after_run(self, registry):
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        root = build_tree(heap, depth=3)
        assert heap.memory.trace is None
        platform.run_serialize(make_serializer("java", registry), root)
        assert heap.memory.trace is None

    def test_functional_result_still_correct(self, registry):
        platform = SoftwarePlatform()
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        root = build_tree(heap, depth=4)
        serializer = make_serializer("kryo", registry)
        result, _ = platform.run_serialize(serializer, root)
        deser, _ = platform.run_deserialize(serializer, result.stream, receiver)
        from repro.formats import graphs_equivalent

        assert graphs_equivalent(root, deser.root)


def _accesses(trace):
    return [(a.kind, a.address, a.length) for a in trace]


class TestHarnessTraffic:
    """The harness's synthetic traffic, pinned against per-access loops."""

    @staticmethod
    def reference_stream(nbytes, kind):
        trace = MemoryTrace()
        for offset in range(0, nbytes, 64):
            length = min(64, nbytes - offset)
            if kind == "write":
                trace.record_write(harness._STREAM_BUFFER_BASE + offset, length)
            else:
                trace.record_read(harness._STREAM_BUFFER_BASE + offset, length)
        return trace

    @staticmethod
    def reference_aux(profile):
        trace = MemoryTrace()
        entries = max(profile.objects, 1)
        region_bytes = entries * profile.aux_bytes_per_entry
        state = 0x9E3779B97F4A7C15
        for _ in range(profile.aux_random_accesses):
            state = (state * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & (2**64 - 1)
            offset = (state >> 16) % max(region_bytes, 64)
            trace.record_read(harness._AUX_REGION_BASE + (offset & ~0x7), 8)
        return trace

    @pytest.mark.parametrize("kind", ["read", "write"])
    @pytest.mark.parametrize("nbytes", [0, 1, 63, 64, 65, 4113])
    def test_stream_accesses(self, nbytes, kind):
        trace = MemoryTrace()
        trace.record_read(0x40, 8)  # an earlier access: the call appends after it
        SoftwarePlatform()._stream_accesses(trace, nbytes, kind)
        expected = self.reference_stream(nbytes, kind)
        assert _accesses(trace)[1:] == _accesses(expected)
        assert trace.total_count == 1 + expected.total_count

    @pytest.mark.parametrize(
        "objects, count, entry_bytes",
        [(0, 5, 48), (1, 3, 8), (37, 200, 48), (500, 1000, 24), (10, 0, 48)],
    )
    def test_aux_accesses(self, objects, count, entry_bytes):
        profile = WorkProfile(objects=objects, aux_random_accesses=count,
                              aux_bytes_per_entry=entry_bytes)
        trace = MemoryTrace()
        SoftwarePlatform()._aux_accesses(trace, profile)
        assert _accesses(trace) == _accesses(self.reference_aux(profile))
        assert trace.total_count == count

    def test_aux_draws_grow_on_demand(self, monkeypatch):
        """From a cold draw cache: each call that asks for more draws than
        are cached grows it, and every call still matches the per-call LCG."""
        monkeypatch.setattr(harness, "_AUX_DRAWS", array("q"))
        monkeypatch.setattr(harness, "_aux_lcg_state", harness._AUX_LCG_SEED)
        platform = SoftwarePlatform()
        cached = []
        for objects, count in [(3, 10), (40, 7), (40, 300), (1, 1), (900, 5000),
                               (900, 4999), (2, 5001)]:
            profile = WorkProfile(objects=objects, aux_random_accesses=count)
            trace = MemoryTrace()
            platform._aux_accesses(trace, profile)
            assert _accesses(trace) == _accesses(self.reference_aux(profile))
            cached.append(len(harness._AUX_DRAWS))
        assert cached == [10, 10, 300, 300, 5000, 5000, 5001]
