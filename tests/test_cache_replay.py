"""The fast cache replay against the per-line reference.

``CacheHierarchy.replay`` inlines the three lookups and the prefetch
classifier over a packed trace; ``CacheHierarchy.access_line`` is the
deliberately plain per-line path. Every counter of the two must agree on
generated traces (every level's sets overflowing, same-line runs,
multi-line spans, zero-length accesses) and on the real serializer traces
the harness replays.
"""

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cpu.harness as harness
from repro.common.config import CacheLevelConfig, HostCPUConfig, SystemConfig
from repro.cpu import CacheHierarchy, SoftwarePlatform
from repro.formats import ClassRegistration, JavaSerializer, KryoSerializer, SkywaySerializer
from repro.jvm import Heap
from repro.memory.trace import AccessKind, MemoryTrace
from repro.workloads import MICROBENCH_CONFIGS, build_list_bench
from repro.workloads.micro import register_micro_klasses

HOSTS = {
    "default": HostCPUConfig(),
    "scaled-64": HostCPUConfig().scaled_caches(64),
    # A few dozen lines overflow it: L3 hits and their LRU updates matter.
    "tiny": HostCPUConfig(
        l1=CacheLevelConfig("L1D", 2 * 64, associativity=2),
        l2=CacheLevelConfig("L2", 8 * 64, associativity=2),
        l3=CacheLevelConfig("L3", 24 * 64, associativity=3),
    ),
}


def oracle_stats(host, traces):
    """Stats of ``access_line`` over every line of every access, in order."""
    hierarchy = CacheHierarchy(host)
    for trace in traces:
        for access in trace:
            is_write = access.kind is AccessKind.WRITE
            for line in access.cache_lines(hierarchy.line_bytes):
                hierarchy.access_line(line, is_write)
    return asdict(hierarchy.stats)


def replay_stats(host, traces):
    """Stats of ``replay`` over ``traces``, one call each on one hierarchy."""
    hierarchy = CacheHierarchy(host)
    for trace in traces:
        hierarchy.replay(trace)
    return asdict(hierarchy.stats)


def make_trace(accesses):
    trace = MemoryTrace()
    for is_write, address, length in accesses:
        (trace.record_write if is_write else trace.record_read)(address, length)
    return trace


def conflict_stride(host):
    """Byte distance between lines that share a set at every level."""
    sets = math.lcm(host.l1.num_sets, host.l2.num_sets, host.l3.num_sets)
    return sets * host.l1.line_bytes


def access_runs(host):
    """Runs of accesses: near a hot region, or on lines that share a set.

    Forty lines per set is more than any level's ways, so conflict runs
    overflow every level; a run repeats one access (same-line hits).
    """
    stride = conflict_stride(host)
    address = st.one_of(
        st.integers(0, 4096),
        st.builds(lambda k, offset: k * stride + offset,
                  st.integers(0, 40), st.integers(0, 127)),
    )
    access = st.tuples(st.booleans(), address, st.integers(0, 200))
    run = st.tuples(access, st.integers(1, 4)).map(lambda pair: [pair[0]] * pair[1])
    return st.lists(run, max_size=60).map(lambda runs: [a for r in runs for a in r])


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_generated_traces_match_oracle(host_name):
    host = HOSTS[host_name]

    @settings(max_examples=150, deadline=None)
    @given(access_runs(host), st.integers(0, 60))
    def check(accesses, split):
        # Two replays on one hierarchy: state carries over between calls.
        traces = [make_trace(accesses[:split]), make_trace(accesses[split:])]
        assert replay_stats(host, traces) == oracle_stats(host, traces)

    check()


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_conflicting_lines_overflow_every_level(host_name):
    host = HOSTS[host_name]
    stride = conflict_stride(host)
    trace = make_trace([(False, k * stride, 8) for k in range(40)])
    stats = replay_stats(host, [trace, trace])
    assert stats == oracle_stats(host, [trace, trace])
    # 40 lines in one set of every level: the second pass misses everywhere.
    assert stats["dram_accesses"] == 80
    assert stats["l1_hits"] == stats["l2_hits"] == stats["l3_hits"] == 0


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_zero_length_rule(host_name):
    """An unaligned zero-length access counts one line, an aligned one none."""
    host = HOSTS[host_name]
    aligned = make_trace([(False, 64, 0), (True, 128, 0)])
    unaligned = make_trace([(False, 65, 0), (True, 130, 0)])
    for trace, lines in ((aligned, 0), (unaligned, 2)):
        stats = replay_stats(host, [trace])
        assert stats == oracle_stats(host, [trace])
        assert stats["accesses"] == lines
    # The zero-length write keeps its kind: its line is a write miss.
    assert replay_stats(host, [unaligned])["write_misses"] == 1


def _list_small():
    heap = Heap(registry=None)
    register_micro_klasses(heap.registry)
    root = build_list_bench(heap, MICROBENCH_CONFIGS["list-small"])
    registration = ClassRegistration()
    for klass in heap.registry:
        registration.register(klass)
    return heap, root, registration


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_real_serializer_traces_match_oracle(host_name, monkeypatch):
    """java-builtin, kryo and skyway S/D of list-small through the harness."""
    host = HOSTS[host_name]
    checked = []

    class CheckedHierarchy(CacheHierarchy):
        def replay(self, trace):
            stats = asdict(super().replay(trace))
            assert stats == oracle_stats(self.host, [trace])
            checked.append(stats["accesses"])
            return self.stats

    monkeypatch.setattr(harness, "CacheHierarchy", CheckedHierarchy)
    heap, root, registration = _list_small()
    platform = SoftwarePlatform(SystemConfig(host=host))
    for serializer in (JavaSerializer(), KryoSerializer(registration),
                       SkywaySerializer(registration)):
        result, _ = platform.run_serialize(serializer, root)
        platform.run_deserialize(serializer, result.stream, Heap(registry=heap.registry))
    assert len(checked) == 6 and all(checked)
