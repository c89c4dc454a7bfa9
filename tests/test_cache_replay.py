"""The fast cache replay against the per-line reference.

``CacheHierarchy.replay`` inlines the three lookups and the prefetch
classifier over a packed trace; ``access_line`` in ``tests/oracles.py`` is
the deliberately plain per-line path. Every counter of the two must agree on
generated traces (every level's sets overflowing, same-line runs,
multi-line spans, zero-length accesses) and on the real serializer traces
the harness replays.

The harness replays only a call's heap and stream accesses and adds the
memoized stats of its aux reads replayed alone; that split must equal the
per-line oracle over heap, stream and aux in order.
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
from repro.formats.base import WorkProfile
from repro.jvm import Heap
from repro.jvm.heap import HEAP_BASE
from repro.memory.trace import AccessKind, MemoryTrace
from repro.workloads import MICROBENCH_CONFIGS, build_list_bench
from repro.workloads.micro import register_micro_klasses
from tests.oracles import access_line, cache_lines

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
            for line in cache_lines(access, hierarchy.line_bytes):
                access_line(hierarchy, line, is_write)
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


def with_aux(trace, profile):
    """``trace`` followed by the aux reads the harness synthesizes."""
    full = MemoryTrace()
    full.addresses.extend(trace.addresses)
    full.lengths.extend(trace.lengths)
    SoftwarePlatform()._aux_accesses(full, profile)
    return full


def split_stats(host, profile, trace):
    """The harness's stats: heap/stream replay plus the memoized aux stats."""
    return asdict(SoftwarePlatform(SystemConfig(host=host))._cache_stats(profile, trace))


def stream_trace(accesses, nbytes, kind):
    """Heap ``accesses`` followed by the harness's stream-buffer traffic."""
    trace = make_trace(accesses)
    SoftwarePlatform()._stream_accesses(trace, nbytes, kind)
    return trace


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_split_replay_matches_oracle(host_name):
    host = HOSTS[host_name]

    @settings(max_examples=100, deadline=None)
    @given(access_runs(host), st.integers(0, 700), st.sampled_from(["read", "write"]),
           st.integers(0, 80), st.integers(0, 400), st.sampled_from([8, 24, 48, 64, 200]))
    def check(accesses, nbytes, kind, objects, count, entry_bytes):
        profile = WorkProfile(objects=objects, aux_random_accesses=count,
                              aux_bytes_per_entry=entry_bytes)
        trace = stream_trace(accesses, nbytes, kind)
        expected = oracle_stats(host, [with_aux(trace, profile)])
        # The second call takes the aux stats from the memo.
        assert split_stats(host, profile, trace) == expected
        assert split_stats(host, profile, trace) == expected

    check()


def test_aux_stats_are_memoized():
    misses = harness._AUX_MISSES.value
    hits = harness._AUX_HITS.value
    host = HOSTS["tiny"]
    platform = SoftwarePlatform(SystemConfig(host=host))
    first = platform._aux_stats(WorkProfile(objects=123_457, aux_random_accesses=77))
    again = platform._aux_stats(WorkProfile(objects=123_457, aux_random_accesses=77))
    assert again is first
    assert harness._AUX_MISSES.value - misses <= 1
    assert harness._AUX_HITS.value - hits >= 1
    assert platform._aux_stats(WorkProfile(objects=5)) is None


def test_aux_memo_clears_when_full(monkeypatch):
    monkeypatch.setattr(harness, "_AUX_STATS", {})
    monkeypatch.setattr(harness, "_AUX_STATS_MAX_ENTRIES", 2)
    evictions = harness._AUX_EVICTIONS.value
    platform = SoftwarePlatform()
    for count in (1, 2, 3):
        platform._aux_stats(WorkProfile(objects=10, aux_random_accesses=count))
    assert len(harness._AUX_STATS) == 1
    assert harness._AUX_EVICTIONS.value == evictions + 1


def _serializers(registration):
    return (JavaSerializer(), KryoSerializer(registration), SkywaySerializer(registration))


@pytest.mark.parametrize("host_name", sorted(HOSTS))
def test_real_serializer_traces_match_oracle(host_name, monkeypatch):
    """java-builtin, kryo and skyway S/D of list-small through the harness:
    every call's split stats equal the oracle over heap, stream and aux."""
    host = HOSTS[host_name]
    checked = []
    cache_stats = SoftwarePlatform._cache_stats

    def checked_cache_stats(self, profile, trace):
        stats = cache_stats(self, profile, trace)
        assert asdict(stats) == oracle_stats(self.system.host, [with_aux(trace, profile)])
        checked.append((stats.accesses, profile.aux_random_accesses))
        return stats

    monkeypatch.setattr(SoftwarePlatform, "_cache_stats", checked_cache_stats)
    heap, root, registration = _list_small()
    platform = SoftwarePlatform(SystemConfig(host=host))
    for serializer in _serializers(registration):
        result, _ = platform.run_serialize(serializer, root)
        platform.run_deserialize(serializer, result.stream, Heap(registry=heap.registry))
    assert len(checked) == 6
    assert all(accesses for accesses, _ in checked)
    assert any(aux for _, aux in checked)


def test_address_regions_stay_apart(monkeypatch):
    """The split replay's precondition: heap, stream buffer and aux region
    never share a line or sit within two lines of each other."""
    line = 64
    # Bases: a terabyte or more apart, far beyond any heap, stream or aux
    # region the simulator builds.
    assert HEAP_BASE < harness._STREAM_BUFFER_BASE < harness._AUX_REGION_BASE
    assert harness._STREAM_BUFFER_BASE - HEAP_BASE >= 1 << 40
    assert harness._AUX_REGION_BASE - harness._STREAM_BUFFER_BASE >= 1 << 40
    assert Heap().memory.size_bytes + 2 * line < harness._STREAM_BUFFER_BASE

    # Every line of every real call, by region.
    traces = []
    cache_stats = SoftwarePlatform._cache_stats

    def keep(self, profile, trace):
        traces.append(with_aux(trace, profile))
        return cache_stats(self, profile, trace)

    monkeypatch.setattr(SoftwarePlatform, "_cache_stats", keep)
    heap, root, registration = _list_small()
    platform = SoftwarePlatform()
    for serializer in _serializers(registration):
        result, _ = platform.run_serialize(serializer, root)
        platform.run_deserialize(serializer, result.stream, Heap(registry=heap.registry))
    bases = (HEAP_BASE, harness._STREAM_BUFFER_BASE, harness._AUX_REGION_BASE)
    regions_seen = set()
    for trace in traces:
        spans = {}
        for access in trace:
            lines = cache_lines(access, line)
            region = max(i for i, base in enumerate(bases) if access.address >= base)
            low, high = spans.get(region, (lines.start, lines.stop - 1))
            spans[region] = (min(low, lines.start), max(high, lines.stop - 1))
        regions_seen.update(spans)
        ordered = [spans[region] for region in sorted(spans)]
        for (_, lower_end), (upper_start, _) in zip(ordered, ordered[1:]):
            assert upper_start - lower_end > 2
    assert regions_seen == {0, 1, 2}
