"""Software S/D timing harness.

Runs a serializer *functionally* on the simulated heap while capturing the
real heap memory trace, appends the stream I/O as sequential buffer
accesses, replays that through the cache hierarchy, adds the cache stats of
the synthesized runtime-data-structure reads, and feeds the result plus the
serializer's work profile into the core cost model. The output mirrors what
the paper measures with Linux perf (Figure 3): time, IPC, LLC miss rate, and
DRAM bandwidth utilization.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import SystemConfig
from repro.cpu.cache import CacheHierarchy, CacheStats
from repro.cpu.core import CPUCostModel, CPUTimingResult
from repro.formats.base import (
    DeserializationResult,
    SerializationResult,
    SerializedStream,
    Serializer,
)
from repro.jvm.heap import Heap, HeapObject
from repro.memory.trace import MemoryTrace
from repro.obs.metrics import get_registry

# The serialized stream lives in a malloc'd buffer far from the heap.
_STREAM_BUFFER_BASE = 0x7000_0000_0000
# Runtime-internal structures (handle tables, reflection caches) live in
# yet another region, more than two lines from any heap or stream line:
# ``SoftwarePlatform._cache_stats`` relies on that.
_AUX_REGION_BASE = 0x7100_0000_0000

# Cache stats of the aux reads replayed alone, keyed by (count, region bytes,
# host). Bounded like the plan cache: entries are regenerable, the cap only
# guards against unboundedly many distinct keys. Recorded in the
# process-wide metrics registry as ``aux_cache.*``.
_AUX_STATS_MAX_ENTRIES = 1 << 12
_AUX_STATS: Dict[Tuple, CacheStats] = {}
_AUX_HITS = get_registry().counter("aux_cache.hits")
_AUX_MISSES = get_registry().counter("aux_cache.misses")
_AUX_EVICTIONS = get_registry().counter("aux_cache.evictions")
_AUX_ENTRIES = get_registry().gauge("aux_cache.entries")

# The aux-access LCG restarts from the same seed on every call, so its
# ``state >> 16`` draws are one fixed sequence: generated once, packed, and
# grown on demand.
_AUX_LCG_SEED = 0x9E3779B97F4A7C15
_AUX_DRAWS = array("q")
_aux_lcg_state = _AUX_LCG_SEED


def _aux_draws(count: int) -> array:
    """At least the first ``count`` draws of the aux-access LCG."""
    global _aux_lcg_state
    missing = count - len(_AUX_DRAWS)
    if missing > 0:
        state = _aux_lcg_state
        append = _AUX_DRAWS.append
        for _ in range(missing):
            state = (state * 0x5851F42D4C957F2D + 0x14057B7EF767814F) & (2**64 - 1)
            append(state >> 16)
        _aux_lcg_state = state
    return _AUX_DRAWS


def _aux_region_bytes(profile) -> int:
    """Size of the runtime-data-structure region a call's aux reads cover."""
    return max(max(profile.objects, 1) * profile.aux_bytes_per_entry, 64)


# Per-serializer MLP (see WorkProfile.mlp): pointer chasers expose ~1 miss,
# bulk copiers stream. Values chosen to land the paper's measured bandwidth
# utilizations (Java 2.7-3.5%, Kryo 4.1-4.5%).
SERIALIZER_MLP = {
    ("java-builtin", "serialize"): 1.25,
    ("java-builtin", "deserialize"): 1.4,
    ("kryo", "serialize"): 1.6,
    ("kryo", "deserialize"): 2.4,
    ("skyway", "serialize"): 4.0,
    ("skyway", "deserialize"): 2.0,
}
_DEFAULT_MLP = 1.5


@dataclass
class SoftwareRunResult:
    """A functional result paired with its modelled CPU timing."""

    timing: CPUTimingResult
    stream: Optional[SerializedStream] = None
    root: Optional[HeapObject] = None


class SoftwarePlatform:
    """Host platform that runs and times software serializers."""

    def __init__(self, system: Optional[SystemConfig] = None):
        self.system = system or SystemConfig()
        self.cost_model = CPUCostModel(self.system.host, self.system.dram)

    # -- internals ------------------------------------------------------------------

    def _with_trace(self, heap: Heap):
        trace = MemoryTrace()
        previous = heap.memory.trace
        heap.memory.trace = trace
        return trace, previous

    def _stream_accesses(self, trace: MemoryTrace, nbytes: int, kind: str) -> None:
        """Append the stream buffer traffic as sequential 64 B accesses."""
        write = kind == "write"
        whole = nbytes - nbytes % 64
        trace.record_many(range(_STREAM_BUFFER_BASE, _STREAM_BUFFER_BASE + whole, 64),
                          64, write)
        if whole < nbytes:
            record = trace.record_write if write else trace.record_read
            record(_STREAM_BUFFER_BASE + whole, nbytes - whole)

    def _aux_accesses(self, trace: MemoryTrace, profile) -> None:
        """Synthesize runtime-data-structure traffic (see WorkProfile).

        The handle table / reference resolver grows with the object count;
        accesses into it are hash-distributed, i.e. random over the region.
        """
        count = profile.aux_random_accesses
        if count <= 0:
            return
        region_bytes = _aux_region_bytes(profile)
        trace.record_many(
            [_AUX_REGION_BASE + (draw % region_bytes & ~0x7)
             for draw in _aux_draws(count)[:count]],
            8,
        )

    def _aux_stats(self, profile) -> Optional[CacheStats]:
        """Stats of the call's aux reads replayed alone on a fresh hierarchy.

        They depend only on the count, the region size and the host, so
        each distinct key is replayed once per process.
        """
        count = profile.aux_random_accesses
        if count <= 0:
            return None
        host = self.system.host
        key = (count, _aux_region_bytes(profile), host)
        stats = _AUX_STATS.get(key)
        if stats is not None:
            _AUX_HITS.inc()
            return stats
        _AUX_MISSES.inc()
        trace = MemoryTrace()
        self._aux_accesses(trace, profile)
        stats = CacheHierarchy(host).replay(trace)
        if len(_AUX_STATS) >= _AUX_STATS_MAX_ENTRIES:
            _AUX_STATS.clear()
            _AUX_EVICTIONS.inc()
        _AUX_STATS[key] = stats
        _AUX_ENTRIES.set(len(_AUX_STATS))
        return stats

    def _cache_stats(self, profile, trace: MemoryTrace) -> CacheStats:
        """Stats of ``trace`` followed by the call's aux reads.

        Exactly what one replay of both would give. The aux reads come last
        and sit in their own region, more than two lines from any heap or
        stream line. Per-level LRU lets a later line in a set evict only
        older ones, so each aux read hits or misses by the earlier aux reads
        alone. The prefetch classifier's ``line - 1``/``line - 2`` test never
        matches across regions, and its FIFO drops an aux line after exactly
        ``window`` further inserts whatever it held before.
        """
        aux = self._aux_stats(profile)  # before the main hierarchy: lower peak
        stats = CacheHierarchy(self.system.host).replay(trace)
        if aux is not None:
            stats.add(aux)
        return stats

    def _finish(self, serializer_name: str, op: str, profile, trace: MemoryTrace):
        profile.mlp = SERIALIZER_MLP.get((serializer_name, op), _DEFAULT_MLP)
        return self.cost_model.estimate(profile, self._cache_stats(profile, trace))

    # -- public API -----------------------------------------------------------------------

    def run_serialize(
        self, serializer: Serializer, root: HeapObject
    ) -> Tuple[SerializationResult, SoftwareRunResult]:
        return self._run_serialize(serializer, root, serializer.serialize)

    def run_serialize_chunked(
        self,
        serializer: Serializer,
        root: HeapObject,
        chunk_bytes: int,
    ):
        """Chunked-encode ``root`` under the same instrumentation as
        :meth:`run_serialize`: the cursor drain happens inside the heap
        trace, the assembled stream gets the same sequential buffer
        accesses, and the summary's work profile feeds the same cost
        model — so the modelled time is identical to the single-shot
        encode (chunking changes *when* bytes leave, not what they cost).

        Returns ``(result, run, chunks)`` where ``chunks`` are the
        payload slices in emission order.
        """
        chunks = []

        def encode(root: HeapObject) -> SerializationResult:
            cursor = serializer.serialize_chunks(root, chunk_bytes)
            while (chunk := cursor.next_chunk()) is not None:
                chunks.append(chunk)
            summary = cursor.summary
            stream = SerializedStream(
                format_name=summary.format_name,
                data=b"".join(chunks),
                sections=dict(summary.sections),
                object_count=summary.object_count,
                graph_bytes=summary.graph_bytes,
            )
            return SerializationResult(stream=stream, profile=summary.profile)

        result, run = self._run_serialize(serializer, root, encode)
        return result, run, chunks

    def _run_serialize(self, serializer: Serializer, root: HeapObject, encode):
        """Run ``encode(root)`` inside the heap trace and time it."""
        heap = root.heap
        trace, previous = self._with_trace(heap)
        try:
            result = encode(root)
        finally:
            heap.memory.trace = previous
        self._stream_accesses(trace, result.stream.size_bytes, "write")
        timing = self._finish(serializer.name, "serialize", result.profile, trace)
        return result, SoftwareRunResult(timing=timing, stream=result.stream)

    def run_deserialize(
        self, serializer: Serializer, stream: SerializedStream, heap: Heap
    ) -> Tuple[DeserializationResult, SoftwareRunResult]:
        trace, previous = self._with_trace(heap)
        try:
            result = serializer.deserialize(stream, heap)
        finally:
            heap.memory.trace = previous
        self._stream_accesses(trace, stream.size_bytes, "read")
        timing = self._finish(serializer.name, "deserialize", result.profile, trace)
        return result, SoftwareRunResult(timing=timing, root=result.root)
