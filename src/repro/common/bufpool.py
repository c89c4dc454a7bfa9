"""Chunk arenas: the memory budget of a streaming serialize.

A :class:`ChunkArenaPool` is a fixed population of chunk-sized
``bytearray`` arenas that a streaming encoder
(:meth:`~repro.formats.base.Serializer.serialize_chunks`) fills one at a
time and a consumer hands back. Its point is the bound, not recycling:
a producer can never hold more than ``arena_count`` chunks in flight, so
blocking acquires are the backpressure between an encoder and its
transfer/egress path.

The counters live in a :class:`repro.obs.metrics.MetricsRegistry` — the
process-wide one for :data:`GLOBAL_CHUNK_POOL` (metric names
``chunkpool.*``), a private registry per standalone pool so test
instances never bleed into each other.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

from repro.common.errors import TransientError
from repro.obs.metrics import MetricsRegistry, get_registry


class ChunkArenaPool:
    """A fixed population of fixed-capacity chunk arenas with backpressure.

    The pool *is* the memory budget of a streaming pipeline:
    ``arena_count`` arenas of ``arena_bytes`` capacity are all the chunk
    storage a producer may hold in flight. ``acquire`` in
    blocking mode waits until a consumer releases an arena, which is the
    backpressure mechanism end to end: an encoder cannot race ahead of
    the transfer/egress path by more than the pool population.

    Two acquisition modes:

    * ``block=True`` — wait on the pool's condition variable (used when a
      producer thread feeds a consumer thread through a
      :class:`~repro.formats.streams.BoundedChunkQueue`); the wait is
      counted in ``blocked_acquires`` and ``blocked_wait_ns``.
    * ``block=False`` (default) — single-threaded pull pipelines, where
      the consumer drives the cursor and recycles each chunk before
      asking for the next: exhaustion here means the caller overshot the
      budget inside one uninterruptible step, so the pool hands out an
      *overflow* arena (counted in ``overflow_allocations``) rather than
      deadlocking the only thread. Overflow arenas are absorbed into the
      population on release, keeping the free list bounded.

    ``high_water_mark_bytes`` records the largest arena fill seen at
    release — for a chunked encode this sits at the chunk size, which is
    exactly the number the streaming benchmarks gate against the largest
    whole-stream payload.
    """

    def __init__(
        self,
        arena_count: int = 4,
        arena_bytes: int = 64 * 1024,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "chunkpool",
    ):
        if arena_count <= 0:
            raise ValueError(f"arena_count must be positive, got {arena_count}")
        if arena_bytes <= 0:
            raise ValueError(f"arena_bytes must be positive, got {arena_bytes}")
        self.arena_count = arena_count
        self.arena_bytes = arena_bytes
        self._free: List[bytearray] = [bytearray() for _ in range(arena_count)]
        self._in_flight = 0
        self._cond = threading.Condition()
        metrics = registry if registry is not None else MetricsRegistry()
        self._acquires = metrics.counter(f"{prefix}.acquires")
        self._releases = metrics.counter(f"{prefix}.releases")
        self._blocked = metrics.counter(f"{prefix}.blocked_acquires")
        self._blocked_wait = metrics.counter(f"{prefix}.blocked_wait_ns")
        self._overflow = metrics.counter(f"{prefix}.overflow_allocations")
        self._high_water = metrics.gauge(f"{prefix}.high_water_mark_bytes")
        self._in_flight_peak = metrics.gauge(f"{prefix}.in_flight_peak")

    @property
    def acquires(self) -> int:
        return self._acquires.value

    @property
    def releases(self) -> int:
        return self._releases.value

    @property
    def blocked_acquires(self) -> int:
        """Acquires that found every arena in flight."""
        return self._blocked.value

    @property
    def blocked_wait_ns(self) -> int:
        """Total wall time blocked acquirers spent waiting."""
        return self._blocked_wait.value

    @property
    def overflow_allocations(self) -> int:
        return self._overflow.value

    @property
    def high_water_mark(self) -> int:
        """Largest arena fill seen at release."""
        return int(self._high_water.value)

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def acquire(
        self, block: bool = False, timeout_s: Optional[float] = None
    ) -> bytearray:
        """A cleared chunk arena; see the class docstring for modes."""
        with self._cond:
            self._acquires.inc()
            if not self._free:
                self._blocked.inc()
                if block:
                    start = time.monotonic_ns()
                    if not self._cond.wait_for(
                        lambda: bool(self._free), timeout=timeout_s
                    ):
                        self._blocked_wait.inc(time.monotonic_ns() - start)
                        raise TransientError(
                            f"chunk arena acquire timed out after {timeout_s}s "
                            f"({self.arena_count} arenas all in flight)"
                        )
                    self._blocked_wait.inc(time.monotonic_ns() - start)
                else:
                    # Single-threaded pipeline overshot one step's budget:
                    # keep it live with an overflow arena rather than
                    # deadlocking the only thread.
                    self._overflow.inc()
                    self._in_flight += 1
                    self._in_flight_peak.set_max(self._in_flight)
                    return bytearray()
            arena = self._free.pop()
            del arena[:]  # clear contents; CPython also frees the storage
            self._in_flight += 1
            self._in_flight_peak.set_max(self._in_flight)
            return arena

    def release(self, arena: bytearray) -> None:
        """Return an arena; wakes one blocked acquirer."""
        with self._cond:
            self._releases.inc()
            self._high_water.set_max(len(arena))
            self._in_flight = max(0, self._in_flight - 1)
            if len(self._free) < self.arena_count:
                self._free.append(arena)
                self._cond.notify()

    def stats(self) -> Dict[str, object]:
        """Machine-readable snapshot for benchmarks and SLO reports."""
        return {
            "arena_count": self.arena_count,
            "arena_bytes": self.arena_bytes,
            "acquires": self.acquires,
            "releases": self.releases,
            "blocked_acquires": self.blocked_acquires,
            "blocked_wait_ns": self._blocked_wait.value,
            "overflow_allocations": self.overflow_allocations,
            "high_water_mark_bytes": self.high_water_mark,
            "in_flight": self._in_flight,
            "in_flight_peak": int(self._in_flight_peak.value),
        }

    def reset(self) -> None:
        """Restore the full free population and zero the counters (tests)."""
        with self._cond:
            self._free = [bytearray() for _ in range(self.arena_count)]
            self._in_flight = 0
            self._acquires.reset()
            self._releases.reset()
            self._blocked.reset()
            self._blocked_wait.reset()
            self._overflow.reset()
            self._high_water.reset()
            self._in_flight_peak.reset()
            self._cond.notify_all()

    def __len__(self) -> int:
        return len(self._free)


#: The process-wide chunk pool streaming encoders default to; counters
#: land in the process-wide metrics registry as ``chunkpool.*``.
GLOBAL_CHUNK_POOL = ChunkArenaPool(registry=get_registry())


def chunk_pool_stats() -> Dict[str, object]:
    return GLOBAL_CHUNK_POOL.stats()


def reset_chunk_pool() -> None:
    GLOBAL_CHUNK_POOL.reset()
