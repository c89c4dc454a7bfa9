"""Serializer interface, stream container, and work profiles.

A :class:`SerializedStream` carries the actual serialized bytes plus a
per-section byte breakdown (type metadata vs. values vs. references vs.
bitmaps) used by the size experiments (Table IV, Figures 12 and 16).

A :class:`WorkProfile` records the *work done* by a (de)serialization —
dynamic instruction estimate, object/field/reference counts, bytes moved —
which the CPU cost model converts into cycles, IPC, and bandwidth. The
functional serializers below are the single source of truth for both the
bytes and the work, so the size and performance experiments can never drift
apart.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import FormatError
from repro.formats.limits import DecodeLimits
from repro.jvm.heap import Heap, HeapObject


@dataclass
class SerializedStream:
    """Serialized bytes plus bookkeeping about how they break down."""

    format_name: str
    data: bytes
    sections: Dict[str, int] = field(default_factory=dict)
    object_count: int = 0
    graph_bytes: int = 0  # total size of the source object graph in memory

    @property
    def size_bytes(self) -> int:
        return len(self.data)

    def check_sections(self) -> None:
        """Invariant: section sizes must sum to the stream size."""
        total = sum(self.sections.values())
        if total != len(self.data):
            raise AssertionError(
                f"{self.format_name}: sections sum to {total}, "
                f"stream is {len(self.data)} bytes"
            )

    # -- checksummed framing (transfer-path integrity) --------------------------

    @property
    def is_framed(self) -> bool:
        """True when the data carries the checksummed frame header."""
        from repro.formats.streams import looks_framed

        return looks_framed(self.data)

    def framed(self) -> "SerializedStream":
        """Copy of this stream wrapped in the CRC32 frame (idempotent)."""
        from repro.formats.streams import (
            FRAME_HEADER_BYTES,
            FRAME_SECTION,
            frame_payload,
        )

        if self.is_framed:
            return self
        sections = dict(self.sections)
        sections[FRAME_SECTION] = FRAME_HEADER_BYTES
        return SerializedStream(
            format_name=self.format_name,
            data=frame_payload(self.data),
            sections=sections,
            object_count=self.object_count,
            graph_bytes=self.graph_bytes,
        )

    def unframed(self) -> "SerializedStream":
        """Verify the frame checksums and return the bare payload stream.

        Raises :class:`repro.common.errors.CorruptionError` when the frame
        is damaged, truncated, or missing — every ``deserialize`` of a
        framed stream goes through this check.
        """
        from repro.formats.streams import FRAME_SECTION, unframe_payload

        payload = unframe_payload(self.data)
        sections = {
            name: size
            for name, size in self.sections.items()
            if name != FRAME_SECTION
        }
        return SerializedStream(
            format_name=self.format_name,
            data=payload,
            sections=sections,
            object_count=self.object_count,
            graph_bytes=self.graph_bytes,
        )


@dataclass
class WorkProfile:
    """Operation counts for one serialize or deserialize call."""

    instructions: int = 0
    objects: int = 0
    value_fields: int = 0
    reference_fields: int = 0
    bytes_read: int = 0  # heap bytes read (ser) or stream bytes read (deser)
    bytes_written: int = 0  # stream bytes written (ser) or heap written (deser)
    dependent_loads: int = 0  # pointer-chasing loads that serialize MLP
    allocations: int = 0
    # Memory-level parallelism the algorithm exposes to the core: how many
    # independent misses the bounded instruction window can keep in flight.
    # Pointer-chasing serializers sit near 1; bulk-copy ones stream higher.
    mlp: float = 1.5
    # Accesses into runtime-internal data structures that the heap trace
    # cannot see: the handle/identity hash table, ObjectStreamClass and
    # reflection caches, Kryo's reference resolver. These are hash-
    # distributed (random) accesses over a region that grows with the
    # object count; the CPU harness synthesizes them and adds their cache
    # stats to the replayed trace's.
    aux_random_accesses: int = 0
    aux_bytes_per_entry: int = 48  # hash entry + boxed key + cache node

    def add_instructions(self, count: int) -> None:
        self.instructions += count

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written


@dataclass
class SerializationResult:
    stream: SerializedStream
    profile: WorkProfile


@dataclass
class DeserializationResult:
    root: HeapObject
    profile: WorkProfile


class Serializer(abc.ABC):
    """Common interface for all S/D implementations in the reproduction."""

    #: Human-readable library name used in reports and figures.
    name: str = "abstract"

    @abc.abstractmethod
    def serialize(self, root: HeapObject) -> SerializationResult:
        """Serialize the graph reachable from ``root`` into a byte stream."""

    @abc.abstractmethod
    def deserialize(
        self,
        stream: SerializedStream,
        heap: Heap,
        limits: Optional[DecodeLimits] = None,
    ) -> DeserializationResult:
        """Reconstruct the object graph from ``stream`` on ``heap``.

        ``limits`` bounds the resources the decode may consume; ``None``
        applies :data:`repro.formats.limits.DEFAULT_LIMITS`.
        """

    def serialize_chunks(self, root: HeapObject, chunk_bytes: int):
        """A resumable chunked encode of ``root``: returns an
        :class:`~repro.formats.plans.EncodeCursor` that yields the stream
        as exact ``chunk_bytes``-sized ``bytearray`` chunks the caller
        owns. It runs the same encode walk as
        :meth:`serialize`, so chunk concatenation is byte-identical to
        it; see :mod:`repro.formats.chunked`.
        """
        from repro.formats.plans import ChunkingBuffer, EncodeCursor

        walk = getattr(self, "_encode_walk", None)
        if walk is None:
            raise FormatError(f"no chunked walk for serializer {self.name!r}")
        buffer = ChunkingBuffer(chunk_bytes)
        return EncodeCursor(walk(root, buffer), buffer)

    def _drain_walk(self, root: HeapObject) -> SerializationResult:
        """Single-shot serialize through the format's encode walk.

        The walk writes into one flat buffer, where it never suspends
        (see :mod:`repro.formats.plans`, "chunked execution").
        """
        out = bytearray()
        try:
            next(self._encode_walk(root, out))  # type: ignore[attr-defined]
        except StopIteration as stop:
            summary = stop.value
            data = bytes(out)
        stream = SerializedStream(
            format_name=self.name,
            data=data,
            sections=summary.sections,
            object_count=summary.object_count,
            graph_bytes=summary.graph_bytes,
        )
        stream.check_sections()
        return SerializationResult(stream, summary.profile)
