"""Chunked, resumable serialization: the shared front doors.

Every plan-path format has one encoder, a generator walk kept in that
format's own module (``_encode_walk``). ``serialize()`` drains it into a
flat buffer; :func:`encode_cursor` runs the *same* walk over a
:class:`~repro.formats.plans.ChunkingBuffer` that carves the stream into
fixed-size arenas from a :class:`~repro.common.bufpool.ChunkArenaPool`,
and an :class:`~repro.formats.plans.EncodeCursor` resumes it one sealed
chunk at a time, so the encoder never runs ahead of its consumer by more
than the pool population: backpressure reaches the plan executor itself.

Resumability is structural, not re-entrant: suspending at a chunk
boundary costs one generator yield, and resuming continues from the
exact frame/index/offset where the walk stopped; the object graph is
never re-walked. Chunking changes *when* bytes become available, not
which bytes or how much modelled work produces them: chunk
concatenation, section split and work profile equal the single-shot
encode's, and ``tests/test_streaming.py`` checks them against the
interpreter oracle for chunk sizes from 1 byte to larger than the
payload.

The receiver side is :class:`ChunkAssembler`: CRC-framed chunks are
verified in sequence with :class:`~repro.formats.limits.DecodeLimits`
budgets enforced incrementally, so a hostile or clipped stream is
rejected at the offending chunk, before later chunks are even read.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import (
    CorruptionError,
    FormatError,
    TruncatedStreamError,
)
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.plans import ChunkingBuffer, EncodeCursor
from repro.formats.streams import frame_chunk, unframe_chunk
from repro.jvm.heap import HeapObject


def encode_cursor(
    serializer,
    root: HeapObject,
    chunk_bytes: int,
    pool=None,
    block: bool = False,
) -> EncodeCursor:
    """A resumable chunked encode of ``root`` under ``serializer``.

    ``pool`` defaults to the process-wide
    :data:`~repro.common.bufpool.GLOBAL_CHUNK_POOL`; ``block=True``
    makes arena exhaustion wait (threaded producer/consumer pipelines)
    instead of drawing counted overflow arenas.
    """
    walk = getattr(serializer, "_encode_walk", None)
    if walk is None:
        raise FormatError(f"no chunked walk for serializer {serializer.name!r}")
    buffer = ChunkingBuffer(chunk_bytes, pool=pool, block=block)
    return EncodeCursor(walk(root, buffer), buffer)


def collect_chunks(
    serializer,
    root: HeapObject,
    chunk_bytes: int,
    pool=None,
    framed: bool = False,
):
    """Drain a full chunked encode; returns ``(chunks, summary)``.

    Each chunk is copied out of its arena (which returns to the pool
    immediately), so this is the reference single-threaded pull loop:
    the pool's high-water mark stays at one chunk regardless of payload
    size. With ``framed=True`` every chunk is wrapped in the CRC chunk
    frame, the final one carrying the LAST flag.
    """
    cursor = encode_cursor(serializer, root, chunk_bytes, pool=pool)
    chunks: List[bytes] = []
    while True:
        arena = cursor.next_chunk()
        if arena is None:
            break
        chunks.append(bytes(arena))
        cursor.recycle(arena)
    if framed:
        last = len(chunks) - 1
        chunks = [
            frame_chunk(seq, chunk, last=(seq == last))
            for seq, chunk in enumerate(chunks)
        ]
    return chunks, cursor.summary


class ChunkAssembler:
    """Receiver-side reassembly of CRC-framed chunks with incremental
    :class:`DecodeLimits` enforcement.

    ``push`` verifies each frame (magic, header CRC, payload CRC, strict
    sequence order) and charges the running payload size against
    ``max_stream_bytes`` *as chunks arrive* — an over-budget or corrupt
    stream is rejected at the offending chunk, before later chunks are
    read. ``payload()`` returns the assembled bytes only once the
    LAST-flagged chunk has landed; a clipped tail raises
    :class:`TruncatedStreamError` whose offset is the point where the
    stream went dark.
    """

    def __init__(self, limits: Optional[DecodeLimits] = None):
        self._limits = resolve_limits(limits)
        self._payload = bytearray()
        self._next_seq = 0
        self.finished = False
        self.chunks_received = 0

    @property
    def assembled_bytes(self) -> int:
        return len(self._payload)

    def push(self, framed_chunk) -> None:
        if self.finished:
            raise CorruptionError(
                f"chunk {self._next_seq} arrived after the LAST-flagged chunk"
            )
        seq, payload, last = unframe_chunk(framed_chunk)
        if seq != self._next_seq:
            raise CorruptionError(
                f"chunk sequence gap: expected {self._next_seq}, got {seq}"
            )
        self._limits.check_stream_bytes(len(self._payload) + len(payload))
        self._payload += payload
        self._next_seq += 1
        self.chunks_received += 1
        if last:
            self.finished = True

    def payload(self) -> bytearray:
        """The reassembled stream payload (zero-copy: the internal
        buffer, safe to hand to decoders directly)."""
        if not self.finished:
            raise TruncatedStreamError(
                offset=len(self._payload), needed=1, available=0
            )
        return self._payload
