"""Chunked, resumable serialization: reassembly and the reference drain.

Every plan-path format has one encoder, a generator walk kept in that
format's own module (``_encode_walk``). ``serialize()`` drains it into a
flat buffer; :meth:`~repro.formats.base.Serializer.serialize_chunks` runs
the *same* walk over a :class:`~repro.formats.plans.ChunkingBuffer` that
carves the stream into fixed-size ``bytearray`` chunks, and an
:class:`~repro.formats.plans.EncodeCursor` resumes it one sealed chunk
at a time. The walk only advances when the cursor is pulled, so the
encoder never runs ahead of its consumer: backpressure reaches the plan
executor itself.

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

from repro.common.errors import CorruptionError, TruncatedStreamError
from repro.formats.limits import DecodeLimits, resolve_limits
from repro.formats.streams import frame_chunk, unframe_chunk
from repro.jvm.heap import HeapObject


def collect_chunks(
    serializer,
    root: HeapObject,
    chunk_bytes: int,
    framed: bool = False,
):
    """Drain a full chunked encode; returns ``(chunks, summary)``.

    This is the reference single-threaded pull loop. With
    ``framed=True`` every chunk is wrapped in the CRC chunk frame, the
    final one carrying the LAST flag.
    """
    cursor = serializer.serialize_chunks(root, chunk_bytes)
    chunks: List[bytearray] = []
    while (chunk := cursor.next_chunk()) is not None:
        chunks.append(chunk)
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
