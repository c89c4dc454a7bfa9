"""Resilient block transfers for shuffle / broadcast / collect.

Spark's block-transfer service re-fetches a block when the fetch fails or
the bytes arrive damaged. :class:`ResilientTransfer` models exactly that:
each delivery runs the fault injector once per attempt, verifies the
checksummed frame (when framing is enabled), and on a detected failure
re-fetches with exponential backoff plus deterministic jitter, charging the
whole recovery cost to the :attr:`TimeBreakdown.retry_ns` bucket.

The happy path is strictly zero-cost: with no injector and framing
disabled, :meth:`ResilientTransfer.deliver` returns its argument untouched,
so fault-free runs reproduce the seed model's times bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.common.config import DISK_BANDWIDTH
from repro.common.errors import ConfigError, CorruptionError, TransientError
from repro.faults.injector import (
    FAULT_CORRUPT,
    FAULT_DROP,
    FAULT_LATENCY,
    LATENCY_SPIKE_NS,
    FaultInjector,
)
from repro.formats.base import SerializedStream
from repro.obs.trace import get_tracer
from repro.spark.metrics import TimeBreakdown

#: Re-fetch rate for the ``spill`` site: a spilled cache block is re-read
#: from local disk, not across the network.
_SPILL_REFETCH_NS_PER_BYTE = 1e9 / DISK_BANDWIDTH


class RetryPolicy:
    """Bounded retries with exponential backoff and jitter."""

    base_backoff_ns = 200_000.0  # 0.2 ms first wait
    multiplier = 2.0
    max_backoff_ns = 50_000_000.0  # 50 ms ceiling
    max_retries = 8
    jitter = 0.2  # +/- 20% around the nominal backoff

    def backoff_ns(self, attempt: int, jitter_draw: float) -> float:
        """Backoff before retry ``attempt`` (0-based), jittered."""
        nominal = min(
            self.base_backoff_ns * self.multiplier**attempt,
            self.max_backoff_ns,
        )
        return nominal * (1.0 + self.jitter * (2.0 * jitter_draw - 1.0))


@dataclass(frozen=True)
class ChunkingConfig:
    """How a bucket is cut up for pipelined (streamed) delivery.

    ``max_inflight_chunks`` is the arena budget: chunk ``k`` cannot start
    encoding until chunk ``k - max_inflight_chunks`` has cleared the wire
    and returned its arena — the transfer-side expression of the bounded
    pool's backpressure.
    """

    max_inflight_chunks = 4

    chunk_bytes: int = 64 * 1024

    def __post_init__(self):
        if self.chunk_bytes <= 0:
            raise ConfigError(
                f"chunk_bytes must be positive, got {self.chunk_bytes}"
            )


@dataclass
class ChunkTransferStats:
    """Timeline of one chunked delivery (model bookkeeping, not charged).

    ``first_byte_ns`` / ``pipelined_ns`` come from the overlap model:
    chunk ``k`` finishes encoding at ``encode_ns * cum_bytes_k / total``
    and crosses the wire as soon as the link and an arena are free. The
    ``whole_*`` twins are the same payload sent the legacy way — encode
    everything, then ship — so ``ttfb_speedup`` is the headline win.
    """

    site: str
    chunks: int = 0
    payload_bytes: int = 0
    framed_bytes: int = 0
    retries: int = 0
    retried_chunks: int = 0
    first_byte_ns: float = 0.0
    pipelined_ns: float = 0.0
    whole_first_byte_ns: float = 0.0
    whole_ns: float = 0.0
    #: Per chunk: (seq, encode-ready ns, wire-done ns), model-relative.
    chunk_timeline: List[Tuple[int, float, float]] = field(
        default_factory=list
    )

    @property
    def ttfb_speedup(self) -> float:
        if self.first_byte_ns <= 0:
            return 0.0
        return self.whole_first_byte_ns / self.first_byte_ns


class ResilientTransfer:
    """Delivers serialized buckets across the (simulated) network."""

    #: Executor-to-executor re-fetch rate (~1.25 GB/s network); only charged
    #: for retries — the first copy's wire cost lives inside the
    #: per-operation framework stream path.
    wire_ns_per_byte = 0.8

    def __init__(
        self,
        breakdown: TimeBreakdown,
        injector: Optional[FaultInjector] = None,
        frame_streams: bool = False,
    ):
        self.breakdown = breakdown
        self.injector = injector
        self.retry = RetryPolicy()
        self.frame_streams = frame_streams

    def _refetch_rate(self, site: str) -> float:
        """ns/B charged per re-fetch: local-disk re-read for spill blocks,
        the network wire rate everywhere else."""
        if site == "spill":
            return _SPILL_REFETCH_NS_PER_BYTE
        return self.wire_ns_per_byte

    # -- one attempt -------------------------------------------------------------------

    def _attempt(
        self, data: bytes, site: str
    ) -> Tuple[Optional[bytes], Optional[str]]:
        """One wire crossing of ``data`` (a whole stream or one framed
        chunk): (received bytes or None, fault kind)."""
        if self.injector is None:
            return data, None
        fault = self.injector.transfer_fault(site)
        if fault is None:
            return data, None
        self.injector.report.record_injected("transfer")
        if fault == FAULT_DROP:
            return None, fault
        if fault == FAULT_CORRUPT:
            return self.injector.corrupt_bytes(data, site), fault
        return data, fault  # latency spike: intact but late

    # -- delivery with bounded retries ------------------------------------------------

    def deliver(self, stream: SerializedStream, site: str) -> SerializedStream:
        """Move ``stream`` across the wire; returns a verified, bare stream.

        Raises :class:`TransientError` when ``max_retries`` consecutive
        attempts all fail — with per-attempt fault probability ``p`` that
        needs ``p^(max_retries+1)``, negligible at realistic rates.
        """
        if self.injector is None and not self.frame_streams:
            return stream  # happy path: zero cost, zero copies
        wire = stream.framed() if self.frame_streams else stream

        failures = 0
        while True:
            received, fault = self._attempt(wire.data, site)
            if fault == FAULT_CORRUPT:
                received = replace(
                    wire, data=received, sections=dict(wire.sections)
                )
            elif received is not None:
                received = wire
            if fault == FAULT_LATENCY:
                # Intact but late: absorb the spike, nothing to re-fetch.
                self.breakdown.retry_ns += LATENCY_SPIKE_NS
                self.injector.report.record_detected("transfer")
                self.injector.report.record_recovered("transfer")
            delivered = self._verify(received, site)
            if delivered is not None:
                if failures and self.injector is not None:
                    self.injector.report.record_recovered("transfer", failures)
                return delivered
            # Detected failure (drop, or corruption caught by the frame).
            if self.injector is not None:
                self.injector.report.record_detected("transfer")
            failures += 1
            if failures > self.retry.max_retries:
                raise TransientError(
                    f"{site} transfer failed {failures} consecutive times "
                    f"(last fault: {fault}); retries exhausted"
                )
            jitter_draw = (
                self.injector.jitter(site) if self.injector is not None else 0.5
            )
            self.breakdown.retry_ns += self.retry.backoff_ns(
                failures - 1, jitter_draw
            )
            self.breakdown.retry_ns += wire.size_bytes * self._refetch_rate(site)
            # Mark the re-fetch on the trace at the ledger time that now
            # includes the backoff + wire cost just charged.
            get_tracer().instant(
                "transfer.retry",
                ts_ns=self.breakdown.total_ns,
                category="retry",
                track="spark",
                site=site,
                attempt=failures,
                fault=fault,
            )

    def _verify(
        self, received: Optional[SerializedStream], site: str
    ) -> Optional[SerializedStream]:
        """Validate a received stream; None signals a detected failure."""
        if received is None:
            return None  # dropped: always detectable (the fetch timed out)
        if not self.frame_streams:
            # Legacy unframed contract: corruption flows through to the
            # decoder, which must fail safely (or yield a valid graph).
            return received
        try:
            return received.unframed()
        except CorruptionError:
            return None

    # -- chunked (pipelined) delivery --------------------------------------------------

    def deliver_chunked(
        self,
        stream: SerializedStream,
        site: str,
        chunks: Optional[List[bytes]] = None,
        encode_ns: float = 0.0,
        config: Optional[ChunkingConfig] = None,
    ) -> Tuple[SerializedStream, ChunkTransferStats]:
        """Ship ``stream`` as a sequence of CRC-framed chunks.

        ``chunks`` are the unframed payload slices (normally straight from
        a drained :class:`~repro.formats.plans.EncodeCursor`); when ``None``
        the stream's bytes are split at ``config.chunk_bytes`` — identical
        on the wire, since chunk concatenation is byte-identical to the
        single-shot encode. Every chunk is individually framed, injected,
        and CRC-verified on arrival, so a damaged chunk is re-fetched
        *alone*: the retry charge is one chunk's backoff + wire time, not
        the whole bucket's. Reassembly runs through
        :class:`~repro.formats.chunked.ChunkAssembler` (strict sequence
        order, incremental stream-byte budget).

        ``encode_ns`` is the bucket's modelled serialize time; it drives
        the overlap model in the returned :class:`ChunkTransferStats`.
        Like :meth:`deliver`, only recovery costs touch the ledger — the
        pipelined timeline is reported, not double-charged.
        """
        from repro.formats.chunked import ChunkAssembler
        from repro.formats.streams import CHUNK_HEADER_BYTES, frame_chunk

        config = config if config is not None else ChunkingConfig()
        if chunks is None:
            data = stream.data
            step = config.chunk_bytes
            chunks = [
                bytes(data[offset : offset + step])
                for offset in range(0, len(data), step)
            ] or [b""]

        stats = ChunkTransferStats(site=site, chunks=len(chunks))
        assembler = ChunkAssembler()
        tracer = get_tracer()
        base_ns = self.breakdown.total_ns
        total_payload = sum(len(chunk) for chunk in chunks) or 1
        wire_done: List[float] = []
        cum_bytes = 0
        last_seq = len(chunks) - 1

        for seq, payload in enumerate(chunks):
            cum_bytes += len(payload)
            framed = frame_chunk(seq, payload, last=(seq == last_seq))
            stats.payload_bytes += len(payload)
            stats.framed_bytes += len(framed)
            enc_ready = encode_ns * (cum_bytes / total_payload)
            # Arena backpressure: with N arenas, chunk k waits for chunk
            # k-N to leave the wire before its arena frees up.
            gate = (
                wire_done[seq - config.max_inflight_chunks]
                if seq >= config.max_inflight_chunks
                else 0.0
            )
            link_free = wire_done[-1] if wire_done else 0.0
            start_ns = max(enc_ready, link_free, gate)
            chunk_retry_ns = 0.0

            failures = 0
            while True:
                received, fault = self._attempt(framed, site)
                if fault == FAULT_LATENCY:
                    self.breakdown.retry_ns += LATENCY_SPIKE_NS
                    chunk_retry_ns += LATENCY_SPIKE_NS
                    self.injector.report.record_detected("transfer")
                    self.injector.report.record_recovered("transfer")
                verified = False
                if received is not None:
                    try:
                        assembler.push(received)
                        verified = True
                    except CorruptionError:
                        verified = False
                if verified:
                    if failures:
                        stats.retried_chunks += 1
                        if self.injector is not None:
                            self.injector.report.record_recovered(
                                "transfer", failures
                            )
                    break
                # Detected failure: drop, or chunk-CRC mismatch.
                if self.injector is not None:
                    self.injector.report.record_detected("transfer")
                failures += 1
                stats.retries += 1
                if failures > self.retry.max_retries:
                    raise TransientError(
                        f"{site} chunk {seq} failed {failures} consecutive "
                        f"times (last fault: {fault}); retries exhausted"
                    )
                jitter_draw = (
                    self.injector.jitter(site)
                    if self.injector is not None
                    else 0.5
                )
                cost = self.retry.backoff_ns(failures - 1, jitter_draw)
                cost += len(framed) * self._refetch_rate(site)
                self.breakdown.retry_ns += cost
                chunk_retry_ns += cost
                tracer.instant(
                    "transfer.retry",
                    ts_ns=self.breakdown.total_ns,
                    category="retry",
                    track="spark",
                    site=site,
                    attempt=failures,
                    fault=fault,
                    chunk=seq,
                )

            done_ns = (
                start_ns
                + len(framed) * self.wire_ns_per_byte
                + chunk_retry_ns
            )
            wire_done.append(done_ns)
            stats.chunk_timeline.append((seq, enc_ready, done_ns))
            tracer.record_span(
                "transfer.chunk",
                base_ns + start_ns,
                base_ns + done_ns,
                category="transfer",
                track="spark",
                site=site,
                chunk=seq,
                bytes=len(payload),
            )

        stats.first_byte_ns = wire_done[0]
        stats.pipelined_ns = wire_done[-1]
        first_wire = (
            (len(chunks[0]) + CHUNK_HEADER_BYTES) * self.wire_ns_per_byte
        )
        stats.whole_first_byte_ns = encode_ns + first_wire
        stats.whole_ns = encode_ns + stats.framed_bytes * self.wire_ns_per_byte

        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.counter("transfer.chunks", site=site).inc(stats.chunks)
        # The largest chunk a chunked delivery held: the footprint the
        # streaming benchmarks gate against the whole-stream buffer.
        registry.gauge("transfer.chunk_high_water_mark_bytes").set_max(
            max(len(chunk) for chunk in chunks)
        )
        if stats.retries:
            registry.counter("transfer.chunk_retries", site=site).inc(
                stats.retries
            )

        delivered = SerializedStream(
            format_name=stream.format_name,
            data=assembler.payload(),
            sections=dict(stream.sections),
            object_count=stream.object_count,
            graph_bytes=stream.graph_bytes,
        )
        return delivered, stats
