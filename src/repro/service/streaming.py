"""Chunked response egress for the serialization service.

Large responses leave the server the same way chunked shuffle buckets
cross the wire (:mod:`repro.spark.transfer`): the response is cut into
fixed-size chunks, each chunk goes onto its lane's egress link the moment
it is encoded *and* the link plus an arena are free, and the client's
time-to-first-byte collapses from "whole encode + whole send" to "one
chunk's worth of each". The arena budget (``max_inflight_chunks``) bounds
the per-response buffer the server holds: chunk ``k`` cannot be produced
until chunk ``k - max_inflight_chunks`` has drained, so the modelled
response-buffer high-water mark is ``max_inflight_chunks * chunk_bytes``
instead of the full response size.

The streamer only re-times egress; the execute-side work (shard
scheduling, batching, admission) is untouched, so goodput is preserved
while TTFB and buffer occupancy drop — the same equal-goodput contract
the chunked encode path keeps on the Spark side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigError
from repro.formats.streams import CHUNK_HEADER_BYTES
from repro.obs.metrics import get_registry
from repro.service.slo import RequestRecord

#: Response egress link (~2 GB/s NIC towards the client).
EGRESS_NS_PER_BYTE = 0.5


@dataclass(frozen=True)
class StreamingConfig:
    """Egress chunking knobs for one service deployment."""

    chunk_bytes: int = 16 * 1024
    #: Arena budget per response: bounds the chunks buffered between the
    #: encoder and the wire (the backpressure window).
    max_inflight_chunks: int = 4
    #: Responses smaller than this are sent whole (chunk framing would
    #: cost more than it saves).
    threshold_bytes: int = 32 * 1024

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ConfigError(
                f"chunk_bytes must be positive, got {self.chunk_bytes}"
            )
        if self.max_inflight_chunks < 1:
            raise ConfigError(
                f"max_inflight_chunks must be >= 1, "
                f"got {self.max_inflight_chunks}"
            )
        if self.threshold_bytes < 0:
            raise ConfigError("threshold_bytes must be non-negative")


class ResponseStreamer:
    """Per-server egress model: one link per lane, bounded arenas.

    ``stream_response`` re-times a completed record: chunk ``k`` of the
    response is encode-ready at ``dispatch + service * cum_bytes_k /
    total`` (the shard emits bytes as it works through the payload) and
    drains at ``EGRESS_NS_PER_BYTE``; ``record.first_byte_ns`` becomes
    the wire-done time of chunk 0 and ``record.finish_ns`` extends to the
    last chunk. Responses under the threshold keep their legacy timing
    but still count toward the whole-buffer high-water mark.
    """

    def __init__(self, config: StreamingConfig):
        self.config = config
        self._egress_free: Dict[str, float] = {}
        registry = get_registry()
        self._chunk_counter = registry.counter("service.response_chunks")
        self._streamed_counter = registry.counter("service.streamed_responses")
        self._buffer_hwm = registry.gauge("service.response_buffer_hwm_bytes")
        self.responses = 0
        self.streamed = 0
        self.chunks = 0
        self.streamed_bytes = 0
        self.ttfb_sum_ns = 0.0
        self.whole_ttfb_sum_ns = 0.0
        #: Same sums measured from dispatch (queueing excluded): the
        #: server-side view of how much streaming moves first bytes up.
        self.service_ttfb_sum_ns = 0.0
        self.whole_service_ttfb_sum_ns = 0.0
        #: Modelled buffer held per response: bounded window when
        #: streamed, the whole response when sent in one piece.
        self.buffer_hwm_bytes = 0
        self.whole_buffer_hwm_bytes = 0

    def stream_response(
        self, record: RequestRecord, response_bytes: int, lane: str
    ) -> None:
        """Re-time ``record``'s egress as a chunked send on ``lane``."""
        self.responses += 1
        self.whole_buffer_hwm_bytes = max(
            self.whole_buffer_hwm_bytes, response_bytes
        )
        cfg = self.config
        if response_bytes < cfg.threshold_bytes or not record.completed:
            self.buffer_hwm_bytes = max(self.buffer_hwm_bytes, response_bytes)
            self._buffer_hwm.set_max(response_bytes)
            return

        exec_start = record.dispatch_ns
        exec_span = max(0.0, record.finish_ns - exec_start)
        chunk_count = -(-response_bytes // cfg.chunk_bytes)
        link_free = self._egress_free.get(lane, 0.0)
        wire_done = []
        timeline = []
        for seq in range(chunk_count):
            cum = min((seq + 1) * cfg.chunk_bytes, response_bytes)
            size = cum - seq * cfg.chunk_bytes
            ready = exec_start + exec_span * (cum / response_bytes)
            # Arena backpressure: the encoder stalls until the chunk that
            # holds this arena has fully drained onto the link.
            gate = (
                wire_done[seq - cfg.max_inflight_chunks]
                if seq >= cfg.max_inflight_chunks
                else 0.0
            )
            start = max(ready, link_free, gate)
            done = start + (size + CHUNK_HEADER_BYTES) * EGRESS_NS_PER_BYTE
            link_free = done
            wire_done.append(done)
            timeline.append((seq, start, done))
        self._egress_free[lane] = link_free

        whole_first = record.finish_ns + (
            (min(cfg.chunk_bytes, response_bytes) + CHUNK_HEADER_BYTES)
            * EGRESS_NS_PER_BYTE
        )
        record.streamed = True
        record.chunks = chunk_count
        record.first_byte_ns = wire_done[0]
        record.finish_ns = wire_done[-1]
        record.chunk_timeline = timeline

        held = min(chunk_count, cfg.max_inflight_chunks) * cfg.chunk_bytes
        held = min(held, response_bytes)
        self.buffer_hwm_bytes = max(self.buffer_hwm_bytes, held)
        self._buffer_hwm.set_max(held)
        self._chunk_counter.inc(chunk_count)
        self._streamed_counter.inc()
        self.streamed += 1
        self.chunks += chunk_count
        self.streamed_bytes += response_bytes
        self.ttfb_sum_ns += wire_done[0] - record.arrival_ns
        self.whole_ttfb_sum_ns += whole_first - record.arrival_ns
        self.service_ttfb_sum_ns += wire_done[0] - exec_start
        self.whole_service_ttfb_sum_ns += whole_first - exec_start

    @property
    def mean_ttfb_speedup(self) -> float:
        """Whole-send TTFB over streamed TTFB, averaged over responses."""
        if self.ttfb_sum_ns <= 0:
            return 0.0
        return self.whole_ttfb_sum_ns / self.ttfb_sum_ns

    @property
    def service_ttfb_speedup(self) -> float:
        """TTFB speedup measured from dispatch (queueing excluded)."""
        if self.service_ttfb_sum_ns <= 0:
            return 0.0
        return self.whole_service_ttfb_sum_ns / self.service_ttfb_sum_ns

    def stats(self) -> Dict:
        return {
            "responses": self.responses,
            "streamed": self.streamed,
            "chunks": self.chunks,
            "streamed_bytes": self.streamed_bytes,
            "ttfb_sum_ns": self.ttfb_sum_ns,
            "whole_ttfb_sum_ns": self.whole_ttfb_sum_ns,
            "service_ttfb_sum_ns": self.service_ttfb_sum_ns,
            "whole_service_ttfb_sum_ns": self.whole_service_ttfb_sum_ns,
            "mean_ttfb_speedup": self.mean_ttfb_speedup,
            "service_ttfb_speedup": self.service_ttfb_speedup,
            "buffer_hwm_bytes": self.buffer_hwm_bytes,
            "whole_buffer_hwm_bytes": self.whole_buffer_hwm_bytes,
        }
