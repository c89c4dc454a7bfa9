"""Streaming chunked serialization: arenas, frames, cursors, pipelines.

Covers the chunked encode/decode stack end to end:

* chunk frame integrity (CRC, sequence order, LAST flag, truncation);
* byte, section and work-profile identity between chunked encodes and
  the interpreter oracle (skyway: a pinned golden) for all four formats
  across adversarial chunk sizes (1 byte, primes, larger than the
  payload), and one shared walk behind ``serialize()`` and
  ``serialize_chunks()``;
* the pull cursor as the backpressure primitive (a producer thread
  feeding a bounded queue never lets the walk run ahead of the consumer);
* the secure per-chunk decode front end (incremental limits, rejection
  at the offending chunk);
* the mini-Spark chunked shuffle (record equivalence, per-chunk retry)
  and the service response streamer (TTFB, SLO section, trace spans).
"""

from __future__ import annotations

import hashlib
import queue
import threading
import time

import pytest

from repro.common.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    ResourceLimitError,
    TruncatedStreamError,
)
from repro.formats import (
    CerealSerializer,
    ChunkAssembler,
    ClassRegistration,
    DecodeLimits,
    JavaSerializer,
    KryoSerializer,
    Serializer,
    SkywaySerializer,
    collect_chunks,
    frame_chunk,
    secure_deserialize_chunks,
    unframe_chunk,
)
from repro.formats.plans import ChunkingBuffer
from repro.formats.streams import CHUNK_HEADER_BYTES, StreamReader
from repro.formats.verify import graphs_equivalent
from repro.jvm import FieldDescriptor, FieldKind, Heap, InstanceKlass
from repro.obs.trace import Tracer

from tests.oracles import oracle_serializer
from tests.test_fuzz_roundtrip import build_fuzz_graph, fuzz_registry

CHUNK_SIZES = (1, 7, 61, 4096, 1 << 20)


def _registration(registry) -> ClassRegistration:
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return registration


def _serializers(registration):
    return [
        JavaSerializer(),
        KryoSerializer(registration),
        CerealSerializer(registration),
        SkywaySerializer(registration),
    ]


def _graph():
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, seed=5)
    registry.array_klass(FieldKind.REFERENCE)
    return registry, heap, root


# -- chunk frames ----------------------------------------------------------------------


class TestChunkFrames:
    def test_round_trip(self):
        framed = frame_chunk(3, b"hello world", last=True)
        assert len(framed) == CHUNK_HEADER_BYTES + 11
        seq, payload, last = unframe_chunk(framed)
        assert (seq, bytes(payload), last) == (3, b"hello world", True)

    def test_empty_payload(self):
        seq, payload, last = unframe_chunk(frame_chunk(0, b""))
        assert (seq, bytes(payload), last) == (0, b"", False)

    @pytest.mark.parametrize("position", range(CHUNK_HEADER_BYTES))
    def test_header_bit_flip_detected(self, position):
        framed = bytearray(frame_chunk(7, b"payload", last=True))
        framed[position] ^= 0x40
        with pytest.raises(CorruptionError):
            unframe_chunk(bytes(framed))

    def test_payload_bit_flip_detected(self):
        framed = bytearray(frame_chunk(0, b"x" * 64))
        framed[CHUNK_HEADER_BYTES + 32] ^= 0x01
        with pytest.raises(CorruptionError):
            unframe_chunk(bytes(framed))

    def test_short_frame_rejected(self):
        with pytest.raises(CorruptionError):
            unframe_chunk(frame_chunk(0, b"abc")[: CHUNK_HEADER_BYTES - 2])


class TestChunkAssembler:
    @staticmethod
    def _frames(payloads):
        last = len(payloads) - 1
        return [
            frame_chunk(seq, p, last=(seq == last))
            for seq, p in enumerate(payloads)
        ]

    def test_reassembles_in_order(self):
        assembler = ChunkAssembler()
        for framed in self._frames([b"ab", b"cd", b"e"]):
            assembler.push(framed)
        assert bytes(assembler.payload()) == b"abcde"
        assert assembler.chunks_received == 3

    def test_sequence_gap_rejected(self):
        frames = self._frames([b"ab", b"cd", b"e"])
        assembler = ChunkAssembler()
        assembler.push(frames[0])
        with pytest.raises(CorruptionError, match="sequence gap"):
            assembler.push(frames[2])

    def test_chunk_after_last_rejected(self):
        assembler = ChunkAssembler()
        assembler.push(frame_chunk(0, b"done", last=True))
        with pytest.raises(CorruptionError, match="LAST"):
            assembler.push(frame_chunk(1, b"straggler"))

    def test_truncated_stream_raises_at_dark_point(self):
        frames = self._frames([b"ab", b"cd", b"e"])
        assembler = ChunkAssembler()
        assembler.push(frames[0])
        assembler.push(frames[1])
        with pytest.raises(TruncatedStreamError) as info:
            assembler.payload()
        assert info.value.offset == 4

    def test_incremental_stream_budget(self):
        limits = DecodeLimits(max_stream_bytes=5)
        assembler = ChunkAssembler(limits)
        assembler.push(frame_chunk(0, b"abcd"))
        with pytest.raises(ResourceLimitError):
            assembler.push(frame_chunk(1, b"efgh", last=True))
        # The offending chunk was rejected before being appended.
        assert len(assembler._payload) == 4


# -- chunked encode equivalence --------------------------------------------------------


# Skyway has no interpreter oracle: its one encoder is pinned to the
# stream digest, sections and work profile it produces for ``_graph()``.
_SKYWAY_GOLDEN = {
    "sha256": "f2ba7de6fb6eaeef50bf87ea963d0762f4f5e10440bfacf33c933bdb50128c09",
    "sections": {
        "metadata": 8,
        "headers": 2544,
        "values": 5664,
        "references": 3064,
    },
    "object_count": 106,
    "profile": {
        "instructions": 259903,
        "objects": 106,
        "value_fields": 708,
        "reference_fields": 383,
        "bytes_read": 11272,
        "bytes_written": 11280,
        "dependent_loads": 212,
        "allocations": 0,
        "mlp": 1.5,
        "aux_random_accesses": 212,
        "aux_bytes_per_entry": 48,
    },
}


def _expected(serializer, root):
    """(bytes, sections, object_count, profile fields) from an encoder
    independent of the serializer's own walk."""
    if serializer.name == "skyway":
        return (
            _SKYWAY_GOLDEN["sha256"],
            _SKYWAY_GOLDEN["sections"],
            _SKYWAY_GOLDEN["object_count"],
            _SKYWAY_GOLDEN["profile"],
        )
    kwargs = {}
    if serializer.name != "java-builtin":
        kwargs["registration"] = serializer.registration
    oracle = oracle_serializer(serializer.name, **kwargs).serialize(root)
    return (
        hashlib.sha256(oracle.stream.data).hexdigest(),
        dict(oracle.stream.sections),
        oracle.stream.object_count,
        vars(oracle.profile),
    )


class TestChunkedEncodeEquivalence:
    @pytest.mark.parametrize("chunk_bytes", CHUNK_SIZES)
    def test_concatenation_matches_single_shot(self, chunk_bytes):
        """Chunked output equals the interpreter oracle's single-shot
        encode (skyway: its pinned golden): bytes, sections, object
        count and work profile."""
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration):
            digest, sections, object_count, profile = _expected(
                serializer, root
            )
            chunks, summary = collect_chunks(serializer, root, chunk_bytes)
            stream = b"".join(chunks)
            assert hashlib.sha256(stream).hexdigest() == digest, serializer.name
            assert summary.total_bytes == len(stream)
            assert summary.sections == sections, serializer.name
            assert summary.object_count == object_count
            assert vars(summary.profile) == profile, serializer.name
            # Every chunk but the tail is exactly chunk_bytes long.
            for chunk in chunks[:-1]:
                assert len(chunk) == chunk_bytes
            if chunks:
                assert 0 < len(chunks[-1]) <= chunk_bytes
            # The largest chunk the caller is handed is chunk-sized.
            assert max(map(len, chunks), default=0) <= chunk_bytes

    def test_serialize_and_chunks_share_one_walk(self):
        """Both front doors drive the format's one encode walk."""
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration):
            calls = []
            walk = serializer._encode_walk

            def spy(root, out, walk=walk):
                calls.append(type(out).__name__)
                return walk(root, out)

            serializer._encode_walk = spy
            whole = serializer.serialize(root).stream.data
            chunks, _ = collect_chunks(serializer, root, 61)
            assert calls == ["bytearray", "ChunkingBuffer"], serializer.name
            assert b"".join(chunks) == whole, serializer.name

    def test_cursor_resume_is_deterministic(self):
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration):
            cursors = [
                serializer.serialize_chunks(root, 97) for _ in range(2)
            ]
            streams = [bytearray(), bytearray()]
            # Interleave the two drains chunk-by-chunk: suspension and
            # resumption points cannot depend on external state.
            done = [False, False]
            while not all(done):
                for i, cursor in enumerate(cursors):
                    if done[i]:
                        continue
                    chunk = cursor.next_chunk()
                    if chunk is None:
                        done[i] = True
                        continue
                    streams[i] += chunk
            assert streams[0] == streams[1], serializer.name

    def test_framed_collection_reassembles(self):
        registry, heap, root = _graph()
        registration = _registration(registry)
        serializer = KryoSerializer(registration)
        whole = serializer.serialize(root)
        framed, _ = collect_chunks(serializer, root, 128, framed=True)
        assembler = ChunkAssembler()
        for chunk in framed:
            assembler.push(chunk)
        assert bytes(assembler.payload()) == whole.stream.data

    def test_unknown_format_rejected(self):
        registry, heap, root = _graph()

        class Alien(Serializer):
            """A serializer with no encode walk."""

            name = "alien"

            def serialize(self, root):
                raise NotImplementedError

            def deserialize(self, stream, heap, limits=None):
                raise NotImplementedError

        with pytest.raises(FormatError, match="no chunked walk"):
            Alien().serialize_chunks(root, 64)


class TestChunkedSoftwareTiming:
    @pytest.mark.parametrize("chunk_bytes", (1, 61, 1 << 20))
    def test_chunked_run_models_the_single_shot_time(self, chunk_bytes):
        """The chunked harness run shares run_serialize's instrumented
        body: same stream, same heap trace, same modelled timing."""
        from repro.cpu import SoftwarePlatform

        registry, heap, root = _graph()
        registration = _registration(registry)
        platform = SoftwarePlatform()
        for serializer in _serializers(registration):
            whole, whole_run = platform.run_serialize(serializer, root)
            result, run, chunks = platform.run_serialize_chunked(
                serializer, root, chunk_bytes
            )
            assert b"".join(chunks) == whole.stream.data, serializer.name
            assert result.stream.sections == whole.stream.sections
            assert run.timing == whole_run.timing, serializer.name


# -- secure per-chunk decode -----------------------------------------------------------


class TestSecureChunkDecode:
    def test_round_trips_every_format(self):
        registry, heap, root = _graph()
        registration = _registration(registry)
        for serializer in _serializers(registration):
            framed, _ = collect_chunks(serializer, root, 313, framed=True)
            target = Heap(registry=registry)
            result = secure_deserialize_chunks(serializer, framed, target)
            assert graphs_equivalent(root, result.root), serializer.name

    def test_corrupt_chunk_rejected_heap_untouched(self):
        registry, heap, root = _graph()
        serializer = KryoSerializer(_registration(registry))
        framed, _ = collect_chunks(serializer, root, 256, framed=True)
        framed = [bytearray(c) for c in framed]
        framed[1][CHUNK_HEADER_BYTES + 3] ^= 0x10
        target = Heap(registry=registry)
        before = target.object_count
        with pytest.raises(CorruptionError):
            secure_deserialize_chunks(
                serializer, [bytes(c) for c in framed], target
            )
        assert target.object_count == before

    def test_truncated_stream_rejected(self):
        registry, heap, root = _graph()
        serializer = JavaSerializer()
        framed, _ = collect_chunks(serializer, root, 256, framed=True)
        target = Heap(registry=registry)
        with pytest.raises(TruncatedStreamError):
            secure_deserialize_chunks(serializer, framed[:-1], target)

    def test_over_budget_stream_rejected_at_offending_chunk(self):
        registry, heap, root = _graph()
        serializer = KryoSerializer(_registration(registry))
        framed, summary = collect_chunks(serializer, root, 64, framed=True)
        limits = DecodeLimits(max_stream_bytes=summary.total_bytes // 2)
        target = Heap(registry=registry)
        with pytest.raises(ResourceLimitError):
            secure_deserialize_chunks(serializer, framed, target, limits)


# -- pull-cursor backpressure ----------------------------------------------------------


def _tree(depth):
    """A binary tree of ``Node {value: long, left, right}``: 2**(depth+1)-1
    objects of one shape, so the payload grows while no single walk step
    does."""
    heap = Heap()
    heap.registry.register(
        InstanceKlass(
            "Node",
            [
                FieldDescriptor("value", FieldKind.LONG),
                FieldDescriptor("left", FieldKind.REFERENCE),
                FieldDescriptor("right", FieldKind.REFERENCE),
            ],
        )
    )

    def make(level):
        node = heap.new_instance("Node")
        node.set("value", level)
        if level < depth:
            node.set("left", make(level + 1))
            node.set("right", make(level + 1))
        return node

    return heap.registry, make(0)


class TestPullBackpressure:
    #: Queue slots between the producer thread and the consumer.
    QUEUE_SLOTS = 2
    #: Most chunks the walk holds sealed but not yet pulled at a seal
    #: (the chunk being sealed counts); one walk step fills at most one
    #: 64-byte Kryo chunk of this tree, whatever the payload size.
    WALK_AHEAD = 1

    @pytest.mark.parametrize("depth", (7, 10))
    def test_lagging_consumer_bounds_the_walk(self, depth, monkeypatch):
        """A producer thread drains a ``serialize_chunks`` cursor into a
        bounded ``queue.Queue`` while the consumer lags: the walk stays at
        most ``QUEUE_SLOTS + WALK_AHEAD`` chunks ahead of the consumer,
        independent of the payload size, and the reassembled bytes equal
        ``serialize()``."""
        registry, root = _tree(depth)
        serializer = KryoSerializer(_registration(registry))
        whole = serializer.serialize(root).stream.data
        chunks = queue.Queue(maxsize=self.QUEUE_SLOTS)
        sealed = puts = 0
        walk_ahead = []  # sealed, not yet pulled off the cursor and put
        lags = []  # sealed, not yet taken off the queue by the consumer
        seal = ChunkingBuffer._seal

        def counting_seal(buffer):
            nonlocal sealed
            seal(buffer)
            sealed += 1
            # Runs on the producer thread inside next_chunk(), so every
            # chunk it pulled so far has been put: consumed = puts - qsize.
            walk_ahead.append(sealed - puts)
            lags.append(sealed - (puts - chunks.qsize()))

        monkeypatch.setattr(ChunkingBuffer, "_seal", counting_seal)

        def producer():
            nonlocal puts
            cursor = serializer.serialize_chunks(root, 64)
            while (chunk := cursor.next_chunk()) is not None:
                chunks.put(chunk)
                puts += 1
            chunks.put(None)

        thread = threading.Thread(target=producer)
        thread.start()
        received = bytearray()
        while True:
            time.sleep(0.002)  # the lagging consumer
            chunk = chunks.get()
            if chunk is None:
                break
            received += chunk
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert bytes(received) == whole
        assert sealed == puts > 4 * self.QUEUE_SLOTS
        assert max(walk_ahead) == self.WALK_AHEAD
        # The consumer lagged far enough to fill the queue, and the walk
        # still never ran further ahead than the queue plus one step.
        assert self.QUEUE_SLOTS < max(lags)
        assert max(lags) <= self.QUEUE_SLOTS + self.WALK_AHEAD


class TestStreamReaderBufferProtocol:
    def test_accepts_bytearray_and_memoryview(self):
        payload = bytes(range(16))
        for view in (bytearray(payload), memoryview(payload)):
            reader = StreamReader(view)
            assert reader.read_bytes(4) == payload[:4]
            assert reader.read_u8() == payload[4]


# -- mini-Spark chunked shuffle --------------------------------------------------------


def _spark_context(**kwargs):
    from repro.formats import KryoSerializer as Kryo
    from repro.spark import MiniSparkContext, SoftwareBackend

    context = MiniSparkContext(SoftwareBackend(Kryo()), **kwargs)
    from repro.jvm.klass import FieldDescriptor, InstanceKlass

    klass = context.registry.register(
        InstanceKlass(
            "KV",
            [
                FieldDescriptor("key", FieldKind.LONG),
                FieldDescriptor("value", FieldKind.LONG),
            ],
        )
    )
    context.registry.array_klass(FieldKind.REFERENCE)
    backend_reg = context.backend.serializer.registration
    for k in context.registry:
        backend_reg.register(k)
    return context, klass


def _records(context, klass, count):
    out = []
    for index in range(count):
        record = context.executor_heap.allocate(klass)
        record.set("key", index)
        record.set("value", index * 10)
        out.append(record)
    return out


class TestSparkChunkedShuffle:
    def test_chunked_shuffle_matches_whole_stream(self):
        from repro.spark import ChunkingConfig

        def run(chunking):
            context, klass = _spark_context(chunking=chunking)
            records = _records(context, klass, 240)
            dataset = context.parallelize(records, 3)
            shuffled = dataset.shuffle(
                key_fn=lambda r: r.get("key") % 4, num_partitions=4
            )
            keys = sorted(
                r.get("key")
                for partition in shuffled.partitions
                for r in partition
            )
            return keys, context

        whole_keys, _ = run(None)
        chunk_keys, context = run(ChunkingConfig(chunk_bytes=64))
        assert chunk_keys == whole_keys == list(range(240))
        assert context.chunk_stats, "chunked deliveries must record stats"
        for stats in context.chunk_stats:
            assert stats.chunks >= 1
            assert stats.framed_bytes == (
                stats.payload_bytes + stats.chunks * CHUNK_HEADER_BYTES
            )
            assert stats.first_byte_ns <= stats.whole_first_byte_ns
        big = max(context.chunk_stats, key=lambda s: s.chunks)
        assert big.chunks > 1
        assert big.ttfb_speedup > 1.0

    def test_deliver_chunked_byte_identity(self):
        from repro.spark import ChunkingConfig
        from repro.spark.metrics import TimeBreakdown
        from repro.spark.transfer import ResilientTransfer, SerializedStream

        stream = SerializedStream(
            format_name="kryo",
            data=bytes(range(256)) * 17,
            sections={"data": 256 * 17},
            object_count=17,
            graph_bytes=9000,
        )
        transfer = ResilientTransfer(TimeBreakdown())
        delivered, stats = transfer.deliver_chunked(
            stream,
            "shuffle",
            encode_ns=1000.0,
            config=ChunkingConfig(chunk_bytes=100),
        )
        assert bytes(delivered.data) == stream.data
        assert delivered.sections == dict(stream.sections)
        assert stats.chunks == -(-len(stream.data) // 100)
        assert stats.retries == 0
        # Pipelined first byte beats whole-stream first byte.
        assert stats.first_byte_ns < stats.whole_first_byte_ns
        assert stats.pipelined_ns <= stats.whole_ns

    def test_faulted_chunks_retry_individually(self):
        from repro.faults import FaultInjector, FaultPolicy
        from repro.spark import ChunkingConfig

        policy = FaultPolicy(
            corruption_prob=0.1,
            drop_prob=0.05,
            latency_spike_prob=0.05,
            seed=17,
        )
        injector = FaultInjector(policy)
        context, klass = _spark_context(
            chunking=ChunkingConfig(chunk_bytes=64), injector=injector
        )
        records = _records(context, klass, 600)
        dataset = context.parallelize(records, 2)
        shuffled = dataset.shuffle(
            key_fn=lambda r: r.get("key") % 3, num_partitions=3
        )
        keys = sorted(
            r.get("key")
            for partition in shuffled.partitions
            for r in partition
        )
        assert keys == list(range(600))
        layer = injector.report.layer("transfer")
        assert layer.injected > 0
        assert layer.detected == layer.injected
        assert layer.recovered == layer.detected
        retried = sum(s.retries for s in context.chunk_stats)
        assert retried > 0
        assert context.breakdown.retry_ns > 0

    def test_chunking_config_validation(self):
        from repro.spark import ChunkingConfig

        with pytest.raises(ConfigError):
            ChunkingConfig(chunk_bytes=0)


# -- service response streaming --------------------------------------------------------


class TestServiceStreaming:
    @staticmethod
    def _run(streaming, tracer=None, num_requests=150):
        from repro.service import (
            PoissonWorkload,
            RequestMix,
            SerializationServer,
            ServiceCatalog,
            ServiceConfig,
            SizeClass,
        )

        catalog = ServiceCatalog(
            size_classes=(
                SizeClass("small", "tree", objects=24),
                SizeClass("large", "graph", objects=160, fanout=4),
            )
        )
        mix = RequestMix(
            serialize_fraction=0.7,
            size_weights={"small": 0.3, "large": 0.7},
        )
        workload = PoissonWorkload(
            2000.0, num_requests, seed=23, mix=mix
        ).generate(catalog)
        server = SerializationServer(
            catalog,
            ServiceConfig(num_shards=2, functional_every=0, streaming=streaming),
            tracer=tracer,
        )
        return server, server.run(workload)

    def test_streaming_preserves_goodput_and_cuts_ttfb(self):
        from repro.service import StreamingConfig

        _, baseline = self._run(None)
        server, report = self._run(
            StreamingConfig(chunk_bytes=4096, threshold_bytes=8192)
        )
        assert report.completed_requests == baseline.completed_requests
        streamed = [r for r in report.records if r.streamed]
        assert streamed, "large responses must stream"
        for record in streamed:
            assert record.chunks >= 2
            assert record.first_byte_ns < record.finish_ns
            assert record.ttfb_ns < record.latency_ns
        stats = server.streamer.stats()
        assert stats["streamed"] == len(streamed)
        assert stats["service_ttfb_speedup"] > 1.0
        assert stats["buffer_hwm_bytes"] <= stats["whole_buffer_hwm_bytes"]

    def test_slo_report_carries_streaming_section(self):
        from repro.service import StreamingConfig

        _, report = self._run(
            StreamingConfig(chunk_bytes=4096, threshold_bytes=8192)
        )
        section = report.as_dict()["streaming"]
        assert section["streamed_requests"] > 0
        assert section["chunks"] >= section["streamed_requests"]
        assert section["ttfb_ns"]["p50"] <= section["ttfb_ns"]["p99"]

    def test_chunk_spans_nest_under_request_spans(self):
        from repro.service import StreamingConfig

        tracer = Tracer(enabled=True)
        self._run(
            StreamingConfig(chunk_bytes=4096, threshold_bytes=8192),
            tracer=tracer,
        )
        spans = tracer.spans()
        requests = {s.span_id: s for s in spans if s.name == "request"}
        chunk_spans = [s for s in spans if s.name == "response.chunk"]
        assert chunk_spans, "streamed responses must emit chunk spans"
        for span in chunk_spans:
            parent = requests[span.parent_id]
            assert span.start_ns >= parent.start_ns
            assert span.end_ns <= parent.end_ns
            assert span.attrs["request_id"] == parent.attrs["request_id"]

    def test_streaming_config_validation(self):
        from repro.service import StreamingConfig

        with pytest.raises(ConfigError):
            StreamingConfig(chunk_bytes=0)
        with pytest.raises(ConfigError):
            StreamingConfig(max_inflight_chunks=0)
        with pytest.raises(ConfigError):
            StreamingConfig(threshold_bytes=-1)
