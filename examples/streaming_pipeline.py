#!/usr/bin/env python
"""Threaded streaming pipeline: pull-cursor encode -> queue -> reassembly.

A producer thread pulls a resumable chunked encode
(:meth:`repro.formats.Serializer.serialize_chunks`), CRC-frames each
sealed chunk, and puts it on a bounded stdlib ``queue.Queue``. The
consumer (main thread) takes framed chunks off the queue and feeds them
to a :class:`repro.formats.ChunkAssembler`, which verifies every frame
and reassembles the payload.

Backpressure flows end to end: when the consumer lags, the queue fills
and ``put`` blocks the producer, which then stops pulling the cursor —
and the encode walk only advances when it is pulled, so the *encoder
walk itself* stops. The pipeline never holds more than the queue slots
plus the producer's one pending chunk and the one it is sealing, no
matter how large the graph is.

The script verifies the reassembled bytes equal the single-shot
``serialize()`` output and exits non-zero on any mismatch, so CI can run
it as a smoke test.

Run:  PYTHONPATH=src python examples/streaming_pipeline.py
"""

import queue
import sys
import threading
import time

from repro.formats import ChunkAssembler, KryoSerializer, frame_chunk
from repro.jvm import FieldDescriptor, FieldKind, Heap, InstanceKlass

CHUNK_BYTES = 512
QUEUE_SLOTS = 3
TREE_DEPTH = 9
END = None  # end-of-stream marker on the queue


def build_tree(heap, depth):
    """A binary tree of `Node {value: long, left, right}` objects."""

    def make(level):
        node = heap.new_instance("Node")
        node.set("value", level)
        if level < depth:
            node.set("left", make(level + 1))
            node.set("right", make(level + 1))
        return node

    return make(0)


def produce(serializer, root, chunks, stats):
    """Encode chunk by chunk; frame with one-chunk lookahead so the final
    frame carries the LAST flag; block while the queue is full."""
    cursor = serializer.serialize_chunks(root, CHUNK_BYTES)
    seq = 0
    pending = None  # one-chunk lookahead: is the *next* chunk the last?
    while True:
        chunk = cursor.next_chunk()
        if pending is not None:
            if chunks.full():
                stats["blocked_puts"] += 1
            chunks.put(frame_chunk(seq, pending, last=(chunk is None)))
            seq += 1
        if chunk is None:
            break
        pending = chunk
    stats["chunks"] = seq
    chunks.put(END)


def main():
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
    root = build_tree(heap, TREE_DEPTH)

    serializer = KryoSerializer()
    for klass in heap.registry:
        serializer.registration.register(klass)
    whole = serializer.serialize(root).stream.data

    chunks = queue.Queue(maxsize=QUEUE_SLOTS)
    stats = {"blocked_puts": 0}
    producer = threading.Thread(
        target=produce, args=(serializer, root, chunks, stats), name="encoder"
    )
    producer.start()

    assembler = ChunkAssembler()
    consumed = 0
    while (framed := chunks.get()) is not END:
        assembler.push(framed)
        consumed += 1
        time.sleep(0)  # consumer yield: lets the producer hit backpressure
    producer.join()

    payload = bytes(assembler.payload())
    print(
        f"graph: {2 ** (TREE_DEPTH + 1) - 1} nodes -> "
        f"{len(whole)} bytes single-shot"
    )
    print(
        f"pipeline: {consumed} chunks of <= {CHUNK_BYTES} B through a "
        f"{QUEUE_SLOTS}-slot queue ({stats['blocked_puts']} puts found it full)"
    )
    if consumed != stats["chunks"]:
        print(
            f"FAIL: produced {stats['chunks']} chunks, consumed {consumed}",
            file=sys.stderr,
        )
        return 1
    if payload != whole:
        print(
            f"FAIL: reassembled {len(payload)} bytes != "
            f"single-shot {len(whole)} bytes",
            file=sys.stderr,
        )
        return 1
    print("reassembled payload is byte-identical to the single-shot encode")
    return 0


if __name__ == "__main__":
    sys.exit(main())
