"""S/D backends pluggable into mini-Spark.

Spark's measured "serialization time" is more than the serializer kernel:
the bytes also flow through stream framing, buffer management, and the
block-transfer path. That framework component is serializer-independent —
it is why Kryo's huge microbenchmark advantage shrinks to ~1.67x inside
Spark (paper Figures 2/13). We model it as a bytes-proportional cost,
``stream_ns_per_byte``, a class constant of each backend:

* software backends push the stream through the JVM's buffered stream
  stack;
* the Cereal backend DMA-writes the stream directly from the accelerator,
  bypassing most of that path, per the paper's integration where the
  ObjectOutputStream is backed by the device.

Every backend builds its :class:`~repro.spark.metrics.SDOperation` through
:meth:`SDBackend._operation`: ``time_ns = kernel_ns + stream_bytes *
stream_ns_per_byte``. Both rates are calibration inputs documented in
EXPERIMENTS.md.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import Optional, Tuple

from repro.cereal.accelerator import CerealAccelerator
from repro.common.errors import CapacityError, FormatError
from repro.cpu.harness import SoftwarePlatform
from repro.faults.injector import FaultInjector
from repro.formats.base import SerializedStream, Serializer
from repro.jvm.heap import Heap, HeapObject
from repro.spark.metrics import SDOperation


class SDBackend(abc.ABC):
    """Serialize/deserialize service used by shuffles, caches, collects."""

    name: str = "abstract"
    #: Framework stream-path cost per stream byte (ns).
    stream_ns_per_byte: float

    @abc.abstractmethod
    def serialize(self, root: HeapObject, site: str) -> Tuple[SerializedStream, SDOperation]:
        """Serialize; returns the stream and the accounted operation."""

    @abc.abstractmethod
    def deserialize(
        self, stream: SerializedStream, heap: Heap, site: str
    ) -> Tuple[HeapObject, SDOperation]:
        """Deserialize onto ``heap``; returns the root and the operation."""

    def _operation(
        self,
        kind: str,
        site: str,
        stream: SerializedStream,
        kernel_ns: float,
        dram_bytes: int,
        graph_bytes: int,
        objects: int,
    ) -> SDOperation:
        """The accounted operation: kernel time plus the stream path."""
        return SDOperation(
            kind=kind,
            site=site,
            time_ns=kernel_ns + stream.size_bytes * self.stream_ns_per_byte,
            stream_bytes=stream.size_bytes,
            graph_bytes=graph_bytes,
            objects=objects,
            dram_bytes=dram_bytes,
            kernel_time_ns=kernel_ns,
        )


class SoftwareBackend(SDBackend):
    """A software serializer timed by the CPU cost model."""

    # Effective per-byte cost of the framework stream path at this
    # repository's ~1/4096 workload scale: stream framing per record, LZ4
    # block compression, BlockManager buffer copies. Small scaled streams
    # amortize none of the per-record overhead, so the effective rate is
    # far below raw memcpy speed.
    stream_ns_per_byte = 200.0

    def __init__(self, serializer: Serializer):
        self.serializer = serializer
        self.platform = SoftwarePlatform()
        self.name = serializer.name

    def serialize(self, root: HeapObject, site: str):
        result, run = self.platform.run_serialize(self.serializer, root)
        stream = result.stream
        op = self._operation(
            "serialize", site, stream, run.timing.time_ns, run.timing.dram_bytes,
            stream.graph_bytes, stream.object_count,
        )
        return stream, op

    def serialize_chunked(self, root: HeapObject, site: str, chunk_bytes: int):
        """Serialize through the resumable chunked encoder.

        Returns ``(stream, op, chunks)``; ``chunks`` are the payload
        slices in emission order, ready for
        :meth:`~repro.spark.transfer.ResilientTransfer.deliver_chunked`.
        The operation's modelled time is identical to :meth:`serialize`
        (same work profile, same trace) — falling back to the whole-stream
        path (``chunks=None``) when the serializer has no chunked walk.
        """
        try:
            result, run, chunks = self.platform.run_serialize_chunked(
                self.serializer, root, chunk_bytes
            )
        except FormatError:
            stream, op = self.serialize(root, site)
            return stream, op, None
        stream = result.stream
        op = self._operation(
            "serialize", site, stream, run.timing.time_ns, run.timing.dram_bytes,
            stream.graph_bytes, stream.object_count,
        )
        return stream, op, chunks

    def deserialize(self, stream: SerializedStream, heap: Heap, site: str):
        if stream.is_framed:
            stream = stream.unframed()  # verify checksums before decoding
        result, run = self.platform.run_deserialize(self.serializer, stream, heap)
        op = self._operation(
            "deserialize", site, stream, run.timing.time_ns, run.timing.dram_bytes,
            result.profile.bytes_written, result.profile.objects,
        )
        return result.root, op


class CerealBackend(SDBackend):
    """The Cereal accelerator as Spark's serializer.

    Degrades gracefully: when the accelerator raises
    :class:`~repro.common.errors.CapacityError` (a fixed-capacity
    CAM/SRAM/queue overflowed — possibly injected by a
    :class:`~repro.faults.FaultInjector`), the operation transparently
    falls back to software. Serialize-side faults run the Kryo fallback
    (the stream's ``format_name`` routes its later deserialize to the same
    serializer); deserialize-side faults on an existing Cereal stream
    decode it with the software Cereal codec, since the wire format is
    already fixed. Every fallback is marked on its
    :class:`~repro.spark.metrics.SDOperation` and counted in the fault
    report's ``accelerator`` layer.
    """

    name = "cereal"
    # Cereal's integration DMA-writes the device output into the block
    # store, bypassing the JVM buffer churn (calibrated against Figures
    # 13/14).
    stream_ns_per_byte = 18.0

    def __init__(
        self,
        accelerator: CerealAccelerator,
        keep_streams: bool = False,
        injector: Optional[FaultInjector] = None,
    ):
        self.accelerator = accelerator
        # When set, every serialized stream is retained for post-hoc format
        # analysis (the Figure 16 compression bench decodes them).
        self.keep_streams = keep_streams
        self.streams = []
        self.injector = injector
        self.fallback_count = 0

    @cached_property
    def fallback(self) -> SoftwareBackend:
        """Software serializer used when the accelerator faults (Kryo)."""
        from repro.formats.kryo import KryoSerializer

        # Shares the accelerator's registration so every RegisterClass'd
        # type is already known to the fallback.
        return SoftwareBackend(KryoSerializer(self.accelerator.registration))

    @cached_property
    def _software_cereal(self) -> SoftwareBackend:
        """Software decode path for already-produced Cereal streams."""
        return SoftwareBackend(self.accelerator.codec)

    def _record_fallback(self, op: SDOperation, injected: bool) -> SDOperation:
        op.fallback = True
        self.fallback_count += 1
        if self.injector is not None:
            report = self.injector.report
            if injected:
                report.record_injected("accelerator")
            report.record_detected("accelerator")
            report.record_recovered("accelerator")
            report.record_fallback("accelerator")
        return op

    def serialize(self, root: HeapObject, site: str):
        injected = False
        try:
            if self.injector is not None and self.injector.accelerator_fault(
                "serialize"
            ):
                injected = True
                raise CapacityError(
                    "injected: MAI request queue overflow during serialize"
                )
            result, timing, _ = self.accelerator.serialize(root)
        except CapacityError:
            stream, op = self.fallback.serialize(root, site)
            if self.keep_streams:
                self.streams.append(stream)
            return stream, self._record_fallback(op, injected)
        stream = result.stream
        if self.keep_streams:
            self.streams.append(stream)
        op = self._operation(
            "serialize", site, stream, timing.elapsed_ns, timing.dram_bytes,
            stream.graph_bytes, stream.object_count,
        )
        return stream, op

    def deserialize(self, stream: SerializedStream, heap: Heap, site: str):
        if stream.is_framed:
            stream = stream.unframed()  # verify checksums before decoding
        if stream.format_name != self.accelerator.codec.name:
            # Produced by the software fallback serializer; only that
            # serializer can decode it.
            root, op = self.fallback.deserialize(stream, heap, site)
            return root, self._record_fallback(op, injected=False)
        injected = False
        try:
            if self.injector is not None and self.injector.accelerator_fault(
                "deserialize"
            ):
                injected = True
                raise CapacityError(
                    "injected: Class ID Table / reorder buffer overflow "
                    "during deserialize"
                )
            root, timing, _ = self.accelerator.deserialize(stream, heap)
        except CapacityError:
            root, op = self._software_cereal.deserialize(stream, heap, site)
            return root, self._record_fallback(op, injected)
        op = self._operation(
            "deserialize", site, stream, timing.elapsed_ns, timing.dram_bytes,
            timing.graph_bytes, timing.objects,
        )
        return root, op
