"""S/D backends pluggable into mini-Spark.

Spark's measured "serialization time" is more than the serializer kernel:
the bytes also flow through stream framing, buffer management, and the
block-transfer path. That framework component is serializer-independent —
it is why Kryo's huge microbenchmark advantage shrinks to ~1.67x inside
Spark (paper Figures 2/13). We model it as a bytes-proportional cost:

* software backends push the stream through the JVM's buffered stream
  stack (~1 GB/s effective);
* the Cereal backend DMA-writes the stream directly from the accelerator,
  bypassing most of that path (~4 GB/s effective), per the paper's
  integration where the ObjectOutputStream is backed by the device.

Both constants are calibration inputs documented in EXPERIMENTS.md.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

from repro.cereal.accelerator import CerealAccelerator
from repro.common.config import SystemConfig
from repro.common.errors import CapacityError
from repro.cpu.harness import SoftwarePlatform
from repro.faults.injector import FaultInjector
from repro.formats.base import SerializedStream, Serializer
from repro.jvm.heap import Heap, HeapObject
from repro.spark.metrics import SDOperation

# Effective per-byte cost of the framework stream path at this repository's
# ~1/4096 workload scale: stream framing per record, LZ4 block compression,
# BlockManager buffer copies. Small scaled streams amortize none of the
# per-record overhead, so the effective rate is far below raw memcpy speed.
# Cereal's integration DMA-writes the device output into the block store,
# bypassing the JVM buffer churn (calibrated against Figures 13/14).
_SOFTWARE_STREAM_NS_PER_BYTE = 200.0
_CEREAL_STREAM_NS_PER_BYTE = 18.0


class SDBackend(abc.ABC):
    """Serialize/deserialize service used by shuffles, caches, collects."""

    name: str = "abstract"

    @abc.abstractmethod
    def serialize(self, root: HeapObject, site: str) -> Tuple[SerializedStream, SDOperation]:
        """Serialize; returns the stream and the accounted operation."""

    @abc.abstractmethod
    def deserialize(
        self, stream: SerializedStream, heap: Heap, site: str
    ) -> Tuple[HeapObject, SDOperation]:
        """Deserialize onto ``heap``; returns the root and the operation."""


class SoftwareBackend(SDBackend):
    """A software serializer timed by the CPU cost model."""

    def __init__(
        self,
        serializer: Serializer,
        system: Optional[SystemConfig] = None,
        stream_ns_per_byte: float = _SOFTWARE_STREAM_NS_PER_BYTE,
    ):
        self.serializer = serializer
        self.platform = SoftwarePlatform(system)
        self.stream_ns_per_byte = stream_ns_per_byte
        self.name = serializer.name

    def _framework_ns(self, nbytes: int) -> float:
        return nbytes * self.stream_ns_per_byte

    def serialize(self, root: HeapObject, site: str):
        result, run = self.platform.run_serialize(self.serializer, root)
        time_ns = run.timing.time_ns + self._framework_ns(result.stream.size_bytes)
        op = SDOperation(
            kind="serialize",
            site=site,
            time_ns=time_ns,
            stream_bytes=result.stream.size_bytes,
            graph_bytes=result.stream.graph_bytes,
            objects=result.stream.object_count,
            dram_bytes=run.timing.dram_bytes,
            kernel_time_ns=run.timing.time_ns,
        )
        return result.stream, op

    def serialize_chunked(self, root: HeapObject, site: str, chunk_bytes: int):
        """Serialize through the resumable chunked encoder.

        Returns ``(stream, op, chunks)``; ``chunks`` are the payload
        slices in emission order, ready for
        :meth:`~repro.spark.transfer.ResilientTransfer.deliver_chunked`.
        The operation's modelled time is identical to :meth:`serialize`
        (same work profile, same trace) — falling back to the whole-stream
        path (``chunks=None``) when the serializer has no chunked walk.
        """
        from repro.common.errors import FormatError

        try:
            result, run, chunks = self.platform.run_serialize_chunked(
                self.serializer, root, chunk_bytes
            )
        except FormatError:
            stream, op = self.serialize(root, site)
            return stream, op, None
        time_ns = run.timing.time_ns + self._framework_ns(result.stream.size_bytes)
        op = SDOperation(
            kind="serialize",
            site=site,
            time_ns=time_ns,
            stream_bytes=result.stream.size_bytes,
            graph_bytes=result.stream.graph_bytes,
            objects=result.stream.object_count,
            dram_bytes=run.timing.dram_bytes,
            kernel_time_ns=run.timing.time_ns,
        )
        return result.stream, op, chunks

    def deserialize(self, stream: SerializedStream, heap: Heap, site: str):
        if stream.is_framed:
            stream = stream.unframed()  # verify checksums before decoding
        result, run = self.platform.run_deserialize(self.serializer, stream, heap)
        time_ns = run.timing.time_ns + self._framework_ns(stream.size_bytes)
        op = SDOperation(
            kind="deserialize",
            site=site,
            time_ns=time_ns,
            stream_bytes=stream.size_bytes,
            graph_bytes=result.profile.bytes_written,
            objects=result.profile.objects,
            dram_bytes=run.timing.dram_bytes,
            kernel_time_ns=run.timing.time_ns,
        )
        return result.root, op


class CerealBackend(SDBackend):
    """The Cereal accelerator as Spark's serializer.

    Degrades gracefully: when the accelerator raises
    :class:`~repro.common.errors.CapacityError` (a fixed-capacity
    CAM/SRAM/queue overflowed — possibly injected by a
    :class:`~repro.faults.FaultInjector`), the operation transparently
    falls back to software. Serialize-side faults run the configured Kryo
    fallback (the stream's ``format_name`` routes its later deserialize to
    the same serializer); deserialize-side faults on an existing Cereal
    stream decode it with the software Cereal codec, since the wire format
    is already fixed. Every fallback is marked on its
    :class:`~repro.spark.metrics.SDOperation` and counted in the fault
    report's ``accelerator`` layer.
    """

    name = "cereal"

    def __init__(
        self,
        accelerator: CerealAccelerator,
        stream_ns_per_byte: float = _CEREAL_STREAM_NS_PER_BYTE,
        keep_streams: bool = False,
        injector: Optional[FaultInjector] = None,
        fallback: Optional[SoftwareBackend] = None,
    ):
        self.accelerator = accelerator
        self.stream_ns_per_byte = stream_ns_per_byte
        # When set, every serialized stream is retained for post-hoc format
        # analysis (the Figure 16 compression bench decodes them).
        self.keep_streams = keep_streams
        self.streams = []
        self.injector = injector
        self._fallback = fallback
        self._software_codec: Optional[SoftwareBackend] = None
        self.fallback_count = 0

    @property
    def fallback(self) -> SoftwareBackend:
        """Software serializer used when the accelerator faults (Kryo)."""
        if self._fallback is None:
            from repro.formats.kryo import KryoSerializer

            # Shares the accelerator's registration so every RegisterClass'd
            # type is already known to the fallback.
            self._fallback = SoftwareBackend(
                KryoSerializer(self.accelerator.registration)
            )
        return self._fallback

    def _software_cereal(self) -> SoftwareBackend:
        """Software decode path for already-produced Cereal streams."""
        if self._software_codec is None:
            self._software_codec = SoftwareBackend(self.accelerator.codec)
        return self._software_codec

    def _framework_ns(self, nbytes: int) -> float:
        return nbytes * self.stream_ns_per_byte

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
        if self.keep_streams:
            self.streams.append(result.stream)
        time_ns = timing.elapsed_ns + self._framework_ns(result.stream.size_bytes)
        op = SDOperation(
            kind="serialize",
            site=site,
            time_ns=time_ns,
            stream_bytes=result.stream.size_bytes,
            graph_bytes=result.stream.graph_bytes,
            objects=result.stream.object_count,
            dram_bytes=timing.dram_bytes,
            kernel_time_ns=timing.elapsed_ns,
        )
        return result.stream, op

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
            root, op = self._software_cereal().deserialize(stream, heap, site)
            return root, self._record_fallback(op, injected)
        time_ns = timing.elapsed_ns + self._framework_ns(stream.size_bytes)
        op = SDOperation(
            kind="deserialize",
            site=site,
            time_ns=time_ns,
            stream_bytes=stream.size_bytes,
            graph_bytes=timing.graph_bytes,
            objects=timing.objects,
            dram_bytes=timing.dram_bytes,
            kernel_time_ns=timing.elapsed_ns,
        )
        return root, op
