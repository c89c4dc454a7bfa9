"""Device-level simulation: many units contending on one memory system.

:meth:`CerealAccelerator.run_batch` estimates batch time analytically (unit
pools + a bandwidth floor). :class:`DeviceSimulator` instead *simulates* the
batch: every unit gets its own MAI front-end (its own coalescing tracker and
TLB) but all of them share a single :class:`~repro.memory.dram.DRAMModel`,
so channel contention between concurrently active units emerges from the
channel occupancy model rather than from a closed-form correction.

Operations are dispatched to the unit (SU or DU pool by kind) that frees
earliest — the request scheduler's policy — and each unit runs its queue
back-to-back. Units are simulated in dispatch order; the shared channel
state carries their interference.

Within one run, each distinct root is encoded once and each distinct
stream is decoded (and its DU workload built) once; every request still
runs its own SU/DU timing and rebuilds into its own heap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.cereal.du import DeserializationUnit, DUWorkload
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import SerializationUnit, SUWorkload
from repro.cereal.tlb import TLB
from repro.common.errors import SimulationError
from repro.formats.base import SerializedStream
from repro.formats.cereal_format import CerealSerializer, CerealStreamSections
from repro.jvm.heap import Heap, HeapObject
from repro.memory.dram import DRAMModel


@dataclass
class DeviceOperation:
    """One completed operation inside a device run."""

    kind: str  # "serialize" | "deserialize"
    unit_index: int
    start_ns: float
    finish_ns: float
    graph_bytes: int
    stream: Optional[SerializedStream] = None
    root: Optional[HeapObject] = None

    @property
    def elapsed_ns(self) -> float:
        return self.finish_ns - self.start_ns


@dataclass
class DeviceRunResult:
    """Outcome of one batch on the device."""

    operations: List[DeviceOperation]
    wall_time_ns: float
    dram_bytes: int
    bandwidth_utilization: float

    @property
    def total_graph_bytes(self) -> int:
        return sum(op.graph_bytes for op in self.operations)


#: A request: ("serialize", root) or ("deserialize", stream, destination heap).
SerializeRequest = Tuple[str, HeapObject]
DeserializeRequest = Tuple[str, SerializedStream, Heap]
DeviceRequest = Union[SerializeRequest, DeserializeRequest]


class DeviceSimulator:
    """Shared-memory-system execution of a batch of S/D requests."""

    def __init__(self, accelerator) -> None:
        self.accelerator = accelerator
        self.config = accelerator.config
        self.dram_config = accelerator.dram_config

    def run(self, requests: Sequence[DeviceRequest]) -> DeviceRunResult:
        if not requests:
            return DeviceRunResult(
                operations=[], wall_time_ns=0.0, dram_bytes=0,
                bandwidth_utilization=0.0,
            )
        dram = DRAMModel(self.dram_config, out_of_order=True)

        def make_mai() -> MemoryAccessInterface:
            tlb = TLB(
                entries=self.config.tlb_entries,
                page_bytes=self.config.page_bytes,
            )
            return MemoryAccessInterface(dram, self.config, tlb=tlb)

        su_free = [0.0] * self.config.num_serializer_units
        du_free = [0.0] * self.config.num_deserializer_units
        su_mais = [make_mai() for _ in su_free]
        du_mais = [make_mai() for _ in du_free]

        codec = self.accelerator.codec
        # The functional work depends only on the input, so it is done once
        # per distinct root or stream bytes in this run; the unit timing and
        # each request's rebuild into its own heap stay per request.
        encoded: Dict[HeapObject, Tuple[SerializedStream, SUWorkload]] = {}
        decoded: Dict[bytes, Tuple[CerealStreamSections, DUWorkload]] = {}
        operations: List[DeviceOperation] = []
        wall_time = 0.0
        for request in requests:
            kind = request[0]
            if kind == "serialize":
                _, root = request  # type: ignore[misc]
                unit_index = su_free.index(min(su_free))
                start = su_free[unit_index]
                entry = encoded.get(root)
                if entry is None:
                    entry = encoded[root] = (
                        codec.serialize(root).stream, SUWorkload.from_root(root)
                    )
                stream, workload = entry
                unit = SerializationUnit(
                    su_mais[unit_index],
                    self.accelerator.klass_pointer_table,
                    self.config,
                    unit_id=unit_index,
                )
                epoch = root.heap.next_serialization_epoch(
                    self.config.header_counter_bits
                )
                su = unit.run(
                    workload,
                    start_ns=start,
                    serialization_counter=epoch,
                )
                su_free[unit_index] = su.finish_ns
                operations.append(
                    DeviceOperation(
                        kind="serialize",
                        unit_index=unit_index,
                        start_ns=start,
                        finish_ns=su.finish_ns,
                        graph_bytes=stream.graph_bytes,
                        stream=replace(stream, sections=dict(stream.sections)),
                    )
                )
                wall_time = max(wall_time, su.finish_ns)
            elif kind == "deserialize":
                _, stream, heap = request  # type: ignore[misc]
                unit_index = du_free.index(min(du_free))
                start = du_free[unit_index]
                entry = decoded.get(stream.data)
                if entry is None:
                    sections = CerealSerializer.decode_sections(stream)
                    # Rebuild first: a bad stream fails with the codec's error.
                    deser = codec.deserialize(stream, heap, sections=sections)
                    entry = decoded[stream.data] = (
                        sections, DUWorkload.from_stream_sections(sections)
                    )
                else:
                    deser = codec.deserialize(stream, heap, sections=entry[0])
                sections, workload = entry
                unit = DeserializationUnit(
                    du_mais[unit_index],
                    self.accelerator.class_id_table,
                    self.config,
                    unit_id=unit_index,
                )
                du = unit.run(
                    workload,
                    destination_base=deser.root.address,
                    start_ns=start,
                )
                du_free[unit_index] = du.finish_ns
                operations.append(
                    DeviceOperation(
                        kind="deserialize",
                        unit_index=unit_index,
                        start_ns=start,
                        finish_ns=du.finish_ns,
                        graph_bytes=sections.graph_total_bytes,
                        root=deser.root,
                    )
                )
                wall_time = max(wall_time, du.finish_ns)
            else:
                raise SimulationError(f"unknown device request kind {kind!r}")

        utilization = dram.stats.bandwidth_utilization(
            wall_time, self.dram_config
        )
        return DeviceRunResult(
            operations=operations,
            wall_time_ns=wall_time,
            dram_bytes=dram.stats.total_bytes,
            bandwidth_utilization=min(1.0, utilization),
        )
