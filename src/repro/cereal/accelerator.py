"""The Cereal device: command queue, request scheduler, unit pools.

:class:`CerealAccelerator` is the integration point a host runtime uses
(paper Section V-A software interface):

* ``initialize()`` — construct the device with a configuration;
* ``register_class(klass)`` — populate the type registration, the Klass
  Pointer Table (CAM), and the Class ID Table (SRAM);
* ``serialize(root)`` / ``deserialize(stream, heap)`` — perform the
  operation *functionally* (producing/consuming real Cereal-format bytes
  through :class:`repro.formats.CerealSerializer`) and simultaneously run
  the cycle-level SU/DU model to produce an :class:`OperationTiming`;
* ``run_batch(timings)`` — schedule the :class:`OperationTiming` of many
  independent operations across the 8 SU / 8 DU pools (operation-level
  parallelism), respecting the command-queue model and the shared-DRAM
  bandwidth ceiling.

Each single operation is timed against an otherwise-idle memory system, as
in the paper's per-operation measurements; batches add a bandwidth-sharing
correction so aggregate throughput can never exceed the DDR4 peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.common.config import CerealConfig, DRAMConfig
from repro.common.errors import SimulationError
from repro.cereal.du import DeserializationUnit, DUResult, DUWorkload
from repro.cereal.mai import MemoryAccessInterface
from repro.cereal.su import SerializationUnit, SUResult, SUWorkload
from repro.cereal.tables import ClassIDTable, KlassPointerTable
from repro.cereal.tlb import TLB
from repro.formats.base import SerializationResult, SerializedStream
from repro.formats.cereal_format import CerealSerializer
from repro.formats.registry import ClassRegistration
from repro.jvm.heap import Heap, HeapObject
from repro.memory.dram import DRAMModel


@dataclass
class OperationTiming:
    """Cycle-model outcome of one S/D operation."""

    kind: str  # "serialize" | "deserialize"
    elapsed_ns: float
    graph_bytes: int
    stream_bytes: int
    dram_bytes: int
    bandwidth_utilization: float  # fraction of DDR4 peak during the op
    objects: int

    @property
    def elapsed_seconds(self) -> float:
        return self.elapsed_ns * 1e-9


class CerealAccelerator:
    """Functional + timing model of the whole Cereal device."""

    def __init__(
        self,
        config: Optional[CerealConfig] = None,
        registration: Optional[ClassRegistration] = None,
    ):
        self.config = config or CerealConfig()
        self.dram_config = DRAMConfig()
        if registration is None:
            registration = ClassRegistration(max_entries=self.config.max_class_types)
        self.registration = registration
        self.klass_pointer_table = KlassPointerTable(self.config.max_class_types)
        self.class_id_table = ClassIDTable(self.config.max_class_types)
        self.codec = CerealSerializer(registration)
        # Re-install any classes registered before the device was built.
        for class_id, klass in enumerate(registration):
            self._install_tables(klass, class_id)

    # -- software interface (Section V-A) ----------------------------------------

    def register_class(self, klass) -> int:
        """``RegisterClass(Class Type)``: type registry + hardware tables."""
        class_id = self.registration.register(klass)
        self._install_tables(klass, class_id)
        return class_id

    def _install_tables(self, klass, class_id: int) -> None:
        if klass.metaspace_address is None:
            raise SimulationError(
                f"klass {klass.name!r} has no metaspace address; register it "
                f"with a KlassRegistry (heap) before RegisterClass"
            )
        self.klass_pointer_table.install(klass.metaspace_address, class_id)
        self.class_id_table.install(class_id, klass.metaspace_address)

    # -- single operations -----------------------------------------------------------

    def _fresh_memory_system(self) -> MemoryAccessInterface:
        dram = DRAMModel(self.dram_config)
        tlb = TLB(entries=self.config.tlb_entries, page_bytes=self.config.page_bytes)
        return MemoryAccessInterface(dram, self.config, tlb=tlb)

    def serialize(
        self, root: HeapObject
    ) -> Tuple[SerializationResult, OperationTiming, SUResult]:
        """Serialize functionally and time the SU pipeline on unit 0."""
        return self.serialize_concurrent([root])[0]

    def deserialize(
        self, stream: SerializedStream, heap: Heap
    ) -> Tuple[HeapObject, OperationTiming, DUResult]:
        """Deserialize functionally and time the DU pipeline.

        The stream is decoded once; the rebuild and the DU workload share
        the unpacked arrays.
        """
        sections = CerealSerializer.decode_sections(stream)
        deser = self.codec.deserialize(stream, heap, sections=sections)
        workload = DUWorkload.from_stream_sections(sections)
        mai = self._fresh_memory_system()
        unit = DeserializationUnit(mai, self.class_id_table, self.config)
        du = unit.run(workload, destination_base=deser.root.address)
        timing = self._timing_from(
            "deserialize",
            du.elapsed_ns,
            mai,
            graph_bytes=sections.graph_total_bytes,
            stream_bytes=stream.size_bytes,
            objects=sections.object_count,
        )
        return deser.root, timing, du

    def _timing_from(
        self,
        kind: str,
        elapsed_ns: float,
        mai: MemoryAccessInterface,
        graph_bytes: int,
        stream_bytes: int,
        objects: int,
    ) -> OperationTiming:
        dram_bytes = mai.dram.stats.total_bytes
        utilization = mai.dram.stats.bandwidth_utilization(
            elapsed_ns, self.dram_config
        )
        return OperationTiming(
            kind=kind,
            elapsed_ns=elapsed_ns,
            graph_bytes=graph_bytes,
            stream_bytes=stream_bytes,
            dram_bytes=dram_bytes,
            bandwidth_utilization=min(1.0, utilization),
            objects=objects,
        )

    def serialize_concurrent(
        self, roots: Sequence[HeapObject]
    ) -> List[Tuple[SerializationResult, OperationTiming, SUResult]]:
        """Serialize several graphs concurrently across the SU pool.

        All operations share one visited-tracking epoch (they overlap in
        time), so a *shared object* reachable from more than one root is
        claimed by whichever unit reaches it first; the other units detect
        the foreign unit ID in its header and take the software-fallback
        path for it (Section V-E). Returns one result triple per root;
        aggregate wall time comes from :meth:`run_batch` over the timings.
        """
        if not roots:
            return []
        epoch = roots[0].heap.next_serialization_epoch(
            self.config.header_counter_bits
        )
        results = []
        for index, root in enumerate(roots):
            if root.heap is not roots[0].heap:
                raise SimulationError(
                    "serialize_concurrent requires all roots on one heap"
                )
            result = self.codec.serialize(root)
            mai = self._fresh_memory_system()
            unit = SerializationUnit(
                mai,
                self.klass_pointer_table,
                self.config,
                unit_id=index % self.config.num_serializer_units,
            )
            su = unit.run(SUWorkload.from_root(root), serialization_counter=epoch)
            timing = self._timing_from(
                "serialize",
                su.elapsed_ns,
                mai,
                graph_bytes=result.stream.graph_bytes,
                stream_bytes=result.stream.size_bytes,
                objects=result.stream.object_count,
            )
            results.append((result, timing, su))
        return results

    # -- batched operations (operation-level parallelism) ------------------------------

    def run_batch(self, timings: Sequence[OperationTiming]) -> float:
        """Aggregate wall time (ns) for independent ops across the unit pools.

        Serialize ops go to the SU pool, deserialize ops to the DU pool.
        Within each pool, ops are assigned greedily (LPT) to the unit that
        frees earliest — the request scheduler's behaviour. The result is
        then floored by the DRAM bandwidth ceiling: the pools share one
        memory system, so aggregate traffic cannot exceed the DDR4 peak.
        """
        if not timings:
            return 0.0
        su_pool = [0.0] * self.config.num_serializer_units
        du_pool = [0.0] * self.config.num_deserializer_units
        total_dram_bytes = 0
        for op in sorted(timings, key=lambda t: -t.elapsed_ns):
            pool = su_pool if op.kind == "serialize" else du_pool
            slot = pool.index(min(pool))
            pool[slot] += op.elapsed_ns
            total_dram_bytes += op.dram_bytes
        pool_time = max(max(su_pool), max(du_pool))
        bandwidth_floor = (
            total_dram_bytes / self.dram_config.peak_bandwidth_bytes_per_sec * 1e9
        )
        return max(pool_time, bandwidth_floor)
