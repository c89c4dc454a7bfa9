"""Shared fixtures for the benchmark harness.

The expensive simulations (microbenchmark suite, JSBS, the six Spark
applications on three backends) are computed once per pytest session and
shared by every figure/table benchmark. Each bench prints its reproduced
table and persists it under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.cereal import CerealAccelerator
from repro.cereal.device_sim import DeviceSimulator
from repro.cereal.mai import MemoryAccessInterface
from repro.common.config import CerealConfig, HostCPUConfig, SystemConfig
from repro.cpu import SoftwarePlatform
from repro.formats import (
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
)
from repro.jvm import Heap
from repro.spark.apps import SPARK_APPS
from repro.spark.backend import CerealBackend, SoftwareBackend
from repro.workloads import MICROBENCH_CONFIGS, build_media_content, build_microbench
from repro.workloads.micro import register_micro_klasses

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SOFTWARE_SERIALIZERS = ("java-builtin", "kryo", "skyway")


def _make_software(name: str, registry) -> object:
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    if name == "java-builtin":
        return JavaSerializer()
    if name == "kryo":
        return KryoSerializer(registration)
    if name == "skyway":
        return SkywaySerializer(registration)
    raise ValueError(name)


@dataclass
class MicroMeasurement:
    """One (workload, serializer) measurement pair."""

    serialize_time_ns: float
    deserialize_time_ns: float
    serialize_bandwidth: float  # single-lane utilization fraction
    deserialize_bandwidth: float
    stream_bytes: int
    graph_bytes: int
    objects: int
    serialize_ipc: float = 0.0
    deserialize_ipc: float = 0.0
    llc_miss_rate: float = 0.0
    # Cereal rows only: the serialize's SUResult and DRAM bytes, and the
    # (bandwidth_utilization, wall_time_ns, dram_bytes) of the 8-unit
    # serialize and deserialize batches (default Cereal only).
    su: object = None
    serialize_dram_bytes: int = 0
    device_runs: tuple = ()


@dataclass
class MicroSuiteResults:
    """All measurements: results[workload][serializer] -> MicroMeasurement."""

    results: Dict[str, Dict[str, MicroMeasurement]] = field(default_factory=dict)

    def speedup_over_java(self, workload: str, serializer: str, op: str) -> float:
        java = self.results[workload]["java-builtin"]
        other = self.results[workload][serializer]
        if op == "serialize":
            return java.serialize_time_ns / other.serialize_time_ns
        return java.deserialize_time_ns / other.deserialize_time_ns

    def hostbench_ops(self, workload: str, names, fields) -> Dict[str, Dict]:
        """``{hostbench op: {golden field: value}}`` on every graph; ``fields``
        maps each op to ``{golden field: MicroMeasurement attribute}``."""
        return {
            f"{workload}/{graph}/{name}/{op}": {
                key: getattr(row[name], attribute) for key, attribute in keys.items()
            }
            for graph, row in self.results.items()
            for name in names
            for op, keys in fields.items()
        }


def _measure_software(name: str, workload: str) -> MicroMeasurement:
    config = MICROBENCH_CONFIGS[workload]
    host = HostCPUConfig().scaled_caches(max(1, config.scale))
    platform = SoftwarePlatform(SystemConfig(host=host))
    heap = Heap(registry=None)
    register_micro_klasses(heap.registry)
    receiver = Heap(registry=heap.registry)
    root = build_microbench(heap, workload)
    serializer = _make_software(name, heap.registry)
    result, ser_run = platform.run_serialize(serializer, root)
    _, de_run = platform.run_deserialize(serializer, result.stream, receiver)
    return MicroMeasurement(
        serialize_time_ns=ser_run.timing.time_ns,
        deserialize_time_ns=de_run.timing.time_ns,
        serialize_bandwidth=ser_run.timing.bandwidth_utilization,
        deserialize_bandwidth=de_run.timing.bandwidth_utilization,
        stream_bytes=result.stream.size_bytes,
        graph_bytes=result.stream.graph_bytes,
        objects=result.stream.object_count,
        serialize_ipc=ser_run.timing.ipc,
        deserialize_ipc=de_run.timing.ipc,
        llc_miss_rate=ser_run.timing.llc_miss_rate,
    )


def _device_runs(accelerator: CerealAccelerator, root, stream) -> tuple:
    """(bandwidth_utilization, wall_time_ns, dram_bytes) of one serialize
    and one deserialize batch with all 8 units busy on the shared memory
    system (:class:`~repro.cereal.device_sim.DeviceSimulator`)."""
    simulator = DeviceSimulator(accelerator)
    config = accelerator.config
    runs = (
        simulator.run([("serialize", root)] * config.num_serializer_units),
        simulator.run([
            ("deserialize", stream, Heap(registry=root.heap.registry))
            for _ in range(config.num_deserializer_units)
        ]),
    )
    return tuple((run.bandwidth_utilization, run.wall_time_ns, run.dram_bytes) for run in runs)


def _measure_cereal(workload: str, vanilla: bool = False) -> MicroMeasurement:
    """Single-op Cereal times; the 8-unit batches only for the default
    config, since Figure 11 reads no Vanilla device-level utilization."""
    heap = Heap(registry=None)
    register_micro_klasses(heap.registry)
    root = build_microbench(heap, workload)
    accelerator = CerealAccelerator(CerealConfig().vanilla() if vanilla else CerealConfig())
    for klass in heap.registry:
        accelerator.register_class(klass)
    receiver = Heap(registry=heap.registry)
    result, ser_timing, su = accelerator.serialize(root)
    _, de_timing, _ = accelerator.deserialize(result.stream, receiver)
    return MicroMeasurement(
        serialize_time_ns=ser_timing.elapsed_ns,
        deserialize_time_ns=de_timing.elapsed_ns,
        serialize_bandwidth=ser_timing.bandwidth_utilization,
        deserialize_bandwidth=de_timing.bandwidth_utilization,
        stream_bytes=result.stream.size_bytes,
        graph_bytes=result.stream.graph_bytes,
        objects=result.stream.object_count,
        su=su,
        serialize_dram_bytes=ser_timing.dram_bytes,
        device_runs=() if vanilla else _device_runs(accelerator, root, result.stream),
    )


@pytest.fixture(scope="session")
def micro_results() -> MicroSuiteResults:
    suite = MicroSuiteResults()
    for workload in MICROBENCH_CONFIGS:
        row: Dict[str, MicroMeasurement] = {}
        for name in SOFTWARE_SERIALIZERS:
            row[name] = _measure_software(name, workload)
        row["cereal"] = _measure_cereal(workload)
        row["cereal-vanilla"] = _measure_cereal(workload, vanilla=True)
        suite.results[workload] = row
    return suite


@dataclass
class SparkSuiteResults:
    """results[backend][app] -> AppResult; cereal streams kept per app."""

    results: Dict[str, Dict[str, object]] = field(default_factory=dict)
    cereal_streams: Dict[str, list] = field(default_factory=dict)

    def apps(self) -> List[str]:
        return list(SPARK_APPS)


def _spark_backend(name: str):
    if name == "java-builtin":
        return SoftwareBackend(JavaSerializer())
    if name == "kryo":
        return SoftwareBackend(KryoSerializer())
    if name == "cereal":
        return CerealBackend(CerealAccelerator(), keep_streams=True)
    raise ValueError(name)


@pytest.fixture(scope="session")
def spark_results() -> SparkSuiteResults:
    suite = SparkSuiteResults()
    for backend_name in ("java-builtin", "kryo", "cereal"):
        row = {}
        for app_name, runner in SPARK_APPS.items():
            backend = _spark_backend(backend_name)
            row[app_name] = runner(backend)
            if backend_name == "cereal":
                suite.cereal_streams[app_name] = list(backend.streams)
        suite.results[backend_name] = row
    return suite


@dataclass
class JSBSResults:
    """Measured round trips on the MediaContent object."""

    java: MicroMeasurement = None  # type: ignore[assignment]
    kryo: MicroMeasurement = None  # type: ignore[assignment]
    skyway: MicroMeasurement = None  # type: ignore[assignment]
    cereal: MicroMeasurement = None  # type: ignore[assignment]

    def round_trip_ns(self, name: str) -> float:
        m = getattr(self, name)
        return m.serialize_time_ns + m.deserialize_time_ns


def _measure_jsbs(name: str) -> MicroMeasurement:
    heap = Heap(registry=None)
    root = build_media_content(heap)
    receiver = Heap(registry=heap.registry)
    if name == "cereal":
        accelerator = CerealAccelerator()
        for klass in heap.registry:
            accelerator.register_class(klass)
        result, ser_timing, _ = accelerator.serialize(root)
        _, de_timing, _ = accelerator.deserialize(result.stream, receiver)
        return MicroMeasurement(
            serialize_time_ns=ser_timing.elapsed_ns,
            deserialize_time_ns=de_timing.elapsed_ns,
            serialize_bandwidth=ser_timing.bandwidth_utilization,
            deserialize_bandwidth=de_timing.bandwidth_utilization,
            stream_bytes=result.stream.size_bytes,
            graph_bytes=result.stream.graph_bytes,
            objects=result.stream.object_count,
        )
    platform = SoftwarePlatform()
    serializer = _make_software(name, heap.registry)
    result, ser_run = platform.run_serialize(serializer, root)
    _, de_run = platform.run_deserialize(serializer, result.stream, receiver)
    return MicroMeasurement(
        serialize_time_ns=ser_run.timing.time_ns,
        deserialize_time_ns=de_run.timing.time_ns,
        serialize_bandwidth=ser_run.timing.bandwidth_utilization,
        deserialize_bandwidth=de_run.timing.bandwidth_utilization,
        stream_bytes=result.stream.size_bytes,
        graph_bytes=result.stream.graph_bytes,
        objects=result.stream.object_count,
    )


@pytest.fixture(scope="session")
def jsbs_results() -> JSBSResults:
    return JSBSResults(
        java=_measure_jsbs("java-builtin"),
        kryo=_measure_jsbs("kryo"),
        skyway=_measure_jsbs("skyway"),
        cereal=_measure_jsbs("cereal"),
    )


@pytest.fixture(scope="session")
def results_dir() -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def memory_systems(monkeypatch) -> List[MemoryAccessInterface]:
    """The MAI of every memory system a :class:`CerealAccelerator` builds
    during the test, in build order: one per single operation."""
    built: List[MemoryAccessInterface] = []
    build = CerealAccelerator._fresh_memory_system

    def recording(accelerator):
        mai = build(accelerator)
        built.append(mai)
        return mai

    monkeypatch.setattr(CerealAccelerator, "_fresh_memory_system", recording)
    return built


def traffic(elapsed_ns: float, mai: MemoryAccessInterface) -> Dict[str, object]:
    """One ablation pin: raw modelled ns, MAI blocks read and coalesced,
    and DRAM accesses."""
    return {
        "ns": elapsed_ns,
        "blocks_read": mai.stats.blocks_read,
        "coalesced_blocks": mai.stats.coalesced_blocks,
        "dram_accesses": mai.dram.stats.accesses,
    }
