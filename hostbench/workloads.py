"""The benchmark's three closed-loop workloads.

Each workload builds its inputs once (:meth:`Workload.setup`), then runs
*passes*: one pass issues every op of the workload back to back in one
thread, each op waiting for the previous one (a closed loop with a single
client). An op is one call across the workload's S/D boundary:

* ``micro-sw`` — ``SoftwarePlatform.run_serialize`` / ``run_deserialize``
  over the six Table II graphs x java-builtin / kryo / skyway, with the
  per-config scaled host caches of the figure suite (Figs 3, 10, 11).
* ``micro-cereal`` — ``CerealAccelerator.serialize`` / ``deserialize`` on
  the six graphs plus 8-unit ``DeviceSimulator.run`` serialize and
  deserialize batches on :data:`BATCH_GRAPHS` (Figs 10, 11).
* ``spark-apps`` — the six HiBench apps x java-builtin / kryo / cereal
  backends (Figs 2, 13, 14) at :data:`SPARK_SCALE` of their default
  input. An op is one app run; the S/D boundary timed inside it is the
  backend's ``serialize`` / ``deserialize`` as the app calls them.

Every op returns its *modelled* outputs — simulated ns and cycle
breakdown, cache and DRAM counters, stream length and digest, Spark
ledger buckets — as a JSON-ready dict, which the runner compares with
the committed golden.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cereal import CerealAccelerator
from repro.cereal.device_sim import DeviceSimulator
from repro.common.config import HostCPUConfig, SystemConfig
from repro.cpu import SoftwarePlatform
from repro.formats import (
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
)
from repro.formats.plans import reset_plan_cache
from repro.formats.verify import graphs_equivalent
from repro.jvm import Heap
from repro.jvm.layout_cache import clear_layout_cache
from repro.spark.apps import SPARK_APPS
from repro.spark.backend import CerealBackend, SoftwareBackend
from repro.workloads import (
    MICROBENCH_CONFIGS,
    build_graph_bench,
    build_list_bench,
    build_tree_bench,
)
from repro.workloads.micro import MicrobenchConfig, register_micro_klasses

#: The seed that reproduces the figure suite's graphs exactly.
DEFAULT_SEED = 0

SOFTWARE_SERIALIZERS = ("java-builtin", "kryo", "skyway")
SPARK_BACKENDS = ("java-builtin", "kryo", "cereal")
#: Graphs that also run as 8-unit device batches. Batches on all six cost
#: ~48 s per pass; these four keep a micro-cereal pass near ten seconds.
BATCH_GRAPHS = ("tree-narrow", "list-small", "list-large", "graph-sparse")
#: Input scale of the timed app runs. Half the default input keeps the
#: number of S/D calls of a pass (it does not depend on the scale) and
#: lets two passes fit in one run.
SPARK_SCALE = 0.5

_BUILDERS = {
    "tree": build_tree_bench,
    "list": build_list_bench,
    "graph": build_graph_bench,
}

clock = time.perf_counter


@dataclasses.dataclass
class OpResult:
    """One op of one pass: host time at the boundary and modelled outputs."""

    name: str
    kind: str  # "serialize" | "deserialize" | "app"
    outputs: Dict[str, object]
    ser_s: float = 0.0
    ser_bytes: int = 0
    de_s: float = 0.0
    de_bytes: int = 0
    #: Host seconds of each S/D call inside the op (spark-apps only).
    call_s: List[float] = dataclasses.field(default_factory=list)


# -- helpers ------------------------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fields_of(obj) -> Dict[str, object]:
    """A dataclass's scalar fields (streams, roots and lists left out)."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, (int, float, str, bool)) or value is None:
            out[field.name] = value
    return out


def seeded_config(name: str, seed: int) -> MicrobenchConfig:
    """The Table II config, renamed for a non-default seed.

    The public builders seed their generator from ``stable_hash(config
    .name)``, so a renamed config yields a new graph of the same shape;
    the default seed keeps the figure suite's name and graph.
    """
    config = MICROBENCH_CONFIGS[name]
    if seed == DEFAULT_SEED:
        return config
    return dataclasses.replace(config, name=f"{config.name}@seed{seed}")


def build_graph(config: MicrobenchConfig, heap: Optional[Heap] = None):
    """(heap, root) for ``config`` on a fresh heap (or on ``heap``)."""
    if heap is None:
        heap = Heap(registry=None)
        register_micro_klasses(heap.registry)
    return heap, _BUILDERS[config.shape](heap, config)


def miniature(config: MicrobenchConfig) -> MicrobenchConfig:
    """Same shape and klasses as ``config`` with a 16-object budget."""
    return dataclasses.replace(config, paper_objects=16 * config.scale)


def reset_process_caches() -> None:
    """Start a set-up from cold process-wide plan and layout caches."""
    reset_plan_cache()
    clear_layout_cache()


def make_software(name: str, registry) -> object:
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    if name == "java-builtin":
        return JavaSerializer()
    if name == "kryo":
        return KryoSerializer(registration)
    return SkywaySerializer(registration)


def make_backend(name: str):
    if name == "java-builtin":
        return SoftwareBackend(JavaSerializer())
    if name == "kryo":
        return SoftwareBackend(KryoSerializer())
    return CerealBackend(CerealAccelerator())


Op = Tuple[str, Callable[[], OpResult]]


class Workload:
    """Inputs plus the ordered ops of one pass."""

    name = "abstract"
    #: Whether the inputs depend on ``--seed``.
    seeded = True

    def __init__(self, seed: int = DEFAULT_SEED,
                 graphs: Sequence[str] = tuple(MICROBENCH_CONFIGS)):
        self.seed = seed
        #: Table II graphs the micro workloads run (tests pass a subset).
        self.graphs = tuple(graphs)

    def setup(self) -> None:
        """Build every input and warm the process caches."""
        for _name, step in self.setup_steps():
            step()

    def setup_steps(self) -> List[Tuple[str, Callable[[], None]]]:
        """:meth:`setup` as named steps, one per graph or (app, backend),
        so the runner can time them like ops."""
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError


# -- micro-sw -------------------------------------------------------------------


class MicroSoftware(Workload):
    name = "micro-sw"

    def setup_steps(self):
        self.inputs = []
        return [(f"{self.name}/{graph}/setup", functools.partial(self._build, graph))
                for graph in self.graphs]

    def _build(self, graph) -> None:
        config = seeded_config(graph, self.seed)
        heap, root = build_graph(config)
        host = HostCPUConfig().scaled_caches(max(1, config.scale))
        platform = SoftwarePlatform(SystemConfig(host=host))
        serializers = {
            name: make_software(name, heap.registry)
            for name in SOFTWARE_SERIALIZERS
        }
        _, small = build_graph(miniature(config), Heap(registry=heap.registry))
        for serializer in serializers.values():
            result, _ = platform.run_serialize(serializer, small)
            copy, _ = platform.run_deserialize(
                serializer, result.stream, Heap(registry=heap.registry)
            )
            if not graphs_equivalent(small, copy.root):
                raise RuntimeError(
                    f"{self.name}/{graph}/{serializer.name}: "
                    "round trip changed the graph"
                )
        self.inputs.append((graph, heap, root, platform, serializers))

    def ops(self) -> List[Op]:
        ops: List[Op] = []
        for graph, heap, root, platform, serializers in self.inputs:
            for name, serializer in serializers.items():
                prefix = f"{self.name}/{graph}/{name}"
                state: Dict[str, object] = {}
                ops.append((f"{prefix}/serialize",
                            self._serialize(prefix, platform, serializer, root, state)))
                ops.append((f"{prefix}/deserialize",
                            self._deserialize(prefix, platform, serializer, heap, state)))
        return ops

    @staticmethod
    def _serialize(prefix, platform, serializer, root, state):
        def op() -> OpResult:
            start = clock()
            result, run = platform.run_serialize(serializer, root)
            elapsed = clock() - start
            stream = result.stream
            state["stream"] = stream
            outputs = fields_of(run.timing)
            outputs.update(stream_bytes=stream.size_bytes, stream=digest(stream.data))
            return OpResult(f"{prefix}/serialize", "serialize", outputs,
                            ser_s=elapsed, ser_bytes=stream.graph_bytes)
        return op

    @staticmethod
    def _deserialize(prefix, platform, serializer, heap, state):
        def op() -> OpResult:
            stream = state.pop("stream")
            receiver = Heap(registry=heap.registry)
            start = clock()
            result, run = platform.run_deserialize(serializer, stream, receiver)
            elapsed = clock() - start
            outputs = fields_of(run.timing)
            outputs["profile"] = fields_of(result.profile)
            outputs["heap_used"] = receiver.used_bytes
            return OpResult(f"{prefix}/deserialize", "deserialize", outputs,
                            de_s=elapsed, de_bytes=stream.graph_bytes)
        return op


# -- micro-cereal -----------------------------------------------------------------


class MicroCereal(Workload):
    name = "micro-cereal"

    def setup_steps(self):
        self.inputs = []
        return [(f"{self.name}/{graph}/setup", functools.partial(self._build, graph))
                for graph in self.graphs]

    def _build(self, graph) -> None:
        config = seeded_config(graph, self.seed)
        heap, root = build_graph(config)
        accelerator = CerealAccelerator()
        for klass in heap.registry:
            accelerator.register_class(klass)
        _, small = build_graph(miniature(config), Heap(registry=heap.registry))
        result, _, _ = accelerator.serialize(small)
        copy, _, _ = accelerator.deserialize(
            result.stream, Heap(registry=heap.registry)
        )
        if not graphs_equivalent(small, copy):
            raise RuntimeError(
                f"{self.name}/{graph}: round trip changed the graph"
            )
        self.inputs.append((graph, heap, root, accelerator))

    def ops(self) -> List[Op]:
        ops: List[Op] = []
        for graph, heap, root, accelerator in self.inputs:
            prefix = f"{self.name}/{graph}/cereal"
            state: Dict[str, object] = {}
            ops.append((f"{prefix}/serialize",
                        self._serialize(prefix, accelerator, root, state)))
            ops.append((f"{prefix}/deserialize",
                        self._deserialize(prefix, accelerator, heap, state)))
            if graph in BATCH_GRAPHS:
                simulator = DeviceSimulator(accelerator)
                prefix = f"{self.name}/{graph}/device8"
                ops.append((f"{prefix}/serialize",
                            self._batch(prefix, "serialize", simulator, heap, root, state)))
                ops.append((f"{prefix}/deserialize",
                            self._batch(prefix, "deserialize", simulator, heap, root, state)))
        return ops

    @staticmethod
    def _serialize(prefix, accelerator, root, state):
        def op() -> OpResult:
            start = clock()
            result, timing, su = accelerator.serialize(root)
            elapsed = clock() - start
            stream = result.stream
            state["stream"] = stream
            outputs = fields_of(timing)
            outputs["unit"] = fields_of(su)
            outputs["stream"] = digest(stream.data)
            return OpResult(f"{prefix}/serialize", "serialize", outputs,
                            ser_s=elapsed, ser_bytes=timing.graph_bytes)
        return op

    @staticmethod
    def _deserialize(prefix, accelerator, heap, state):
        def op() -> OpResult:
            stream = state["stream"]
            receiver = Heap(registry=heap.registry)
            start = clock()
            _, timing, du = accelerator.deserialize(stream, receiver)
            elapsed = clock() - start
            outputs = fields_of(timing)
            outputs["unit"] = fields_of(du)
            outputs["heap_used"] = receiver.used_bytes
            return OpResult(f"{prefix}/deserialize", "deserialize", outputs,
                            de_s=elapsed, de_bytes=timing.graph_bytes)
        return op

    @staticmethod
    def _batch(prefix, kind, simulator, heap, root, state):
        units = simulator.config.num_serializer_units

        def op() -> OpResult:
            if kind == "serialize":
                requests = [("serialize", root)] * units
            else:
                stream = state["stream"]
                requests = [
                    ("deserialize", stream, Heap(registry=heap.registry))
                    for _ in range(simulator.config.num_deserializer_units)
                ]
            start = clock()
            run = simulator.run(requests)
            elapsed = clock() - start
            outputs = fields_of(run)
            outputs["operations"] = [
                [done.kind, done.unit_index, done.start_ns, done.finish_ns,
                 done.graph_bytes]
                for done in run.operations
            ]
            if kind == "serialize":
                outputs["streams"] = digest(
                    b"".join(done.stream.data for done in run.operations)
                )
                return OpResult(f"{prefix}/serialize", kind, outputs,
                                ser_s=elapsed, ser_bytes=run.total_graph_bytes)
            state.pop("stream")
            return OpResult(f"{prefix}/deserialize", kind, outputs,
                            de_s=elapsed, de_bytes=run.total_graph_bytes)
        return op


# -- spark-apps -------------------------------------------------------------------


class SparkApps(Workload):
    name = "spark-apps"
    seeded = False  # every app seeds its own generator

    def setup_steps(self):
        # Warm each (app, backend) on a 1% input: the same klasses, plans
        # and code paths as the timed run, at a fraction of its cost.
        return [
            (f"{self.name}/{app}/{backend_name}/setup",
             functools.partial(self._warm, app, backend_name))
            for backend_name in SPARK_BACKENDS
            for app in SPARK_APPS
        ]

    @staticmethod
    def _warm(app, backend_name) -> None:
        SPARK_APPS[app](make_backend(backend_name), scale=0.01)

    def ops(self) -> List[Op]:
        return [
            (f"{self.name}/{app}/{backend_name}/app",
             self._app(f"{self.name}/{app}/{backend_name}/app", backend_name, app))
            for backend_name in SPARK_BACKENDS
            for app in SPARK_APPS
        ]

    @staticmethod
    def _app(name, backend_name, app):
        def op() -> OpResult:
            record = OpResult(name, "app", {})
            streams: List[bytes] = []
            backend = make_backend(backend_name)
            serialize, deserialize = backend.serialize, backend.deserialize

            def timed_serialize(root, site):
                start = clock()
                stream, sd_op = serialize(root, site)
                elapsed = clock() - start
                record.ser_s += elapsed
                record.ser_bytes += sd_op.graph_bytes
                record.call_s.append(elapsed)
                streams.append(stream.data)
                return stream, sd_op

            def timed_deserialize(stream, heap, site):
                start = clock()
                root, sd_op = deserialize(stream, heap, site)
                elapsed = clock() - start
                record.de_s += elapsed
                record.de_bytes += sd_op.graph_bytes
                record.call_s.append(elapsed)
                return root, sd_op

            backend.serialize = timed_serialize
            backend.deserialize = timed_deserialize
            # Looked up per run, so a traced pass calls the profiler's wrapper.
            result = SPARK_APPS[app](backend, scale=SPARK_SCALE)
            breakdown = result.breakdown
            outputs = fields_of(breakdown)
            outputs["records"] = result.records
            outputs["operations"] = len(breakdown.operations)
            outputs["ledger"] = digest(repr(
                [dataclasses.astuple(sd_op) for sd_op in breakdown.operations]
            ).encode())
            outputs["stream_bytes"] = sum(len(data) for data in streams)
            outputs["streams"] = digest(b"".join(streams))
            record.outputs = outputs
            return record
        return op


WORKLOADS = {
    cls.name: cls for cls in (MicroSoftware, MicroCereal, SparkApps)
}
