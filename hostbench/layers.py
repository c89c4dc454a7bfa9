"""Per-layer host self time, measured from outside the program.

:class:`LayerProfiler` wraps the public methods of each layer's classes
at run time (class attributes are swapped for timing wrappers and put
back on :meth:`LayerProfiler.uninstall`), so nothing under ``src/``
carries a probe. Every wrapped call is a span: its *self time* is its
duration minus the time covered by wrapped calls nested inside it, and
is charged to the layer that owns the method. Time a wrapper spends on
its own bookkeeping falls outside the wrapped interval and is charged to
the caller, so the self times of all layers plus the benchmark's own op
code add up to the pass's wall time.

Private methods (leading underscore, except ``__init__``) and generator
functions are left alone: their time lands in the public caller's self
time, which is the layer that owns them anyway. The Spark app drivers are
plain functions, not methods: their entries in ``SPARK_APPS`` are swapped
the same way, so the apps' own code is charged to ``spark.apps`` and the
benchmark's glue around an op (backend set-up, stream digests) to
``bench``.

Spans of at least ``SPAN_THRESHOLD_NS`` are kept (as tuples, in memory)
for the Chrome trace export through :mod:`repro.obs`; shorter ones are
only summed, so a pass with millions of per-access calls stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, module, class names). A method whose name is in ``SPLIT`` goes
#: to the split layer instead (formats: serialize vs deserialize side).
LAYER_CLASSES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("memory.trace", "repro.memory.trace", ("MemoryTrace",)),
    ("memory.space", "repro.memory.space", ("MemorySpace",)),
    ("memory.dram", "repro.memory.dram", ("DRAMModel",)),
    ("cpu.cache", "repro.cpu.cache", ("CacheHierarchy",)),
    ("cpu.core", "repro.cpu.core", ("CPUCostModel",)),
    ("cpu.harness", "repro.cpu.harness", ("SoftwarePlatform",)),
    ("jvm", "repro.jvm.heap", ("Heap", "HeapObject")),
    ("jvm", "repro.jvm.klass", ("KlassRegistry",)),
    ("jvm", "repro.jvm.reflection", ("JavaReflection", "ReflectAsmAccess")),
    ("formats.ser", "repro.formats.javaser", ("JavaSerializer",)),
    ("formats.ser", "repro.formats.kryo", ("KryoSerializer",)),
    ("formats.ser", "repro.formats.skyway", ("SkywaySerializer",)),
    ("formats.ser", "repro.formats.cereal_format", ("CerealSerializer",)),
    ("cereal.su", "repro.cereal.su", ("SerializationUnit",)),
    ("cereal.du", "repro.cereal.du", ("DeserializationUnit", "DUWorkload")),
    ("cereal.mai", "repro.cereal.mai", ("MemoryAccessInterface",)),
    ("cereal.mai", "repro.cereal.tlb", ("TLB",)),
    ("cereal.device", "repro.cereal.accelerator", ("CerealAccelerator",)),
    ("cereal.device", "repro.cereal.device_sim", ("DeviceSimulator",)),
    ("spark.engine", "repro.spark.engine",
     ("MiniSparkContext", "PartitionedDataset", "CachedDataset")),
    ("spark.transfer", "repro.spark.transfer", ("ResilientTransfer",)),
    ("spark.backend", "repro.spark.backend", ("SoftwareBackend", "CerealBackend")),
)

#: Method names that belong to the deserialize side of a format.
SPLIT = {"formats.ser": ("formats.de", ("deserialize", "decode_sections"))}

#: (layer, module, dict name): functions held in a module-level table,
#: wrapped in place. ``spark.apps`` is the app drivers' own Python (record
#: generation, user lambdas).
LAYER_TABLES: Tuple[Tuple[str, str, str], ...] = (
    ("spark.apps", "repro.spark.apps", "SPARK_APPS"),
)

#: The benchmark's op glue, which is not a program layer.
BENCH_LAYER = "bench"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [layer for layer, _, _ in LAYER_CLASSES]
        + [split for split, _ in SPLIT.values()]
        + [layer for layer, _, _ in LAYER_TABLES]
        + [BENCH_LAYER]
    )
)

#: Spans at least this long are kept for the Chrome trace export.
SPAN_THRESHOLD_NS = 1_000_000

Observer = Callable[[object, tuple], None]


class LayerProfiler:
    """Swaps layer methods for self-time wrappers while installed."""

    def __init__(self):
        self._slots: Dict[str, int] = {layer: i for i, layer in enumerate(LAYERS)}
        self.self_ns: List[int] = [0] * len(LAYERS)
        self.calls: List[int] = [0] * len(LAYERS)
        # One child-time accumulator per open span; the bottom entry
        # collects top-level time so the bookkeeping never special-cases.
        self._stack: List[List[int]] = [[0]]
        self.spans: List[Tuple[str, str, int, int]] = []
        self._observers: Dict[Tuple[str, str], Observer] = {}
        # One call per swapped attribute that puts the original back.
        self._saved: List[Callable[[], None]] = []

    # -- installation -------------------------------------------------------

    def observe(self, class_name: str, method: str, observer: Observer) -> None:
        """Call ``observer(result, args)`` after each call of a method.

        Observers read counters from objects the public API returns; they
        run after the span closed, so their cost is charged to the caller.
        Register them before :meth:`install`.
        """
        self._observers[(class_name, method)] = observer

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("profiler already installed")
        for layer, module_name, class_names in LAYER_CLASSES:
            module = importlib.import_module(module_name)
            for class_name in class_names:
                cls = getattr(module, class_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name != "__init__":
                        continue
                    target_layer = layer
                    split = SPLIT.get(layer)
                    if split is not None and name in split[1]:
                        target_layer = split[0]
                    wrapped = self._wrap_attr(attr, target_layer, class_name, name)
                    if wrapped is not None:
                        self._saved.append(functools.partial(setattr, cls, name, attr))
                        setattr(cls, name, wrapped)
        for layer, module_name, table_name in LAYER_TABLES:
            table = getattr(importlib.import_module(module_name), table_name)
            for key, fn in list(table.items()):
                self._saved.append(functools.partial(table.__setitem__, key, fn))
                table[key] = self._wrap(fn, layer, table_name, key)

    def uninstall(self) -> None:
        for restore in reversed(self._saved):
            restore()
        self._saved.clear()

    def _wrap_attr(self, attr, layer: str, class_name: str, name: str):
        if isinstance(attr, staticmethod):
            return staticmethod(self._wrap(attr.__func__, layer, class_name, name))
        if isinstance(attr, classmethod):
            return classmethod(self._wrap(attr.__func__, layer, class_name, name))
        if inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
            return self._wrap(attr, layer, class_name, name)
        return None

    def _wrap(self, fn: Callable, layer: str, class_name: str, name: str) -> Callable:
        slot = self._slots[layer]
        label = f"{class_name}.{name}"
        observer = self._observers.get((class_name, name))
        return self.timed(fn, slot, layer, label, observer)

    def timed(
        self,
        fn: Callable,
        slot: int,
        layer: str,
        label: str,
        observer: Optional[Observer] = None,
    ) -> Callable:
        """A wrapper that charges ``fn``'s self time to layer ``slot``."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        spans = self.spans
        threshold = SPAN_THRESHOLD_NS
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[slot] += elapsed - frame[0]
                stack[-1][0] += elapsed
                calls[slot] += 1
                if elapsed >= threshold:
                    spans.append((layer, label, start, end))
            if observer is not None:
                observer(result, args)
            return result

        return wrapper

    def run_as(self, label: str, fn: Callable):
        """Run ``fn()``, one of the benchmark's ops, as a ``bench`` span."""
        return self.timed(fn, self._slots[BENCH_LAYER], BENCH_LAYER, label)()

    # -- results --------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        return {layer: self.self_ns[i] / 1e9 for layer, i in self._slots.items()}

    def call_counts(self) -> Dict[str, int]:
        return {layer: self.calls[i] for layer, i in self._slots.items()}

    def export_spans(self, tracer, origin_ns: int) -> int:
        """Record the kept spans on ``tracer`` (host ns since ``origin_ns``)."""
        for layer, label, start, end in self.spans:
            tracer.record_span(
                label,
                float(start - origin_ns),
                float(end - origin_ns),
                category=layer,
                track="host",
                layer=layer,
            )
        return len(self.spans)


class LayerCounters:
    """Exact work counts, read from objects the layers return or own.

    Per-access counters (trace records, DRAM accesses, MAI blocks) are
    summed from the stats of every instance built during an op: the
    instances are collected as they are constructed and read by
    :meth:`harvest`, which the runner calls after each op so no op's
    instances outlive it.
    """

    def __init__(self, profiler: LayerProfiler):
        self.trace_records = 0
        self.replays = 0
        self.builds = 0
        self.lines = 0
        self.l1_hits = 0
        self.llc_accesses = 0
        self.llc_misses = 0
        self.stream_bytes = 0
        self.mai_blocks = 0
        self.mai_coalesced = 0
        self.mai_fetched = 0
        self.dram_accesses = 0
        self.modelled_unit_ns = 0.0
        self._traces: list = []
        self._mais: list = []
        self._drams: list = []
        collect = (
            ("MemoryTrace", self._traces),
            ("MemoryAccessInterface", self._mais),
            ("DRAMModel", self._drams),
        )
        for class_name, bucket in collect:
            profiler.observe(class_name, "__init__",
                             lambda _result, args, bucket=bucket: bucket.append(args[0]))
        profiler.observe("CacheHierarchy", "__init__", self._on_build)
        profiler.observe("CacheHierarchy", "replay", self._on_replay)
        for class_name in ("JavaSerializer", "KryoSerializer",
                           "SkywaySerializer", "CerealSerializer"):
            profiler.observe(class_name, "serialize", self._on_serialize)
        profiler.observe("SerializationUnit", "run", self._on_unit)
        profiler.observe("DeserializationUnit", "run", self._on_unit)

    def _on_build(self, _result, _args) -> None:
        self.builds += 1

    def _on_replay(self, stats, _args) -> None:
        self.replays += 1
        self.lines += stats.accesses
        self.l1_hits += stats.l1_hits
        self.llc_accesses += stats.llc_accesses
        self.llc_misses += stats.dram_accesses

    def _on_serialize(self, result, _args) -> None:
        self.stream_bytes += result.stream.size_bytes

    def _on_unit(self, result, _args) -> None:
        self.modelled_unit_ns += result.elapsed_ns

    def harvest(self) -> None:
        for trace in self._traces:
            self.trace_records += trace.total_count
        for mai in self._mais:
            stats = mai.stats
            self.mai_blocks += stats.blocks_read + stats.blocks_written
            self.mai_coalesced += stats.coalesced_blocks
            self.mai_fetched += stats.blocks_read
        for dram in self._drams:
            self.dram_accesses += dram.stats.accesses
        self._traces.clear()
        self._mais.clear()
        self._drams.clear()

    @property
    def coalesce_rate(self) -> float:
        probes = self.mai_fetched + self.mai_coalesced
        return self.mai_coalesced / probes if probes else 0.0


def coverage(self_seconds: Dict[str, float], pass_s: float) -> float:
    """Share of a traced pass that program layers (not ``bench``) account for."""
    covered = sum(s for layer, s in self_seconds.items() if layer != BENCH_LAYER)
    return covered / pass_s if pass_s > 0 else 0.0
