"""Linear-model training: HiBench SVM and Logistic Regression.

Both apps cache their training set with Spark's ``MEMORY_ONLY_SER``
storage level, so *every* gradient iteration pays a full deserialization
of the cached points, plus a small collect of the partial gradients. They
share one trainer and differ only in their :class:`LinearModel` spec:

* SVM is the suite's most S/D-bound application (paper Figure 2: up to
  90.9% of runtime with Java S/D): the per-point hinge gradient is only a
  handful of FLOPs, and many iterations turn the run into almost pure
  deserialization.
* LR has the largest input of the ML apps (Table III: 1945 MB), a heavier
  per-point kernel (sigmoid + full gradient) and fewer iterations, so S/D
  is a large-but-not-total share of runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.jvm.klass import FieldKind
from repro.spark.apps.base import (
    AppResult,
    ensure_klass,
    new_double_array,
    register_backend_classes,
)
from repro.spark.backend import SDBackend
from repro.spark.engine import MiniSparkContext
from repro.workloads.datagen import DeterministicRandom

_PARTITIONS = 4


@dataclass(frozen=True)
class LinearModel:
    """What one linear-model app trains on, and what each step costs."""

    name: str
    seed: int
    points: int
    features: int
    iterations: int
    negative_label: float
    input_bytes: float  # text input read from HDFS (Table III, scaled)
    parse_instr_per_point: float
    # Gradient over the full-scale point block each scaled point stands for.
    gradient_instr_per_point: float


SVM = LinearModel(
    name="svm",
    seed=0x5117,
    points=1200,
    features=16,
    iterations=12,
    negative_label=-1.0,
    input_bytes=10e6,  # libsvm text (Table III: 1740 MB)
    parse_instr_per_point=9_000.0,
    # Hinge gradient (calibrated against Figure 2's 90.9% S/D share).
    gradient_instr_per_point=20_000.0,
)

LOGISTIC_REGRESSION = LinearModel(
    name="lr",
    seed=0x10B1,
    points=1400,
    features=20,
    iterations=6,
    negative_label=0.0,
    input_bytes=75e6,  # text (Table III: 1945 MB)
    parse_instr_per_point=12_000.0,
    # Sigmoid (exp) + dense gradient: substantially heavier than SVM's hinge.
    gradient_instr_per_point=950_000.0,
)


def train(
    model: LinearModel,
    backend: SDBackend,
    scale: float = 1.0,
    injector=None,
    frame_streams: bool = False,
) -> AppResult:
    context = MiniSparkContext(
        backend,
        injector=injector,
        frame_streams=frame_streams,
    )
    registry = context.registry
    point_klass = ensure_klass(
        registry,
        "LabeledPoint",
        [("label", FieldKind.DOUBLE), ("features", FieldKind.REFERENCE)],
    )
    registry.array_klass(FieldKind.DOUBLE)
    registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(backend, registry)

    rng = DeterministicRandom(seed=model.seed)
    count = max(_PARTITIONS, int(model.points * scale))
    heap = context.executor_heap

    context.read_input(model.input_bytes)
    points = []
    for _ in range(count):
        point = heap.allocate(point_klass)
        point.set("label", 1.0 if rng.random() > 0.5 else model.negative_label)
        point.set("features", new_double_array(heap, rng, model.features))
        points.append(point)
    dataset = context.parallelize(points, _PARTITIONS)
    dataset.foreach_compute(model.parse_instr_per_point)

    cached = dataset.cache_serialized()
    weights = new_double_array(heap, rng, model.features)
    for _ in range(model.iterations):
        context.broadcast(weights, _PARTITIONS)  # current model to executors
        training = cached.read()  # MEMORY_ONLY_SER: deserialize everything
        training.foreach_compute(model.gradient_instr_per_point)
        # Partial gradients (one dense vector per partition) to the driver.
        gradients = [
            new_double_array(heap, rng, model.features)
            for _ in range(training.num_partitions)
        ]
        context.parallelize(gradients, training.num_partitions).collect()
        context.account_compute(model.features * 40.0)  # driver-side update

    return AppResult(
        name=model.name,
        backend_name=backend.name,
        breakdown=context.breakdown,
        records=count,
    )


def run_svm(
    backend: SDBackend,
    scale: float = 1.0,
    injector=None,
    frame_streams: bool = False,
) -> AppResult:
    return train(SVM, backend, scale, injector, frame_streams)


def run_logistic_regression(
    backend: SDBackend,
    scale: float = 1.0,
    injector=None,
    frame_streams: bool = False,
) -> AppResult:
    return train(LOGISTIC_REGRESSION, backend, scale, injector, frame_streams)
