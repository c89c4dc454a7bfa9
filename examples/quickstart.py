#!/usr/bin/env python
"""Quickstart: serialize an object graph with all four formats + Cereal.

Builds a small binary tree on a simulated HotSpot heap, round-trips it
through Java built-in serialization, Kryo, Skyway, and the Cereal format,
then runs the Cereal accelerator's cycle model on the same graph and
prints modelled times alongside the CPU baselines.

Run:  python examples/quickstart.py
"""

from repro.cereal import CerealAccelerator
from repro.cpu import SoftwarePlatform
from repro.formats import (
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
    graphs_equivalent,
)
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    ObjectGraph,
)


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


def main():
    # 1. A simulated JVM heap with one registered class.
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
    root = build_tree(heap, depth=8)  # 511 objects
    object_count = ObjectGraph.from_root(root).object_count
    print(f"built a tree of {object_count} objects, {root.size_bytes} B per node\n")

    # 2. Software serializers, timed by the CPU cost model.
    registration = ClassRegistration()
    for klass in heap.registry:
        registration.register(klass)
    platform = SoftwarePlatform()
    print(f"{'serializer':14s} {'stream':>9s} {'ser time':>10s} {'deser time':>11s}")
    for serializer in (
        JavaSerializer(),
        KryoSerializer(registration),
        SkywaySerializer(registration),
    ):
        receiver = Heap(registry=heap.registry)
        result, ser_run = platform.run_serialize(serializer, root)
        deser, de_run = platform.run_deserialize(serializer, result.stream, receiver)
        assert graphs_equivalent(root, deser.root)
        print(
            f"{serializer.name:14s} {result.stream.size_bytes:7d} B "
            f"{ser_run.timing.time_ns / 1000:8.1f} us "
            f"{de_run.timing.time_ns / 1000:9.1f} us"
        )

    # 3. The Cereal accelerator: functional bytes + cycle-model timing.
    accelerator = CerealAccelerator()
    for klass in heap.registry:
        accelerator.register_class(klass)
    receiver = Heap(registry=heap.registry)
    result, ser_timing, _ = accelerator.serialize(root)
    rebuilt, de_timing, _ = accelerator.deserialize(result.stream, receiver)
    assert graphs_equivalent(root, rebuilt)
    print(
        f"{'cereal (HW)':14s} {result.stream.size_bytes:7d} B "
        f"{ser_timing.elapsed_ns / 1000:8.1f} us "
        f"{de_timing.elapsed_ns / 1000:9.1f} us"
    )
    print(
        f"\naccelerator bandwidth: serialize {ser_timing.bandwidth_utilization * 100:.1f}%, "
        f"deserialize {de_timing.bandwidth_utilization * 100:.1f}% of DDR4 peak "
        f"(single unit of {accelerator.config.num_serializer_units})"
    )


if __name__ == "__main__":
    main()
