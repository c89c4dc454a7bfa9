"""Tests for the Section V-E implementation details.

Covers: header-counter visited tracking across serialization epochs,
forced GC on counter overflow, shared-object unit-ID reservation with
software fallback, and the coherence read-latency knob.
"""

import pytest

from repro.cereal import CerealAccelerator
from repro.common.config import CerealConfig
from repro.common.errors import SimulationError
from repro.formats import graphs_equivalent
from repro.jvm import Heap
from tests.test_serializers import build_shared, build_tree, make_registry


@pytest.fixture
def setup():
    registry = make_registry()
    accelerator = CerealAccelerator()
    for klass in registry:
        accelerator.register_class(klass)
    heap = Heap(registry=registry)
    return registry, accelerator, heap


class TestVisitedEpochs:
    def test_serialize_writes_header_metadata(self, setup):
        _, accelerator, heap = setup
        root = build_tree(heap, depth=3)
        accelerator.serialize(root)
        # Every reachable object carries the current epoch in its header.
        epoch = heap._serialization_epoch
        assert epoch > 0
        assert root.serialization_counter == epoch
        assert root.get("left").serialization_counter == epoch

    def test_epochs_advance_per_operation(self, setup):
        _, accelerator, heap = setup
        root = build_tree(heap, depth=3)
        accelerator.serialize(root)
        first = root.serialization_counter
        accelerator.serialize(root)
        assert root.serialization_counter == first + 1

    def test_stale_epoch_objects_reserialize_fully(self, setup):
        """An object visited in a previous epoch must not appear visited."""
        _, accelerator, heap = setup
        root = build_tree(heap, depth=4)
        _, _, su_first = accelerator.serialize(root)
        _, _, su_second = accelerator.serialize(root)
        assert su_second.objects == su_first.objects

    def test_relative_address_recorded_in_header(self, setup):
        _, accelerator, heap = setup
        root = build_shared(heap)
        accelerator.serialize(root)
        shared = root.get("left")
        # Root at offset 0; the shared child right behind it (BFS order).
        assert root.serialized_relative_address == 0
        assert shared.serialized_relative_address == root.size_bytes

    def test_two_accelerators_share_heap_epochs(self, setup):
        registry, accelerator, heap = setup
        other = CerealAccelerator(registration=accelerator.registration)
        root = build_tree(heap, depth=3)
        _, _, su_a = accelerator.serialize(root)
        _, _, su_b = other.serialize(root)
        # The heap hands out distinct epochs, so the second device does a
        # full traversal instead of seeing stale "visited" markers.
        assert su_b.objects == su_a.objects


class TestForcedGC:
    def test_counter_overflow_forces_collection(self):
        heap = Heap()
        for _ in range(0xFFFF):
            heap.next_serialization_epoch()
        assert heap.forced_gc_count == 0
        epoch = heap.next_serialization_epoch()
        assert heap.forced_gc_count == 1
        assert epoch == 1  # restarted after the collection

    def test_forced_gc_clears_object_metadata(self, setup):
        _, accelerator, heap = setup
        root = build_tree(heap, depth=2)
        accelerator.serialize(root)
        assert root.serialization_counter > 0
        heap._serialization_epoch = 0xFFFF  # fast-forward to the edge
        heap.next_serialization_epoch()
        assert root.serialization_counter == 0

    def test_narrow_counter_wraps_sooner(self):
        heap = Heap()
        for _ in range(8):
            heap.next_serialization_epoch(counter_bits=3)
        assert heap.forced_gc_count == 1


class TestSharedObjectFallback:
    def test_concurrent_disjoint_graphs_no_fallback(self, setup):
        _, accelerator, heap = setup
        roots = [build_tree(heap, depth=3) for _ in range(3)]
        results = accelerator.serialize_concurrent(roots)
        assert all(su.fallback_objects == 0 for _, _, su in results)

    def test_shared_object_forces_fallback_on_later_unit(self, setup):
        _, accelerator, heap = setup
        shared = build_tree(heap, depth=3)
        root_a = heap.new_instance("Node")
        root_b = heap.new_instance("Node")
        root_a.set("left", shared)
        root_b.set("left", shared)
        results = accelerator.serialize_concurrent([root_a, root_b])
        su_a, su_b = results[0][2], results[1][2]
        assert su_a.fallback_objects == 0  # first unit claims the headers
        assert su_b.fallback_objects == 15  # whole shared subtree falls back
        # Exact modelled times: unit B pays the software fallback for each
        # of its 15 foreign headers, so any change to its cost moves B.
        assert su_a.elapsed_ns == 1500.666666666667
        assert su_b.elapsed_ns == 2065.666666666668

    def test_fallback_costs_time(self, setup):
        _, accelerator, heap = setup
        shared = build_tree(heap, depth=6)
        root_a = heap.new_instance("Node")
        root_b = heap.new_instance("Node")
        root_a.set("left", shared)
        root_b.set("left", shared)
        results = accelerator.serialize_concurrent([root_a, root_b])
        _, timing_a, _ = results[0]
        _, timing_b, _ = results[1]
        assert timing_b.elapsed_ns > timing_a.elapsed_ns

    def test_fallback_output_still_correct(self, setup):
        registry, accelerator, heap = setup
        shared = build_tree(heap, depth=3)
        root_a = heap.new_instance("Node")
        root_b = heap.new_instance("Node")
        root_a.set("left", shared)
        root_b.set("left", shared)
        results = accelerator.serialize_concurrent([root_a, root_b])
        for original, (result, _, _) in zip((root_a, root_b), results):
            receiver = Heap(registry=registry)
            rebuilt, _, _ = accelerator.deserialize(result.stream, receiver)
            assert graphs_equivalent(original, rebuilt)

    def test_more_roots_than_units_reuse_a_unit(self, setup):
        """Root 8 runs on unit 0 again in the same epoch. The claims root 0
        left are stale, not root 8's visited marks: its walk covers its
        whole graph and falls back on none of it."""
        _, accelerator, heap = setup
        shared = build_tree(heap, depth=3)
        roots = []
        for _ in range(9):
            root = heap.new_instance("Node")
            root.set("left", shared)
            roots.append(root)
        results = accelerator.serialize_concurrent(roots)
        for result, _, su in results:
            assert su.objects == result.stream.object_count
        fallbacks = [su.fallback_objects for _, _, su in results]
        assert fallbacks[1:8] == [15] * 7
        assert fallbacks[8] == 0

    def test_concurrent_requires_one_heap(self, setup):
        registry, accelerator, heap = setup
        other_heap = Heap(registry=registry)
        with pytest.raises(SimulationError):
            accelerator.serialize_concurrent(
                [build_tree(heap, depth=2), build_tree(other_heap, depth=2)]
            )

    def test_empty_batch(self, setup):
        _, accelerator, _ = setup
        assert accelerator.serialize_concurrent([]) == []


class TestCoherenceLatency:
    def test_extra_read_latency_slows_serialization(self, setup):
        registry, accelerator, heap = setup
        root = build_tree(heap, depth=7)
        _, clean, _ = accelerator.serialize(root)
        coherent = CerealAccelerator(
            CerealConfig(coherence_extra_read_ns=30.0),
            registration=accelerator.registration,
        )
        _, dirty, _ = coherent.serialize(root)
        assert dirty.elapsed_ns > clean.elapsed_ns

    def test_pipelining_tolerates_coherence_partially(self, setup):
        """Section V-E: pipelined execution tolerates the added latency —
        the slowdown is sublinear in the extra per-read latency."""
        registry, accelerator, heap = setup
        root = build_tree(heap, depth=8)
        stream = accelerator.serialize(root)[0].stream
        base_acc = CerealAccelerator(registration=accelerator.registration)
        slow_acc = CerealAccelerator(
            CerealConfig(coherence_extra_read_ns=40.0),
            registration=accelerator.registration,
        )
        _, base, _ = base_acc.deserialize(stream, Heap(registry=registry))
        _, slow, _ = slow_acc.deserialize(stream, Heap(registry=registry))
        pipelined_slowdown = slow.elapsed_ns / base.elapsed_ns

        vanilla_base = CerealAccelerator(
            CerealConfig().vanilla(), registration=accelerator.registration
        )
        vanilla_slow = CerealAccelerator(
            CerealConfig(coherence_extra_read_ns=40.0).vanilla(),
            registration=accelerator.registration,
        )
        _, vb, _ = vanilla_base.deserialize(stream, Heap(registry=registry))
        _, vs, _ = vanilla_slow.deserialize(stream, Heap(registry=registry))
        vanilla_slowdown = vs.elapsed_ns / vb.elapsed_ns
        # The pipelined DU absorbs the added latency better than the
        # unpipelined one, and doubling read latency costs well under 2x.
        assert pipelined_slowdown < vanilla_slowdown
        assert pipelined_slowdown < 1.9
