"""Compiled serialization plans: equivalence, caches, traversal.

The plan kernels in :mod:`repro.formats.plans` exist purely for speed —
every observable output (stream bytes, section accounting, work profiles,
rebuilt graphs) must match the interpreter oracles of ``tests/oracles.py``
exactly. These
tests pin that equivalence over the fuzz corpus and hand-built edge
shapes, and cover the supporting machinery the plans ride on: the plan
cache, the layout-cache counters, and the slot-run traversal fast path.
"""

from __future__ import annotations

import sys
from collections import deque

import pytest

from tests.oracles import CerealOracle, JavaOracle, KryoOracle, oracle_serializer
from tests.test_fuzz_roundtrip import build_fuzz_graph, fuzz_registry

from repro.common.errors import FormatError, HeapError
from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    collect_chunks,
)
from repro.formats import plans
from repro.formats.verify import first_difference
from repro.jvm import FieldKind, Heap
from repro.jvm import layout_cache
from repro.jvm.graph import ObjectGraph, traverse_slot_runs
from repro.obs.metrics import get_registry
from repro.workloads import MICROBENCH_CONFIGS, build_microbench

_SEEDS = (1, 2, 3, 4, 5, 6)
_CHUNK_BYTES = 61


def _registration(registry) -> ClassRegistration:
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return registration


def _serializer_pairs(registration):
    """(name, plan-path serializer, interpreter oracle) triples."""
    return [
        ("java-builtin", JavaSerializer(), JavaOracle()),
        (
            "kryo",
            KryoSerializer(registration),
            KryoOracle(registration),
        ),
        (
            "cereal",
            CerealSerializer(registration),
            CerealOracle(registration),
        ),
        (
            "cereal-stripped",
            CerealSerializer(registration, strip_mark_word=True),
            CerealOracle(registration, strip_mark_word=True),
        ),
        (
            "cereal-baseline",
            CerealSerializer(registration, use_packing=False),
            CerealOracle(registration, use_packing=False),
        ),
    ]


def _assert_profiles_equal(fast, slow, context: str) -> None:
    for field, expected in vars(slow).items():
        assert getattr(fast, field) == expected, (
            f"{context}: profile.{field} diverged"
        )


def _assert_equivalent(root, registry, registration) -> None:
    for name, fast, slow in _serializer_pairs(registration):
        fast_result = fast.serialize(root)
        slow_result = slow.serialize(root)
        assert fast_result.stream.data == slow_result.stream.data, (
            f"{name}: plan path changed the stream bytes"
        )
        assert fast_result.stream.sections == slow_result.stream.sections
        _assert_profiles_equal(
            fast_result.profile, slow_result.profile, f"{name} serialize"
        )
        # The same plan walk, suspended at every sealed prime-sized chunk.
        chunks, summary = collect_chunks(fast, root, _CHUNK_BYTES)
        assert b"".join(chunks) == slow_result.stream.data, (
            f"{name}: chunked plan walk changed the stream bytes"
        )
        assert summary.sections == slow_result.stream.sections
        _assert_profiles_equal(
            summary.profile, slow_result.profile, f"{name} chunked serialize"
        )
        fast_de = fast.deserialize(
            fast_result.stream, Heap(registry=registry)
        )
        slow_de = slow.deserialize(
            slow_result.stream, Heap(registry=registry)
        )
        assert first_difference(fast_de.root, slow_de.root) is None, (
            f"{name}: plan decode rebuilt a different graph"
        )
        _assert_profiles_equal(
            fast_de.profile, slow_de.profile, f"{name} deserialize"
        )
        # Stripping rewrites identity hashes, so skip round-trip identity.
        if not name.startswith("cereal-stripped"):
            assert first_difference(root, fast_de.root) is None, (
                f"{name}: plan round trip diverged from the original graph"
            )


# -- byte/profile equivalence over the fuzz corpus ---------------------------------


@pytest.mark.parametrize("seed", _SEEDS)
def test_plans_match_interpreters_on_fuzz_corpus(seed):
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, seed)
    _assert_equivalent(root, registry, _registration(registry))


def test_plans_match_interpreters_on_edge_shapes():
    registry = fuzz_registry()
    heap = Heap(registry=registry)

    leaf = heap.new_instance("FuzzLeaf")
    leaf.set("ident", -5)
    leaf.set("weight", 3.25)

    cycle = heap.new_instance("FuzzNode")
    cycle.set("peer", cycle)
    cycle.set("code", 0xFFFF)
    cycle.set("frac", -1.5)

    chain = None
    for index in range(2500):
        node = heap.new_instance("FuzzNode")
        node.set("num", index)
        node.set("peer", chain)
        chain = node

    wide = heap.new_array(FieldKind.LONG, 4000)
    for index in range(0, 4000, 3):
        wide.set_element(index, index * 0x9E3779B9 - 2**40)

    # All-null shapes: an untouched instance (every reference field null,
    # every primitive zero) and a reference array of nothing but nulls —
    # the plan null paths must fold identically to the oracles.
    all_null = heap.new_instance("FuzzNode")
    null_array = heap.new_array(FieldKind.REFERENCE, 64)

    roots = [
        leaf,
        cycle,
        chain,
        wide,
        all_null,
        null_array,
        heap.new_array(FieldKind.REFERENCE, 0),
        heap.new_array(FieldKind.BYTE, 0),
    ]
    registration = _registration(registry)  # pick up new array klasses
    for root in roots:
        _assert_equivalent(root, registry, registration)


def test_oracle_serializer_factory():
    registration = _registration(fuzz_registry())
    assert type(oracle_serializer("java-builtin")) is JavaOracle
    kryo = oracle_serializer("kryo", registration=registration)
    assert type(kryo) is KryoOracle
    assert kryo.registration is registration
    cereal = oracle_serializer(
        "cereal", registration=registration, strip_mark_word=True
    )
    assert type(cereal) is CerealOracle
    assert cereal.strip_mark_word
    with pytest.raises(FormatError):
        oracle_serializer("skyway")


# -- traversal order ---------------------------------------------------------------
#
# The one walk, ``traverse_slot_runs``, and its materialization,
# ``ObjectGraph``, against two deliberately plain oracles that find children
# through ``HeapObject.referenced_objects``.


def _reference_dfs(root):
    """Recursive DFS: object before children, children in slot order."""
    visited = set()
    order = []

    def visit(obj):
        if obj.address in visited:
            return
        visited.add(obj.address)
        order.append(obj.address)
        for child in obj.referenced_objects():
            if child is not None:
                visit(child)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))  # list-large is 2048 deep
    try:
        visit(root)
    finally:
        sys.setrecursionlimit(limit)
    return order


def _reference_bfs(root):
    """Queue-order BFS: children in slot order behind every earlier find."""
    seen = {root.address}
    order = []
    queue = deque([root])
    while queue:
        obj = queue.popleft()
        order.append(obj.address)
        for child in obj.referenced_objects():
            if child is not None and child.address not in seen:
                seen.add(child.address)
                queue.append(child)
    return order


_ORACLES = {"dfs": _reference_dfs, "bfs": _reference_bfs}


def _shared_cyclic_graph():
    """Diamond sharing plus a cycle back to the root."""
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    shared = heap.new_instance("FuzzLeaf")
    left = heap.new_instance("FuzzNode")
    right = heap.new_instance("FuzzNode")
    root = heap.new_instance("FuzzNode")
    left.set("peer", shared)
    right.set("peer", shared)
    right.set("data", root)  # cycle back up
    root.set("label", left)
    root.set("peer", right)
    root.set("data", left)  # duplicate edge to an already-pushed child
    return root


def _walk_addresses(root, order):
    return [obj.address for obj, _ in traverse_slot_runs(root, order=order)]


def _assert_graph_matches_oracle(root, order):
    """``ObjectGraph`` holds the oracle's visit order, each object's layout,
    and offsets that are running sums of ``size_bytes``."""
    graph = ObjectGraph.from_root(root, order=order)
    assert [obj.address for obj in graph.objects] == _ORACLES[order](root)
    offset = 0
    for obj, layout in zip(graph.objects, graph.layouts):
        assert layout is obj.layout()
        assert graph.relative_address[obj.address] == offset
        offset += obj.size_bytes
    assert len(graph.layouts) == graph.object_count
    assert len(graph.relative_address) == graph.object_count
    assert graph.total_bytes == offset


def test_traversal_order_matches_recursive_dfs_on_shared_cyclic_graph():
    root = _shared_cyclic_graph()
    assert _walk_addresses(root, "dfs") == _reference_dfs(root)


@pytest.mark.parametrize("seed", _SEEDS[:3])
def test_traversal_order_matches_recursive_dfs_on_fuzz_graphs(seed):
    heap = Heap(registry=fuzz_registry())
    root = build_fuzz_graph(heap, seed)
    assert _walk_addresses(root, "dfs") == _reference_dfs(root)


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_slot_run_traversal_matches_object_traversal(order):
    heap = Heap(registry=fuzz_registry())
    root = build_fuzz_graph(heap, 3)
    runs = list(traverse_slot_runs(root, order=order))
    assert [o.address for o, _ in runs] == _ORACLES[order](root)
    for obj, layout in runs:
        assert layout.total_slots * 8 == obj.size_bytes


def test_slot_run_graph_matches_object_graph():
    heap = Heap(registry=fuzz_registry())
    root = build_fuzz_graph(heap, 4)
    _assert_graph_matches_oracle(root, "bfs")
    with pytest.raises(ValueError):
        ObjectGraph.from_root(root, order="spiral")
    with pytest.raises(ValueError):
        list(traverse_slot_runs(root, order="spiral"))


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_object_graph_matches_oracles_on_shared_and_fuzz_graphs(order):
    _assert_graph_matches_oracle(_shared_cyclic_graph(), order)
    for seed in _SEEDS:
        heap = Heap(registry=fuzz_registry())
        _assert_graph_matches_oracle(build_fuzz_graph(heap, seed), order)


@pytest.mark.parametrize("order", ["dfs", "bfs"])
@pytest.mark.parametrize("name", sorted(MICROBENCH_CONFIGS))
def test_object_graph_matches_oracles_on_table_ii_graphs(name, order):
    _assert_graph_matches_oracle(build_microbench(Heap(), name), order)


@pytest.mark.parametrize("order", ["dfs", "bfs"])
def test_dangling_reference_raises_heap_error(order):
    """A reference slot holding an address with no object behind it."""
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    leaf = heap.new_instance("FuzzLeaf")
    root = heap.new_instance("FuzzNode")
    root.set("peer", leaf)
    memory = heap.memory
    (address,) = [
        root.fields_base + slot * 8
        for slot in root.reference_slots()
        if memory.read_u64(root.fields_base + slot * 8) == leaf.address
    ]
    memory.write_u64(address, leaf.address + 8)  # inside the leaf's header
    with pytest.raises(HeapError):
        ObjectGraph.from_root(root, order=order)


# -- plan cache --------------------------------------------------------------------


def _cache_counters(prefix):
    """``<prefix>.*`` cache counters from the process-wide metrics registry,
    plus the hit rate they give."""
    snapshot = get_registry().snapshot()
    counters = {
        name: snapshot[f"{prefix}.{name}"]
        for name in ("hits", "misses", "evictions", "entries")
    }
    probes = counters["hits"] + counters["misses"]
    counters["hit_rate"] = counters["hits"] / probes if probes else 0.0
    return counters


def test_plan_cache_warm_hit_rate():
    plans.reset_plan_cache()
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, 2)
    serializer = JavaSerializer()
    serializer.serialize(root)
    cold = _cache_counters("plan_cache")
    assert cold["misses"] > 0
    assert cold["entries"] == cold["misses"]
    serializer.serialize(root)
    warm = _cache_counters("plan_cache")
    assert warm["misses"] == cold["misses"], "second run recompiled plans"
    assert warm["hits"] > cold["hits"]
    assert warm["hit_rate"] > 0.0
    plans.reset_plan_cache()
    assert _cache_counters("plan_cache") == {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "entries": 0,
        "hit_rate": 0.0,
    }


def test_plan_cache_shared_across_serializer_instances():
    plans.reset_plan_cache()
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, 5)
    JavaSerializer().serialize(root)
    after_first = _cache_counters("plan_cache")["misses"]
    JavaSerializer().serialize(root)  # a *different* instance, same shapes
    assert _cache_counters("plan_cache")["misses"] == after_first


def test_bitmap_rebuild_plan_memoized():
    plans.reset_plan_cache()
    plan = plans.bitmap_rebuild_plan(0b00101, 5)
    assert (plan.n_value, plan.n_ref, plan.mark_is_value) == (3, 2, True)
    assert plan.klass_index == 1
    # Slots 0,1,3 are values (concatenation 0,1,2), slots 2,4 references (3,4).
    assert plan.gather([10, 11, 13, 12, 14]) == (10, 11, 12, 13, 14)
    misses = _cache_counters("plan_cache")["misses"]
    assert plans.bitmap_rebuild_plan(0b00101, 5) is plan
    stats = _cache_counters("plan_cache")
    assert stats["misses"] == misses
    assert stats["hits"] >= 1
    # Values before references need no permutation.
    assert plans.bitmap_rebuild_plan(0b00011, 5).gather is None
    assert plans.bitmap_rebuild_plan(0, 7).gather is None
    # A reference in the klass slot leaves no klass index.
    assert plans.bitmap_rebuild_plan(0b0100, 4).klass_index is None
    reference_mark = plans.bitmap_rebuild_plan(0b10000, 5)
    assert (reference_mark.mark_is_value, reference_mark.klass_index) == (False, 0)


# -- layout cache counters ---------------------------------------------------------


def test_layout_cache_stats_warm_hit_rate():
    layout_cache.clear_layout_cache(reset_stats=True)
    registry = fuzz_registry()
    heap = Heap(registry=registry)
    root = build_fuzz_graph(heap, 6)
    CerealSerializer(_registration(registry)).serialize(root)
    cold = _cache_counters("layout_cache")
    assert cold["misses"] == cold["entries"] > 0
    before_hits = cold["hits"]
    CerealSerializer(_registration(registry)).serialize(root)
    warm = _cache_counters("layout_cache")
    assert warm["misses"] == cold["misses"]
    assert warm["hits"] > before_hits
    assert warm["hit_rate"] > 0.9, "warm serialize should be nearly all hits"
    layout_cache.clear_layout_cache(reset_stats=True)
    assert _cache_counters("layout_cache")["hits"] == 0
