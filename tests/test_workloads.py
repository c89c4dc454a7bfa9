"""Tests for workload generators: microbenchmarks, JSBS, datagen."""

from typing import NamedTuple

import pytest

from repro.common.errors import ConfigError
from repro.jvm import Heap, ObjectGraph
from repro.workloads import (
    JSBS_LIBRARY_PROFILES,
    MICROBENCH_CONFIGS,
    DeterministicRandom,
    build_media_content,
    build_microbench,
)
from repro.workloads.micro import register_micro_klasses


class Shape(NamedTuple):
    object_count: int
    total_bytes: int
    max_out_degree: int
    reference_count: int  # non-null references, duplicates included


def graph_shape(root) -> Shape:
    graph = ObjectGraph.from_root(root)
    degrees = [
        sum(1 for child in obj.referenced_objects() if child is not None)
        for obj in graph.objects
    ]
    return Shape(graph.object_count, graph.total_bytes, max(degrees), sum(degrees))


class TestDeterministicRandom:
    def test_deterministic(self):
        a = DeterministicRandom(seed=42)
        b = DeterministicRandom(seed=42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_randint_range(self):
        rng = DeterministicRandom()
        values = [rng.randint(3, 7) for _ in range(200)]
        assert min(values) == 3 and max(values) == 7

    def test_random_unit_interval(self):
        rng = DeterministicRandom()
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_zero_seed_survives(self):
        rng = DeterministicRandom(seed=0)
        assert rng.next_u64() != 0


class TestMicrobenchConfigs:
    def test_all_six_variants_present(self):
        assert set(MICROBENCH_CONFIGS) == {
            "tree-narrow",
            "tree-wide",
            "list-small",
            "list-large",
            "graph-sparse",
            "graph-dense",
        }

    def test_paper_sizes_match_table_ii(self):
        assert MICROBENCH_CONFIGS["tree-narrow"].paper_objects == 2_097_150
        assert MICROBENCH_CONFIGS["tree-wide"].paper_objects == 19_173_960
        assert MICROBENCH_CONFIGS["list-small"].paper_objects == 524_288
        assert MICROBENCH_CONFIGS["list-large"].paper_objects == 2_097_152
        assert MICROBENCH_CONFIGS["graph-sparse"].paper_objects == 4_096
        assert MICROBENCH_CONFIGS["graph-dense"].fanout == 255


class TestTreeBench:
    def test_narrow_tree_shape(self):
        heap = Heap()
        root = build_microbench(heap, "tree-narrow")
        stats = graph_shape(root)
        config = MICROBENCH_CONFIGS["tree-narrow"]
        assert stats.object_count == config.scaled_objects
        assert stats.max_out_degree == 2

    def test_wide_tree_fanout(self):
        heap = Heap()
        root = build_microbench(heap, "tree-wide")
        stats = graph_shape(root)
        assert stats.max_out_degree == 8

    def test_trees_are_acyclic_trees(self):
        heap = Heap()
        root = build_microbench(heap, "tree-narrow")
        stats = graph_shape(root)
        # A tree has exactly objects-1 edges.
        assert stats.reference_count == stats.object_count - 1


class TestListBench:
    def test_list_lengths(self):
        heap = Heap()
        small = build_microbench(heap, "list-small")
        assert graph_shape(small).object_count == 512

    def test_large_is_4x_small(self):
        assert (
            MICROBENCH_CONFIGS["list-large"].scaled_objects
            == 4 * MICROBENCH_CONFIGS["list-small"].scaled_objects
        )

    def test_list_is_chain(self):
        heap = Heap()
        root = build_microbench(heap, "list-small")
        stats = graph_shape(root)
        assert stats.max_out_degree == 1


class TestGraphBench:
    def test_sparse_connected(self):
        heap = Heap()
        root = build_microbench(heap, "graph-sparse")
        stats = graph_shape(root)
        config = MICROBENCH_CONFIGS["graph-sparse"]
        # All nodes plus their adjacency arrays are reachable from the root.
        assert stats.object_count == 2 * config.scaled_objects

    def test_dense_has_many_references(self):
        heap = Heap()
        root = build_microbench(heap, "graph-dense")
        stats = graph_shape(root)
        sparse_heap = Heap()
        sparse = build_microbench(sparse_heap, "graph-sparse")
        sparse_stats = graph_shape(sparse)
        assert stats.reference_count > 50 * sparse_stats.reference_count

    def test_deterministic_across_builds(self):
        a = graph_shape(build_microbench(Heap(), "graph-dense"))
        b = graph_shape(build_microbench(Heap(), "graph-dense"))
        assert a == b

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_microbench(Heap(), "graph-medium")

    def test_register_micro_klasses_idempotent(self):
        heap = Heap()
        register_micro_klasses(heap.registry)
        register_micro_klasses(heap.registry)
        assert "GraphNode" in heap.registry


class TestJSBS:
    def test_media_content_structure(self):
        heap = Heap()
        content = build_media_content(heap)
        assert content.klass.name == "MediaContent"
        media = content.get("media")
        assert media.get("width") == 640
        images = content.get("images")
        assert images.length == 2

    def test_media_content_serializable_by_all(self):
        heap = Heap()
        content = build_media_content(heap)
        receiver = Heap(registry=heap.registry)
        serializer = make_serializer_for_heap(heap)
        rebuilt = serializer.deserialize(serializer.serialize(content).stream, receiver).root
        assert rebuilt.get("media").get("duration") == 18_000_000

    def test_profiles_count(self):
        # 84 cost profiles + the 4 measured implementations = the "88 other
        # S/D libraries" of Section VI-C.
        assert len(JSBS_LIBRARY_PROFILES) == 84

    def test_profiles_unique_names(self):
        names = [p.name for p in JSBS_LIBRARY_PROFILES]
        assert len(set(names)) == len(names)

    def test_profile_spread(self):
        factors = [p.time_factor for p in JSBS_LIBRARY_PROFILES]
        assert min(factors) < 0.3  # fast binary codecs
        assert max(factors) > 3.0  # reflective XML

    def test_mean_profile_factor_supports_43x(self):
        # The suite's mean round-trip factor sits below Java S/D but well
        # above the fastest codecs; combined with Cereal's ~50-100x lead
        # over Java S/D this yields the ~43x average of Section VI-C.
        factors = [p.time_factor for p in JSBS_LIBRARY_PROFILES]
        mean = sum(factors) / len(factors)
        assert 0.3 < mean < 1.2


def make_serializer_for_heap(heap):
    from repro.formats import ClassRegistration, KryoSerializer

    registration = ClassRegistration()
    for klass in heap.registry:
        registration.register(klass)
    return KryoSerializer(registration)
