"""Round-trip and format tests for all four serializers.

Every serializer must reconstruct a structurally equivalent graph for every
shape: flat objects, nested trees, shared objects, cycles, nulls, primitive
and reference arrays, and deep lists.
"""

import pytest

from repro.common.errors import FormatError, RegistrationError
from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SerializedStream,
    SkywaySerializer,
    graphs_equivalent,
)
from repro.formats.verify import first_difference
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
    ObjectGraph,
)


def make_registry():
    registry = KlassRegistry()
    registry.register(
        InstanceKlass(
            "Point",
            [
                FieldDescriptor("x", FieldKind.DOUBLE),
                FieldDescriptor("y", FieldKind.DOUBLE),
            ],
        )
    )
    registry.register(
        InstanceKlass(
            "Node",
            [
                FieldDescriptor("value", FieldKind.LONG),
                FieldDescriptor("left", FieldKind.REFERENCE),
                FieldDescriptor("right", FieldKind.REFERENCE),
            ],
        )
    )
    registry.register(
        InstanceKlass(
            "Mixed",
            [
                FieldDescriptor("flag", FieldKind.BOOLEAN),
                FieldDescriptor("small", FieldKind.INT),
                FieldDescriptor("big", FieldKind.LONG),
                FieldDescriptor("ratio", FieldKind.DOUBLE),
                FieldDescriptor("letter", FieldKind.CHAR),
                FieldDescriptor("child", FieldKind.REFERENCE),
            ],
        )
    )
    registry.array_klass(FieldKind.LONG)
    registry.array_klass(FieldKind.REFERENCE)
    registry.array_klass(FieldKind.DOUBLE)
    return registry


def make_serializer(kind, registry):
    """Build a serializer of ``kind`` with all registry classes registered."""
    if kind == "java":
        return JavaSerializer()
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    if kind == "kryo":
        return KryoSerializer(registration)
    if kind == "skyway":
        return SkywaySerializer(registration)
    if kind == "cereal":
        return CerealSerializer(registration)
    raise ValueError(kind)


SERIALIZER_KINDS = ["java", "kryo", "skyway", "cereal"]


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def heaps(registry):
    """(sender, receiver) heap pair sharing one klass registry."""
    return Heap(registry=registry), Heap(registry=registry)


def build_flat(heap):
    obj = heap.new_instance("Point")
    obj.set("x", 1.25)
    obj.set("y", -9.5)
    return obj


def build_tree(heap, depth=4):
    def node(level):
        obj = heap.new_instance("Node")
        obj.set("value", level)
        if level < depth:
            obj.set("left", node(level + 1))
            obj.set("right", node(level + 1))
        return obj

    return node(0)


def build_shared(heap):
    root = heap.new_instance("Node")
    shared = heap.new_instance("Node")
    shared.set("value", 42)
    root.set("left", shared)
    root.set("right", shared)
    return root


def build_cycle(heap):
    a = heap.new_instance("Node")
    b = heap.new_instance("Node")
    a.set("value", 1)
    b.set("value", 2)
    a.set("left", b)
    b.set("left", a)
    return a


def build_mixed(heap):
    root = heap.new_instance("Mixed")
    root.set("flag", True)
    root.set("small", -12345)
    root.set("big", 2**50)
    root.set("ratio", 2.718281828)
    root.set("letter", ord("Q"))
    child = heap.new_instance("Point")
    child.set("x", 0.5)
    root.set("child", child)
    return root


def build_primitive_array(heap):
    arr = heap.new_array(FieldKind.LONG, 16)
    for i in range(16):
        arr.set_element(i, i * i - 8)
    return arr


def build_reference_array(heap):
    arr = heap.new_array(FieldKind.REFERENCE, 5)
    for i in (0, 2, 4):
        point = heap.new_instance("Point")
        point.set("x", float(i))
        arr.set_element(i, point)
    return arr


def build_deep_list(heap, n=3000):
    head = heap.new_instance("Node")
    current = head
    for i in range(n):
        nxt = heap.new_instance("Node")
        nxt.set("value", i)
        current.set("left", nxt)
        current = nxt
    return head


GRAPH_BUILDERS = {
    "flat": build_flat,
    "tree": build_tree,
    "shared": build_shared,
    "cycle": build_cycle,
    "mixed": build_mixed,
    "primitive_array": build_primitive_array,
    "reference_array": build_reference_array,
}


@pytest.mark.parametrize("serializer_kind", SERIALIZER_KINDS)
@pytest.mark.parametrize("shape", sorted(GRAPH_BUILDERS))
def test_round_trip(serializer_kind, shape, registry, heaps):
    sender, receiver = heaps
    serializer = make_serializer(serializer_kind, registry)
    root = GRAPH_BUILDERS[shape](sender)
    result = serializer.serialize(root)
    rebuilt = serializer.deserialize(result.stream, receiver).root
    assert first_difference(root, rebuilt) is None


@pytest.mark.parametrize("serializer_kind", SERIALIZER_KINDS)
def test_deep_list_round_trip(serializer_kind, registry, heaps):
    sender, receiver = heaps
    serializer = make_serializer(serializer_kind, registry)
    root = build_deep_list(sender)
    rebuilt = serializer.deserialize(serializer.serialize(root).stream, receiver).root
    assert ObjectGraph.from_root(rebuilt).object_count == 3001


@pytest.mark.parametrize("serializer_kind", SERIALIZER_KINDS)
def test_sections_sum_to_stream_size(serializer_kind, registry, heaps):
    sender, _ = heaps
    serializer = make_serializer(serializer_kind, registry)
    result = serializer.serialize(build_tree(sender))
    result.stream.check_sections()  # raises on mismatch


@pytest.mark.parametrize("serializer_kind", SERIALIZER_KINDS)
def test_work_profile_populated(serializer_kind, registry, heaps):
    sender, receiver = heaps
    serializer = make_serializer(serializer_kind, registry)
    result = serializer.serialize(build_tree(sender))
    assert result.profile.objects == 31  # full binary tree of depth 4
    assert result.profile.instructions > 0
    assert result.profile.bytes_written == result.stream.size_bytes
    deser = serializer.deserialize(result.stream, receiver)
    assert deser.profile.objects == 31
    assert deser.profile.allocations == 31


class TestSizeRelationships:
    """The paper's qualitative size ordering must hold (Section VI-B)."""

    def test_kryo_smaller_than_java(self, registry, heaps):
        sender, _ = heaps
        root = build_tree(sender, depth=6)
        java = make_serializer("java", registry).serialize(root).stream
        kryo = make_serializer("kryo", registry).serialize(root).stream
        assert kryo.size_bytes < java.size_bytes

    def test_skyway_larger_than_kryo(self, registry, heaps):
        sender, _ = heaps
        root = build_tree(sender, depth=6)
        kryo = make_serializer("kryo", registry).serialize(root).stream
        skyway = make_serializer("skyway", registry).serialize(root).stream
        assert skyway.size_bytes > kryo.size_bytes

    def test_cereal_packing_beats_skyway(self, registry, heaps):
        sender, _ = heaps
        root = build_tree(sender, depth=6)
        skyway = make_serializer("skyway", registry).serialize(root).stream
        cereal = make_serializer("cereal", registry).serialize(root).stream
        assert cereal.size_bytes < skyway.size_bytes

    def test_java_metadata_heavy_for_small_graphs(self, registry, heaps):
        sender, _ = heaps
        root = build_flat(sender)
        java = make_serializer("java", registry).serialize(root).stream
        type_fraction = java.sections["type_strings"] / java.size_bytes
        assert type_fraction > 0.2  # names dominate tiny payloads


class TestJavaSerializerDetails:
    def test_magic_header(self, registry, heaps):
        sender, _ = heaps
        stream = make_serializer("java", registry).serialize(build_flat(sender)).stream
        assert stream.data[:2] == (0xACED).to_bytes(2, "little")

    def test_bad_magic_rejected(self, registry, heaps):
        sender, receiver = heaps
        serializer = make_serializer("java", registry)
        stream = serializer.serialize(build_flat(sender)).stream
        corrupted = SerializedStream(
            format_name=stream.format_name,
            data=b"\x00\x00" + stream.data[2:],
            sections=stream.sections,
        )
        with pytest.raises(FormatError):
            serializer.deserialize(corrupted, receiver)

    def test_class_metadata_written_once(self, registry, heaps):
        sender, _ = heaps
        serializer = make_serializer("java", registry)
        small = serializer.serialize(build_tree(sender, depth=2)).stream
        big = serializer.serialize(build_tree(sender, depth=3)).stream
        # Type strings are per-class, not per-object.
        assert small.sections["type_strings"] == big.sections["type_strings"]


class TestKryoDetails:
    def test_unregistered_class_rejected(self, registry, heaps):
        sender, _ = heaps
        serializer = KryoSerializer(ClassRegistration())
        with pytest.raises(RegistrationError):
            serializer.serialize(build_flat(sender))

    def test_same_registry_required_for_deserialize(self, registry, heaps):
        sender, receiver = heaps
        serializer = make_serializer("kryo", registry)
        stream = serializer.serialize(build_flat(sender)).stream
        other = KryoSerializer(ClassRegistration())
        with pytest.raises(RegistrationError):
            other.deserialize(stream, receiver)

    def test_varint_compresses_small_longs(self, registry, heaps):
        sender, _ = heaps
        arr = sender.new_array(FieldKind.LONG, 64)
        for i in range(64):
            arr.set_element(i, i)  # all fit in 1-byte varints
        stream = make_serializer("kryo", registry).serialize(arr).stream
        assert stream.sections["field_data"] < 64 * 8 / 2


class TestSkywayDetails:
    def test_auto_registration(self, registry, heaps):
        sender, receiver = heaps
        registration = ClassRegistration()
        serializer = SkywaySerializer(registration)
        root = build_flat(sender)
        serializer.serialize(root)  # must not raise: auto-registers
        assert registration.is_registered(root.klass)

    def test_stream_carries_whole_objects(self, registry, heaps):
        sender, _ = heaps
        root = build_flat(sender)
        stream = make_serializer("skyway", registry).serialize(root).stream
        # metadata(8) + full object image (headers + 2 slots)
        assert stream.size_bytes == 8 + root.size_bytes

    def test_truncated_stream_rejected(self, registry, heaps):
        sender, receiver = heaps
        serializer = make_serializer("skyway", registry)
        stream = serializer.serialize(build_flat(sender)).stream
        truncated = SerializedStream(
            format_name=stream.format_name, data=stream.data[:-8]
        )
        with pytest.raises(FormatError):
            serializer.deserialize(truncated, receiver)


class TestCerealDetails:
    def test_unregistered_class_rejected(self, registry, heaps):
        sender, _ = heaps
        serializer = CerealSerializer(ClassRegistration(max_entries=4096))
        with pytest.raises(RegistrationError):
            serializer.serialize(build_flat(sender))

    def test_class_table_capacity_enforced(self):
        # The default registration is sized by the Class ID Table.
        assert CerealSerializer().registration.max_entries == 4096
        serializer = CerealSerializer(ClassRegistration(max_entries=2))
        serializer.register_class(InstanceKlass("A", []))
        serializer.register_class(InstanceKlass("B", []))
        with pytest.raises(RegistrationError):
            serializer.register_class(InstanceKlass("C", []))

    def test_decode_sections_structure(self, registry, heaps):
        sender, _ = heaps
        serializer = make_serializer("cereal", registry)
        root = build_tree(sender, depth=3)
        stream = serializer.serialize(root).stream
        sections = CerealSerializer.decode_sections(stream)
        graph = ObjectGraph.from_root(root, order="bfs")
        assert sections.object_count == graph.object_count
        assert sections.graph_total_bytes == graph.total_bytes
        assert sections.references.item_count == 2 * graph.object_count  # 2 ref slots each

    def test_values_and_references_decoupled(self, registry, heaps):
        sender, _ = heaps
        serializer = make_serializer("cereal", registry)
        stream = serializer.serialize(build_tree(sender, depth=3)).stream
        assert stream.sections["value_array"] > 0
        assert stream.sections["reference_array"] > 0
        assert stream.sections["layout_bitmap"] > 0

    def test_header_strip_reduces_size_and_round_trips(self, registry, heaps):
        sender, receiver = heaps
        registration = ClassRegistration()
        for klass in registry:
            registration.register(klass)
        plain = CerealSerializer(registration)
        stripped = CerealSerializer(registration, strip_mark_word=True)
        root = build_tree(sender, depth=5)
        plain_stream = plain.serialize(root).stream
        stripped_stream = stripped.serialize(root).stream
        graph = ObjectGraph.from_root(root)
        assert (
            plain_stream.size_bytes - stripped_stream.size_bytes
            == 8 * graph.object_count
        )
        rebuilt = stripped.deserialize(stripped_stream, receiver).root
        assert graphs_equivalent(root, rebuilt)

    def test_truncated_stream_rejected(self, registry, heaps):
        sender, receiver = heaps
        serializer = make_serializer("cereal", registry)
        stream = serializer.serialize(build_flat(sender)).stream
        truncated = SerializedStream(
            format_name=stream.format_name, data=stream.data[:10]
        )
        with pytest.raises(FormatError):
            serializer.deserialize(truncated, receiver)

    def test_bfs_image_order(self, registry, heaps):
        """Cereal lays objects out in BFS order, unlike the DFS software order."""
        sender, receiver = heaps
        root = build_tree(sender, depth=2)  # root, L, LL, LR, R, RL, RR in BFS
        serializer = make_serializer("cereal", registry)
        rebuilt = serializer.deserialize(serializer.serialize(root).stream, receiver).root
        level1 = [rebuilt.get("left"), rebuilt.get("right")]
        # BFS: both depth-1 children precede any depth-2 child in memory.
        depth2 = [level1[0].get("left"), level1[0].get("right")]
        assert max(o.address for o in level1) < min(o.address for o in depth2)


class TestGraphEquivalence:
    def test_detects_value_difference(self, registry, heaps):
        sender, _ = heaps
        a = build_flat(sender)
        b = build_flat(sender)
        b.set("x", 999.0)
        assert not graphs_equivalent(a, b)
        assert "x" in first_difference(a, b)

    def test_detects_sharing_difference(self, registry, heaps):
        sender, _ = heaps
        shared_root = build_shared(sender)
        unshared_root = sender.new_instance("Node")
        left = sender.new_instance("Node")
        right = sender.new_instance("Node")
        left.set("value", 42)
        right.set("value", 42)
        unshared_root.set("left", left)
        unshared_root.set("right", right)
        assert not graphs_equivalent(shared_root, unshared_root)

    def test_detects_null_difference(self, registry, heaps):
        sender, _ = heaps
        a = build_shared(sender)
        b = sender.new_instance("Node")
        assert not graphs_equivalent(a, b)
