"""Property-based round-trip tests over randomly generated object graphs.

Hypothesis drives a small world model: random class shapes (field counts
and kinds), random object populations, random reference wiring (including
nulls, sharing, and cycles), and random primitive values. Every serializer
must reconstruct a structurally equivalent graph, and the Cereal format
must additionally satisfy its structural invariants (bitmap/value/reference
accounting).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
)
from repro.formats.cereal_format import CerealSerializer as CS
from repro.formats.verify import first_difference
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
    ObjectGraph,
)

_PRIMITIVES = [
    FieldKind.BOOLEAN,
    FieldKind.BYTE,
    FieldKind.CHAR,
    FieldKind.SHORT,
    FieldKind.INT,
    FieldKind.LONG,
    FieldKind.DOUBLE,
]

_VALUE_RANGES = {
    FieldKind.BOOLEAN: (0, 1),
    FieldKind.BYTE: (-128, 127),
    FieldKind.CHAR: (0, 0xFFFF),
    FieldKind.SHORT: (-32768, 32767),
    FieldKind.INT: (-(2**31), 2**31 - 1),
    FieldKind.LONG: (-(2**62), 2**62 - 1),
}


@st.composite
def graph_specs(draw):
    """A random world: classes, objects, values, and reference wiring."""
    class_count = draw(st.integers(1, 4))
    classes = []
    for class_index in range(class_count):
        field_count = draw(st.integers(0, 5))
        fields = []
        for field_index in range(field_count):
            kind = draw(
                st.sampled_from(_PRIMITIVES + [FieldKind.REFERENCE] * 3)
            )
            fields.append((f"f{field_index}", kind))
        classes.append((f"Class{class_index}", fields))

    object_count = draw(st.integers(1, 12))
    objects = []
    for _ in range(object_count):
        objects.append(draw(st.integers(0, class_count - 1)))

    # Wiring: for each reference field of each object, either None or a
    # target object index (forward or backward: cycles allowed).
    wiring = []
    values = []
    for object_index, class_index in enumerate(objects):
        _, fields = classes[class_index]
        object_wiring = []
        object_values = []
        for _, kind in fields:
            if kind is FieldKind.REFERENCE:
                target = draw(
                    st.one_of(st.none(), st.integers(0, object_count - 1))
                )
                object_wiring.append(target)
            elif kind is FieldKind.DOUBLE:
                object_values.append(
                    draw(st.floats(allow_nan=False, allow_infinity=False,
                                   width=32))
                )
            else:
                low, high = _VALUE_RANGES[kind]
                object_values.append(draw(st.integers(low, high)))
        wiring.append(object_wiring)
        values.append(object_values)
    return classes, objects, wiring, values


def materialize(spec):
    """Build the random world on a fresh heap; returns (heap, root)."""
    classes, objects, wiring, values = spec
    registry = KlassRegistry()
    for name, fields in classes:
        registry.register(
            InstanceKlass(name, [FieldDescriptor(n, k) for n, k in fields])
        )
    heap = Heap(registry=registry)
    handles = [
        heap.new_instance(classes[class_index][0]) for class_index in objects
    ]
    for object_index, class_index in enumerate(objects):
        _, fields = classes[class_index]
        ref_cursor = 0
        value_cursor = 0
        for field_name, kind in fields:
            if kind is FieldKind.REFERENCE:
                target = wiring[object_index][ref_cursor]
                ref_cursor += 1
                handles[object_index].set(
                    field_name, None if target is None else handles[target]
                )
            else:
                handles[object_index].set(
                    field_name, values[object_index][value_cursor]
                )
                value_cursor += 1
    return heap, handles[0]


def make_serializer(kind, registry):
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    if kind == "java":
        return JavaSerializer()
    if kind == "kryo":
        return KryoSerializer(registration)
    if kind == "skyway":
        return SkywaySerializer(registration)
    return CerealSerializer(registration)


_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("serializer_kind", ["java", "kryo", "skyway", "cereal"])
class TestRandomGraphRoundTrip:
    @_SETTINGS
    @given(spec=graph_specs())
    def test_round_trip_equivalence(self, serializer_kind, spec):
        heap, root = materialize(spec)
        serializer = make_serializer(serializer_kind, heap.registry)
        receiver = Heap(registry=heap.registry)
        stream = serializer.serialize(root).stream
        rebuilt = serializer.deserialize(stream, receiver).root
        assert first_difference(root, rebuilt) is None

    @_SETTINGS
    @given(spec=graph_specs())
    def test_object_count_preserved(self, serializer_kind, spec):
        heap, root = materialize(spec)
        serializer = make_serializer(serializer_kind, heap.registry)
        receiver = Heap(registry=heap.registry)
        stream = serializer.serialize(root).stream
        rebuilt = serializer.deserialize(stream, receiver).root
        assert (
            ObjectGraph.from_root(rebuilt).object_count
            == ObjectGraph.from_root(root).object_count
        )


class TestCerealStreamInvariants:
    @_SETTINGS
    @given(spec=graph_specs())
    def test_section_accounting(self, spec):
        heap, root = materialize(spec)
        serializer = make_serializer("cereal", heap.registry)
        stream = serializer.serialize(root).stream
        sections = CS.decode_sections(stream)
        graph = ObjectGraph.from_root(root, order="bfs")
        # Total image size and object count round-trip through the stream.
        assert sections.graph_total_bytes == graph.total_bytes
        assert sections.object_count == graph.object_count
        # Value words + 8 x reference entries == all slots of all objects
        # (value array excludes reference slots; bitmap marks them).
        total_slots = sum(obj.total_slots for obj in graph.objects)
        assert (
            len(sections.value_words) + sections.references.item_count
            == total_slots
        )

    @_SETTINGS
    @given(spec=graph_specs())
    def test_bitmap_lengths_encode_sizes(self, spec):
        from repro.formats.packing import unpack_bitmaps

        heap, root = materialize(spec)
        serializer = make_serializer("cereal", heap.registry)
        stream = serializer.serialize(root).stream
        sections = CS.decode_sections(stream)
        bitmaps = unpack_bitmaps(sections.bitmaps)
        graph = ObjectGraph.from_root(root, order="bfs")
        for obj, bitmap in zip(graph.objects, bitmaps):
            assert len(bitmap) * 8 == obj.size_bytes

    @_SETTINGS
    @given(spec=graph_specs())
    def test_double_round_trip_stable(self, spec):
        """Serializing a deserialized graph yields byte-identical output."""
        heap, root = materialize(spec)
        serializer = make_serializer("cereal", heap.registry)
        receiver = Heap(registry=heap.registry)
        first = serializer.serialize(root).stream
        rebuilt = serializer.deserialize(first, receiver).root
        second = serializer.serialize(rebuilt).stream
        # Values, references, and bitmaps are identical; only the mark
        # words (identity hashes) differ between heaps.
        a = CS.decode_sections(first)
        b = CS.decode_sections(second)
        assert a.references == b.references
        assert a.bitmaps == b.bitmaps
        assert a.graph_total_bytes == b.graph_total_bytes
