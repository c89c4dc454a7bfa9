"""Golden-stream format-stability tests, plus the heap string helper.

The serialized formats are part of the library's public contract: a stream
produced today must decode forever. These tests pin the exact bytes every
serializer produces for one fixed, self-contained object graph; if a format
change is intentional, the hashes below must be updated consciously (and
called out as a breaking format change).
"""

import hashlib

import pytest

from repro.common.errors import HeapError
from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
)
from repro.formats.packing import pack_items, unpack_bitmaps, unpack_items
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
)
from repro.jvm.klass import HEADER_BYTES, ArrayKlass
from repro.jvm.strings import new_string
from tests.test_packing import pack_bitmaps


def read_string(array) -> str:
    """Read a char array back as a Python string."""
    klass = array.klass
    if not isinstance(klass, ArrayKlass) or klass.element_kind is not FieldKind.CHAR:
        raise HeapError(f"{klass.name} is not a char array")
    return "".join(chr(array.get_element(i)) for i in range(array.length))


# Hashes pinned at format version 1.0.0. Any change here is a breaking
# format change and must be documented.
GOLDEN_SHA256 = {
    "java": "0bab024de61c5d79b72a0b61b996eed882d2acd4dc439c41124649d2e7344a52",
    "kryo": "3a77f2e89af199b36bbd3ffa83902c8bed523533f00702c995b49ff4f15ca24c",
    "skyway": "112b94dc98f70cd7e766af377014068fe96e9787efd9a291a89a3e2c7947934d",
    "cereal": "e59817512f8f374df23e0f8c89b9dbc84f1738ce6b89d8291e843b4b36255de2",
}


def _golden_registry() -> KlassRegistry:
    """A registry whose layout must never change (it anchors the hashes)."""
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


def build_golden_graph(heap):
    """A fixed graph touching values, references, sharing, and arrays."""
    root = heap.new_instance("Mixed")
    root.set("flag", True)
    root.set("small", -7)
    root.set("big", 2**40 + 5)
    root.set("ratio", 0.5)
    root.set("letter", ord("G"))
    shared = heap.new_instance("Point")
    shared.set("x", 1.0)
    shared.set("y", 2.0)
    node = heap.new_instance("Node")
    node.set("value", 99)
    node.set("left", shared)
    node.set("right", shared)
    arr = heap.new_array(FieldKind.REFERENCE, 2)
    arr.set_element(0, node)
    root.set("child", node)
    return root


def _make_serializer(kind, registry):
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


def _stream_hash(serializer_kind):
    registry = _golden_registry()
    heap = Heap(registry=registry)
    root = build_golden_graph(heap)
    serializer = _make_serializer(serializer_kind, registry)
    stream = serializer.serialize(root).stream
    return hashlib.sha256(stream.data).hexdigest()


class TestStreamStability:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
    def test_golden_hash_pinned(self, kind):
        assert _stream_hash(kind) == GOLDEN_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
    def test_two_builds_identical(self, kind):
        assert _stream_hash(kind) == _stream_hash(kind)


class TestPackingGoldenVectors:
    """Exact packed bytes for the Section IV-B kernels, pinned at 1.0.0.

    These anchor the word-level fast path at the byte level, independent of
    the slow-reference oracle: if both implementations drifted together,
    the hashes above could still pass while the format silently changed.
    """

    GOLDEN_VALUES = [0, 1, 5, 127, 128, 0x1234, 2**20, 2**33 - 1]
    GOLDEN_BITMAPS = [[1], [1, 0, 1], [0] * 7 + [1], [1] * 12]

    def test_item_bytes_pinned(self):
        packed = pack_items(self.GOLDEN_VALUES)
        assert packed.data.hex() == "40c0b0ff808091a4800004ffffffffc0"
        assert packed.end_map.hex() == "f521"
        assert unpack_items(packed) == self.GOLDEN_VALUES

    def test_bitmap_bytes_pinned(self):
        packed = pack_bitmaps(self.GOLDEN_BITMAPS)
        assert packed.data.hex() == "c0b00180fff8"
        assert packed.end_map.hex() == "d4"
        assert unpack_bitmaps(packed) == self.GOLDEN_BITMAPS


class TestStringsHelper:
    def test_round_trip(self):
        heap = Heap()
        s = new_string(heap, "cereal-0123")
        assert read_string(s) == "cereal-0123"

    def test_empty_string(self):
        heap = Heap()
        assert read_string(new_string(heap, "")) == ""

    def test_packed_footprint(self):
        heap = Heap()
        s = new_string(heap, "x" * 16)  # 32 B of chars -> 4 slots
        assert s.size_bytes == HEADER_BYTES + 8 + 32

    def test_non_bmp_rejected(self):
        heap = Heap()
        with pytest.raises(HeapError):
            new_string(heap, "\U0001F600")

    def test_read_non_char_array_rejected(self):
        heap = Heap()
        longs = heap.new_array(FieldKind.LONG, 2)
        with pytest.raises(HeapError):
            read_string(longs)

    def test_strings_survive_serialization(self):
        registry = _golden_registry()
        registry.array_klass(FieldKind.CHAR)
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        s = new_string(heap, "through the wire")
        serializer = _make_serializer("cereal", registry)
        rebuilt = serializer.deserialize(serializer.serialize(s).stream, receiver).root
        assert read_string(rebuilt) == "through the wire"
