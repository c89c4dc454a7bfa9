"""Versioned class registry: fingerprints, headers, and reader resolution.

Round-trips streams written under three successive schema versions of the
same classes into readers running any other version, covering field adds,
removes, and reorders; irreconcilable changes must raise typed errors.
"""

import pytest

from repro.common.errors import SchemaMismatchError, UnknownClassError
from repro.formats import ClassRegistration, KryoSerializer, graphs_equivalent
from repro.formats.secure import (
    VersionedKryo,
    decode_stats,
    read_schema_header,
    resolve_schemas,
    schema_fingerprint,
    secure_deserialize,
    write_schema_header,
)
from repro.formats.streams import StreamReader, StreamWriter
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
)
from repro.jvm.heap import HEAP_BASE
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.workloads.micro import build_microbench, register_micro_klasses
from tests.oracles import KryoOracle


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_registry(MetricsRegistry())
    yield
    # Restore the process-wide registry: module-level handles (plan and
    # layout cache counters, ...) record into it, not into a fresh one.
    set_registry(previous)


def make_point(fields):
    return InstanceKlass(
        "Point", [FieldDescriptor(name, kind) for name, kind in fields]
    )


#: Three schema versions of the same two classes. v1 -> v2 adds a field
#: and reorders; v2 -> v3 removes two fields.
V1_POINT = (("x", FieldKind.INT), ("y", FieldKind.LONG))
V2_POINT = (("z", FieldKind.DOUBLE), ("x", FieldKind.INT), ("y", FieldKind.LONG))
V3_POINT = (("x", FieldKind.INT),)

VERSIONS = {1: V1_POINT, 2: V2_POINT, 3: V3_POINT}


def make_world(version):
    """(registry, registration, heap) for one schema version."""
    registry = KlassRegistry()
    point = make_point(VERSIONS[version])
    holder = InstanceKlass(
        "Holder",
        [
            FieldDescriptor("tag", FieldKind.LONG),
            FieldDescriptor("point", FieldKind.REFERENCE),
        ],
    )
    registry.register(point)
    registry.register(holder)
    registration = ClassRegistration()
    registration.register(point)
    registration.register(holder)
    return registry, registration, Heap(registry=registry)


def build_graph(heap, version):
    registry = heap.registry
    point = heap.allocate(registry.by_name("Point"))
    point.set("x", 42)
    if version in (1, 2):
        point.set("y", -7)
    if version == 2:
        point.set("z", 2.5)
    holder = heap.allocate(registry.by_name("Holder"))
    holder.set("tag", 1000)
    holder.set("point", point)
    return holder


class TestFingerprints:
    def test_stable_across_equal_definitions(self):
        assert schema_fingerprint(make_point(V1_POINT)) == schema_fingerprint(
            make_point(V1_POINT)
        )

    def test_sensitive_to_field_set_order_and_kind(self):
        base = schema_fingerprint(make_point(V1_POINT))
        added = schema_fingerprint(make_point(V2_POINT))
        reordered = schema_fingerprint(
            make_point((("y", FieldKind.LONG), ("x", FieldKind.INT)))
        )
        retyped = schema_fingerprint(
            make_point((("x", FieldKind.DOUBLE), ("y", FieldKind.LONG)))
        )
        assert len({base, added, reordered, retyped}) == 4


class TestSchemaHeader:
    def test_header_roundtrip(self):
        _, registration, _ = make_world(2)
        writer = StreamWriter()
        write_schema_header(writer, registration)
        parsed = read_schema_header(StreamReader(writer.getvalue()))
        assert [s.name for s in parsed] == ["Point", "Holder"]
        assert parsed[0].fields == V2_POINT
        assert parsed[0].fingerprint == schema_fingerprint(make_point(V2_POINT))

    def test_resolution_flags_identity(self):
        _, registration, _ = make_world(1)
        writer = StreamWriter()
        write_schema_header(writer, registration)
        parsed = read_schema_header(StreamReader(writer.getvalue()))
        resolutions = resolve_schemas(parsed, registration)
        assert all(r.identical for r in resolutions)


class TestEvolutionRoundtrip:
    @pytest.mark.parametrize("writer_version", [1, 2, 3])
    @pytest.mark.parametrize("reader_version", [1, 2, 3])
    def test_all_version_pairs_decode(self, writer_version, reader_version):
        """Streams from every writer version decode under every reader.

        Shared fields survive with their values; reader-added fields come
        back as zero defaults; writer-only fields are dropped.
        """
        _, writer_reg, writer_heap = make_world(writer_version)
        holder = build_graph(writer_heap, writer_version)
        stream = VersionedKryo(registration=writer_reg).serialize(holder).stream

        reader_registry, reader_reg, reader_heap = make_world(reader_version)
        codec = VersionedKryo(registration=reader_reg)
        result = secure_deserialize(codec, stream, reader_heap)
        rebuilt = result.root
        assert rebuilt.get("tag") == 1000
        point = rebuilt.get("point")
        assert point.get("x") == 42
        if reader_version in (1, 2):
            expected_y = -7 if writer_version in (1, 2) else 0
            assert point.get("y") == expected_y
        if reader_version == 2:
            expected_z = 2.5 if writer_version == 2 else 0.0
            assert point.get("z") == expected_z

        stats = decode_stats()
        assert stats["accepted"] == 1
        outcome = "identity" if writer_version == reader_version else "evolved"
        assert stats["schema_resolutions"] == {outcome: 1}

    def test_identity_path_matches_plain_kryo(self):
        """Same-version versioned decode equals the unversioned decode."""
        registry, registration, heap = make_world(2)
        holder = build_graph(heap, 2)
        versioned_stream = (
            VersionedKryo(registration=registration).serialize(holder).stream
        )
        plain_stream = KryoSerializer(registration).serialize(holder).stream
        # The versioned stream is the plain payload behind the header.
        assert versioned_stream.data.endswith(plain_stream.data)

        reader_registry, reader_reg, reader_heap = make_world(2)
        rebuilt = (
            VersionedKryo(registration=reader_reg)
            .deserialize(versioned_stream, reader_heap)
            .root
        )
        plain_heap = Heap(registry=reader_registry)
        plain = KryoSerializer(reader_reg).deserialize(plain_stream, plain_heap).root
        assert graphs_equivalent(rebuilt, plain)

    @pytest.mark.parametrize("graph", ["tree-narrow", "graph-sparse", "list-small"])
    def test_permuted_ids_match_the_interpreter(self, graph):
        """A reader that registered the same classes under other IDs takes
        the evolved path, which must decode exactly as the Kryo
        interpreter with the writer's own registration: same heap bytes,
        same work profile."""
        registry = KlassRegistry()
        register_micro_klasses(registry)
        root = build_microbench(Heap(registry=registry), graph)
        writer_reg = ClassRegistration()
        for klass in registry:
            writer_reg.register(klass)
        reader_reg = ClassRegistration()
        for klass in reversed(list(registry)):
            reader_reg.register(klass)
        stream = VersionedKryo(registration=writer_reg).serialize(root).stream
        payload = KryoSerializer(writer_reg).serialize(root).stream

        evolved_heap = Heap(registry=registry)
        evolved = VersionedKryo(registration=reader_reg).deserialize(
            stream, evolved_heap
        )
        oracle_heap = Heap(registry=registry)
        oracle = KryoOracle(writer_reg).deserialize(
            payload, oracle_heap
        )

        assert evolved.profile == oracle.profile
        assert evolved_heap.used_bytes == oracle_heap.used_bytes
        assert evolved_heap.memory.read(
            HEAP_BASE, evolved_heap.used_bytes
        ) == oracle_heap.memory.read(HEAP_BASE, oracle_heap.used_bytes)
        assert decode_stats()["schema_resolutions"] == {"evolved": 1}

    def test_writer_only_reference_subtree_is_dropped(self):
        """A reference field the reader removed still parses correctly."""
        registry = KlassRegistry()
        extra = InstanceKlass("Extra", [FieldDescriptor("n", FieldKind.LONG)])
        pair = InstanceKlass(
            "Pair",
            [
                FieldDescriptor("keep", FieldKind.LONG),
                FieldDescriptor("extra", FieldKind.REFERENCE),
            ],
        )
        registry.register(extra)
        registry.register(pair)
        writer_reg = ClassRegistration()
        writer_reg.register(extra)
        writer_reg.register(pair)
        heap = Heap(registry=registry)
        child = heap.allocate(extra)
        child.set("n", 5)
        root = heap.allocate(pair)
        root.set("keep", 77)
        root.set("extra", child)
        stream = VersionedKryo(registration=writer_reg).serialize(root).stream

        # Reader dropped the reference field but still knows both classes.
        reader_registry = KlassRegistry()
        reader_extra = InstanceKlass("Extra", [FieldDescriptor("n", FieldKind.LONG)])
        reader_pair = InstanceKlass(
            "Pair", [FieldDescriptor("keep", FieldKind.LONG)]
        )
        reader_registry.register(reader_extra)
        reader_registry.register(reader_pair)
        reader_reg = ClassRegistration()
        reader_reg.register(reader_extra)
        reader_reg.register(reader_pair)
        reader_heap = Heap(registry=reader_registry)
        rebuilt = (
            VersionedKryo(registration=reader_reg)
            .deserialize(stream, reader_heap)
            .root
        )
        assert rebuilt.get("keep") == 77


class TestEvolutionErrors:
    def test_kind_change_rejected(self):
        _, writer_reg, writer_heap = make_world(1)
        stream = (
            VersionedKryo(registration=writer_reg)
            .serialize(build_graph(writer_heap, 1))
            .stream
        )
        bad_registry = KlassRegistry()
        bad_point = make_point((("x", FieldKind.DOUBLE), ("y", FieldKind.LONG)))
        bad_holder = InstanceKlass(
            "Holder",
            [
                FieldDescriptor("tag", FieldKind.LONG),
                FieldDescriptor("point", FieldKind.REFERENCE),
            ],
        )
        bad_registry.register(bad_point)
        bad_registry.register(bad_holder)
        bad_reg = ClassRegistration()
        bad_reg.register(bad_point)
        bad_reg.register(bad_holder)
        codec = VersionedKryo(registration=bad_reg)
        with pytest.raises(SchemaMismatchError, match="changed kind"):
            secure_deserialize(codec, stream, Heap(registry=bad_registry))

    def test_unknown_writer_class_rejected(self):
        _, writer_reg, writer_heap = make_world(1)
        stream = (
            VersionedKryo(registration=writer_reg)
            .serialize(build_graph(writer_heap, 1))
            .stream
        )
        empty_registry = KlassRegistry()
        codec = VersionedKryo(registration=ClassRegistration())
        with pytest.raises(UnknownClassError):
            secure_deserialize(codec, stream, Heap(registry=empty_registry))

    def test_rejection_counted_as_schema_reason(self):
        set_registry(MetricsRegistry())
        _, writer_reg, writer_heap = make_world(1)
        stream = (
            VersionedKryo(registration=writer_reg)
            .serialize(build_graph(writer_heap, 1))
            .stream
        )
        bad_registry = KlassRegistry()
        bad_point = make_point((("x", FieldKind.DOUBLE),))
        bad_holder = InstanceKlass(
            "Holder", [FieldDescriptor("tag", FieldKind.LONG)]
        )
        bad_registry.register(bad_point)
        bad_registry.register(bad_holder)
        bad_reg = ClassRegistration()
        bad_reg.register(bad_point)
        bad_reg.register(bad_holder)
        codec = VersionedKryo(registration=bad_reg)
        heap = Heap(registry=bad_registry)
        token = heap.checkpoint()
        with pytest.raises(SchemaMismatchError):
            secure_deserialize(codec, stream, heap)
        after = heap.checkpoint()
        assert (after.alloc_ptr, after.alloc_count) == (
            token.alloc_ptr,
            token.alloc_count,
        )
        assert decode_stats()["rejected_by_reason"] == {"schema": 1}
