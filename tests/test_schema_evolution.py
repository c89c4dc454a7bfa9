"""Versioned class registry: fingerprints, headers, and reader resolution.

Round-trips streams written under three successive schema versions of the
same classes into readers running any other version, covering field adds,
removes, and reorders; irreconcilable changes must raise typed errors.
"""

import re
from pathlib import Path

import pytest

from repro.common.errors import SchemaMismatchError, UnknownClassError
from repro.formats import ClassRegistration, KryoSerializer, graphs_equivalent
from repro.formats import plans
from repro.formats.base import SerializedStream
from repro.formats.limits import resolve_limits
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
from tests.oracles import KryoOracle, interpret


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


# -- the evolved decode against the interpreter oracle -------------------------------


def dropped_reference_case(shared):
    """A stream whose root holds a reference field the reader dropped.

    The writer's ``Pair`` is (keep int, extra ref, alias ref, score
    double, samples ref); the reader's is (alias ref, keep int, added
    long, samples ref): ``extra`` and ``score`` dropped, ``added`` new,
    the rest reordered. With ``shared`` the kept ``alias``
    back-references the dropped subtree's root, so that object stays
    reachable. ``Extra``'s two doubles and the ``double[]`` behind
    ``samples`` are multi-word runs on the wire.
    """
    def world(pair_fields):
        registry = KlassRegistry()
        registration = ClassRegistration()
        for klass in (
            InstanceKlass("Extra", [FieldDescriptor("n", FieldKind.LONG),
                                    FieldDescriptor("w", FieldKind.DOUBLE),
                                    FieldDescriptor("v", FieldKind.DOUBLE)]),
            InstanceKlass("Pair", [FieldDescriptor(name, kind)
                                   for name, kind in pair_fields]),
            registry.array_klass(FieldKind.DOUBLE),
        ):
            registry.register(klass)
            registration.register(klass)
        return registry, registration

    writer_registry, writer_reg = world((
        ("keep", FieldKind.INT), ("extra", FieldKind.REFERENCE),
        ("alias", FieldKind.REFERENCE), ("score", FieldKind.DOUBLE),
        ("samples", FieldKind.REFERENCE),
    ))
    heap = Heap(registry=writer_registry)
    child = heap.new_instance("Extra")
    child.set("n", 5)
    child.set("w", 1.5)
    child.set("v", -2.0)
    samples = heap.new_array(FieldKind.DOUBLE, 3)
    samples.set_elements([0.5, 1.5, 2.5])
    root = heap.new_instance("Pair")
    root.set("keep", 77)
    root.set("extra", child)
    root.set("alias", child if shared else None)
    root.set("score", 0.25)
    root.set("samples", samples)
    stream = VersionedKryo(registration=writer_reg).serialize(root).stream
    reader_registry, reader_reg = world((
        ("alias", FieldKind.REFERENCE), ("keep", FieldKind.INT),
        ("added", FieldKind.LONG), ("samples", FieldKind.REFERENCE),
    ))
    return stream, reader_registry, reader_reg


def renumbered_case(graph):
    """A microbenchmark graph read by a registration with reversed IDs."""
    registry = KlassRegistry()
    register_micro_klasses(registry)
    root = build_microbench(Heap(registry=registry), graph)
    writer_reg = ClassRegistration()
    reader_reg = ClassRegistration()
    for klass in registry:
        writer_reg.register(klass)
    for klass in reversed(list(registry)):
        reader_reg.register(klass)
    stream = VersionedKryo(registration=writer_reg).serialize(root).stream
    return stream, registry, reader_reg


def version_case(writer_version, reader_version):
    _, writer_reg, writer_heap = make_world(writer_version)
    holder = build_graph(writer_heap, writer_version)
    stream = VersionedKryo(registration=writer_reg).serialize(holder).stream
    reader_registry, reader_reg, _ = make_world(reader_version)
    return stream, reader_registry, reader_reg


def split_header(stream, registration):
    """(header bytes, payload bytes, resolution field table)."""
    reader = StreamReader(stream.data)
    resolutions = resolve_schemas(read_schema_header(reader), registration)
    table = [(r.reader_klass, r.fields) for r in resolutions]
    return stream.data[:reader.position], stream.data[reader.position:], table


TRUNCATED = dropped_reference_case(shared=True)
TRUNCATED_HEADER, TRUNCATED_PAYLOAD, _ = split_header(TRUNCATED[0], TRUNCATED[2])

EQUIVALENCE_CASES = {
    **{
        f"v{w}-to-v{r}": (lambda w=w, r=r: version_case(w, r))
        for w in VERSIONS for r in VERSIONS
    },
    "dropped-reference": lambda: dropped_reference_case(shared=False),
    "dropped-shared-reference": lambda: dropped_reference_case(shared=True),
    **{
        f"renumbered-{graph}": (lambda graph=graph: renumbered_case(graph))
        for graph in ("tree-narrow", "graph-sparse", "list-small")
    },
}


def truncated_case(length):
    """The dropped-shared-reference stream cut ``length`` bytes into its
    Kryo payload (the schema header stays whole)."""
    stream, registry, registration = TRUNCATED
    data = TRUNCATED_HEADER + TRUNCATED_PAYLOAD[:length]
    cut = SerializedStream(format_name=stream.format_name, data=data, sections={})
    return cut, registry, registration


for _length in range(len(TRUNCATED_PAYLOAD)):
    EQUIVALENCE_CASES[f"truncated-{_length}"] = (
        lambda length=_length: truncated_case(length)
    )


def heap_state(heap):
    """The allocation pointer and the first 1 MiB of the heap, more than
    any decode here allocates."""
    return heap.checkpoint().alloc_ptr, heap.memory.read(HEAP_BASE, 1 << 20)


def decode_outcome(decode, heap):
    """(result, error, heap image, allocation order) of one decode."""
    try:
        result, error = decode(heap), None
    except Exception as raised:  # compared below, type and message
        result, error = None, raised
    image = heap.memory.read(HEAP_BASE, heap.used_bytes)
    order = [(obj.address, obj.klass.name, obj.length) for obj in heap.objects()]
    return result, error, image, order


class TestEvolvedDecodeMatchesOracle:
    @pytest.mark.parametrize("case", list(EQUIVALENCE_CASES))
    def test_versioned_decode_equals_interpret(self, case):
        """``VersionedKryo`` (under ``secure_deserialize``) and the
        interpreter oracle over the same resolution agree: same heap bytes,
        allocation order and work profile, or the same rejection, after
        which the versioned heap is as it was before the decode."""
        stream, registry, registration = EQUIVALENCE_CASES[case]()
        _, payload, table = split_header(stream, registration)
        codec = VersionedKryo(registration=registration)

        heap = Heap(registry=registry)
        before = heap_state(heap)
        result, error, image, order = decode_outcome(
            lambda heap: secure_deserialize(codec, stream, heap), heap
        )
        oracle, oracle_error, oracle_image, oracle_order = decode_outcome(
            lambda heap: interpret(
                SerializedStream(format_name="kryo", data=payload, sections={}),
                heap, resolve_limits(None), table,
            ),
            Heap(registry=registry),
        )

        if oracle_error is not None:
            assert error is not None, "the oracle rejected, the decoder did not"
            assert (type(error), str(error)) == (
                type(oracle_error), str(oracle_error)
            )
            assert heap_state(heap) == before
            assert order == []
            return
        assert error is None, f"the decoder rejected: {error!r}"
        assert result.profile == oracle.profile
        assert result.root.address == oracle.root.address
        assert image == oracle_image
        assert order == oracle_order


def test_evolved_plans_bypass_the_plan_cache():
    """An evolved decode compiles its plans per resolution, outside the
    process-wide plan cache: no probe, no entry, no counter moves."""
    def plan_cache():
        return plans._HITS.value, plans._MISSES.value, len(plans._PLANS)

    stream, registry, registration = dropped_reference_case(shared=True)
    before = plan_cache()
    VersionedKryo(registration=registration).deserialize(
        stream, Heap(registry=registry)
    )
    assert plan_cache() == before
    assert decode_stats()["schema_resolutions"] == {"evolved": 1}


def test_readme_evolution_example_runs(capsys):
    """The README's "Hardened decode & schema evolution" example, run
    verbatim: a v1 stream read by a v3 registry through the evolved path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Hardened decode & schema evolution"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "42 0.0\n"
    assert decode_stats()["schema_resolutions"] == {"evolved": 1}
