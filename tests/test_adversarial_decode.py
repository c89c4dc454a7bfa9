"""Adversarial-stream defense: typed rejection and transactional decode.

Golden-seed replays of the :mod:`repro.formats.adversarial` corpus plus
unit tests for the pieces underneath it: decode budgets, truncation
accounting, registry guards, heap checkpoint/rollback, and the
``decode.*`` counters.
"""

import pytest

from repro.common.errors import (
    FormatError,
    HeapError,
    MalformedVarintError,
    RegistrationError,
    ResourceLimitError,
    TruncatedStreamError,
    UnknownClassError,
)
from repro.formats import ClassRegistration, JavaSerializer, KryoSerializer
from repro.formats.adversarial import (
    as_stream,
    build_corpus,
)
from repro.formats.kryo import MARK_ARRAY, MARK_OBJECT
from repro.formats.limits import DEFAULT_LIMITS, DecodeLimits, resolve_limits
from repro.formats.secure import (
    REASON_MALFORMED,
    REASON_RESOURCE_LIMIT,
    REASON_TRUNCATED,
    REASON_UNKNOWN_CLASS,
    REASON_VARINT,
    classify_rejection,
    decode_stats,
    secure_deserialize,
)
from repro.formats.streams import StreamReader
from repro.formats.varint import append_signed_varint
from repro.jvm import (
    FieldDescriptor,
    FieldKind,
    Heap,
    InstanceKlass,
    KlassRegistry,
)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.workloads.micro import build_microbench, register_micro_klasses
from tests.oracles import JavaOracle, KryoOracle

GOLDEN_SEEDS = (0xC0FFEE, 1, 2024)


@pytest.fixture(autouse=True)
def fresh_metrics():
    previous = set_registry(MetricsRegistry())
    yield
    # Restore the process-wide registry: module-level handles (plan and
    # layout cache counters, ...) record into it, not into a fresh one.
    set_registry(previous)


def heap_state(heap):
    token = heap.checkpoint()
    return (token.alloc_ptr, token.alloc_count)


class TestDecodeLimits:
    def test_defaults_are_generous_but_finite(self):
        limits = DecodeLimits()
        limits.check_objects(1)
        limits.check_array_length(1000)
        with pytest.raises(ResourceLimitError):
            limits.check_objects(limits.max_objects + 1)
        with pytest.raises(ResourceLimitError):
            limits.check_array_length(limits.max_array_length + 1)
        with pytest.raises(ResourceLimitError):
            limits.check_depth(limits.max_depth + 1)
        with pytest.raises(ResourceLimitError):
            limits.check_graph_bytes(limits.max_graph_bytes + 1)
        with pytest.raises(ResourceLimitError):
            limits.check_stream_bytes(limits.max_stream_bytes + 1)

    def test_resolve_none_is_default(self):
        assert resolve_limits(None) is DEFAULT_LIMITS
        custom = DecodeLimits(max_objects=7)
        assert resolve_limits(custom) is custom

    def test_error_carries_budget_details(self):
        with pytest.raises(ResourceLimitError) as exc:
            DecodeLimits(max_array_length=10).check_array_length(99)
        assert exc.value.limit_name == "array_length"
        assert exc.value.requested == 99
        assert exc.value.allowed == 10
        assert "decode budget exceeded" in str(exc.value)


class TestTruncationAccounting:
    def test_short_read_reports_offsets(self):
        reader = StreamReader(b"\x01\x02\x03")
        reader.read_bytes(2)
        with pytest.raises(TruncatedStreamError) as exc:
            reader.read_bytes(4)
        assert exc.value.offset == 2
        assert exc.value.needed == 4
        assert exc.value.available == 1

    def test_truncated_is_a_format_error(self):
        assert issubclass(TruncatedStreamError, FormatError)
        assert issubclass(MalformedVarintError, FormatError)
        assert issubclass(ResourceLimitError, FormatError)
        # UnknownClassError must satisfy both hierarchies: decoders treat it
        # as a stream fault, registry callers as a registration fault.
        assert issubclass(UnknownClassError, FormatError)
        assert issubclass(UnknownClassError, RegistrationError)


class TestRegistryGuards:
    def test_out_of_range_and_negative_ids(self):
        registration = ClassRegistration()
        registration.register(
            InstanceKlass("Only", [FieldDescriptor("v", FieldKind.INT)])
        )
        assert registration.klass_of(0).name == "Only"
        with pytest.raises(UnknownClassError) as exc:
            registration.klass_of(5, offset=17)
        assert exc.value.class_id == 5
        assert "offset 17" in str(exc.value)
        with pytest.raises(UnknownClassError):
            registration.klass_of(-1)


class TestHeapTransaction:
    def test_rollback_discards_new_objects(self):
        registry = KlassRegistry()
        klass = InstanceKlass("Txn", [FieldDescriptor("v", FieldKind.LONG)])
        registry.register(klass)
        heap = Heap(registry=registry)
        keeper = heap.allocate(klass)
        keeper.set("v", 41)
        token = heap.checkpoint()
        before = heap_state(heap)
        doomed = heap.allocate(klass)
        doomed.set("v", 99)
        heap.rollback(token)
        assert heap_state(heap) == before
        assert keeper.get("v") == 41
        # The rolled-back allocation's memory is scrubbed.
        assert heap.memory.read_u64(doomed.address) == 0

    def test_stale_token_rejected(self):
        registry = KlassRegistry()
        klass = InstanceKlass("Txn2", [FieldDescriptor("v", FieldKind.LONG)])
        registry.register(klass)
        heap = Heap(registry=registry)
        early = heap.checkpoint()
        heap.allocate(klass)
        late = heap.checkpoint()
        heap.rollback(early)
        # ``late`` now references an allocation frontier ahead of the
        # heap's: rolling back to it would resurrect dead state.
        with pytest.raises(HeapError):
            heap.rollback(late)


class TestAdversarialCorpus:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_corpus_is_deterministic(self, seed):
        first = build_corpus(seed=seed, truncations=3, bitflips=3, garbage=2)
        second = build_corpus(seed=seed, truncations=3, bitflips=3, garbage=2)
        assert [s.name for s in first.samples] == [s.name for s in second.samples]
        assert [s.data for s in first.samples] == [s.data for s in second.samples]

    def test_corpus_covers_every_format(self):
        corpus = build_corpus(truncations=2, bitflips=2, garbage=1)
        assert set(corpus.by_format()) == {
            "java-builtin",
            "kryo",
            "skyway",
            "cereal",
            "kryo-versioned",
        }

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_typed_rejection_and_clean_heap(self, seed):
        """The hardening contract over the full corpus.

        Every sample either decodes or raises a FormatError subtype; a
        failed decode leaves the destination heap byte-identical to its
        pre-decode state; every must_reject sample is actually rejected.
        """
        corpus = build_corpus(seed=seed, truncations=4, bitflips=4, garbage=2)
        serializers = {
            name: corpus.serializer_for(name) for name in corpus.by_format()
        }
        for sample in corpus.samples:
            heap = corpus.fresh_heap()
            before = heap_state(heap)
            try:
                secure_deserialize(
                    serializers[sample.format_name],
                    as_stream(sample.format_name, sample.data),
                    heap,
                )
            except FormatError:
                assert heap_state(heap) == before, sample.name
            else:
                assert not sample.must_reject, (
                    f"{sample.name}: provably invalid stream accepted"
                )

    def test_crafted_attacks_raise_specific_types(self):
        corpus = build_corpus(truncations=0, bitflips=0, garbage=0)
        expectations = {
            "kryo/class_id_oob/0": UnknownClassError,
            "kryo/oversized_varint/0": MalformedVarintError,
            "kryo/array_bomb/0": ResourceLimitError,
            "kryo/cycle_bomb/0": ResourceLimitError,
            "java-builtin/unknown_class/0": UnknownClassError,
            "java-builtin/array_bomb/0": ResourceLimitError,
        }
        by_name = {s.name: s for s in corpus.samples}
        for name, expected in expectations.items():
            sample = by_name[name]
            heap = corpus.fresh_heap()
            with pytest.raises(expected):
                secure_deserialize(
                    corpus.serializer_for(sample.format_name),
                    as_stream(sample.format_name, sample.data),
                    heap,
                )

    def test_rejections_counted_by_reason(self):
        set_registry(MetricsRegistry())
        corpus = build_corpus(truncations=2, bitflips=0, garbage=0)
        kryo = corpus.serializer_for("kryo")
        truncated = [
            s for s in corpus.samples if s.name.startswith("kryo/truncate")
        ]
        for sample in truncated:
            with pytest.raises(FormatError):
                secure_deserialize(
                    kryo, as_stream("kryo", sample.data), corpus.fresh_heap()
                )
        stats = decode_stats()
        assert stats["rejected"] >= len(truncated)
        assert stats["rejected_by_reason"].get(REASON_TRUNCATED, 0) >= 1


class TestSecureDeserialize:
    def build_valid(self):
        registry = KlassRegistry()
        register_micro_klasses(registry)
        heap = Heap(registry=registry)
        root = build_microbench(heap, "tree-narrow")
        registration = ClassRegistration()
        for klass in registry:
            registration.register(klass)
        serializer = KryoSerializer(registration)
        return registry, serializer, serializer.serialize(root).stream

    def test_valid_stream_accepted_and_counted(self):
        set_registry(MetricsRegistry())
        registry, serializer, stream = self.build_valid()
        result = secure_deserialize(serializer, stream, Heap(registry=registry))
        assert result.root is not None
        stats = decode_stats()
        assert stats["accepted"] == 1
        assert stats["rejected"] == 0

    def test_custom_limit_rejects_big_graph(self):
        registry, serializer, stream = self.build_valid()
        heap = Heap(registry=registry)
        before = heap_state(heap)
        with pytest.raises(ResourceLimitError):
            secure_deserialize(
                serializer, stream, heap, limits=DecodeLimits(max_objects=3)
            )
        assert heap_state(heap) == before

    def test_classify_covers_the_reason_space(self):
        assert classify_rejection(TruncatedStreamError(0, 1, 0)) == REASON_TRUNCATED
        assert classify_rejection(MalformedVarintError("x")) == REASON_VARINT
        assert classify_rejection(UnknownClassError(3)) == REASON_UNKNOWN_CLASS
        assert (
            classify_rejection(ResourceLimitError("objects", 2, 1))
            == REASON_RESOURCE_LIMIT
        )
        assert classify_rejection(ValueError("junk")) == REASON_MALFORMED


class TestKryoIntRange:
    """A Kryo INT travels as a zig-zag varint that can name any i64; a
    value outside int32 is a malformed varint, in a field or an ``int[]``
    element, on the plan kernel and the interpreter alike."""

    @staticmethod
    def world():
        registry = KlassRegistry()
        box = InstanceKlass("IntBox", [FieldDescriptor("x", FieldKind.INT)])
        registry.register(box)
        registration = ClassRegistration()
        registration.register(box)  # class ID 0
        registration.register(registry.array_klass(FieldKind.INT))  # ID 1
        return registry, registration

    @staticmethod
    def stream(target, value):
        """A one-object Kryo stream holding ``value`` as field ``x`` of
        an ``IntBox`` or as the only element of an ``int[]``."""
        data = bytearray(
            [MARK_OBJECT, 0] if target == "field" else [MARK_ARRAY, 1, 1]
        )
        append_signed_varint(data, value)
        return as_stream("kryo", bytes(data))

    @pytest.mark.parametrize("planned", [True, False])
    @pytest.mark.parametrize("target", ["field", "element"])
    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 2**40])
    def test_out_of_range_rejected(self, planned, target, value):
        registry, registration = self.world()
        serializer = (KryoSerializer if planned else KryoOracle)(registration)
        stream = self.stream(target, value)
        with pytest.raises(MalformedVarintError, match="int32"):
            serializer.deserialize(stream, Heap(registry=registry))
        heap = Heap(registry=registry)
        before = heap_state(heap)
        with pytest.raises(MalformedVarintError, match="int32"):
            secure_deserialize(serializer, stream, heap)
        assert heap_state(heap) == before
        assert decode_stats()["rejected_by_reason"] == {REASON_VARINT: 1}

    @pytest.mark.parametrize("planned", [True, False])
    @pytest.mark.parametrize("target", ["field", "element"])
    @pytest.mark.parametrize("value", [2**31 - 1, -(2**31)])
    def test_int32_bounds_accepted(self, planned, target, value):
        registry, registration = self.world()
        serializer = (KryoSerializer if planned else KryoOracle)(registration)
        root = serializer.deserialize(
            self.stream(target, value), Heap(registry=registry)
        ).root
        assert (root.get("x") if target == "field" else root.get_element(0)) == value


def _chain_with_leaf(leaf):
    """``Node(next) -> Node(next) -> leaf`` on a fresh heap: the leaf is a
    reference-free ``Leaf(v long)``, an empty ``long[]``, a ``long[3]`` or
    an empty ``Object[]``. Returns ``(heap, root, registration)``."""
    registry = KlassRegistry()
    registry.register(InstanceKlass("Node", [FieldDescriptor("next", FieldKind.REFERENCE)]))
    registry.register(InstanceKlass("Leaf", [FieldDescriptor("v", FieldKind.LONG)]))
    heap = Heap(registry=registry)
    if leaf == "instance":
        end = heap.new_instance("Leaf")
        end.set("v", 42)
    elif leaf == "empty-array":
        end = heap.new_array(FieldKind.LONG, 0)
    elif leaf == "long-array":
        end = heap.new_array(FieldKind.LONG, 3)
        end.set_element(1, 7)
    else:
        end = heap.new_array(FieldKind.REFERENCE, 0)
    middle = heap.new_instance("Node")
    middle.set("next", end)
    root = heap.new_instance("Node")
    root.set("next", middle)
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return heap, root, registration


class TestDepthOfReferenceFreeObjects:
    """A leaf with no reference children one level past ``max_depth`` is
    rejected as the oracles reject it, before it is allocated."""

    @pytest.mark.parametrize("leaf", ["instance", "empty-array", "long-array",
                                      "empty-reference-array"])
    @pytest.mark.parametrize("fmt", ["kryo", "java-builtin"])
    def test_leaf_past_the_limit(self, fmt, leaf):
        heap, root, registration = _chain_with_leaf(leaf)
        if fmt == "kryo":
            product, oracle = KryoSerializer(registration), KryoOracle(registration)
        else:
            product, oracle = JavaSerializer(), JavaOracle()
        stream = product.serialize(root).stream
        errors = []
        for serializer in (oracle, product):
            target = Heap(registry=heap.registry)
            before = heap_state(target)
            with pytest.raises(ResourceLimitError) as exc:
                serializer.deserialize(stream, target, limits=DecodeLimits(max_depth=2))
            errors.append(str(exc.value))
            # Nothing past the second object was allocated.
            assert heap_state(target)[1] == before[1] + 2
        assert errors[0] == errors[1] == (
            "decode budget exceeded: depth of 3 over limit 2"
        )
        for serializer in (oracle, product):
            result = serializer.deserialize(
                stream, Heap(registry=heap.registry), limits=DecodeLimits(max_depth=3)
            )
            assert result.profile.objects == 3
