"""Scale stability of the modelled speedups, and corruption robustness.

DESIGN.md claims the reproduction's speedups are ratios of modelled
cycles/bytes and therefore scale-stable; the first half verifies that the
key ratios move only mildly when the workload doubles. The second half
injects random corruption into serialized streams and requires every
decoder to fail with a *library* error (or produce a structurally valid
graph) — never an unrelated crash.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cereal import CerealAccelerator
from repro.common.config import HostCPUConfig, SystemConfig
from repro.common.errors import CerealError
from repro.cpu import SoftwarePlatform
from repro.formats import SerializedStream
from repro.jvm import Heap
from tests.test_cpu_model import round_trip_timings
from tests.test_serializers import build_tree, make_registry, make_serializer


def _speedup_at_depth(depth):
    """(kryo_deser_speedup, cereal_ser_speedup) on a tree of ``depth``."""
    registry = make_registry()
    platform = SoftwarePlatform(SystemConfig(host=HostCPUConfig().scaled_caches(100)))

    heap = Heap(registry=registry)
    receiver = Heap(registry=registry)
    root = build_tree(heap, depth=depth)
    java_ser, java_de = round_trip_timings(platform, 
        make_serializer("java", registry), root, receiver
    )
    heap2 = Heap(registry=registry)
    receiver2 = Heap(registry=registry)
    root2 = build_tree(heap2, depth=depth)
    kryo_ser, kryo_de = round_trip_timings(platform, 
        make_serializer("kryo", registry), root2, receiver2
    )

    heap3 = Heap(registry=registry)
    root3 = build_tree(heap3, depth=depth)
    accelerator = CerealAccelerator()
    for klass in registry:
        accelerator.register_class(klass)
    _, cereal_ser, _ = accelerator.serialize(root3)

    return (
        java_de.time_ns / kryo_de.time_ns,
        java_ser.time_ns / cereal_ser.elapsed_ns,
    )


class TestScaleStability:
    def test_ratios_stable_when_workload_doubles(self):
        kryo_small, cereal_small = _speedup_at_depth(9)  # 1023 objects
        kryo_large, cereal_large = _speedup_at_depth(10)  # 2047 objects
        assert kryo_large / kryo_small == pytest.approx(1.0, abs=0.35)
        assert cereal_large / cereal_small == pytest.approx(1.0, abs=0.35)

    def test_cereal_throughput_grows_with_size(self):
        """Fixed costs amortize: bigger graphs get closer to peak rate."""
        registry = make_registry()
        accelerator = CerealAccelerator()
        for klass in registry:
            accelerator.register_class(klass)
        heap = Heap(registry=registry)
        small = build_tree(heap, depth=5)
        large = build_tree(heap, depth=10)
        _, t_small, _ = accelerator.serialize(small)
        _, t_large, _ = accelerator.serialize(large)
        assert (
            t_large.graph_bytes / t_large.elapsed_ns
            >= 0.9 * t_small.graph_bytes / t_small.elapsed_ns
        )


def _corrupt(data: bytes, position: int, value: int) -> bytes:
    mutated = bytearray(data)
    mutated[position % len(mutated)] ^= value or 0xFF
    return bytes(mutated)


_SERIALIZER_KINDS = ["java", "kryo", "skyway", "cereal"]

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("serializer_kind", _SERIALIZER_KINDS)
class TestCorruptionRobustness:
    @_SETTINGS
    @given(position=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_corrupted_stream_fails_safely(self, serializer_kind, position, flip):
        registry = make_registry()
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        serializer = make_serializer(serializer_kind, registry)
        stream = serializer.serialize(build_tree(heap, depth=4)).stream
        corrupted = SerializedStream(
            format_name=stream.format_name,
            data=_corrupt(stream.data, position, flip),
            sections=dict(stream.sections),
        )
        try:
            result = serializer.deserialize(corrupted, receiver)
        except CerealError:
            return  # detected: a library error, the acceptable outcome
        except (OverflowError, MemoryError):
            pytest.fail("corruption escaped the format layer's validation")
        # Undetected corruption must still have produced real heap objects
        # (e.g. a flipped primitive value), never a dangling structure.
        graph_root = result.root
        assert graph_root.klass.name
        for obj in _walk_safely(graph_root):
            assert obj.size_bytes > 0


def _walk_safely(root, limit=10_000):
    from repro.jvm.graph import traverse_slot_runs

    count = 0
    for obj, _ in traverse_slot_runs(root):
        yield obj
        count += 1
        if count > limit:
            raise AssertionError("corrupted graph walk did not terminate")


@pytest.mark.parametrize("serializer_kind", _SERIALIZER_KINDS)
class TestFramedCorruptionDetection:
    """With checksummed framing, corruption detection must be *total*.

    The unframed contract above is fail-safely: decoders may crash with a
    library error or produce a structurally valid (but wrong) graph. The
    CRC32 frame upgrades that to fail-loudly: any corrupted byte —
    header or payload — raises :class:`CorruptionError`, so no silently
    wrong graph can ever leave the transfer layer.
    """

    @_SETTINGS
    @given(position=st.integers(0, 10_000), flip=st.integers(1, 255))
    def test_framed_corruption_always_detected(
        self, serializer_kind, position, flip
    ):
        from repro.common.errors import CorruptionError

        registry = make_registry()
        heap = Heap(registry=registry)
        serializer = make_serializer(serializer_kind, registry)
        framed = serializer.serialize(build_tree(heap, depth=4)).stream.framed()
        corrupted = SerializedStream(
            format_name=framed.format_name,
            data=_corrupt(framed.data, position, flip),
            sections=dict(framed.sections),
        )
        with pytest.raises(CorruptionError):
            corrupted.unframed()

    @_SETTINGS
    @given(cut=st.integers(1, 200))
    def test_framed_truncation_always_detected(self, serializer_kind, cut):
        from repro.common.errors import CorruptionError

        registry = make_registry()
        heap = Heap(registry=registry)
        serializer = make_serializer(serializer_kind, registry)
        framed = serializer.serialize(build_tree(heap, depth=4)).stream.framed()
        truncated = SerializedStream(
            format_name=framed.format_name,
            data=framed.data[: max(0, len(framed.data) - cut)],
            sections=dict(framed.sections),
        )
        with pytest.raises(CorruptionError):
            truncated.unframed()

    def test_intact_frame_round_trips(self, serializer_kind):
        registry = make_registry()
        heap = Heap(registry=registry)
        receiver = Heap(registry=registry)
        serializer = make_serializer(serializer_kind, registry)
        stream = serializer.serialize(build_tree(heap, depth=4)).stream
        recovered = stream.framed().unframed()
        assert recovered.data == stream.data
        result = serializer.deserialize(recovered, receiver)
        assert result.root.klass.name
