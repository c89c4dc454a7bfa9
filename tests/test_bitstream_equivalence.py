"""Fast-path vs oracle equivalence for the integer-bitstream kernels.

The word-level kernels in :mod:`repro.formats.packing` and the primitives
in :mod:`repro.common.bitstream` replaced per-bit loops wholesale. The
original loops survive as the oracles in ``tests/oracles.py``;
these tests assert the two implementations are *byte-identical* on random
inputs in both directions, so the fast path can never silently change the
serialized format. The heaviest oracle sweeps carry the ``perf`` marker
(``-m "not perf"`` skips them).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitstream import trailing_zeros, word_to_bits
from repro.common.errors import FormatError
from repro.formats import packing
from repro.formats.cereal_format import CerealSerializer
from repro.jvm import Heap

from tests import oracles as slow
from tests.oracles import bits_to_word
from tests.test_format_stability import (
    _golden_registry,
    _make_serializer,
    build_golden_graph,
)
from tests.test_packing import pack_bitmaps

values_strategy = st.lists(st.integers(min_value=0, max_value=2**60), max_size=120)
bitmap_strategy = st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=90), max_size=60
)


class TestItemKernelEquivalence:
    @given(values_strategy)
    def test_pack_items_byte_identical(self, values):
        fast = packing.pack_items(values)
        oracle = slow.slow_pack_items(values)
        assert fast.data == oracle.data
        assert fast.end_map == oracle.end_map
        assert fast.item_count == oracle.item_count

    @given(values_strategy)
    def test_unpack_agrees_on_oracle_streams(self, values):
        packed = slow.slow_pack_items(values)
        assert packing.unpack_items(packed) == slow.slow_unpack_items(packed)

    @given(values_strategy)
    def test_cross_implementation_round_trips(self, values):
        assert packing.unpack_items(slow.slow_pack_items(values)) == values
        assert slow.slow_unpack_items(packing.pack_items(values)) == values

    def test_corrupt_stream_same_error(self):
        packed = packing.PackedArray(
            data=b"\x00", end_map=b"\x80", item_count=1
        )
        with pytest.raises(Exception) as fast_err:
            packing.unpack_items(packed)
        with pytest.raises(Exception) as slow_err:
            slow.slow_unpack_items(packed)
        assert str(fast_err.value) == str(slow_err.value)

    def test_short_end_map_same_error(self):
        packed = packing.PackedArray(
            data=bytes(16), end_map=b"\x00", item_count=1
        )
        with pytest.raises(ValueError) as fast_err:
            packing.unpack_items(packed)
        with pytest.raises(ValueError) as slow_err:
            slow.slow_unpack_items(packed)
        assert str(fast_err.value) == str(slow_err.value)


class TestEndMapScan:
    """The end map is read in one linear pass; large streams and malformed
    end maps must behave exactly as under the per-bit oracle."""

    def test_large_items_round_trip(self):
        rng = random.Random(5)
        values = [rng.getrandbits(rng.randint(0, 40)) for _ in range(50_000)]
        fast = packing.pack_items(values)
        oracle = slow.slow_pack_items(values)
        assert (fast.data, fast.end_map) == (oracle.data, oracle.end_map)
        assert packing.unpack_items(fast) == values
        assert packing.unpack_items(oracle) == slow.slow_unpack_items(oracle)

    def test_large_word_items_round_trip(self):
        rng = random.Random(6)
        words = []
        for _ in range(20_000):
            width = rng.randint(1, 90)
            words.append((rng.getrandbits(width), width))
        packed = packing.pack_word_items(words)
        assert packing.unpack_word_items(packed) == words
        oracle_bits = slow.slow_unpack_bit_items(packed)
        assert [bits_to_word(bits) for bits in oracle_bits] == words

    @staticmethod
    def _malformed():
        good = packing.pack_items([5, 300, 0, 1 << 20])  # 7 data bytes
        yield "tail padding bit", packing.PackedArray(
            data=good.data,
            end_map=bytes([good.end_map[0] | 0x01]),  # bit 7: past the data
            item_count=good.item_count,
        )
        yield "short end map", packing.PackedArray(
            data=good.data + bytes(2), end_map=good.end_map, item_count=4
        )
        yield "trailing bytes", packing.PackedArray(
            data=good.data + b"\x80", end_map=good.end_map + b"\x00",
            item_count=4,
        )
        yield "count mismatch", packing.PackedArray(
            data=good.data, end_map=good.end_map, item_count=5
        )
        yield "empty item", packing.PackedArray(
            data=b"\x80\x00", end_map=b"\xc0", item_count=2
        )

    def test_malformed_end_maps_match_oracle(self):
        outcomes = {}
        for name, packed in self._malformed():
            for kernel in (
                packing.unpack_items,
                packing.unpack_word_items,
                slow.slow_unpack_items,
            ):
                try:
                    result = ("ok", kernel(packed))
                except (ValueError, FormatError) as err:
                    result = (type(err), str(err))
                outcomes.setdefault(name, []).append(result)
        for name, (items, words, oracle) in outcomes.items():
            assert items == oracle, name
            assert words[0] == oracle[0], name
        assert outcomes["tail padding bit"][0] == ("ok", [5, 300, 0, 1 << 20])
        assert outcomes["short end map"][0][0] is ValueError
        for name in ("trailing bytes", "count mismatch", "empty item"):
            assert outcomes[name][0][0] is FormatError, name


class TestBitmapKernelEquivalence:
    @given(bitmap_strategy)
    def test_pack_bitmaps_byte_identical(self, bitmaps):
        fast = pack_bitmaps(bitmaps)
        oracle = slow.slow_pack_bitmaps(bitmaps)
        assert fast.data == oracle.data
        assert fast.end_map == oracle.end_map

    @given(bitmap_strategy)
    def test_unpack_bitmaps_agrees(self, bitmaps):
        packed = slow.slow_pack_bitmaps(bitmaps)
        assert packing.unpack_bitmaps(packed) == slow.slow_unpack_bitmaps(packed)
        assert packing.unpack_bitmaps(packed) == [list(b) for b in bitmaps]

    @given(bitmap_strategy)
    def test_word_form_matches_bit_form(self, bitmaps):
        words = [bits_to_word(b) for b in bitmaps]
        from_words = packing.pack_bitmap_words(words)
        from_bits = slow.slow_pack_bitmaps(bitmaps)
        assert from_words.data == from_bits.data
        assert from_words.end_map == from_bits.end_map
        assert packing.unpack_bitmap_words(from_words) == words


class TestBitstreamPrimitives:
    @given(st.integers(min_value=1, max_value=2**80))
    def test_trailing_zeros_definition(self, value):
        tz = trailing_zeros(value)
        assert value % (1 << tz) == 0
        assert (value >> tz) & 1 == 1

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=100))
    def test_word_bits_round_trip(self, bits):
        value, width = bits_to_word(bits)
        assert width == len(bits)
        assert word_to_bits(value, width) == list(bits)


class TestFormatByteIdentity:
    """The rewritten encoders must keep emitting deterministic bytes."""

    @pytest.mark.parametrize("kind", ["java", "kryo", "skyway", "cereal"])
    def test_repeat_serialize_identical(self, kind):
        registry = _golden_registry()
        heap = Heap(registry=registry)
        root = build_golden_graph(heap)
        serializer = _make_serializer(kind, registry)
        first = serializer.serialize(root).stream.data
        second = serializer.serialize(root).stream.data
        assert first == second

    def test_layout_cache_cold_vs_warm_identical(self):
        from repro.jvm.layout_cache import clear_layout_cache

        def encode():
            registry = _golden_registry()
            heap = Heap(registry=registry)
            root = build_golden_graph(heap)
            return _make_serializer("cereal", registry).serialize(root).stream.data

        clear_layout_cache()
        cold = encode()
        warm = encode()  # second build hits the memoized layouts
        assert cold == warm

    def test_packed_and_baseline_bitmaps_decode_alike(self):
        registry = _golden_registry()
        heap = Heap(registry=registry)
        root = build_golden_graph(heap)
        registration_klasses = list(registry)
        from repro.formats import ClassRegistration, graphs_equivalent

        for pack_layouts in (False, True):
            registration = ClassRegistration()
            for klass in registration_klasses:
                registration.register(klass)
            serializer = CerealSerializer(registration, use_packing=pack_layouts)
            stream = serializer.serialize(root).stream
            rebuilt = serializer.deserialize(stream, Heap(registry=registry)).root
            assert graphs_equivalent(root, rebuilt)


@pytest.mark.perf
class TestOracleSweeps:
    """Large deterministic sweeps against the per-bit oracle (slow)."""

    def test_wide_value_sweep(self):
        values = [(1 << (i % 61)) + i for i in range(4000)]
        fast = packing.pack_items(values)
        oracle = slow.slow_pack_items(values)
        assert fast.data == oracle.data
        assert fast.end_map == oracle.end_map
        assert packing.unpack_items(fast) == values
        assert slow.slow_unpack_items(fast) == values

    def test_wide_bitmap_sweep(self):
        bitmaps = [
            [(i >> (j % 13)) & 1 for j in range(1 + (i % 77))]
            for i in range(1500)
        ]
        fast = pack_bitmaps(bitmaps)
        oracle = slow.slow_pack_bitmaps(bitmaps)
        assert fast.data == oracle.data
        assert fast.end_map == oracle.end_map
        assert packing.unpack_bitmaps(fast) == bitmaps

    @settings(max_examples=25)
    @given(
        st.lists(st.integers(min_value=0, max_value=2**200), max_size=50)
    )
    def test_huge_values_round_trip(self, values):
        fast = packing.pack_items(values)
        oracle = slow.slow_pack_items(values)
        assert fast.data == oracle.data
        assert packing.unpack_items(fast) == values
