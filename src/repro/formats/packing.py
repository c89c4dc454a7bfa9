"""Cereal's object packing scheme (paper Section IV-B, Figure 5).

The baseline Cereal format would need either an 8 B length per layout bitmap
or wasteful fixed-size buckets. The packing scheme instead stores, for each
item (a reference's relative address, or an object's layout bitmap):

1. the item's *significant bits* — leading zeros dropped for numeric items,
   the full bit string for bitmaps — followed by a single **end bit** (1);
2. the resulting bit string, zero-padded at the tail into 1-byte buckets;
3. one **end map** bit per packed byte, set on the final byte of each item,
   so boundaries cost 1/8 of the packed size instead of a length word.

Decoding uses the end map to find each item's byte extent, then locates the
item's *last set bit* — the end bit — and takes everything before it as the
payload. This is lossless because the end bit is always the last 1 in the
item's buckets (padding is all zeros).

The same scheme packs both the reference array and the layout bitmaps
(Section IV-B: "we apply this object packing scheme to both the layout
bitmap and references"). Hardware cost: the SU's reference array writer and
the DU's unpackers implement exactly these loops.

**Implementation note (word-level fast path).** Items are processed as
``(value, width)`` *words*, never as per-bit lists: one packed item is a
shift, an or, and an ``int.to_bytes``; one unpacked item is an
``int.from_bytes``, a trailing-zero count, and a shift. The original
per-bit kernels survive as the equivalence oracle in ``tests/oracles.py``;
both produce byte-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.common.bitstream import trailing_zeros, word_to_bits
from repro.common.errors import FormatError


@dataclass(frozen=True)
class PackedArray:
    """A packed item stream plus its end map."""

    data: bytes
    end_map: bytes
    item_count: int

    @property
    def total_bytes(self) -> int:
        return len(self.data) + len(self.end_map)


# -- word-level kernels -----------------------------------------------------------------


def pack_word_items(items: Sequence[Tuple[int, int]]) -> PackedArray:
    """Pack ``(payload, width)`` words into buckets + end map.

    Each item becomes ``width`` payload bits, the end bit, and tail zeros
    to the next byte boundary — emitted as a single ``int.to_bytes`` call.
    """
    data = bytearray()
    end_positions: List[int] = []
    for value, width in items:
        if width < 1:
            raise ValueError(f"item width must be at least 1, got {width}")
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"item value {value} does not fit in {width} bits")
        nbits = width + 1  # payload + end bit
        nbytes = (nbits + 7) >> 3
        data += (((value << 1) | 1) << ((nbytes << 3) - nbits)).to_bytes(
            nbytes, "big"
        )
        end_positions.append(len(data) - 1)

    end_map = bytearray((len(data) + 7) >> 3)
    for position in end_positions:
        end_map[position >> 3] |= 0x80 >> (position & 7)
    return PackedArray(
        data=bytes(data), end_map=bytes(end_map), item_count=len(items)
    )


# Bit offsets (MSB first) of the set bits of every end-map byte value.
_SET_BITS = tuple(
    tuple(bit for bit in range(8) if value & (0x80 >> bit)) for value in range(256)
)


def _item_ends(packed: PackedArray) -> List[int]:
    """Each item's last byte index, from one byte-wise scan of the end map."""
    data_len = len(packed.data)
    available = len(packed.end_map) * 8
    if data_len > available:
        # Same failure the per-bit kernel hits decoding a short end map.
        raise ValueError(f"bit_count {data_len} exceeds available bits {available}")
    ends: List[int] = []
    append = ends.append
    for index, value in enumerate(packed.end_map[: (data_len + 7) >> 3]):
        if value:
            base = index << 3
            for bit in _SET_BITS[value]:
                append(base + bit)
    # Only the first ``data_len`` end-map bits are meaningful; bits in the
    # end map's own tail padding are ignored, as in the per-bit kernel.
    while ends and ends[-1] >= data_len:
        ends.pop()
    return ends


def unpack_word_items(packed: PackedArray) -> List[Tuple[int, int]]:
    """Inverse of :func:`pack_word_items`: recover ``(payload, width)`` words."""
    items: List[Tuple[int, int]] = []
    consumed = 0
    # One memoryview over the packed data: per-item slices below are
    # zero-copy views instead of per-item bytes copies.
    data = memoryview(packed.data)
    for end in _item_ends(packed):
        word = int.from_bytes(data[consumed : end + 1], "big")
        if word == 0:
            raise FormatError("packed item contains no end bit")
        # The end bit is the item's last set bit; everything above it is
        # payload, everything below is byte-alignment padding.
        pad = trailing_zeros(word)
        width = (end + 1 - consumed) * 8 - pad - 1
        items.append((word >> (pad + 1), width))
        consumed = end + 1
    if len(items) != packed.item_count:
        raise FormatError(
            f"end map yields {len(items)} items, expected {packed.item_count}"
        )
    if consumed != len(packed.data):
        raise FormatError(
            f"{len(packed.data) - consumed} trailing packed bytes after last item"
        )
    return items


# -- numeric items (reference relative addresses) -----------------------------------


def pack_items(values: Sequence[int]) -> PackedArray:
    """Pack non-negative integers, keeping only significant bits (Figure 5a).

    The loop body is :func:`pack_word_items` with the width derived inline
    (significant bits) and the redundant fits-in-width check dropped —
    this is the single hottest kernel in the encoder, so it earns the
    hand-inlining.
    """
    data = bytearray()
    end_positions: List[int] = []
    append_end = end_positions.append
    for value in values:
        if value < 0:
            raise ValueError(f"value must be non-negative, got {value}")
        nbits = (value.bit_length() or 1) + 1  # payload + end bit
        nbytes = (nbits + 7) >> 3
        data += (((value << 1) | 1) << ((nbytes << 3) - nbits)).to_bytes(
            nbytes, "big"
        )
        append_end(len(data) - 1)
    end_map = bytearray((len(data) + 7) >> 3)
    for position in end_positions:
        end_map[position >> 3] |= 0x80 >> (position & 7)
    return PackedArray(
        data=bytes(data), end_map=bytes(end_map), item_count=len(values)
    )


def unpack_items(packed: PackedArray) -> List[int]:
    """Inverse of :func:`pack_items` (hand-inlined hot path).

    The packed data is sliced through a single ``memoryview`` so each
    item read is a zero-copy view, not a per-item bytes allocation.
    """
    data = memoryview(packed.data)
    out: List[int] = []
    append = out.append
    start = 0
    for end in _item_ends(packed):
        word = int.from_bytes(data[start : end + 1], "big")
        if word == 0:
            raise FormatError("packed item contains no end bit")
        pad = (word & -word).bit_length() - 1
        append(word >> (pad + 1))
        start = end + 1
    if len(out) != packed.item_count:
        raise FormatError(
            f"end map yields {len(out)} items, expected {packed.item_count}"
        )
    if start != len(data):
        raise FormatError(
            f"{len(data) - start} trailing packed bytes after last item"
        )
    return out


# -- bitmap items (per-object layout bitmaps) ------------------------------------------


def pack_bitmap_words(bitmaps: Sequence[Tuple[int, int]]) -> PackedArray:
    """Pack layout bitmaps given as ``(bits_as_int, bit_length)`` words.

    The full bit string is kept (its length encodes the object size),
    terminated by the end bit like any other item. This is the fast path
    the Cereal encoder feeds from the per-klass layout cache.
    """
    for value, width in bitmaps:
        if width < 1:
            raise FormatError("layout bitmap must be non-empty")
        if value < 0 or value.bit_length() > width:
            raise FormatError(
                f"bitmap word {value} does not fit in {width} bits"
            )
    return pack_word_items(bitmaps)


def unpack_bitmap_words(packed: PackedArray) -> List[Tuple[int, int]]:
    """Inverse of :func:`pack_bitmap_words`."""
    return unpack_word_items(packed)


def unpack_bitmaps(packed: PackedArray) -> List[List[int]]:
    """:func:`unpack_bitmap_words`, each bitmap as a list of bits."""
    return [word_to_bits(value, width) for value, width in unpack_word_items(packed)]
