"""Packing/unpacking datapaths (reference array writer, DU unpackers).

These model, cycle by cycle, the hardware that implements the Section IV-B
object packing scheme:

* **pack** — per item: a priority encoder finds the most significant set
  bit (giving the significant-bit count in one cycle), a barrel shifter
  appends ``significant bits + end bit`` into a bit accumulator, and the
  aligner zero-pads to the next byte boundary, emitting bytes and setting
  the end-map bit of each item's final byte;
* **unpack** — per item: the end-map scanner finds the item's final byte,
  a trailing-one detector locates the end bit inside the item's buckets,
  and the payload bits before it are the recovered value/bitmap.

Both directions process **one item per cycle** (the rate the SU's
reference array writer and the DU's unpackers are charged in the timing
models), and both are bit-exact against :mod:`repro.formats.packing`.

The simulation itself runs the word-level kernels — an item is one barrel
shift (``int`` shift/or) plus one byte emit (``int.to_bytes``), mirroring
what the modeled datapath does in a single beat. Cycle accounting is
unchanged from the per-bit model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.bitstream import bits_to_word, trailing_zeros, word_to_bits
from repro.common.errors import SimulationError
from repro.formats.packing import PackedArray


class _BitAccumulator:
    """The shift-register + byte aligner shared by both packers."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.end_map_positions: List[int] = []

    def append_word(self, value: int, width: int) -> None:
        """Append an item (``width`` payload bits) + end bit, byte-aligned.

        One barrel-shift beat: payload, end bit, and alignment padding are
        composed in a single word and emitted as whole bytes.
        """
        nbits = width + 1
        nbytes = (nbits + 7) >> 3
        self.data += (((value << 1) | 1) << ((nbytes << 3) - nbits)).to_bytes(
            nbytes, "big"
        )
        self.end_map_positions.append(len(self.data) - 1)

    def result(self, item_count: int) -> PackedArray:
        end_map = bytearray((len(self.data) + 7) >> 3)
        for position in self.end_map_positions:
            end_map[position >> 3] |= 0x80 >> (position & 7)
        return PackedArray(
            data=bytes(self.data), end_map=bytes(end_map), item_count=item_count
        )


def priority_encode(value: int) -> int:
    """Position of the most significant set bit + 1 (0 for value 0).

    The single-cycle leading-zero counter in front of the barrel shifter.
    """
    if value < 0:
        raise SimulationError("priority encoder input must be non-negative")
    return value.bit_length()


class PackerDatapath:
    """The reference array writer's packing pipeline: one item per cycle."""

    def __init__(self) -> None:
        self._accumulator = _BitAccumulator()
        self._items = 0
        self.cycles = 0

    def push(self, value: int) -> None:
        """Pack one relative-address item (a single pipeline beat)."""
        if value < 0:
            raise SimulationError("packed values must be non-negative")
        width = max(1, priority_encode(value))
        self._accumulator.append_word(value, width)
        self._items += 1
        self.cycles += 1

    def result(self) -> PackedArray:
        return self._accumulator.result(self._items)


class BitmapPackerDatapath:
    """The OMM's layout-bitmap packer: 64 bitmap bits per cycle."""

    BITS_PER_CYCLE = 64

    def __init__(self) -> None:
        self._accumulator = _BitAccumulator()
        self._items = 0
        self.cycles = 0

    def push_bitmap_word(self, value: int, width: int) -> None:
        """Pack one bitmap given as an MSB-first ``(word, width)`` pair."""
        if width < 1:
            raise SimulationError("layout bitmap must be non-empty")
        if value < 0 or value.bit_length() > width:
            raise SimulationError("layout bitmap word out of range")
        self._accumulator.append_word(value, width)
        self._items += 1
        self.cycles += (width + self.BITS_PER_CYCLE - 1) // self.BITS_PER_CYCLE

    def push_bitmap(self, bits: Sequence[int]) -> None:
        if not bits:
            raise SimulationError("layout bitmap must be non-empty")
        try:
            value, width = bits_to_word(bits)
        except ValueError:
            raise SimulationError(
                "layout bitmap must contain only 0/1"
            ) from None
        self.push_bitmap_word(value, width)

    def result(self) -> PackedArray:
        return self._accumulator.result(self._items)


class UnpackerDatapath:
    """The DU's custom unpacking module: one item recovered per cycle."""

    def __init__(self, packed: PackedArray):
        self.packed = packed
        self._byte_cursor = 0
        self._emitted = 0
        self.cycles = 0
        # End-map scanner state: every set bit, in increasing position,
        # extracted word-at-a-time instead of probing byte by byte.
        data_len = len(packed.data)
        end_word = int.from_bytes(packed.end_map, "big")
        total = len(packed.end_map) * 8
        positions: List[int] = []
        while end_word:
            msb = end_word.bit_length() - 1
            position = total - 1 - msb
            if position >= data_len:
                break  # end bits beyond the data are never reached
            positions.append(position)
            end_word &= (1 << msb) - 1
        self._end_positions = positions
        self._end_index = 0

    def next_item_word(self) -> Optional[Tuple[int, int]]:
        """Recover the next item as ``(payload, width)``; None when drained."""
        if self._emitted >= self.packed.item_count:
            return None
        # End-map scanner: advance to this item's final byte.
        if self._end_index >= len(self._end_positions):
            raise SimulationError("end map exhausted before item boundary")
        start = self._byte_cursor
        end = self._end_positions[self._end_index]
        word = int.from_bytes(self.packed.data[start : end + 1], "big")
        # Trailing-one detector: the last set bit is the end bit.
        if word == 0:
            raise SimulationError("item buckets contain no end bit")
        pad = trailing_zeros(word)
        width = (end + 1 - start) * 8 - pad - 1
        self._end_index += 1
        self._byte_cursor = end + 1
        self._emitted += 1
        self.cycles += 1
        return word >> (pad + 1), width

    def next_item_bits(self) -> Optional[List[int]]:
        """Recover the next item's payload bits; None when drained."""
        item = self.next_item_word()
        if item is None:
            return None
        return word_to_bits(item[0], item[1])

    def next_value(self) -> Optional[int]:
        """Recover the next numeric item (reference relative address)."""
        item = self.next_item_word()
        if item is None:
            return None
        return item[0]

    def drain_values(self) -> List[int]:
        out = []
        while True:
            value = self.next_value()
            if value is None:
                return out
            out.append(value)

    def drain_bitmaps(self) -> List[List[int]]:
        out = []
        while True:
            bits = self.next_item_bits()
            if bits is None:
                return out
            out.append(bits)
