"""Bit-list view of Cereal bytes.

The Cereal serialization format (paper Section IV) is defined at the bit
level: layout bitmaps mark 8-byte slots, and the object packing scheme stores
only the significant bits of each value followed by an *end bit*.
:func:`bytes_to_bits` shows packed bytes bit by bit; the fast path works on
words in :mod:`repro.common.bitstream`.
"""

from __future__ import annotations

from typing import List


def bytes_to_bits(data: bytes, bit_count: int | None = None) -> List[int]:
    """Unpack bytes into a bit list, MSB-first, truncated to ``bit_count``.

    Without ``bit_count`` the result always has ``len(data) * 8`` bits —
    including any zero bits added as tail padding.
    Callers that packed a non-multiple-of-8 bit string must pass the
    original length here to get the same string back.
    """
    bits: List[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    if bit_count is not None:
        if bit_count > len(bits):
            raise ValueError(
                f"bit_count {bit_count} exceeds available bits {len(bits)}"
            )
        bits = bits[:bit_count]
    return bits
