"""Per-bit helpers for the Cereal bit formats.

The Cereal serialization format (paper Section IV) is defined at the bit
level: layout bitmaps mark 8-byte slots, and the object packing scheme stores
only the significant bits of each value followed by an *end bit*. These
bit-list primitives sit under the packing oracle
(:mod:`repro.formats.slow_reference`); the fast path works on words in
:mod:`repro.common.bitstream`.
"""

from __future__ import annotations

from typing import List, Sequence


def significant_bits(value: int) -> int:
    """Number of bits needed to represent ``value`` (at least 1 for zero).

    The packing scheme drops leading zeros but must still emit at least one
    bit so that the end bit has something to terminate.
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return max(1, value.bit_length())


def int_to_bits(value: int, width: int) -> List[int]:
    """Big-endian bit list of ``value`` using exactly ``width`` bits.

    ``width`` must be at least 1: a zero-width encoding carries no bits to
    decode and historically produced a silent empty list (so
    ``int_to_bits(0, 0)`` encoded an *absence* rather than a value).
    """
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    if width < value.bit_length():
        raise ValueError(f"width {width} too small for value {value}")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a bit sequence into bytes, MSB-first, zero-padding the tail.

    **Tail padding is lossy about length**: packing ``n`` bits produces
    ``ceil(n / 8)`` bytes, and the pad bits are indistinguishable from
    payload zeros. A round trip through a non-multiple-of-8 bit count must
    therefore carry the declared bit length out of band and pass it to
    :func:`bytes_to_bits` via ``bit_count`` — otherwise the bit string
    silently grows to the next byte boundary.
    """
    out = bytearray()
    acc = 0
    count = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bit values must be 0 or 1, got {bit}")
        acc = (acc << 1) | bit
        count += 1
        if count == 8:
            out.append(acc)
            acc = 0
            count = 0
    if count:
        out.append(acc << (8 - count))
    return bytes(out)


def bytes_to_bits(data: bytes, bit_count: int | None = None) -> List[int]:
    """Unpack bytes into a bit list, MSB-first, truncated to ``bit_count``.

    Without ``bit_count`` the result always has ``len(data) * 8`` bits —
    including any zero bits :func:`bits_to_bytes` added as tail padding.
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
