"""Shared LEB128 / zig-zag varint codecs.

One implementation serves every consumer: the section-accounting stream
layer (:mod:`repro.formats.streams`) and the compiled-plan kernels
(:mod:`repro.formats.plans`). Historically ``plans.py`` carried its own
copy of these helpers parallel to ``StreamWriter``/``StreamReader``; both
now route through here so the 10-byte overflow guard, the zig-zag
mapping, and the error taxonomy cannot drift apart.

Encoding is Kryo's little-endian base-128: seven payload bits per byte,
high bit set on every byte except the last. Signed values are zig-zag
mapped into the u64 space first (``0 -> 0, -1 -> 1, 1 -> 2, ...``). A
u64 needs at most ten bytes; a tenth byte whose payload exceeds bit 0
would decode past 2^64, so the decoder rejects it
(:class:`MalformedVarintError`) rather than silently overflowing.
"""

from __future__ import annotations

from typing import Tuple

from repro.common.errors import (
    FormatError,
    MalformedVarintError,
    TruncatedStreamError,
)

_U64_MASK = (1 << 64) - 1

# A Kryo INT travels as a zig-zag varint that may name any i64; the
# decoders accept only values a Java ``int`` can hold.
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1


def append_varint(out: bytearray, value: int) -> int:
    """Unsigned LEB128 append; returns the encoded length in bytes."""
    if value < 0:
        raise FormatError(f"varint requires non-negative value, got {value}")
    length = 0
    while True:
        byte = value & 0x7F
        value >>= 7
        length += 1
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return length


def append_signed_varint(out: bytearray, value: int) -> int:
    """Zig-zag LEB128 append; returns the encoded length in bytes."""
    zigzag = ((value << 1) ^ (value >> 63) if value < 0 else value << 1) & _U64_MASK
    length = 0
    while True:
        byte = zigzag & 0x7F
        zigzag >>= 7
        length += 1
        if zigzag:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return length


class VarintBytes(dict):
    """Memo of unsigned LEB128 encodings: ``memo[value]`` is the bytes.

    An encoder that writes the same values again and again (Kryo's
    back-reference object IDs) looks them up instead of re-encoding:
    a hit is one dict probe.
    """

    __slots__ = ()

    def __missing__(self, value: int) -> bytes:
        buffer = bytearray()
        append_varint(buffer, value)
        encoded = self[value] = bytes(buffer)
        return encoded


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Unsigned LEB128 decode at ``pos``; returns ``(value, new_pos)``.

    Raises :class:`TruncatedStreamError` if the stream ends mid-varint and
    :class:`MalformedVarintError` for encodings longer than 64 bits or a
    final byte that would push the value past 2^64.
    """
    value = 0
    shift = 0
    end = len(data)
    while True:
        if shift > 63:
            raise MalformedVarintError("varint longer than 64 bits")
        if pos >= end:
            raise TruncatedStreamError(offset=pos, needed=1, available=end - pos)
        byte = data[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            # A 10th byte with any bit above bit 0 set would decode to
            # >= 2^64: the encoder never emits it, so reject it rather
            # than silently overflowing the u64 value space.
            if value >= 1 << 64:
                raise MalformedVarintError(
                    f"varint decodes to {value} (>= 2^64); final byte "
                    f"{byte:#04x} at shift {shift} overflows u64"
                )
            return value, pos
        shift += 7


def read_signed_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Zig-zag LEB128 decode at ``pos``; returns ``(value, new_pos)``."""
    value, pos = read_varint(data, pos)
    decoded = value >> 1
    if value & 1:
        decoded = ~decoded
    return decoded, pos


def int32_range_error(value: int) -> MalformedVarintError:
    """The rejection for an INT varint that decodes outside int32."""
    return MalformedVarintError(
        f"INT varint decodes to {value}, outside the int32 range"
    )
