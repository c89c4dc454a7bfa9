"""Byte stream reader/writer with section accounting and varints.

``StreamWriter`` tags every write with a *section* name so the format
implementations get a byte-accurate breakdown of where stream space goes
(type metadata, field data, references, bitmaps, ...). ``StreamReader`` is
the matching cursor-based reader.

Varints use the LEB128 little-endian base-128 encoding that Kryo uses for
its optimized positive-int writes; signed values are zig-zag mapped first.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict

from repro.common.errors import (
    CorruptionError,
    FormatError,
    TruncatedStreamError,
)
from repro.formats import varint as V


# -- checksummed framing ------------------------------------------------------------
#
# A 16-byte frame protects a serialized payload on the transfer path
# (shuffle / broadcast / collect):
#
#     magic(4) | payload_length u32 | payload_crc32 u32 | header_crc32 u32
#
# ``header_crc32`` covers the first 12 bytes, so a flip anywhere in the
# header is caught even before the payload is inspected; ``payload_crc32``
# covers the payload; the explicit length catches truncation. CRC32 detects
# every error burst of <= 32 bits, so any single corrupted byte is caught.

FRAME_MAGIC = b"\xc5\xea\x1f\x01"
FRAME_HEADER_BYTES = 16
FRAME_SECTION = "frame"


def frame_payload(payload: bytes) -> bytes:
    """Wrap ``payload`` in the 16-byte checksummed frame."""
    header = FRAME_MAGIC + struct.pack(
        "<II", len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    header += struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF)
    return header + payload


def unframe_payload(data: bytes) -> bytes:
    """Verify a framed stream and return the payload.

    Raises :class:`CorruptionError` on any mismatch: bad magic, damaged
    header, truncated payload, or payload digest failure.
    """
    if len(data) < FRAME_HEADER_BYTES:
        raise CorruptionError(
            f"framed stream too short: {len(data)} bytes < "
            f"{FRAME_HEADER_BYTES}-byte frame header"
        )
    header = data[:12]
    (header_crc,) = struct.unpack("<I", data[12:16])
    if zlib.crc32(header) & 0xFFFFFFFF != header_crc:
        raise CorruptionError("frame header checksum mismatch")
    if data[:4] != FRAME_MAGIC:
        raise CorruptionError("bad frame magic")
    length, payload_crc = struct.unpack("<II", data[4:12])
    payload = data[FRAME_HEADER_BYTES:]
    if length != len(payload):
        raise CorruptionError(
            f"frame declares {length} payload bytes, got {len(payload)} "
            f"(truncated or padded transfer)"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
        raise CorruptionError("payload checksum mismatch")
    return payload


def looks_framed(data: bytes) -> bool:
    """Cheap sniff: does ``data`` start with the frame magic?"""
    return len(data) >= FRAME_HEADER_BYTES and data[:4] == FRAME_MAGIC


# -- per-chunk framing --------------------------------------------------------------
#
# Streaming transfers ship a serialized payload as a sequence of framed
# chunks so one damaged chunk retries alone instead of re-fetching the
# whole stream. The 21-byte chunk header is a versioned sibling of the
# whole-payload frame above (magic version bumped to 0x02):
#
#     magic(4) | seq u32 | payload_length u32 | flags u8 |
#     payload_crc32 u32 | header_crc32 u32
#
# ``seq`` orders chunks and exposes reordering/duplication; the LAST flag
# marks the final chunk so a clipped tail is detectable (a stream that
# ends without it is truncated, not merely short).

CHUNK_MAGIC = b"\xc5\xea\x1f\x02"
CHUNK_HEADER_BYTES = 21
CHUNK_FLAG_LAST = 0x01


def frame_chunk(seq: int, payload, last: bool = False) -> bytes:
    """Wrap one chunk payload in the 21-byte checksummed chunk frame.

    ``payload`` may be any buffer-protocol object (bytes, bytearray,
    memoryview) — chunks frame without an intermediate copy.
    """
    flags = CHUNK_FLAG_LAST if last else 0
    header = CHUNK_MAGIC + struct.pack(
        "<IIBI",
        seq & 0xFFFFFFFF,
        len(payload),
        flags,
        zlib.crc32(payload) & 0xFFFFFFFF,
    )
    header += struct.pack("<I", zlib.crc32(header) & 0xFFFFFFFF)
    return header + payload


def unframe_chunk(data) -> Tuple[int, memoryview, bool]:
    """Verify one framed chunk; returns ``(seq, payload_view, last)``.

    The payload comes back as a zero-copy :class:`memoryview` into
    ``data``. Raises :class:`CorruptionError` on bad magic, damaged
    header, truncated payload, or payload digest failure.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if len(view) < CHUNK_HEADER_BYTES:
        raise CorruptionError(
            f"framed chunk too short: {len(view)} bytes < "
            f"{CHUNK_HEADER_BYTES}-byte chunk header"
        )
    header = view[:17]
    (header_crc,) = struct.unpack("<I", view[17:21])
    if zlib.crc32(header) & 0xFFFFFFFF != header_crc:
        raise CorruptionError("chunk header checksum mismatch")
    if bytes(view[:4]) != CHUNK_MAGIC:
        raise CorruptionError("bad chunk magic")
    seq, length, flags, payload_crc = struct.unpack("<IIBI", view[4:17])
    payload = view[CHUNK_HEADER_BYTES:]
    if length != len(payload):
        raise CorruptionError(
            f"chunk {seq} declares {length} payload bytes, got "
            f"{len(payload)} (truncated or padded transfer)"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != payload_crc:
        raise CorruptionError(f"chunk {seq} payload checksum mismatch")
    return seq, payload, bool(flags & CHUNK_FLAG_LAST)


class StreamWriter:
    """An append-only byte buffer with per-section byte accounting."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.sections: Dict[str, int] = {}

    def _account(self, section: str, length: int) -> None:
        self.sections[section] = self.sections.get(section, 0) + length

    # -- raw writes ---------------------------------------------------------------

    def write_bytes(self, data: bytes, section: str) -> None:
        self._buffer.extend(data)
        self._account(section, len(data))

    def write_u8(self, value: int, section: str) -> None:
        self.write_bytes(struct.pack("<B", value), section)

    def write_u16(self, value: int, section: str) -> None:
        self.write_bytes(struct.pack("<H", value), section)

    def write_u64(self, value: int, section: str) -> None:
        self.write_bytes(struct.pack("<Q", value), section)

    # -- varints -----------------------------------------------------------------------

    def write_varint(self, value: int, section: str) -> int:
        """LEB128 unsigned varint; returns encoded length."""
        length = V.append_varint(self._buffer, value)
        self._account(section, length)
        return length

    # -- strings -----------------------------------------------------------------------

    def write_utf(self, text: str, section: str) -> None:
        """Java ``writeUTF``-style string: 2-byte length then UTF-8 bytes."""
        encoded = text.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"UTF string too long: {len(encoded)} bytes")
        self.write_u16(len(encoded), section)
        self.write_bytes(encoded, section)

    # -- result -------------------------------------------------------------------------

    def getvalue(self) -> bytes:
        return bytes(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)


class StreamReader:
    """Cursor-based reader over a serialized byte stream.

    Accepts any buffer-protocol object — ``bytes``, ``bytearray``,
    ``memoryview`` — without copying: non-bytes inputs are wrapped in a
    :class:`memoryview`, so reads over a reassembled chunk buffer (or a
    packed-kernel view) slice zero-copy instead of materializing the
    whole stream again.
    """

    def __init__(self, data):
        if not isinstance(data, (bytes, memoryview)):
            data = memoryview(data)
        self._data = data
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def _take(self, length: int) -> bytes:
        if length < 0 or self._pos + length > len(self._data):
            raise TruncatedStreamError(
                offset=self._pos, needed=length, available=self.remaining
            )
        chunk = self._data[self._pos : self._pos + length]
        self._pos += length
        return chunk

    # -- raw reads ------------------------------------------------------------------------

    def read_bytes(self, length: int) -> bytes:
        return self._take(length)

    def read_u8(self) -> int:
        return self._take(1)[0]

    def read_u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def read_u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def read_u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def read_u64_run(self, count: int) -> tuple:
        """``count`` consecutive u64 words in one unpack.

        Same values, final position and :class:`TruncatedStreamError` (at
        the first word that does not fit) as ``count`` :meth:`read_u64`
        calls.
        """
        fits = self.remaining // 8
        if count > fits:
            self._pos += fits * 8
            raise TruncatedStreamError(
                offset=self._pos, needed=8, available=self.remaining
            )
        words = struct.unpack_from(f"<{count}Q", self._data, self._pos)
        self._pos += count * 8
        return words

    # -- varints ----------------------------------------------------------------------------

    def read_varint(self) -> int:
        value, self._pos = V.read_varint(self._data, self._pos)
        return value

    # -- strings ------------------------------------------------------------------------------

    def read_utf(self) -> str:
        length = self.read_u16()
        raw = self._take(length)
        try:
            # bytes() on a memoryview slice copies only the string bytes.
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError as error:
            raise FormatError(f"invalid UTF-8 in stream: {error}") from None
