"""A sparse byte-addressable memory space.

The simulated JVM heap, serialized output buffers, and the accelerator all
read and write this space. It is backed by fixed-size pages allocated lazily,
so a 128 GB address space (Table I) costs memory only for the bytes actually
touched.

Word accessors use little-endian byte order, matching x86 hosts where HotSpot
lays out the object heaps that Cereal serializes.

A typed access that lies in one page costs one bounds check and one
``struct`` call on the page. The word-run accessors (``read_word_run``,
``write_word_run``, ``gather_words``, ``scatter_words``) move many 8 B
words per call, with one bounds check and one trace call, and leave the
trace that one :meth:`~MemorySpace.read_u64` or
:meth:`~MemorySpace.write_u64` per word would: one 8 B record per word, in
the same order; ``write_image`` lays down a new object the same way. The
trace is a modelled input to the cache simulator,
so it must not change record for record. Accesses that straddle a page
boundary take the general page-splitting copy.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional

from repro.common.errors import HeapError

_PAGE_SHIFT = 16
_PAGE_BYTES = 1 << _PAGE_SHIFT  # 64 KiB
_OFFSET_MASK = _PAGE_BYTES - 1

# Codecs of the typed accessors.
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_ZERO_WORD = bytes(8)

# Precompiled struct formats for the word-vector accessors; keyed by word
# count so repeated bulk reads of same-shaped objects pay zero parse cost.
# The cap bounds the cache when counts come from untrusted streams.
_WORD_STRUCTS: Dict[int, struct.Struct] = {}
_MAX_WORD_STRUCTS = 4096


def _word_struct(count: int) -> struct.Struct:
    cached = _WORD_STRUCTS.get(count)
    if cached is None:
        if len(_WORD_STRUCTS) >= _MAX_WORD_STRUCTS:
            _WORD_STRUCTS.clear()
        cached = struct.Struct(f"<{count}Q")
        _WORD_STRUCTS[count] = cached
    return cached


class MemorySpace:
    """Sparse little-endian memory with optional access tracing.

    Parameters
    ----------
    size_bytes:
        Total addressable size. Accesses outside ``[0, size_bytes)`` raise
        :class:`~repro.common.errors.HeapError`.

    ``trace`` starts unset; assign a :class:`~repro.memory.trace.MemoryTrace`
    to record every read and write (the CPU cache model and the
    accelerator bandwidth accounting read it).
    """

    def __init__(self, size_bytes: int):
        if size_bytes <= 0:
            raise HeapError(f"size_bytes must be positive, got {size_bytes}")
        self.size_bytes = size_bytes
        self.trace: Optional["MemoryTrace"] = None
        self._pages: Dict[int, bytearray] = {}

    # -- bounds & paging -----------------------------------------------------

    def _check_range(self, address: int, length: int) -> None:
        if length < 0:
            raise HeapError(f"negative access length {length}")
        if address < 0 or address + length > self.size_bytes:
            raise HeapError(
                f"access [{address:#x}, {address + length:#x}) outside "
                f"memory of size {self.size_bytes:#x}"
            )

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(_PAGE_BYTES)
            self._pages[page_index] = page
        return page

    def _get(self, address: int, length: int) -> bytes:
        """The bytes at ``[address, address + length)``: no check, no trace."""
        page_index, offset = divmod(address, _PAGE_BYTES)
        if offset + length <= _PAGE_BYTES:
            # Fast path: the range lives in one page — a single slice.
            page = self._pages.get(page_index)
            if page is None:
                return bytes(length)
            return bytes(page[offset : offset + length])
        out = bytearray(length)
        copied = 0
        while copied < length:
            addr = address + copied
            page_index, offset = divmod(addr, _PAGE_BYTES)
            run = min(length - copied, _PAGE_BYTES - offset)
            page = self._pages.get(page_index)
            if page is not None:
                out[copied : copied + run] = page[offset : offset + run]
            copied += run
        return bytes(out)

    def _put(self, address: int, data) -> None:
        """Store ``data`` at ``address``: no check, no trace."""
        length = len(data)
        page_index, offset = divmod(address, _PAGE_BYTES)
        if offset + length <= _PAGE_BYTES:
            self._page(page_index)[offset : offset + length] = data
            return
        copied = 0
        while copied < length:
            addr = address + copied
            page_index, offset = divmod(addr, _PAGE_BYTES)
            run = min(length - copied, _PAGE_BYTES - offset)
            self._page(page_index)[offset : offset + run] = data[
                copied : copied + run
            ]
            copied += run

    # -- raw byte access -----------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` bytes starting at ``address``."""
        self._check_range(address, length)
        if self.trace is not None:
            self.trace.record_read(address, length)
        return self._get(address, length)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        self._check_range(address, len(data))
        if self.trace is not None:
            self.trace.record_write(address, len(data))
        self._put(address, data)

    def fill(self, address: int, length: int, value: int = 0) -> None:
        """Fill a range with one byte value (used for zeroing fresh objects)."""
        if not 0 <= value <= 0xFF:
            raise HeapError(f"fill value must be a byte, got {value}")
        self.write(address, bytes([value]) * length)

    # -- typed little-endian accessors ----------------------------------------

    def read_u8(self, address: int) -> int:
        return self._load(address, _U8)

    def write_u8(self, address: int, value: int) -> None:
        self._store(address, _U8.pack(value))

    def read_u16(self, address: int) -> int:
        return self._load(address, _U16)

    def write_u16(self, address: int, value: int) -> None:
        self._store(address, _U16.pack(value))

    def read_u32(self, address: int) -> int:
        return self._load(address, _U32)

    def read_u64(self, address: int) -> int:
        return self._load(address, _U64)

    def write_u64(self, address: int, value: int) -> None:
        self._store(address, _U64.pack(value))

    def read_i32(self, address: int) -> int:
        return self._load(address, _I32)

    def write_i32(self, address: int, value: int) -> None:
        self._store(address, _I32.pack(value))

    def read_i64(self, address: int) -> int:
        return self._load(address, _I64)

    def write_i64(self, address: int, value: int) -> None:
        self._store(address, _I64.pack(value))

    def read_f64(self, address: int) -> float:
        return self._load(address, _F64)

    def write_f64(self, address: int, value: float) -> None:
        self._store(address, _F64.pack(value))

    def read_f32(self, address: int) -> float:
        return self._load(address, _F32)

    def write_f32(self, address: int, value: float) -> None:
        self._store(address, _F32.pack(value))

    def _load(self, address: int, codec: struct.Struct):
        """One traced ``codec.size``-byte read, decoded with ``codec``."""
        size = codec.size
        offset = address & _OFFSET_MASK
        if offset + size <= _PAGE_BYTES and 0 <= address and address + size <= self.size_bytes:
            trace = self.trace
            if trace is not None:
                trace.record_read(address, size)
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is None:
                return codec.unpack_from(_ZERO_WORD)[0]
            return codec.unpack_from(page, offset)[0]
        return codec.unpack(self.read(address, size))[0]

    def _store(self, address: int, data: bytes) -> None:
        """One traced write of the packed ``data``."""
        size = len(data)
        offset = address & _OFFSET_MASK
        if offset + size <= _PAGE_BYTES and 0 <= address and address + size <= self.size_bytes:
            trace = self.trace
            if trace is not None:
                trace.record_write(address, size)
            self._page(address >> _PAGE_SHIFT)[offset : offset + size] = data
            return
        self.write(address, data)

    # -- word runs: the trace of one 8 B call per word -----------------------------

    def read_word_run(self, address: int, count: int) -> tuple:
        """Read ``count`` consecutive u64 words.

        Returns the values, and leaves the trace, of ``count`` calls to
        :meth:`read_u64` at ``address``, ``address + 8``, ...: one 8 B
        record per word. (:meth:`read_words` records one access spanning
        the range instead.)
        """
        length = count * 8
        self._check_range(address, length)
        if self.trace is not None:
            self.trace.record_many(range(address, address + length, 8), 8)
        offset = address & _OFFSET_MASK
        if offset + length <= _PAGE_BYTES:
            page = self._pages.get(address >> _PAGE_SHIFT)
            if page is None:
                return (0,) * count
            return _word_struct(count).unpack_from(page, offset)
        return _word_struct(count).unpack(self._get(address, length))

    def write_word_run(self, address: int, words) -> None:
        """Write consecutive u64 ``words`` with one 8 B trace record each,
        like one :meth:`write_u64` call per word."""
        data = _word_struct(len(words)).pack(*words)
        length = len(data)
        self._check_range(address, length)
        if self.trace is not None:
            self.trace.record_many(range(address, address + length, 8), 8, write=True)
        self._put(address, data)

    def gather_words(self, addresses) -> list:
        """The u64 at each of ``addresses``, in order, with one 8 B trace
        record each, like one :meth:`read_u64` call per address."""
        if not addresses:
            return []
        low = min(addresses)
        span = max(addresses) + 8 - low
        self._check_range(low, span)
        if self.trace is not None:
            self.trace.record_many(addresses, 8)
        offset = low & _OFFSET_MASK
        if offset + span <= _PAGE_BYTES:
            page = self._pages.get(low >> _PAGE_SHIFT)
            if page is None:
                return [0] * len(addresses)
            page_base = low - offset
            unpack_from = _U64.unpack_from
            return [unpack_from(page, word - page_base)[0] for word in addresses]
        get = self._get
        unpack = _U64.unpack
        return [unpack(get(word, 8))[0] for word in addresses]

    def scatter_words(self, addresses, words) -> None:
        """Store u64 ``words[i]`` at ``addresses[i]``, in order, with one
        8 B trace record each, like one :meth:`write_u64` call per pair."""
        if not addresses:
            return
        low = min(addresses)
        self._check_range(low, max(addresses) + 8 - low)
        pack = _U64.pack
        data = [pack(word) for word in words]
        if self.trace is not None:
            self.trace.record_many(addresses, 8, write=True)
        pages = self._pages
        put = self._put
        for address, word in zip(addresses, data):
            offset = address & _OFFSET_MASK
            page = pages.get(address >> _PAGE_SHIFT)
            if page is None or offset > _PAGE_BYTES - 8:
                put(address, word)
            else:
                page[offset : offset + 8] = word

    def write_image(self, address: int, image, word_offsets) -> None:
        """Store the bytes of ``image`` at ``address``, traced as one write
        of the whole image, then one 8 B write record at ``address + at``
        for each ``at`` in ``word_offsets``, in order.

        That is the trace of ``fill(address, len(image))`` followed by one
        :meth:`write_u64` per word at those offsets. Used to lay down a
        freshly allocated object: its zeroed image with the header words
        already packed in.
        """
        length = len(image)
        self._check_range(address, length)
        trace = self.trace
        if trace is not None:
            trace.record_write(address, length)
            trace.record_many([address + at for at in word_offsets], 8, write=True)
        self._put(address, image)

    # -- bulk helpers ----------------------------------------------------------

    def read_words(self, address: int, count: int) -> tuple:
        """Read ``count`` consecutive u64 words as one traced access.

        The bulk equivalent of ``count`` calls to :meth:`read_u64`: one
        bounds check, one trace record spanning the whole range, one
        precompiled ``struct`` unpack. Hot paths (object-image walks) use
        this so per-slot cost is a tuple index instead of a memory call.
        """
        return _word_struct(count).unpack(self.read(address, count * 8))

    def write_words(self, address: int, words) -> None:
        """Write consecutive u64 words as one traced access."""
        self.write(address, _word_struct(len(words)).pack(*words))

    def copy(self, src: int, dst: int, length: int) -> None:
        """Memcpy within the space (reads then writes, both traced)."""
        self.write(dst, self.read(src, length))
