"""Memory access traces.

A :class:`MemoryTrace` records the exact sequence of reads and writes a
functional execution performs. The CPU model replays a trace through the
cache hierarchy to cost the software serializers; the accelerator model uses
its own internal accounting, but traces are also useful in tests to assert
access patterns (e.g. the DU's sequential reads).

Every heap access of a traced S/D call lands here, so recording only
appends to two flat ``array('q')`` columns: the start address, and a
signed length where a write of ``n`` bytes is stored as ``~n`` (so a
zero-length write keeps its kind). Totals and the line footprint are
computed from the columns when asked; :class:`MemoryAccess` objects are
built on demand, for tests and the per-line cache oracle.
"""

from __future__ import annotations

import enum
import struct
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, List


# One ``array('q')`` item's bytes (native order, like the array's own).
_NATIVE_Q = struct.Struct("=q")


class AccessKind(enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class MemoryAccess:
    """One traced access: kind, start address, and length in bytes."""

    kind: AccessKind
    address: int
    length: int


class MemoryTrace:
    """Ordered record of memory accesses with aggregate statistics."""

    def __init__(self, line_bytes: int = 64):
        self.line_bytes = line_bytes
        self.addresses = array("q")
        #: Length of each access; a write of ``n`` bytes is stored as ``~n``.
        self.lengths = array("q")

    # -- recording -------------------------------------------------------------

    def record_read(self, address: int, length: int) -> None:
        self.addresses.append(address)
        self.lengths.append(length)

    def record_write(self, address: int, length: int) -> None:
        self.addresses.append(address)
        self.lengths.append(~length)

    def record_many(self, addresses: Iterable[int], length: int, write: bool = False) -> None:
        """Record one ``length``-byte access at each of ``addresses``, in order."""
        if addresses.__class__ is not list:
            addresses = list(addresses)
        # ``fromlist``/``frombytes`` copy in C; ``extend`` from a Python
        # iterable goes item by item.
        self.addresses.fromlist(addresses)
        self.lengths.frombytes(_NATIVE_Q.pack(~length if write else length)
                               * len(addresses))

    # -- statistics --------------------------------------------------------------

    @property
    def read_bytes(self) -> int:
        return sum(length for length in self.lengths if length >= 0)

    @property
    def write_bytes(self) -> int:
        return sum(~length for length in self.lengths if length < 0)

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def total_count(self) -> int:
        return len(self.addresses)

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        read, write = AccessKind.READ, AccessKind.WRITE
        for address, length in zip(self.addresses, self.lengths):
            if length < 0:
                yield MemoryAccess(write, address, ~length)
            else:
                yield MemoryAccess(read, address, length)

    @property
    def accesses(self) -> List[MemoryAccess]:
        """Every access as a :class:`MemoryAccess`, built on each call."""
        return list(self)

    def clear(self) -> None:
        del self.addresses[:]
        del self.lengths[:]
