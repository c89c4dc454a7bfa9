"""HotSpot mark word encoding.

Paper Section II: *"The mark word includes an identity hash code (31 bits),
a synchronization state (3 bits), GC state bits (6 bits), and 25 unused
bits."* We pack those fields into one 64-bit little-endian word:

    bits [0, 3)   synchronization state
    bits [3, 9)   GC state
    bits [9, 40)  identity hash (31 bits)
    bits [40, 64) unused / available

(The paper's field widths sum to 65 with the unused bits; we keep the three
architected fields at their stated widths and give the remainder to the
unused region.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import HeapError

_SYNC_SHIFT = 0
_SYNC_BITS = 3
_GC_SHIFT = 3
_GC_BITS = 6
_HASH_SHIFT = 9
_HASH_BITS = 31

_SYNC_MASK = (1 << _SYNC_BITS) - 1
_GC_MASK = (1 << _GC_BITS) - 1
_HASH_MASK = (1 << _HASH_BITS) - 1


@dataclass(frozen=True)
class MarkWord:
    """Decoded mark word fields."""

    identity_hash: int = 0
    sync_state: int = 0
    gc_state: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.identity_hash <= _HASH_MASK:
            raise HeapError(f"identity_hash out of 31-bit range: {self.identity_hash}")
        if not 0 <= self.sync_state <= _SYNC_MASK:
            raise HeapError(f"sync_state out of 3-bit range: {self.sync_state}")
        if not 0 <= self.gc_state <= _GC_MASK:
            raise HeapError(f"gc_state out of 6-bit range: {self.gc_state}")

    def encode(self) -> int:
        """Pack the fields into a 64-bit integer."""
        return (
            (self.sync_state << _SYNC_SHIFT)
            | (self.gc_state << _GC_SHIFT)
            | (self.identity_hash << _HASH_SHIFT)
        )

    @classmethod
    def decode(cls, word: int) -> "MarkWord":
        """Unpack a 64-bit integer into mark word fields."""
        if not 0 <= word < (1 << 64):
            raise HeapError(f"mark word out of 64-bit range: {word:#x}")
        return cls(
            identity_hash=(word >> _HASH_SHIFT) & _HASH_MASK,
            sync_state=(word >> _SYNC_SHIFT) & _SYNC_MASK,
            gc_state=(word >> _GC_SHIFT) & _GC_MASK,
        )


def identity_hash_for(address: int) -> int:
    """Deterministic 31-bit identity hash derived from the allocation address.

    HotSpot lazily computes identity hashes from a thread-local RNG; we need
    determinism across runs, so we mix the address with a golden-ratio salt
    (``0x9E3779B9``).
    """
    x = (address * 0x2545F4914F6CDD1D + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 29
    return x & _HASH_MASK


def fresh_mark_word(address: int) -> int:
    """The encoded mark word of an object newly placed at ``address``.

    Equal to ``MarkWord(identity_hash=identity_hash_for(address)).encode()``
    (unlocked, no GC state) without building the dataclass: the allocation
    hot path.
    """
    return identity_hash_for(address) << _HASH_SHIFT
