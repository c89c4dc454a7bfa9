"""Word-level bitstream kernels: the fast path under every bit format.

The original reproduction modelled the Section IV bit formats as Python
``List[int]`` bit lists — faithful, but every serialized object paid a
per-bit interpreter-loop tax. This module provides the word-at-a-time
replacement the hot paths are built on: bits live inside a single Python
``int`` accumulator and move in and out of ``bytes`` via
``int.to_bytes`` / ``int.from_bytes``, so the cost per *item* is a handful
of big-integer operations instead of one loop iteration per *bit*. The
same discipline real serialization kernels use (HPS's word-packing units,
AwkwardForth's buffer ops): the interpreter dispatch happens per field,
never per bit.

Conventions (identical to the slow per-bit reference in
``tests/oracles.py``):

* bit order is **MSB-first**: the first bit written is the most
  significant bit of the first byte;
* byte output is **zero-padded at the tail** to a whole byte; the declared
  bit length is the caller's to carry (see ``bits_to_bytes`` in
  ``tests/oracles.py``).
"""

from __future__ import annotations

from typing import List


def trailing_zeros(value: int) -> int:
    """Number of trailing zero bits of a positive integer."""
    if value <= 0:
        raise ValueError(f"value must be positive, got {value}")
    return (value & -value).bit_length() - 1


def word_to_bits(value: int, width: int) -> List[int]:
    """Big-endian bit list of ``value`` over exactly ``width`` bits.

    The bridge back to the legacy list representation; used where a
    consumer still wants a ``List[int]`` (tests, per-bit bitmap views).
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    if value < 0 or value.bit_length() > width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]
