"""Java-style strings on the simulated heap.

HotSpot backs ``java.lang.String`` with a char array; for serialization
purposes the array *is* the string's payload, so workloads here model
strings directly as char arrays (stored packed at 2 B per element, see
:class:`~repro.jvm.klass.ArrayKlass`). :func:`new_string` creates them.
"""

from __future__ import annotations

from repro.common.errors import HeapError
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import FieldKind


def new_string(heap: Heap, text: str) -> HeapObject:
    """Allocate a char array holding ``text`` (BMP code points only)."""
    array = heap.new_array(FieldKind.CHAR, len(text))
    for index, char in enumerate(text):
        code = ord(char)
        if code > 0xFFFF:
            raise HeapError(
                f"character U+{code:X} needs a surrogate pair; the string "
                f"model supports BMP code points only"
            )
        array.set_element(index, code)
    return array

