"""Java-style strings on the simulated heap.

HotSpot backs ``java.lang.String`` with a char array; for serialization
purposes the array *is* the string's payload, so workloads here model
strings directly as char arrays (stored packed at 2 B per element, see
:class:`~repro.jvm.klass.ArrayKlass`). These helpers create and read them.
"""

from __future__ import annotations

from repro.common.errors import HeapError
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind


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


def read_string(array: HeapObject) -> str:
    """Read a char array back as a Python string."""
    klass = array.klass
    if not isinstance(klass, ArrayKlass) or klass.element_kind is not FieldKind.CHAR:
        raise HeapError(f"{klass.name} is not a char array")
    return "".join(chr(array.get_element(i)) for i in range(array.length))
