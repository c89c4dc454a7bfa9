"""Structural equivalence of object graphs.

Deserialization must reproduce an *equivalent* graph, not an identical one:
addresses and identity hashes differ between heaps. Two graphs are
equivalent when a graph isomorphism maps one root to the other preserving
klass names, array lengths, primitive slot values, and reference structure
(including sharing and cycles).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.jvm.heap import HeapObject
from repro.jvm.klass import ArrayKlass, FieldKind, InstanceKlass

_FLOAT_RTOL = 1e-6


def _values_match(kind: FieldKind, a, b) -> bool:
    if kind in (FieldKind.FLOAT, FieldKind.DOUBLE):
        fa, fb = float(a), float(b)
        if math.isnan(fa) and math.isnan(fb):
            return True
        return math.isclose(fa, fb, rel_tol=_FLOAT_RTOL, abs_tol=1e-12)
    return a == b


def graphs_equivalent(root_a: HeapObject, root_b: HeapObject) -> bool:
    """True when the two object graphs are structurally equivalent."""
    return first_difference(root_a, root_b) is None


def first_difference(root_a: HeapObject, root_b: HeapObject) -> str | None:
    """Describe the first structural mismatch, or ``None`` if equivalent.

    Walks both graphs in lockstep (the pairing itself is the isomorphism
    candidate); any divergence in klass, length, values, nullness, or
    sharing structure is reported with a path-like description.
    """
    mapping: Dict[int, int] = {}
    reverse: Dict[int, int] = {}
    worklist: List[Tuple[HeapObject, HeapObject, str]] = [(root_a, root_b, "root")]

    while worklist:
        a, b, path = worklist.pop()
        if a.address in mapping:
            if mapping[a.address] != b.address:
                return f"{path}: sharing mismatch (A maps elsewhere)"
            continue
        if b.address in reverse:
            return f"{path}: sharing mismatch (B already mapped)"
        mapping[a.address] = b.address
        reverse[b.address] = a.address

        if a.klass.name != b.klass.name:
            return f"{path}: klass {a.klass.name} != {b.klass.name}"
        if isinstance(a.klass, ArrayKlass):
            if a.length != b.length:
                return f"{path}: array length {a.length} != {b.length}"
            kind = a.klass.element_kind
            elements_a, elements_b = a.get_elements(), b.get_elements()
            if kind.is_reference:
                for index, (va, vb) in enumerate(zip(elements_a, elements_b)):
                    if (va is None) != (vb is None):
                        return f"{path}[{index}]: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, f"{path}[{index}]"))
            else:
                for index, (va, vb) in enumerate(zip(elements_a, elements_b)):
                    if not _values_match(kind, va, vb):
                        return f"{path}[{index}]: {va!r} != {vb!r}"
        else:
            klass = a.klass
            assert isinstance(klass, InstanceKlass)
            for descriptor in klass.fields:
                name = descriptor.name
                va, vb = a.get(name), b.get(name)
                if descriptor.kind.is_reference:
                    if (va is None) != (vb is None):
                        return f"{path}.{name}: null mismatch"
                    if va is not None:
                        worklist.append((va, vb, f"{path}.{name}"))
                elif not _values_match(descriptor.kind, va, vb):
                    return f"{path}.{name}: {va!r} != {vb!r}"
    return None
