"""Simulated HotSpot JVM heap.

This package models exactly the parts of HotSpot that the Cereal paper's
hardware interacts with (paper Section II, "Java Object Layout"):

* objects with a 24 B header — an 8 B *mark word*, an 8 B *klass pointer*
  and the 8 B *Cereal header extension* carrying the serialization
  metadata described in Section V-E (visited counter, unit ID, relative
  address);
* 8 B-aligned fields, so one bit of a layout bitmap describes one 8 B slot;
* klass descriptors ("type descriptors") holding the object layout — the
  offsets of every reference — and total object size;
* a klass registry standing in for the JVM metaspace, addressable by klass
  pointer;
* the object-graph walk every serializer starts from
  (:func:`~repro.jvm.graph.traverse_slot_runs`, materialized as
  :class:`ObjectGraph`).
"""

from repro.jvm.markword import MarkWord
from repro.jvm.klass import (
    ArrayKlass,
    FieldDescriptor,
    FieldKind,
    InstanceKlass,
    Klass,
    KlassRegistry,
)
from repro.jvm.heap import Heap, HeapObject
from repro.jvm.graph import ObjectGraph
from repro.jvm.gc import clear_serialization_metadata, walk_heap
from repro.jvm.strings import new_string

__all__ = [
    "MarkWord",
    "FieldKind",
    "FieldDescriptor",
    "Klass",
    "InstanceKlass",
    "ArrayKlass",
    "KlassRegistry",
    "Heap",
    "HeapObject",
    "ObjectGraph",
    "clear_serialization_metadata",
    "walk_heap",
    "new_string",
]
