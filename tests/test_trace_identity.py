"""Word-run heap access against the per-slot call chains it replaced.

The memory trace is a modelled input to the cache simulator, so the
word-run paths must leave it identical record for record. The oracles
below are the per-slot forms as they were before (error texts shortened):
one ``MemorySpace.read``/``write`` per typed access; the per-slot
``Heap.allocate``; named-field and reference-element access through a
bounds-checked slot address; ``referenced_objects`` and
``traverse_slot_runs``; the per-element ``_wrap_records``; and Skyway's
per-slot encode and decode walks. :func:`oracle_paths` swaps all of them
in at once; each test runs a workload under both and compares the traced
``addresses`` and ``lengths`` columns, stream bytes, heap bytes, returned
values and every :class:`WorkProfile` field.
"""

import dataclasses
import math
import struct
from collections import deque
from typing import List, Optional

import pytest

import repro.jvm.graph as graph_module
from repro.common.config import SystemConfig
from repro.common.errors import FormatError, HeapError
from repro.cpu import SoftwarePlatform
from repro.formats import (
    CerealSerializer,
    ClassRegistration,
    JavaSerializer,
    KryoSerializer,
    SkywaySerializer,
)
from repro.formats import plans as P
from repro.formats import skyway as skyway_module
from repro.formats.base import WorkProfile
from repro.formats.limits import resolve_limits
from repro.formats.streams import StreamReader
from repro.jvm import Heap
from repro.jvm.graph import ObjectGraph
from repro.jvm.heap import HEAP_BASE, NULL_ADDRESS, HeapObject
from repro.jvm.klass import (
    HEADER_BYTES,
    HEADER_SLOTS,
    SLOT_BYTES,
    ArrayKlass,
    FieldDescriptor,
    FieldKind,
    InstanceKlass,
)
from repro.jvm.layout_cache import layout_of
from repro.jvm.markword import MarkWord, identity_hash_for
from repro.memory.space import MemorySpace
from repro.memory.trace import MemoryTrace
from repro.spark import MiniSparkContext, SoftwareBackend
from repro.workloads import (
    MICROBENCH_CONFIGS,
    build_graph_bench,
    build_list_bench,
    build_tree_bench,
)
from repro.workloads.micro import register_micro_klasses

# -- oracles: the per-slot forms ------------------------------------------------------------


def _oracle_load(code):
    def load(self, address):
        return struct.unpack(code, self.read(address, struct.calcsize(code)))[0]
    return load


def _oracle_store(code):
    def store(self, address, value):
        self.write(address, struct.pack(code, value))
    return store


def oracle_allocate(self, klass, length=0):
    if klass.metaspace_address is None:
        self.registry.register(klass)
    if klass.is_array:
        if length < 0:
            raise HeapError(f"array length must be non-negative, got {length}")
    elif length:
        raise HeapError("length is only valid for array klasses")
    slots = klass.instance_slots(length)
    size = HEADER_BYTES + slots * SLOT_BYTES
    address = self._alloc_ptr
    if address + size > self.memory.size_bytes:
        raise HeapError(f"heap exhausted allocating {size} bytes at {address:#x}")
    self._alloc_ptr += size
    self.memory.fill(address, size, 0)
    mark = MarkWord(identity_hash=identity_hash_for(address))
    self.memory.write_u64(address, mark.encode())
    self.memory.write_u64(address + 8, klass.metaspace_address)
    obj = HeapObject(self, address, klass, length)
    if klass.is_array:
        self.memory.write_u64(address + HEADER_BYTES, length)
    self._objects[address] = obj
    self._alloc_order.append(address)
    return obj


def oracle_slot_address(obj, slot_index):
    field_slots = obj.klass.instance_slots(obj.length)
    if not 0 <= slot_index < field_slots:
        raise HeapError(f"slot {slot_index} out of range for {obj.klass.name}")
    return obj.address + HEADER_BYTES + slot_index * SLOT_BYTES


def _oracle_read_slot(obj, slot_index, kind):
    address = oracle_slot_address(obj, slot_index)
    memory = obj.heap.memory
    if kind is FieldKind.REFERENCE:
        return obj.heap.deref(memory.read_u64(address))
    if kind is FieldKind.DOUBLE or kind is FieldKind.FLOAT:
        return memory.read_f64(address)
    if kind is FieldKind.BOOLEAN:
        return bool(memory.read_u64(address))
    if kind is FieldKind.CHAR:
        return memory.read_u64(address) & 0xFFFF
    return memory.read_i64(address)


def _oracle_write_slot(obj, slot_index, kind, value):
    address = oracle_slot_address(obj, slot_index)
    memory = obj.heap.memory
    if kind is FieldKind.REFERENCE:
        if value is None:
            memory.write_u64(address, NULL_ADDRESS)
        elif isinstance(value, HeapObject):
            memory.write_u64(address, value.address)
        else:
            raise HeapError(
                f"reference slot needs HeapObject or None, got {type(value).__name__}"
            )
    elif kind is FieldKind.DOUBLE or kind is FieldKind.FLOAT:
        memory.write_f64(address, float(value))
    elif kind is FieldKind.BOOLEAN:
        memory.write_u64(address, 1 if value else 0)
    elif kind is FieldKind.CHAR:
        memory.write_u64(address, int(value) & 0xFFFF)
    else:
        memory.write_i64(address, int(value))


def _oracle_field(obj, field_name):
    klass = obj.klass
    if not isinstance(klass, InstanceKlass):
        raise HeapError(f"{klass.name} is not an instance class")
    for index, descriptor in enumerate(klass.fields):
        if descriptor.name == field_name:
            return index, descriptor.kind
    raise HeapError(f"class {klass.name} has no field {field_name!r}")


def oracle_get(self, field_name):
    return _oracle_read_slot(self, *_oracle_field(self, field_name))


def oracle_set(self, field_name, value):
    _oracle_write_slot(self, *_oracle_field(self, field_name), value)


# Primitive elements keep their bulk and natural-width paths; only the
# reference forms below are per slot.
_FAST_GET_ELEMENTS = HeapObject.get_elements
_FAST_SET_ELEMENTS = HeapObject.set_elements
_FAST_GET_ELEMENT = HeapObject.get_element
_FAST_SET_ELEMENT = HeapObject.set_element


def _is_reference_array(obj):
    return isinstance(obj.klass, ArrayKlass) and obj.klass.element_kind is FieldKind.REFERENCE


def oracle_get_elements(self):
    if not _is_reference_array(self):
        return _FAST_GET_ELEMENTS(self)
    return [_oracle_read_slot(self, 1 + i, FieldKind.REFERENCE) for i in range(self.length)]


def oracle_set_elements(self, values):
    if not _is_reference_array(self):
        return _FAST_SET_ELEMENTS(self, values)
    if len(values) != self.length:
        raise HeapError(f"expected {self.length} elements, got {len(values)}")
    for index, value in enumerate(values):
        _oracle_write_slot(self, 1 + index, FieldKind.REFERENCE, value)


def oracle_get_element(self, index):
    if not _is_reference_array(self):
        return _FAST_GET_ELEMENT(self, index)
    if not 0 <= index < self.length:
        raise HeapError(f"array index {index} out of range [0, {self.length})")
    return _oracle_read_slot(self, 1 + index, FieldKind.REFERENCE)


def oracle_set_element(self, index, value):
    if not _is_reference_array(self):
        return _FAST_SET_ELEMENT(self, index, value)
    if not 0 <= index < self.length:
        raise HeapError(f"array index {index} out of range [0, {self.length})")
    _oracle_write_slot(self, 1 + index, FieldKind.REFERENCE, value)


def oracle_wrap_records(self, records, heap):
    array = heap.new_array(FieldKind.REFERENCE, len(records))
    for index, record in enumerate(records):
        array.set_element(index, record)
    return array


def oracle_referenced_objects(self):
    memory = self.heap.memory
    out = []
    for slot in self.reference_slots():
        out.append(self.heap.deref(memory.read_u64(oracle_slot_address(self, slot))))
    return out


def oracle_traverse_slot_runs(root, order="dfs"):
    heap = root.heap
    read_u64 = heap.memory.read_u64
    if order == "dfs":
        visited = set()
        stack = [root]
        while stack:
            obj = stack.pop()
            if obj.address in visited:
                continue
            visited.add(obj.address)
            layout = layout_of(obj.klass, obj.length)
            yield obj, layout
            fields_base = obj.address + HEADER_BYTES
            children = [read_u64(fields_base + slot * 8) for slot in layout.reference_slots]
            for child in reversed(children):
                if child:
                    stack.append(heap.object_at(child))
    else:
        seen = {root.address}
        queue = deque([root])
        while queue:
            obj = queue.popleft()
            layout = layout_of(obj.klass, obj.length)
            yield obj, layout
            fields_base = obj.address + HEADER_BYTES
            for slot in layout.reference_slots:
                child = read_u64(fields_base + slot * 8)
                if child and child not in seen:
                    seen.add(child)
                    queue.append(heap.object_at(child))


_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def oracle_skyway_encode_walk(self, root, out):
    graph = ObjectGraph.from_root(root)
    profile = WorkProfile()
    heap = root.heap
    memory = heap.memory
    chunk = P.chunk_bytes_of(out)
    out += _U32.pack(graph.total_bytes)
    out += _U32.pack(graph.object_count)
    header_count = value_count = ref_count = 0
    for obj in graph.objects:
        if chunk and out.ready_count:
            yield
        profile.objects += 1
        profile.add_instructions(skyway_module._INSTR_PER_OBJECT)
        profile.aux_random_accesses += skyway_module._AUX_ACCESSES_PER_OBJECT_SER
        profile.dependent_loads += 2
        out += _U64.pack(memory.read_u64(obj.address))
        out += _U64.pack(self.registration.register(obj.klass))
        out += _U64.pack(0)
        header_count += 24
        reference_slots = set(obj.reference_slots())
        for slot in range(obj.field_slots):
            raw = memory.read_u64(oracle_slot_address(obj, slot))
            profile.add_instructions(skyway_module._INSTR_PER_SLOT)
            if slot in reference_slots:
                profile.reference_fields += 1
                profile.add_instructions(skyway_module._INSTR_PER_REFERENCE)
                if raw == NULL_ADDRESS:
                    out += _U64.pack(skyway_module._NULL_RELATIVE)
                else:
                    out += _U64.pack(graph.relative_address[raw])
                ref_count += 8
            else:
                profile.value_fields += 1
                out += _U64.pack(raw)
                value_count += 8
    total = len(out)
    profile.bytes_read = graph.total_bytes
    profile.bytes_written = total
    profile.add_instructions(graph.total_bytes // 8)
    sections = {"metadata": 8, "headers": header_count}
    if value_count:
        sections["values"] = value_count
    if ref_count:
        sections["references"] = ref_count
    return P.ChunkedEncodeSummary(
        self.name, total, sections, profile, graph.object_count, graph.total_bytes
    )


def oracle_skyway_deserialize(self, stream, heap, limits=None):
    limits = resolve_limits(limits)
    limits.check_stream_bytes(len(stream.data))
    reader = StreamReader(stream.data)
    profile = WorkProfile()
    total_bytes = reader.read_u32()
    object_count = reader.read_u32()
    if total_bytes <= 0 or object_count <= 0:
        raise FormatError("empty Skyway stream")
    limits.check_objects(object_count)
    limits.check_graph_bytes(total_bytes)
    if total_bytes > len(stream.data) * 8:
        raise FormatError("Skyway header claims more image bytes than shipped")
    base = heap.reserve(total_bytes)
    memory = heap.memory
    offset = 0
    root_obj = None
    pending = []
    object_addresses = []
    for _ in range(object_count):
        address = base + offset
        if offset + HEADER_BYTES > total_bytes:
            raise FormatError("more objects than fit in the image")
        mark_raw = reader.read_u64()
        type_id = reader.read_u64()
        klass = self.registration.klass_of(type_id, offset=reader.position)
        memory.write_u64(address, mark_raw)
        if klass.metaspace_address is None:
            heap.registry.register(klass)
        memory.write_u64(address + 8, klass.metaspace_address)
        reader.read_u64()
        memory.write_u64(address + 16, 0)
        profile.objects += 1
        profile.allocations += 1
        profile.add_instructions(
            skyway_module._INSTR_PER_OBJECT + skyway_module._INSTR_PER_REGISTERED_OBJECT
        )
        fields_base = address + HEADER_BYTES
        if isinstance(klass, ArrayKlass):
            length_word = reader.read_u64()
            length = length_word
            limits.check_array_length(length)
            first_slot = 1
        else:
            length = 0
            first_slot = 0
        field_slots = klass.instance_slots(length)
        size_bytes = (HEADER_SLOTS + field_slots) * SLOT_BYTES
        if offset + size_bytes > total_bytes:
            raise FormatError("object extends past the image")
        if first_slot:
            memory.write_u64(fields_base, length_word)
        reference_slots = set(klass.reference_slot_indices(length))
        for slot in range(first_slot, field_slots):
            raw = reader.read_u64()
            slot_address = fields_base + slot * SLOT_BYTES
            profile.add_instructions(skyway_module._INSTR_PER_SLOT)
            if slot in reference_slots:
                profile.reference_fields += 1
                profile.dependent_loads += 1
                profile.add_instructions(skyway_module._INSTR_PER_REFERENCE)
                if raw != skyway_module._NULL_RELATIVE:
                    pending.append((slot_address, raw))
                memory.write_u64(slot_address, NULL_ADDRESS)
            else:
                profile.value_fields += 1
                memory.write_u64(slot_address, raw)
        obj = heap.register_object(address, klass, length)
        object_addresses.append(obj.address)
        if root_obj is None:
            root_obj = obj
        offset += obj.size_bytes
    if offset != total_bytes:
        raise FormatError("Skyway stream size mismatch")
    valid_targets = {obj_address - base for obj_address in object_addresses}
    for slot_address, relative in pending:
        if relative not in valid_targets:
            raise FormatError(f"relative address {relative} does not target an object")
        memory.write_u64(slot_address, base + relative)
    profile.bytes_read = len(stream.data)
    profile.bytes_written = total_bytes
    profile.add_instructions(total_bytes // 8)
    return skyway_module.DeserializationResult(root_obj, profile)


@pytest.fixture
def oracle_paths(monkeypatch):
    """A callable that swaps every per-slot oracle in for its fast path."""

    def install():
        for name, code in (("u8", "<B"), ("u16", "<H"), ("u32", "<I"), ("u64", "<Q"),
                           ("i32", "<i"), ("i64", "<q"), ("f32", "<f"), ("f64", "<d")):
            monkeypatch.setattr(MemorySpace, f"read_{name}", _oracle_load(code))
            if name != "u32":  # nothing writes a u32 to the heap
                monkeypatch.setattr(MemorySpace, f"write_{name}", _oracle_store(code))
        monkeypatch.setattr(Heap, "allocate", oracle_allocate)
        for name, oracle in (("get", oracle_get), ("set", oracle_set),
                             ("get_elements", oracle_get_elements),
                             ("set_elements", oracle_set_elements),
                             ("get_element", oracle_get_element),
                             ("set_element", oracle_set_element)):
            monkeypatch.setattr(HeapObject, name, oracle)
        monkeypatch.setattr(MiniSparkContext, "_wrap_records", oracle_wrap_records)
        monkeypatch.setattr(HeapObject, "referenced_objects", oracle_referenced_objects)
        monkeypatch.setattr(graph_module, "traverse_slot_runs", oracle_traverse_slot_runs)
        monkeypatch.setattr(SkywaySerializer, "_encode_walk", oracle_skyway_encode_walk)
        monkeypatch.setattr(SkywaySerializer, "deserialize", oracle_skyway_deserialize)

    return install


# -- the comparison ---------------------------------------------------------------------------

_BUILDERS = {"tree": build_tree_bench, "list": build_list_bench, "graph": build_graph_bench}
SERIALIZERS = ("java-builtin", "kryo", "skyway", "cereal")


def _columns(trace: MemoryTrace):
    return trace.addresses.tobytes(), trace.lengths.tobytes()


def _heap_bytes(heap: Heap) -> bytes:
    trace, heap.memory.trace = heap.memory.trace, None
    try:
        return heap.memory.read(HEAP_BASE, heap.used_bytes)
    finally:
        heap.memory.trace = trace


def _make(name, registry):
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)
    return {
        "java-builtin": lambda: JavaSerializer(),
        "kryo": lambda: KryoSerializer(registration),
        "skyway": lambda: SkywaySerializer(registration),
        "cereal": lambda: CerealSerializer(registration),
    }[name]()


def run_round_trip(graph_name: str):
    """Everything modelled about building a miniature Table II graph and
    round-tripping it through each serializer, traces included."""
    config = MICROBENCH_CONFIGS[graph_name]
    config = dataclasses.replace(config, paper_objects=16 * config.scale)
    build_trace = MemoryTrace()
    heap = Heap()
    heap.memory.trace = build_trace
    register_micro_klasses(heap.registry)
    root = _BUILDERS[config.shape](heap, config)
    heap.memory.trace = None
    out = {"build": _columns(build_trace), "sender": _heap_bytes(heap)}
    for name in SERIALIZERS:
        serializer = _make(name, heap.registry)
        ser_trace = MemoryTrace()
        heap.memory.trace = ser_trace
        result = serializer.serialize(root)
        heap.memory.trace = None
        chunks = []
        cursor = serializer.serialize_chunks(root, 256)
        while (chunk := cursor.next_chunk()) is not None:
            chunks.append(chunk)
        de_trace = MemoryTrace()
        receiver = Heap(registry=heap.registry)
        receiver.memory.trace = de_trace
        decoded = serializer.deserialize(result.stream, receiver)
        receiver.memory.trace = None
        out[name] = {
            "ser_trace": _columns(ser_trace),
            "stream": result.stream.data,
            "sections": result.stream.sections,
            "chunks": b"".join(chunks),
            "ser_profile": dataclasses.asdict(result.profile),
            "de_trace": _columns(de_trace),
            "receiver": _heap_bytes(receiver),
            "de_profile": dataclasses.asdict(decoded.profile),
            "root": decoded.root.address,
        }
    return out


def _assert_same(fast, oracle):
    assert fast.keys() == oracle.keys()
    for key in fast:
        if isinstance(fast[key], dict):
            for field in fast[key]:
                assert fast[key][field] == oracle[key][field], (key, field)
        else:
            assert fast[key] == oracle[key], key


@pytest.mark.parametrize("graph_name", sorted(MICROBENCH_CONFIGS))
def test_round_trip_matches_per_slot_oracle(graph_name, oracle_paths):
    fast = run_round_trip(graph_name)
    oracle_paths()
    oracle = run_round_trip(graph_name)
    assert fast["skyway"]["ser_trace"][0], "no trace recorded"
    _assert_same(fast, oracle)


def test_harness_timing_matches_oracle(oracle_paths):
    """The software platform's whole modelled output, aux accesses included."""

    def timings():
        config = MICROBENCH_CONFIGS["tree-wide"]
        config = dataclasses.replace(config, paper_objects=16 * config.scale)
        heap = Heap()
        register_micro_klasses(heap.registry)
        root = build_tree_bench(heap, config)
        platform = SoftwarePlatform(SystemConfig())
        out = []
        for name in ("java-builtin", "kryo", "skyway"):
            serializer = _make(name, heap.registry)
            result, ser = platform.run_serialize(serializer, root)
            _, de = platform.run_deserialize(serializer, result.stream,
                                             Heap(registry=heap.registry))
            out.append((dataclasses.asdict(ser.timing), dataclasses.asdict(de.timing)))
        return out

    fast = timings()
    oracle_paths()
    assert fast == timings()


# -- slot access --------------------------------------------------------------------------------


def _slot_workload(heap: Heap):
    """Named-field and element reads and writes of every kind."""
    node = InstanceKlass("Node", [
        FieldDescriptor("next", FieldKind.REFERENCE),
        FieldDescriptor("weight", FieldKind.DOUBLE),
        FieldDescriptor("ratio", FieldKind.FLOAT),
        FieldDescriptor("flag", FieldKind.BOOLEAN),
        FieldDescriptor("letter", FieldKind.CHAR),
        FieldDescriptor("count", FieldKind.INT),
        FieldDescriptor("total", FieldKind.LONG),
    ])
    heap.registry.register(node)
    first = heap.allocate(node)
    second = heap.allocate(node)
    refs = heap.new_array(FieldKind.REFERENCE, 5)
    values: List[Optional[object]] = []
    for index, obj in enumerate((first, second)):
        obj.set("next", second if index == 0 else None)
        obj.set("weight", 1.5 * index)
        obj.set("ratio", 0.25)
        obj.set("flag", index == 0)
        obj.set("letter", 0x10041)
        obj.set("count", -7 - index)
        obj.set("total", 1 << 40)
    refs.set_elements([first, None, second, first, None])
    refs.set_element(1, second)
    for kind, value in ((FieldKind.BOOLEAN, True), (FieldKind.BYTE, -3),
                        (FieldKind.CHAR, 0x2603), (FieldKind.SHORT, -300),
                        (FieldKind.INT, -70000), (FieldKind.FLOAT, 0.5),
                        (FieldKind.LONG, -(1 << 50)), (FieldKind.DOUBLE, 2.25)):
        array = heap.new_array(kind, 3)
        array.set_element(2, value)
        array.set_element(0, value)
        values.extend([array.get_element(0), array.get_element(1), array.get_element(2)])
    for obj in (first, second):
        values.extend(obj.get(field.name) for field in node.fields)
    values.extend(refs.get_elements())
    values.append(refs.get_element(4))
    values.append([child and child.address for child in refs.referenced_objects()])
    return [value.address if isinstance(value, HeapObject) else value for value in values]


def test_slot_access_matches_oracle(oracle_paths):
    def run():
        trace = MemoryTrace()
        heap = Heap()
        heap.memory.trace = trace
        values = _slot_workload(heap)
        return values, _columns(trace), _heap_bytes(heap)

    fast = run()
    oracle_paths()
    assert fast == run()


# -- named fields, reference arrays, allocation ---------------------------------------------------


def _comparable(value):
    """A value as compared across paths: objects by address, floats by
    their bits (so -0.0 and NaN payloads count), and types kept apart."""
    if isinstance(value, HeapObject):
        return ("object", value.address)
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def _traced_run(workload):
    trace = MemoryTrace()
    heap = Heap()
    heap.memory.trace = trace
    values = workload(heap)
    return [_comparable(value) for value in values], _columns(trace), _heap_bytes(heap)


def _assert_matches_oracle(workload, oracle_paths):
    fast = _traced_run(workload)
    assert fast[1][0], "no trace recorded"
    oracle_paths()
    assert fast == _traced_run(workload)


def _leaf_klass(heap: Heap) -> InstanceKlass:
    leaf = InstanceKlass("Leaf", [FieldDescriptor("value", FieldKind.LONG)])
    heap.registry.register(leaf)
    return leaf


def _field_workload(heap: Heap):
    """``set`` then ``get`` of each kind's edge values, on every kind."""
    klass = InstanceKlass(
        "AllKinds", [FieldDescriptor(f"f_{kind.value}", kind) for kind in FieldKind]
    )
    heap.registry.register(klass)
    obj, other = heap.allocate(klass), heap.allocate(klass)
    values = {
        FieldKind.BOOLEAN: [True, False, 2],
        FieldKind.BYTE: [-3, 127, -128],
        FieldKind.CHAR: [0x10041, 0xFFFF, 0],
        FieldKind.SHORT: [-300, 32767],
        FieldKind.INT: [-70000, 2**31 - 1, -(2**31)],
        FieldKind.FLOAT: [0.25, -0.0, 0.0, math.nan, 3],
        FieldKind.LONG: [-(1 << 50), (1 << 63) - 1, -1],
        FieldKind.DOUBLE: [-1.5, -0.0, math.nan, math.inf, 1e-300],
        FieldKind.REFERENCE: [other, None, obj],
    }
    seen = [other.get(f"f_{kind.value}") for kind in FieldKind]  # zeroed
    for kind in FieldKind:
        for value in values[kind]:
            obj.set(f"f_{kind.value}", value)
            seen.append(obj.get(f"f_{kind.value}"))
    seen.extend(obj.get(f"f_{kind.value}") for kind in FieldKind)
    return seen


def _reference_array_workload(heap: Heap):
    leaf = _leaf_klass(heap)
    a, b, c = (heap.allocate(leaf) for _ in range(3))
    array = heap.new_array(FieldKind.REFERENCE, 6)
    seen = list(array.get_elements())
    array.set_elements([a, None, b, a, None, c])
    seen += array.get_elements()
    array.set_elements((None,) * 6)
    seen += array.get_elements()
    empty = heap.new_array(FieldKind.REFERENCE, 0)
    empty.set_elements([])
    seen += empty.get_elements()
    # 80 KB of elements: the run crosses a 64 KiB page boundary.
    big = heap.new_array(FieldKind.REFERENCE, 10_000)
    big.set_elements([(a, None, c, b)[index % 4] for index in range(10_000)])
    seen += big.get_elements()
    return seen


def _allocation_workload(heap: Heap):
    leaf = _leaf_klass(heap)
    bare = InstanceKlass("Bare")
    heap.registry.register(bare)
    objects = [
        heap.allocate(leaf),
        heap.allocate(bare),
        heap.new_array(FieldKind.LONG, 5),
        heap.new_array(FieldKind.CHAR, 3),
        heap.new_array(FieldKind.REFERENCE, 4),
        heap.new_array(FieldKind.REFERENCE, 0),
        heap.new_array(FieldKind.INT, 0),
        heap.allocate(heap.registry.array_klass(FieldKind.BYTE), 9),
    ]
    return objects + [word for obj in objects for word in obj.image_words()]


def _wrap_records_workload(heap: Heap):
    leaf = _leaf_klass(heap)
    records = [heap.allocate(leaf) for _ in range(5)]
    records[2].set("value", -9)
    context = MiniSparkContext(SoftwareBackend(KryoSerializer()))
    root = context._wrap_records(records, heap)
    return [root] + root.get_elements() + context._unwrap_records(root)


def _error_workload(heap: Heap):
    """The ``HeapError`` type and text of each misuse, in order."""
    pair = InstanceKlass("Pair", [
        FieldDescriptor("left", FieldKind.REFERENCE),
        FieldDescriptor("count", FieldKind.INT),
    ])
    heap.registry.register(pair)
    obj = heap.allocate(pair)
    refs = heap.new_array(FieldKind.REFERENCE, 3)
    longs = heap.new_array(FieldKind.LONG, 2)
    cases = [
        lambda: obj.get("missing"),
        lambda: obj.set("missing", 1),
        lambda: refs.get("left"),
        lambda: longs.set("count", 1),
        lambda: obj.set("left", 5),
        lambda: obj.set("left", longs.address),
        lambda: refs.set_elements([obj, obj]),
        lambda: refs.set_elements([obj] * 4),
        lambda: longs.set_elements([1]),
        lambda: refs.set_element(0, 7),
        lambda: refs.get_element(3),
    ]
    seen = []
    for case in cases:
        with pytest.raises(HeapError) as info:
            case()
        seen.append(f"{type(info.value).__name__}: {info.value}")
    return seen


@pytest.mark.parametrize("workload", [
    _field_workload,
    _reference_array_workload,
    _allocation_workload,
    _wrap_records_workload,
    _error_workload,
], ids=["fields", "reference-arrays", "allocation", "wrap-records", "errors"])
def test_slot_rule_matches_per_slot_oracle(workload, oracle_paths):
    _assert_matches_oracle(workload, oracle_paths)


def test_failed_reference_set_elements_writes_nothing():
    """Every reference is checked before the word run, as every primitive
    value is before the bulk write: a bad one leaves no byte or record."""
    trace = MemoryTrace()
    heap = Heap()
    leaf = _leaf_klass(heap)
    node = heap.allocate(leaf)
    refs = heap.new_array(FieldKind.REFERENCE, 3)
    before = _heap_bytes(heap)
    heap.memory.trace = trace
    with pytest.raises(HeapError, match="reference slot needs HeapObject or None, got int"):
        refs.set_elements([node, node, 5])
    assert len(trace) == 0
    assert _heap_bytes(heap) == before
    assert refs.get_elements() == [None, None, None]
