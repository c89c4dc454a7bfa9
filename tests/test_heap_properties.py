"""Property-based heap invariants under arbitrary allocation sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jvm import FieldDescriptor, FieldKind, Heap, InstanceKlass

_PRIM_KINDS = [
    FieldKind.BYTE,
    FieldKind.CHAR,
    FieldKind.INT,
    FieldKind.LONG,
    FieldKind.DOUBLE,
]


@st.composite
def allocation_plans(draw):
    """A sequence of allocations: instances and arrays of various kinds."""
    plan = []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):
            field_count = draw(st.integers(0, 6))
            plan.append(("instance", field_count))
        else:
            kind = draw(st.sampled_from(_PRIM_KINDS + [FieldKind.REFERENCE]))
            length = draw(st.integers(0, 40))
            plan.append(("array", kind, length))
    return plan


def execute(plan):
    heap = Heap()
    objects = []
    for index, step in enumerate(plan):
        if step[0] == "instance":
            _, field_count = step
            klass = InstanceKlass(
                f"C{index}",
                [
                    FieldDescriptor(f"f{i}", FieldKind.LONG)
                    for i in range(field_count)
                ],
            )
            heap.registry.register(klass)
            objects.append(heap.allocate(klass))
        else:
            _, kind, length = step
            objects.append(heap.new_array(kind, length))
    return heap, objects


@settings(max_examples=50, deadline=None)
@given(plan=allocation_plans())
def test_allocations_never_overlap(plan):
    _, objects = execute(plan)
    spans = sorted((o.address, o.address + o.size_bytes) for o in objects)
    for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
        assert next_start >= prev_end


@settings(max_examples=50, deadline=None)
@given(plan=allocation_plans())
def test_bitmap_length_always_encodes_size(plan):
    _, objects = execute(plan)
    for obj in objects:
        assert len(obj.layout_bitmap()) * 8 == obj.size_bytes


@settings(max_examples=50, deadline=None)
@given(plan=allocation_plans())
def test_used_bytes_equals_sum_of_objects(plan):
    heap, objects = execute(plan)
    assert heap.used_bytes == sum(o.size_bytes for o in objects)


@settings(max_examples=50, deadline=None)
@given(plan=allocation_plans())
def test_every_object_resolvable_by_address(plan):
    heap, objects = execute(plan)
    for obj in objects:
        assert heap.object_at(obj.address) == obj


@settings(max_examples=50, deadline=None)
@given(plan=allocation_plans())
def test_headers_intact_after_all_allocations(plan):
    """Later allocations must never corrupt earlier objects' headers."""
    heap, objects = execute(plan)
    for obj in objects:
        klass_pointer = heap.memory.read_u64(obj.address + 8)
        assert klass_pointer == obj.klass.metaspace_address
        assert 0 <= obj.identity_hash < 2**31


@settings(max_examples=30, deadline=None)
@given(plan=allocation_plans(), seed=st.integers(0, 2**32))
def test_reference_wiring_preserves_values(plan, seed):
    """Writing references between arbitrary objects never corrupts data."""
    heap, objects = execute(plan)
    ref_arrays = [
        o for o in objects
        if o.klass.is_array and o.klass.element_kind is FieldKind.REFERENCE
        and o.length > 0
    ]
    long_arrays = [
        o for o in objects
        if o.klass.is_array and o.klass.element_kind is FieldKind.LONG
        and o.length > 0
    ]
    for arr in long_arrays:
        arr.set_element(0, 0x5A5A_5A5A)
    state = seed or 1
    for arr in ref_arrays:
        state = (state * 1103515245 + 12345) & 0x7FFF_FFFF
        target = objects[state % len(objects)]
        arr.set_element(state % arr.length, target)
    for arr in long_arrays:
        assert arr.get_element(0) == 0x5A5A_5A5A
