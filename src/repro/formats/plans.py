"""Compiled serialization plans: shape-specialized encode/decode op-lists.

A field-by-field interpreter for Java S/D, Kryo or Cereal re-derives the
same facts for *every object* it touches: which slot holds which field
kind, how the field is encoded on the wire, what the class descriptor
bytes look like, how much modelled work the operation costs. All of that depends only on the
object's *shape* — the klass (plus, for Cereal bitmaps, the array length)
— so it can be computed once and replayed.

A *plan* is that precomputation, compiled per ``(format, klass-shape)``
pair into flat data a tight kernel can execute:

* **encode ops** — ``(op, start, end)`` triples over the object's raw
  memory image. Fixed-width fields whose wire bytes equal their in-memory
  bytes become ``OP_COPY`` slices, and *consecutive contiguous* copies are
  merged into single slices (a ``long``/``double`` run serializes as one
  ``bytes`` copy — the slot-run idea). Only genuinely transforming ops
  remain: f64→f32 re-encode, zig-zag varints, reference recursion points.
* **decode ops** — the inverse list producing 8-byte slot words, with
  verbatim 8-byte fields merged into ``DOP_WORDS`` runs that bulk-unpack.
* **class-descriptor blobs** (Java S/D) — the full ``TC_CLASSDESC`` byte
  string and its per-section size split, emitted with one buffer append
  instead of a field-by-field metadata loop; the decode side compares the
  incoming descriptor tail against the expected bytes in one slice
  comparison and only falls back to the field-by-field parse (for its
  precise error messages and its leniency about field-name strings) when
  the bytes differ.
* **work-profile deltas** — the exact :class:`~repro.formats.base.WorkProfile`
  and reflection-shim cost the interpreter would have accounted for one
  object of this shape, pre-summed so the kernel bumps a handful of local
  integers per object. Plan-path profiles are *identical* to interpreter
  profiles, not approximations — the CPU cost model sees the same work.

Java S/D and Kryo run their plans through one pair of kernels defined
here: :func:`encode_walk` (the frame-stack encode walk: instance op
replay, reference-array and primitive-array frames, the final
:class:`~repro.formats.base.WorkProfile`) and :func:`decode_walk` (the
matching frame-stack decode driver). Each format passes in only what is
its own: the per-object prelude (Java's tags and class descriptors,
Kryo's markers and class-ID varints), its null and back-reference marker
bytes and handle encoding, and its mapping of the walk's counts onto its
stream sections. The shared code never branches on the format.

Plans live in a process-wide cache keyed on :func:`schema_fingerprint`
(name + field signature, or array element kind, the same digest the
``VersionedKryo`` schema header carries), so every serializer instance,
service shard, and benchmark in the process shares one compiled plan per
shape. Its hit/miss/eviction counters live in the process-wide metrics
registry as ``plan_cache.*``; ``benchmarks/bench_wallclock.py`` gates on
the warm-cache hit rate they give.

Plans are the only S/D path of those three formats. That includes
``VersionedKryo``'s schema evolution: :func:`compile_kryo` compiles a
schema resolution (the writer's fields, each aimed at a reader slot or a
discard word) into an ordinary Kryo plan, outside the cache, and
:func:`decode_walk` runs it like any other. The interpreters the plans
replaced live on as test oracles in ``tests/oracles.py``, and
``tests/test_plans.py`` holds the plans byte-identical to them over the
fuzz corpus of ``tests/test_fuzz_roundtrip.py``
(``tests/test_schema_evolution.py`` does the same for evolved streams).
"""

from __future__ import annotations

import hashlib
import struct
from operator import itemgetter
from typing import Dict, List, Tuple

from repro.common.errors import FormatError, TruncatedStreamError
from repro.formats.base import WorkProfile
from repro.formats.varint import (
    INT32_MAX,
    INT32_MIN,
    append_signed_varint,
    append_varint as append_varint,  # re-exported for the Kryo kernels
    int32_range_error,
    read_signed_varint,
    read_varint as read_varint,
)
from repro.jvm.klass import (
    ArrayKlass,
    FieldKind,
    HEADER_BYTES,
    HEADER_SLOTS,
    InstanceKlass,
    Klass,
)
from repro.jvm.layout_cache import layout_of
from repro.jvm.reflection import ReflectionCost
from repro.obs.metrics import get_registry

# -- encode opcodes ---------------------------------------------------------------
OP_COPY = 0    # (start, end): image bytes copied verbatim to the stream
OP_FLOAT = 1   # (off, _): f64 slot re-encoded as 4 f32 bytes
OP_REF = 2     # (off, _): reference slot -> recursion point
OP_VARINT = 3  # (off, _): signed i64 slot -> zig-zag varint (Kryo)

# -- decode opcodes ---------------------------------------------------------------
DOP_REF = 0     # reference -> recursion point
DOP_BOOL = 1    # u8 -> 0/1 slot word
DOP_BYTE = 2    # u8 -> sign-extended slot word
DOP_CHAR = 3    # u16 -> slot word
DOP_SHORT = 4   # u16 -> sign-extended slot word
DOP_INT = 5     # u32 -> sign-extended slot word
DOP_FLOAT = 6   # f32 -> f64-bit slot word
DOP_WORDS = 7   # (index, count): run of verbatim 8-byte fields, bulk unpack
DOP_VARINT = 8  # zig-zag varint -> slot word (Kryo LONG)
DOP_INT_VARINT = 9  # zig-zag varint, checked to int32 -> slot word (Kryo INT)

_U64_MASK = (1 << 64) - 1

#: One ReflectASM field access: an indexed lookup plus the read or write.
_REFLECT_ASM_INSTR = ReflectionCost(
    indexed_accesses=1, field_reads=1
).estimated_instructions()

_COPY_WIDTHS = {
    FieldKind.BOOLEAN: 1,
    FieldKind.BYTE: 1,
    FieldKind.CHAR: 2,
    FieldKind.SHORT: 2,
    FieldKind.INT: 4,
    FieldKind.LONG: 8,
    FieldKind.DOUBLE: 8,
}

_DECODE_OPS = {
    FieldKind.BOOLEAN: DOP_BOOL,
    FieldKind.BYTE: DOP_BYTE,
    FieldKind.CHAR: DOP_CHAR,
    FieldKind.SHORT: DOP_SHORT,
    FieldKind.INT: DOP_INT,
    FieldKind.FLOAT: DOP_FLOAT,
}


# -- plan containers ---------------------------------------------------------------


class InstancePlan:
    """Compiled shape facts for one instance klass under one format."""

    __slots__ = (
        "klass",
        "size_bytes",
        "enc_ops",
        "enc_data_bytes",
        "dec_ops",
        "word_count",           # slot words a decode fills (+1 discard word)
        "pack_words",           # slot words -> image field bytes; None if none
        "n_ref",
        "n_prim",
        "desc_blob",
        "desc_meta_bytes",
        "desc_type_bytes",
        "desc_tail",
        "ser_instr",
        "ser_aux",
        "ser_dep",
        "ser_reflect_instr",
        "desc_ser_instr",
        "de_instr",
        "de_aux",
        "de_reflect_instr",
        "desc_de_instr",
    )


class ArrayPlan:
    """Compiled shape facts for an array klass (length-independent)."""

    __slots__ = (
        "klass",
        "element_kind",
        "element_width",
        "is_ref",
        "copy_elements",      # wire bytes == element storage bytes
        "varint_code",        # struct code for Kryo INT/LONG element loads
        "desc_blob",
        "desc_meta_bytes",
        "desc_type_bytes",
        "desc_tail",
        "ser_instr",          # per object
        "ser_aux",
        "ser_dep",
        "ser_elem_instr",     # per element
        "desc_ser_instr",
        "de_instr",
        "de_aux",
        "de_elem_instr",
        "desc_de_instr",
    )


class CerealPlan:
    """Value/reference word indices + bitmap for one Cereal object shape."""

    __slots__ = (
        "klass",
        "total_slots",
        "value_word_indices",   # absolute word indices of non-ref field slots
        "ref_word_indices",     # absolute word indices of reference slots
        "bitmap_word",
        "bitmap_width",
        "n_ref",
        "n_value",
        "instr",                # per object serialize instructions
    )


class CerealRebuildPlan:
    """How one Cereal layout bitmap rebuilds its object image.

    The image is the object's value words followed by its translated
    reference words, permuted into slot order by ``gather`` (``None``
    when no value slot follows a reference slot, so the concatenation
    already is the image).
    """

    __slots__ = (
        "n_value",
        "n_ref",
        "mark_is_value",        # slot 0 is a value slot (rebuilt if stripped)
        "klass_index",          # klass word's index in the concatenation,
                                # None when the bitmap marks it a reference
        "gather",
    )


# -- the process-wide plan cache ----------------------------------------------------

# Bounded like the layout cache: plans are regenerable, the cap only guards
# against workloads that produce unboundedly many distinct array lengths
# (which only the Cereal plans key on).
_MAX_ENTRIES = 1 << 16
_PLANS: Dict[Tuple, object] = {}
_FINGERPRINTS: Dict[Klass, int] = {}
_BITMAP_PLANS: Dict[Tuple[int, int], "CerealRebuildPlan"] = {}

# Recorded in the process-wide metrics registry as ``plan_cache.*``.
_HITS = get_registry().counter("plan_cache.hits")
_MISSES = get_registry().counter("plan_cache.misses")
_EVICTIONS = get_registry().counter("plan_cache.evictions")
_ENTRIES = get_registry().gauge("plan_cache.entries")


def schema_fingerprint(klass: Klass) -> int:
    """Deterministic 64-bit digest of a class's serialized shape.

    Covers the class name plus either the array element kind or the ordered
    (field name, field kind) list — exactly the inputs that change the wire
    encoding, nothing else. Two klass objects with the same fingerprint
    serialize identically in every format, so their plans are
    interchangeable: the plan cache is keyed on it, and the
    ``VersionedKryo`` schema header carries it. Memoized per klass.
    """
    fingerprint = _FINGERPRINTS.get(klass)
    if fingerprint is None:
        h = hashlib.sha256(b"repro-schema-v1\x00")
        h.update(klass.name.encode("utf-8"))
        if isinstance(klass, ArrayKlass):
            h.update(b"\x00[]")
            h.update(klass.element_kind.value.encode("utf-8"))
        else:
            assert isinstance(klass, InstanceKlass)
            for descriptor in klass.fields:
                h.update(b"\x00")
                h.update(descriptor.name.encode("utf-8"))
                h.update(b":")
                h.update(descriptor.kind.value.encode("utf-8"))
        fingerprint = int.from_bytes(h.digest()[:8], "little")
        _FINGERPRINTS[klass] = fingerprint
    return fingerprint


def plan_for(format_name: str, klass: Klass, length: int = 0):
    """The memoized plan for ``(format, klass shape)``.

    ``length`` only differentiates Cereal plans (their layout bitmap is
    per-length); the Java/Kryo array plans are length-independent.
    """
    if klass.is_array and format_name != "cereal":
        length = -1
    key = (format_name, schema_fingerprint(klass), length)
    plan = _PLANS.get(key)
    if plan is not None:
        _HITS.value += 1  # direct bump: this is the per-object hot path
        return plan
    _MISSES.inc()
    if format_name == "java-builtin":
        plan = _compile_java(klass)
    elif format_name == "kryo":
        plan = compile_kryo(klass)
    elif format_name == "cereal":
        plan = _compile_cereal(klass, max(length, 0))
    else:
        raise FormatError(f"no plan compiler for format {format_name!r}")
    if len(_PLANS) >= _MAX_ENTRIES:
        _PLANS.clear()
        _EVICTIONS.inc()
    _PLANS[key] = plan
    _ENTRIES.set(len(_PLANS) + len(_BITMAP_PLANS))
    return plan


def bitmap_rebuild_plan(bitmap_word: int, bitmap_width: int) -> "CerealRebuildPlan":
    """The memoized Cereal rebuild plan for one layout bitmap.

    The Cereal decoder rebuilds an object image from its bitmap alone
    (paper Sections IV-A and V-C), so every object with the same
    ``(word, width)`` takes the same slices of the value and reference
    arrays; the plan is computed once per bitmap, not once per slot.
    """
    key = (bitmap_word, bitmap_width)
    plan = _BITMAP_PLANS.get(key)
    if plan is not None:
        _HITS.inc()
        return plan
    _MISSES.inc()
    bits = [
        (bitmap_word >> (bitmap_width - 1 - slot)) & 1
        for slot in range(bitmap_width)
    ]
    plan = CerealRebuildPlan()
    plan.n_ref = sum(bits)
    plan.n_value = bitmap_width - plan.n_ref
    plan.mark_is_value = bits[:1] == [0]
    plan.klass_index = int(plan.mark_is_value) if bits[1:2] == [0] else None
    # Each slot's place in the values-then-references concatenation.
    order = []
    value_index, ref_index = 0, plan.n_value
    for bit in bits:
        if bit:
            order.append(ref_index)
            ref_index += 1
        else:
            order.append(value_index)
            value_index += 1
    plan.gather = None if order == sorted(order) else itemgetter(*order)
    if len(_BITMAP_PLANS) >= _MAX_ENTRIES:
        _BITMAP_PLANS.clear()
        _EVICTIONS.inc()
    _BITMAP_PLANS[key] = plan
    _ENTRIES.set(len(_PLANS) + len(_BITMAP_PLANS))
    return plan


def reset_plan_cache() -> None:
    """Drop compiled plans and zero the counters (tests, benchmarks)."""
    _PLANS.clear()
    _BITMAP_PLANS.clear()
    _FINGERPRINTS.clear()
    _HITS.reset()
    _MISSES.reset()
    _EVICTIONS.reset()
    _ENTRIES.reset()


# -- shared compile helpers ---------------------------------------------------------


def _merge_copy_runs(ops: List[Tuple[int, int, int]]) -> Tuple[Tuple[int, int, int], ...]:
    """Fuse adjacent OP_COPY ops whose byte ranges are contiguous."""
    merged: List[Tuple[int, int, int]] = []
    for op in ops:
        if (
            merged
            and op[0] == OP_COPY
            and merged[-1][0] == OP_COPY
            and merged[-1][2] == op[1]
        ):
            merged[-1] = (OP_COPY, merged[-1][1], op[2])
        else:
            merged.append(op)
    return tuple(merged)


def _merge_word_runs(ops: List[Tuple[int, int, int]]) -> Tuple[Tuple[int, int, int], ...]:
    """Fuse adjacent DOP_WORDS ops over consecutive field indices."""
    merged: List[Tuple[int, int, int]] = []
    for op in ops:
        if (
            merged
            and op[0] == DOP_WORDS
            and merged[-1][0] == DOP_WORDS
            and merged[-1][1] + merged[-1][2] == op[1]
        ):
            merged[-1] = (DOP_WORDS, merged[-1][1], merged[-1][2] + op[2])
        else:
            merged.append(op)
    return tuple(merged)


def _java_reflection_instr(klass: InstanceKlass) -> int:
    """Estimated instructions for one reflective get/set pass over ``klass``:
    ``JavaReflection._lookup``'s name scan per field plus one field access.

    Reads and writes cost the same, so one number serves both the
    serialize and deserialize sides.
    """
    fields = klass.fields
    cost = ReflectionCost(field_reads=len(fields))
    for index, descriptor in enumerate(fields):
        name = descriptor.name
        cost.method_invocations += 1
        for other in fields[:index + 1]:
            cost.string_comparisons += 1
            common = 0
            for a, b in zip(other.name, name):
                common += 1
                if a != b:
                    break
            cost.characters_compared += max(1, common)
            if other.name == name:
                break
    return cost.estimated_instructions()


def _java_desc_blob(klass: Klass) -> Tuple[bytes, int, int, bytes]:
    """The TC_CLASSDESC byte string for ``klass`` plus its section split.

    Returns ``(blob, meta_bytes, type_bytes, tail)`` where ``tail`` is the
    descriptor after the tag byte and class-name UTF (what the decoder
    compares against after it has read the name).
    """
    from repro.formats import javaser as J

    blob = bytearray()
    meta_bytes = 0
    type_bytes = 0
    blob.append(J.TC_CLASSDESC)
    meta_bytes += 1
    name_utf = klass.name.encode("utf-8")
    blob += struct.pack("<H", len(name_utf)) + name_utf
    type_bytes += 2 + len(name_utf)
    blob += struct.pack("<Q", J.serial_version_uid(klass))
    meta_bytes += 8
    blob.append(J.SC_SERIALIZABLE)
    meta_bytes += 1
    if isinstance(klass, InstanceKlass):
        blob += struct.pack("<H", len(klass.fields))
        meta_bytes += 2
        for descriptor in klass.fields:
            blob.append(J._TYPE_CODES[descriptor.kind])
            meta_bytes += 1
            field_utf = descriptor.name.encode("utf-8")
            blob += struct.pack("<H", len(field_utf)) + field_utf
            type_bytes += 2 + len(field_utf)
            if descriptor.kind.is_reference:
                type_utf = J._REFERENCE_TYPE_STRING.encode("utf-8")
                blob += struct.pack("<H", len(type_utf)) + type_utf
                type_bytes += 2 + len(type_utf)
    else:
        assert isinstance(klass, ArrayKlass)
        blob += struct.pack("<H", 0)
        meta_bytes += 2
        blob.append(J._TYPE_CODES[klass.element_kind])
        meta_bytes += 1
    tail = bytes(blob[1 + 2 + len(name_utf):])
    return bytes(blob), meta_bytes, type_bytes, tail


def _field_ops(
    fields: Tuple[Tuple[int, FieldKind], ...], varint_kinds: Tuple[FieldKind, ...]
) -> Tuple[Tuple, Tuple, int, int]:
    """(enc_ops, dec_ops, static_data_bytes, n_ref) for an instance's wire
    fields, each ``(slot index, kind)``, in wire order."""
    enc: List[Tuple[int, int, int]] = []
    dec: List[Tuple[int, int, int]] = []
    data_bytes = 0
    n_ref = 0
    for index, kind in fields:
        offset = HEADER_BYTES + index * 8
        if kind is FieldKind.REFERENCE:
            enc.append((OP_REF, offset, 0))
            dec.append((DOP_REF, index, 0))
            n_ref += 1
        elif kind in varint_kinds:
            enc.append((OP_VARINT, offset, 0))
            dec.append(
                (DOP_INT_VARINT if kind is FieldKind.INT else DOP_VARINT, index, 0)
            )
        elif kind is FieldKind.FLOAT:
            enc.append((OP_FLOAT, offset, 0))
            dec.append((DOP_FLOAT, index, 0))
            data_bytes += 4
        elif kind in (FieldKind.LONG, FieldKind.DOUBLE):
            enc.append((OP_COPY, offset, offset + 8))
            dec.append((DOP_WORDS, index, 1))
            data_bytes += 8
        else:
            width = _COPY_WIDTHS[kind]
            enc.append((OP_COPY, offset, offset + width))
            dec.append((_DECODE_OPS[kind], index, 0))
            data_bytes += width
    return _merge_copy_runs(enc), _merge_word_runs(dec), data_bytes, n_ref


# -- format compilers ----------------------------------------------------------------


def _instance_plan(module, klass: InstanceKlass, fields, varint_kinds) -> InstancePlan:
    """The instance plan Java S/D and Kryo share; ``module`` holds the
    format's cost constants.

    ``fields`` lists the wire fields in wire order as ``(slot index,
    kind)``. A ``None`` index is a wire field ``klass`` has no slot for (a
    writer field the reader dropped): it decodes into one discard word
    past the slots, which ``pack_words`` leaves out of the object.
    """
    slot_count = len(klass.fields)
    slots = tuple(
        (slot_count if index is None else index, kind) for index, kind in fields
    )
    enc_ops, dec_ops, data_bytes, n_ref = _field_ops(slots, varint_kinds)
    n_prim = len(fields) - n_ref
    plan = InstancePlan()
    plan.klass = klass
    plan.size_bytes = HEADER_BYTES + slot_count * 8
    plan.enc_ops = enc_ops
    plan.enc_data_bytes = data_bytes
    plan.dec_ops = dec_ops
    plan.n_ref = n_ref
    plan.n_prim = n_prim
    pack = struct.Struct(f"<{slot_count}Q").pack if slot_count else None
    plan.word_count = slot_count
    plan.pack_words = pack
    if any(index is None for index, _ in fields):
        plan.word_count += 1
        if pack is not None:
            plan.pack_words = lambda *words: pack(*words[:slot_count])
    plan.ser_instr = (
        module._INSTR_PER_OBJECT
        + n_prim * module._INSTR_PER_PRIMITIVE
        + n_ref * module._INSTR_PER_REFERENCE
    )
    plan.ser_aux = module._AUX_ACCESSES_PER_OBJECT_SER
    plan.ser_dep = 2 + n_ref
    plan.de_instr = (
        module._INSTR_PER_OBJECT_DESER
        + module._INSTR_PER_ALLOC
        + len(fields) * module._INSTR_PER_FIELD_DESER
    )
    plan.de_aux = module._AUX_ACCESSES_PER_OBJECT_DESER
    return plan


def _array_plan(module, klass: ArrayKlass) -> ArrayPlan:
    """The array plan Java S/D and Kryo share; ``module`` holds the
    format's cost constants."""
    plan = ArrayPlan()
    plan.klass = klass
    plan.element_kind = klass.element_kind
    plan.element_width = klass.element_width
    plan.is_ref = klass.element_kind.is_reference
    plan.copy_elements = not plan.is_ref
    plan.varint_code = ""
    plan.ser_instr = module._INSTR_PER_OBJECT
    plan.ser_aux = module._AUX_ACCESSES_PER_OBJECT_SER
    plan.ser_dep = 2
    plan.ser_elem_instr = (
        module._INSTR_PER_REFERENCE if plan.is_ref else module._INSTR_PER_PRIMITIVE
    )
    plan.de_instr = module._INSTR_PER_OBJECT_DESER + module._INSTR_PER_ALLOC
    plan.de_aux = module._AUX_ACCESSES_PER_OBJECT_DESER
    plan.de_elem_instr = module._INSTR_PER_FIELD_DESER
    return plan


def _own_fields(klass: InstanceKlass) -> Tuple[Tuple[int, FieldKind], ...]:
    """Every field of ``klass`` on the wire in slot order."""
    return tuple((index, d.kind) for index, d in enumerate(klass.fields))


def _compile_java(klass: Klass):
    from repro.formats import javaser as J

    if isinstance(klass, ArrayKlass):
        plan = _array_plan(J, klass)
        if not plan.is_ref:
            plan.de_elem_instr = J._INSTR_PER_PRIMITIVE // 4
    else:
        assert isinstance(klass, InstanceKlass)
        plan = _instance_plan(J, klass, _own_fields(klass), ())
        plan.ser_reflect_instr = plan.de_reflect_instr = _java_reflection_instr(klass)
    (plan.desc_blob, plan.desc_meta_bytes, plan.desc_type_bytes,
     plan.desc_tail) = _java_desc_blob(klass)
    plan.desc_ser_instr = J._INSTR_PER_CLASSDESC
    plan.desc_de_instr = J._INSTR_PER_CLASSDESC + len(klass.name) * 2
    return plan


def compile_kryo(klass: Klass, fields=None):
    """The Kryo plan for ``klass``, compiled afresh (:func:`plan_for`
    memoizes it per shape).

    ``fields`` is a schema resolution's field list for an instance klass
    (:func:`repro.formats.secure.resolve_schemas`): per *writer* field, in
    writer order, ``(reader slot index or None, writer kind)``. Such a plan
    decodes the writer's layout into ``klass``'s slots and books the
    writer's fields; it is keyed on the resolution, not the shape, so
    ``VersionedKryo`` compiles it outside the plan cache. The default is
    ``klass``'s own fields.
    """
    from repro.formats import kryo as K

    if isinstance(klass, ArrayKlass):
        plan = _array_plan(K, klass)
        kind = klass.element_kind
        plan.varint_code = (
            "i" if kind is FieldKind.INT else "q" if kind is FieldKind.LONG else ""
        )
        plan.copy_elements = not plan.is_ref and not plan.varint_code
    else:
        assert isinstance(klass, InstanceKlass)
        if fields is None:
            fields = _own_fields(klass)
        plan = _instance_plan(K, klass, fields, (FieldKind.INT, FieldKind.LONG))
        # A decode writes only the fields the reader kept.
        plan.ser_reflect_instr = len(klass.fields) * _REFLECT_ASM_INSTR
        plan.de_reflect_instr = _REFLECT_ASM_INSTR * sum(
            index is not None for index, _ in fields
        )
    plan.desc_blob = plan.desc_tail = b""
    plan.desc_meta_bytes = plan.desc_type_bytes = 0
    plan.desc_ser_instr = plan.desc_de_instr = 0
    return plan


def _compile_cereal(klass: Klass, length: int):
    from repro.formats import cereal_format as C

    layout = layout_of(klass, length)
    reference_set = layout.reference_slot_set
    plan = CerealPlan()
    plan.klass = klass
    plan.total_slots = layout.total_slots
    plan.ref_word_indices = tuple(
        HEADER_SLOTS + slot for slot in layout.reference_slots
    )
    plan.value_word_indices = tuple(
        HEADER_SLOTS + slot
        for slot in range(layout.field_slots)
        if slot not in reference_set
    )
    plan.bitmap_word = layout.bitmap_word
    plan.bitmap_width = layout.bitmap_width
    plan.n_ref = len(plan.ref_word_indices)
    plan.n_value = len(plan.value_word_indices)
    plan.instr = C._INSTR_PER_OBJECT + C._INSTR_PER_SLOT * layout.total_slots
    return plan


# -- the shared Java/Kryo kernels ------------------------------------------------------
#
# Java S/D and Kryo walk the object graph the same way (paper Fig 1(b)/(c)):
# depth first in field order, each object written once, null and revisited
# references as markers. They differ only in per-object metadata, so one
# encode walk and one decode driver run both. Each format supplies its
# prelude (tag, class descriptor or class ID, array length), its marker
# bytes and its handle encoding, and maps the counts the walk returns onto
# its own stream sections.

_F32 = struct.Struct("<f")
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_I32 = struct.Struct("<i")


def encode_walk(
    format_name, root, out, prelude, null_mark, backref_mark, pack_handle,
    byte_instr,
):
    """The plan encoder behind Java S/D's and Kryo's ``_encode_walk``.

    Per object: one plan-cache probe, ``prelude(klass, plan, length)``
    (``length`` is ``None`` for an instance), which writes the format's
    header and returns the object's back-reference handle, then one bulk
    image read and a straight-line replay of the plan's merged
    copy/convert/varint/ref ops. A null reference writes ``null_mark``; a
    revisited object writes ``backref_mark`` then the bytes
    ``pack_handle(handle)`` returns. Profile
    deltas come pre-summed from the plan, so the :class:`WorkProfile`
    equals the interpreter's.

    A generator (see "chunked execution" below); it returns
    ``(profile, data_bytes, nulls, backrefs, backref_bytes)``, where
    ``data_bytes`` counts field and element bytes, not the prelude's.
    """
    heap = root.heap
    read = heap.memory.read
    object_at = heap.object_at
    chunk = chunk_bytes_of(out)

    handles: Dict[int, int] = {}  # heap address -> back-reference handle
    plans_local: Dict[Klass, object] = {}

    objects = 0
    instr = 0
    aux = 0
    dep = 0
    value_fields = 0
    reference_fields = 0
    graph_bytes = 0
    data_bytes = 0
    nulls = 0
    backrefs = 0
    backref_bytes = 0

    def emit(obj):
        """Emit one object's prelude; returns a frame if it has more."""
        nonlocal out, objects, instr, aux, dep
        nonlocal value_fields, reference_fields, graph_bytes, data_bytes
        klass = obj.klass
        plan = plans_local.get(klass)
        if plan is None:
            plan = plan_for(format_name, klass)
            plans_local[klass] = plan
        objects += 1
        aux += plan.ser_aux
        dep += plan.ser_dep
        if klass.is_array:
            length = obj.length
            handles[obj.address] = prelude(klass, plan, length)
            instr += plan.ser_instr + length * plan.ser_elem_instr
            graph_bytes += obj.size_bytes
            element_base = obj.fields_base + 8
            if plan.is_ref:
                reference_fields += length
                if length:
                    addresses = struct.unpack(
                        f"<{length}Q", read(element_base, length * 8)
                    )
                    return [1, addresses, 0]
                return None
            value_fields += length
            if length == 0:
                return None
            if plan.copy_elements:
                nbytes = length * plan.element_width
                data_bytes += nbytes
                if 0 < chunk < nbytes:
                    return [2, element_base, nbytes, 0]
                out += read(element_base, nbytes)
                return None
            values = struct.unpack(  # Kryo INT/LONG: zig-zag varint each
                f"<{length}{plan.varint_code}",
                read(element_base, length * plan.element_width),
            )
            return [3, values, 0]
        handles[obj.address] = prelude(klass, plan, None)
        instr += plan.ser_instr + plan.ser_reflect_instr
        value_fields += plan.n_prim
        reference_fields += plan.n_ref
        data_bytes += plan.enc_data_bytes
        graph_bytes += plan.size_bytes
        raw = read(obj.address, plan.size_bytes)
        if plan.n_ref == 0:
            for op, start, end in plan.enc_ops:
                if op == OP_COPY:
                    out += raw[start:end]
                elif op == OP_VARINT:
                    data_bytes += append_signed_varint(
                        out, _I64.unpack_from(raw, start)[0]
                    )
                else:  # OP_FLOAT
                    out += _F32.pack(_F64.unpack_from(raw, start)[0])
            return None
        return [0, plan.enc_ops, 0, raw]

    frame = emit(root)
    stack: List[list] = [frame] if frame is not None else []
    while stack:
        frame = stack[-1]
        descend = None
        kind = frame[0]
        if kind == 0:  # instance: interleaved value/ref ops
            ops = frame[1]
            index = frame[2]
            raw = frame[3]
            op_count = len(ops)
            while index < op_count:
                if chunk and out.ready_count:
                    frame[2] = index
                    yield
                op, start, end = ops[index]
                index += 1
                if op == OP_COPY:
                    out += raw[start:end]
                elif op == OP_VARINT:
                    data_bytes += append_signed_varint(
                        out, _I64.unpack_from(raw, start)[0]
                    )
                elif op == OP_FLOAT:
                    out += _F32.pack(_F64.unpack_from(raw, start)[0])
                else:  # OP_REF
                    address = _U64.unpack_from(raw, start)[0]
                    if address == 0:
                        out.append(null_mark)
                        nulls += 1
                    else:
                        handle = handles.get(address)
                        if handle is not None:
                            out.append(backref_mark)
                            backrefs += 1
                            encoded = pack_handle(handle)
                            out += encoded
                            backref_bytes += len(encoded)
                        else:
                            descend = emit(object_at(address))
                            if descend is not None:
                                break
            frame[2] = index
        elif kind == 1:  # reference array: a run of ref slots
            addresses = frame[1]
            index = frame[2]
            count = len(addresses)
            while index < count:
                if chunk and out.ready_count:
                    frame[2] = index
                    yield
                address = addresses[index]
                index += 1
                if address == 0:
                    out.append(null_mark)
                    nulls += 1
                else:
                    handle = handles.get(address)
                    if handle is not None:
                        out.append(backref_mark)
                        backrefs += 1
                        encoded = pack_handle(handle)
                        out += encoded
                        backref_bytes += len(encoded)
                    else:
                        descend = emit(object_at(address))
                        if descend is not None:
                            break
            frame[2] = index
        elif kind == 2:  # verbatim primitive array, chunk-sized slices
            element_base = frame[1]
            nbytes = frame[2]
            offset = frame[3]
            while offset < nbytes:
                if out.ready_count:
                    frame[3] = offset
                    yield
                step = min(chunk, nbytes - offset)
                out += read(element_base + offset, step)
                offset += step
            frame[3] = offset
        else:  # Kryo INT/LONG array, zig-zag varint per element
            values = frame[1]
            index = frame[2]
            count = len(values)
            while index < count:
                if chunk and out.ready_count:
                    frame[2] = index
                    yield
                data_bytes += append_signed_varint(out, values[index])
                index += 1
            frame[2] = index
        if descend is not None:
            stack.append(descend)
        else:
            stack.pop()

    total = len(out)
    profile = WorkProfile()
    profile.instructions = instr + total * byte_instr
    profile.objects = objects
    profile.value_fields = value_fields
    profile.reference_fields = reference_fields
    profile.dependent_loads = dep
    profile.aux_random_accesses = aux
    profile.bytes_read = graph_bytes
    profile.bytes_written = total
    return profile, data_bytes, nulls, backrefs, backref_bytes


def decode_walk(
    data, pos, heap, limits, content, read_length, kind_errors, handles,
    byte_instr,
):
    """The plan decoder behind Java S/D's and Kryo's planned deserialize.

    Decodes ``data`` from ``pos`` onto ``heap`` with an explicit frame
    stack; returns ``(root, profile)`` with the interpreter's exact heap
    image and :class:`WorkProfile`. ``content(pos)`` parses one content
    item's format-specific prelude and returns ``(pos, plan, target,
    is_array)``: ``plan`` is ``None`` for a null or back-reference, whose
    value ``target`` is, and otherwise ``target`` is the klass of a new
    object with tag ``is_array``. ``read_length(data, pos)`` returns
    ``(array length, pos)``. ``kind_errors`` holds the messages for an
    array tag naming an instance class and the reverse. Every allocated
    object is appended to ``handles``, the format's back-reference table.

    Field values accumulate into a slot-word list, packed by the plan's
    ``pack_words`` and committed with one ``write`` per object, preserving
    the interpreter's allocation order (and therefore identity hashes).
    """
    n_data = len(data)
    max_objects = limits.max_objects
    max_array_length = limits.max_array_length
    max_depth = limits.max_depth
    memory = heap.memory

    objects = 0
    instr = 0
    aux = 0
    value_fields = 0
    reference_fields = 0
    graph_bytes = 0

    def underflow(width: int) -> FormatError:
        """The truncation error of a run of ``width``-byte items at
        ``pos``: the one item-by-item reads raise, at the first item that
        does not fit."""
        available = n_data - pos
        whole = available - available % width
        return TruncatedStreamError(
            offset=pos + whole, needed=width, available=available - whole
        )

    def run_dec_ops(ops, index: int, words: list) -> int:
        """Execute decode ops until done or the next DOP_REF; returns
        the op index where execution stopped."""
        nonlocal pos
        op_count = len(ops)
        while index < op_count:
            op, field_index, extra = ops[index]
            if op == DOP_REF:
                return index
            if op == DOP_WORDS:
                nbytes = extra * 8
                if pos + nbytes > n_data:
                    raise underflow(8)
                words[field_index:field_index + extra] = struct.unpack_from(
                    f"<{extra}Q", data, pos
                )
                pos += nbytes
            elif op == DOP_VARINT:
                value, pos = read_signed_varint(data, pos)
                words[field_index] = value & _U64_MASK
            elif op == DOP_INT_VARINT:
                value, pos = read_signed_varint(data, pos)
                if not INT32_MIN <= value <= INT32_MAX:
                    raise int32_range_error(value)
                words[field_index] = value & _U64_MASK
            elif op == DOP_INT:
                if pos + 4 > n_data:
                    raise underflow(4)
                words[field_index] = _I32.unpack_from(data, pos)[0] & _U64_MASK
                pos += 4
            elif op == DOP_FLOAT:
                if pos + 4 > n_data:
                    raise underflow(4)
                words[field_index] = _U64.unpack(
                    _F64.pack(_F32.unpack_from(data, pos)[0])
                )[0]
                pos += 4
            elif op == DOP_BOOL:
                if pos >= n_data:
                    raise underflow(1)
                words[field_index] = 1 if data[pos] else 0
                pos += 1
            elif op == DOP_BYTE:
                if pos >= n_data:
                    raise underflow(1)
                raw = data[pos]
                pos += 1
                words[field_index] = raw if raw < 128 else (raw - 256) & _U64_MASK
            elif op == DOP_CHAR:
                if pos + 2 > n_data:
                    raise underflow(2)
                words[field_index] = data[pos] | (data[pos + 1] << 8)
                pos += 2
            else:  # DOP_SHORT
                if pos + 2 > n_data:
                    raise underflow(2)
                raw = data[pos] | (data[pos + 1] << 8)
                pos += 2
                words[field_index] = (
                    raw if raw < 32768 else (raw - 65536) & _U64_MASK
                )
            index += 1
        return index

    def new_object(plan, klass, is_array: bool):
        """Allocate and parse one new object: ``(obj, None)`` when it is
        complete, ``(obj, frame)`` when it awaits reference children."""
        nonlocal pos, objects, instr, aux
        nonlocal value_fields, reference_fields, graph_bytes
        objects += 1
        if objects > max_objects:
            limits.check_objects(objects)
        aux += plan.de_aux
        if is_array:
            if not klass.is_array:
                raise FormatError(kind_errors[0])
            length, pos = read_length(data, pos)
            if length > max_array_length:
                limits.check_array_length(length)
            obj = heap.allocate(klass, length)
            handles.append(obj)
            instr += plan.de_instr + length * plan.de_elem_instr
            graph_bytes += obj.size_bytes
            if plan.is_ref:
                reference_fields += length
                if length == 0:
                    return obj, None
                return obj, [1, obj, [0] * length, 0]
            value_fields += length
            if length == 0:
                return obj, None
            element_base = obj.fields_base + 8
            if plan.copy_elements:
                nbytes = length * plan.element_width
                if pos + nbytes > n_data:
                    raise underflow(plan.element_width)
                memory.write(element_base, data[pos:pos + nbytes])
                pos += nbytes
            else:  # Kryo INT/LONG arrays: zig-zag varint per element
                int32 = plan.element_kind is FieldKind.INT
                values = []
                for _ in range(length):
                    value, pos = read_signed_varint(data, pos)
                    if int32 and not INT32_MIN <= value <= INT32_MAX:
                        raise int32_range_error(value)
                    values.append(value)
                memory.write(
                    element_base,
                    struct.pack(f"<{length}{plan.varint_code}", *values),
                )
            return obj, None
        if klass.is_array:
            raise FormatError(kind_errors[1])
        obj = heap.allocate(klass)
        handles.append(obj)
        instr += plan.de_instr + plan.de_reflect_instr
        value_fields += plan.n_prim
        reference_fields += plan.n_ref
        graph_bytes += plan.size_bytes
        words = [0] * plan.word_count
        if plan.n_ref == 0:
            run_dec_ops(plan.dec_ops, 0, words)
            pack = plan.pack_words
            if pack is not None:
                memory.write(obj.fields_base, pack(*words))
            return obj, None
        return obj, [0, obj, plan.dec_ops, 0, words, plan.pack_words]

    _UNSET = object()
    pos, plan, target, is_array = content(pos)
    if plan is None:
        raise FormatError("stream root must be an object")
    root_obj, frame = new_object(plan, target, is_array)
    stack: List[list] = [frame] if frame is not None else []
    pending = _UNSET
    while stack:
        frame = stack[-1]
        descend = None
        if frame[0] == 0:  # instance frame
            obj, ops, words = frame[1], frame[2], frame[4]
            index = frame[3]
            if pending is not _UNSET:
                child, pending = pending, _UNSET
                words[ops[index][1]] = 0 if child is None else child.address
                index += 1
            op_count = len(ops)
            while True:
                index = run_dec_ops(ops, index, words)
                if index >= op_count:
                    break
                pos, plan, target, is_array = content(pos)
                if plan is not None:
                    target, descend = new_object(plan, target, is_array)
                    if descend is not None:
                        break
                words[ops[index][1]] = 0 if target is None else target.address
                index += 1
            frame[3] = index
            if descend is None:
                pack = frame[5]
                if pack is not None:
                    memory.write(obj.fields_base, pack(*words))
                stack.pop()
                pending = obj
        else:  # reference-array frame
            obj, words = frame[1], frame[2]
            index = frame[3]
            if pending is not _UNSET:
                child, pending = pending, _UNSET
                words[index] = 0 if child is None else child.address
                index += 1
            count = len(words)
            while index < count:
                pos, plan, target, is_array = content(pos)
                if plan is not None:
                    target, descend = new_object(plan, target, is_array)
                    if descend is not None:
                        break
                words[index] = 0 if target is None else target.address
                index += 1
            frame[3] = index
            if descend is None:
                memory.write_words(obj.fields_base + 8, words)
                stack.pop()
                pending = obj
        if descend is not None:
            if len(stack) >= max_depth:
                limits.check_depth(len(stack) + 1)
            stack.append(descend)

    profile = WorkProfile()
    profile.instructions = instr + n_data * byte_instr
    profile.objects = objects
    profile.allocations = objects
    profile.value_fields = value_fields
    profile.reference_fields = reference_fields
    profile.aux_random_accesses = aux
    profile.bytes_read = n_data
    profile.bytes_written = graph_bytes
    return root_obj, profile


# -- chunked execution ---------------------------------------------------------------
#
# Each plan-path format has one encoder: a private generator walk
# (``_encode_walk(root, out)`` on the serializer; Java S/D's and Kryo's
# delegate to :func:`encode_walk`) that writes the stream into ``out`` and
# returns a :class:`ChunkedEncodeSummary`. The walk is an
# append-only writer: every byte goes through ``out += ...`` /
# ``out.append(...)`` and the only read-back is ``len(out)`` (to measure
# what a step wrote). That contract lets one walk serve both front doors:
#
# * ``serialize()`` hands it a flat ``bytearray``; the walk never
#   suspends and one ``next()`` runs it to completion;
# * ``serialize_chunks()`` hands it a :class:`ChunkingBuffer`, which
#   carves the output into fixed-size chunks, and an
#   :class:`EncodeCursor` resumes the walk one sealed chunk at a time.
#
# A walk suspends only when ``out`` is a :class:`ChunkingBuffer` holding a
# sealed chunk, and its explicit frame stack *is* the resume state, so
# continuing never re-visits an already-encoded object. Bulk writes (a
# primitive array's storage, Cereal's trailing sections) advance in
# chunk-sized slices, so no single step overshoots a chunk by more than
# one object's prelude.


def chunk_bytes_of(out) -> int:
    """``out``'s chunk size when it is a :class:`ChunkingBuffer`, else 0.

    Walks read this once: 0 means a flat buffer, where they never
    suspend and write bulk data in one piece.
    """
    return out.chunk_bytes if out.__class__ is ChunkingBuffer else 0


class ChunkingBuffer:
    """An append-only output buffer that carves fixed-size chunks.

    Drop-in for the ``bytearray`` the encode walks write into:
    supports ``append``/``extend``/``+=`` and ``len()`` — where ``len()``
    reports the *logical* stream position (total bytes ever written), so
    kernels that measure a step via ``base = len(out) ... len(out) - base``
    see exactly the numbers they would against a flat buffer.

    Writes land in the current chunk; the instant it reaches
    ``chunk_bytes`` it is sealed onto the ready list and a fresh
    ``bytearray`` is started. One oversized ``extend`` seals as many full
    chunks as it spans — every sealed chunk is *exactly* ``chunk_bytes``
    long, so chunk boundaries are deterministic functions of the byte
    stream alone (resume-determinism relies on this).
    """

    __slots__ = ("chunk_bytes", "_current", "_ready", "_total")

    def __init__(self, chunk_bytes: int):
        if chunk_bytes <= 0:
            raise FormatError(
                f"chunk_bytes must be positive, got {chunk_bytes}"
            )
        self.chunk_bytes = chunk_bytes
        self._current = bytearray()
        self._ready: List[bytearray] = []
        self._total = 0

    def __len__(self) -> int:
        return self._total

    @property
    def ready_count(self) -> int:
        return len(self._ready)

    def append(self, byte: int) -> None:
        self._total += 1
        cur = self._current
        cur.append(byte)
        if len(cur) >= self.chunk_bytes:
            self._seal()

    def extend(self, data) -> None:
        n = len(data)
        self._total += n
        cur = self._current
        room = self.chunk_bytes - len(cur)
        if n < room:
            cur += data
            return
        offset = 0
        while n - offset >= room:
            cur += data[offset:offset + room]
            offset += room
            self._seal()
            cur = self._current
            room = self.chunk_bytes
        if offset < n:
            cur += data[offset:]

    def __iadd__(self, data) -> "ChunkingBuffer":
        self.extend(data)
        return self

    def _seal(self) -> None:
        self._ready.append(self._current)
        self._current = bytearray()

    def pop_ready(self):
        """The oldest sealed chunk, or ``None``."""
        if self._ready:
            return self._ready.pop(0)
        return None

    def flush_tail(self) -> None:
        """Seal the final partial chunk (end of stream). An empty tail —
        the stream length was an exact multiple of ``chunk_bytes`` — is
        never emitted."""
        if self._current:
            self._seal()


class ChunkedEncodeSummary:
    """What an encode walk produced, minus the bytes themselves (those
    went to its output buffer)."""

    __slots__ = (
        "format_name",
        "total_bytes",
        "sections",
        "profile",
        "object_count",
        "graph_bytes",
    )

    def __init__(self, format_name, total_bytes, sections, profile,
                 object_count, graph_bytes):
        self.format_name = format_name
        self.total_bytes = total_bytes
        self.sections = sections
        self.profile = profile
        self.object_count = object_count
        self.graph_bytes = graph_bytes


class EncodeCursor:
    """A resumable handle over one chunked encode.

    Wraps a format's encode walk over a :class:`ChunkingBuffer`: a
    generator that yields whenever a chunk has sealed (its local frame
    stack carries all traversal state) and returns a
    :class:`ChunkedEncodeSummary`. ``next_chunk()`` advances the walk
    only as far as the next sealed chunk, so the walk never runs ahead
    of its consumer: a consumer that stops pulling stops the encode, and
    that is the backpressure (a producer thread feeding a bounded
    ``queue.Queue`` blocks in ``put`` and so stops pulling). Each
    returned chunk is a ``bytearray`` the caller owns::

        while (chunk := cursor.next_chunk()) is not None:
            consume(chunk)          # copy/frame/transmit/keep

    ``summary`` is available once ``next_chunk()`` has returned ``None``.
    """

    def __init__(self, walk, buffer: ChunkingBuffer):
        self._walk = walk
        self._buffer = buffer
        self._exhausted = False
        self.summary = None

    def next_chunk(self):
        """The next sealed chunk, or ``None`` at end of stream."""
        buf = self._buffer
        while not buf.ready_count and not self._exhausted:
            try:
                next(self._walk)
            except StopIteration as stop:
                self._exhausted = True
                self.summary = stop.value
                buf.flush_tail()
                declared = sum(self.summary.sections.values())
                if declared != self.summary.total_bytes:
                    raise FormatError(
                        f"{self.summary.format_name} encode walk: sections "
                        f"sum to {declared}, stream is "
                        f"{self.summary.total_bytes} bytes"
                    )
        return buf.pop_ready()

    def close(self) -> None:
        """Abort a partially-drained cursor: closes the walk."""
        self._walk.close()
        self._exhausted = True
