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

Plans live in a process-wide cache keyed on a stable **klass fingerprint**
(name + field signature, or array element kind), so every serializer
instance, service shard, and benchmark in the process shares one compiled
plan per shape. Its hit/miss/eviction counters live in the process-wide
metrics registry as ``plan_cache.*``; ``benchmarks/bench_wallclock.py``
gates on the warm-cache hit rate they give.

Plans are the only S/D path of those three formats. The interpreters
they replaced live on as test oracles in ``tests/oracles.py``, and
``tests/test_plans.py`` holds the plans byte-identical to them over the
fuzz corpus of ``tests/test_fuzz_roundtrip.py``.
"""

from __future__ import annotations

import struct
from hashlib import sha256
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
        "field_count",
        "enc_ops",
        "enc_data_bytes",
        "dec_ops",
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
_FINGERPRINTS: Dict[Klass, str] = {}
_BITMAP_PLANS: Dict[Tuple[int, int], "CerealRebuildPlan"] = {}

# Recorded in the process-wide metrics registry as ``plan_cache.*``.
_HITS = get_registry().counter("plan_cache.hits")
_MISSES = get_registry().counter("plan_cache.misses")
_EVICTIONS = get_registry().counter("plan_cache.evictions")
_ENTRIES = get_registry().gauge("plan_cache.entries")


def klass_fingerprint(klass: Klass) -> str:
    """Stable shape identity: name plus field signature / element kind.

    Two klass objects with the same fingerprint serialize identically in
    every format, so their plans are interchangeable — this is what lets
    the cache be process-wide across serializer instances and registries.
    """
    fingerprint = _FINGERPRINTS.get(klass)
    if fingerprint is None:
        if isinstance(klass, ArrayKlass):
            identity = ("array", klass.name, klass.element_kind.value)
        else:
            assert isinstance(klass, InstanceKlass)
            identity = (
                "instance",
                klass.name,
                tuple((d.name, d.kind.value) for d in klass.fields),
            )
        fingerprint = sha256(repr(identity).encode("utf-8")).hexdigest()[:16]
        _FINGERPRINTS[klass] = fingerprint
    return fingerprint


def plan_for(format_name: str, klass: Klass, length: int = 0):
    """The memoized plan for ``(format, klass shape)``.

    ``length`` only differentiates Cereal plans (their layout bitmap is
    per-length); the Java/Kryo array plans are length-independent.
    """
    if klass.is_array and format_name != "cereal":
        length = -1
    key = (format_name, klass_fingerprint(klass), length)
    plan = _PLANS.get(key)
    if plan is not None:
        _HITS.value += 1  # direct bump: this is the per-object hot path
        return plan
    _MISSES.inc()
    if format_name == "java-builtin":
        plan = _compile_java(klass)
    elif format_name == "kryo":
        plan = _compile_kryo(klass)
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


def _reflection_lookup_cost(fields, field_count: int) -> Tuple[int, int, int]:
    """(method_invocations, string_comparisons, characters_compared) for one
    full named-field pass, mirroring ``JavaReflection._lookup`` exactly."""
    invocations = comparisons = characters = 0
    for index in range(field_count):
        name = fields[index].name
        invocations += 1
        for scan in range(index + 1):
            comparisons += 1
            other = fields[scan].name
            common = 0
            for a, b in zip(other, name):
                common += 1
                if a != b:
                    break
            characters += max(1, common)
            if other == name:
                break
    return invocations, comparisons, characters


def _java_reflection_instr(klass: InstanceKlass) -> int:
    """Estimated instructions for one reflective get/set pass over ``klass``.

    Reads and writes cost the same (3 per access), so one number serves
    both the serialize and deserialize sides.
    """
    invocations, comparisons, characters = _reflection_lookup_cost(
        klass.fields, len(klass.fields)
    )
    accesses = len(klass.fields) * 3  # field_reads or field_writes, both 3
    return invocations * 40 + comparisons * 6 + characters * 2 + accesses


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
    klass: InstanceKlass, varint_kinds: Tuple[FieldKind, ...]
) -> Tuple[Tuple, Tuple, int, int]:
    """(enc_ops, dec_ops, static_data_bytes, n_ref) for an instance klass."""
    enc: List[Tuple[int, int, int]] = []
    dec: List[Tuple[int, int, int]] = []
    data_bytes = 0
    n_ref = 0
    for index, descriptor in enumerate(klass.fields):
        offset = HEADER_BYTES + index * 8
        kind = descriptor.kind
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


def _compile_java(klass: Klass):
    from repro.formats import javaser as J

    blob, meta_bytes, type_bytes, tail = _java_desc_blob(klass)
    if isinstance(klass, ArrayKlass):
        plan = ArrayPlan()
        plan.klass = klass
        plan.element_kind = klass.element_kind
        plan.element_width = klass.element_width
        plan.is_ref = klass.element_kind.is_reference
        plan.copy_elements = not plan.is_ref
        plan.varint_code = ""
        plan.desc_blob = blob
        plan.desc_meta_bytes = meta_bytes
        plan.desc_type_bytes = type_bytes
        plan.desc_tail = tail
        plan.ser_instr = J._INSTR_PER_OBJECT
        plan.ser_aux = J._AUX_ACCESSES_PER_OBJECT_SER
        plan.ser_dep = 2
        plan.ser_elem_instr = (
            J._INSTR_PER_REFERENCE if plan.is_ref else J._INSTR_PER_PRIMITIVE
        )
        plan.desc_ser_instr = J._INSTR_PER_CLASSDESC
        plan.de_instr = J._INSTR_PER_OBJECT_DESER + J._INSTR_PER_ALLOC
        plan.de_aux = J._AUX_ACCESSES_PER_OBJECT_DESER
        plan.de_elem_instr = (
            J._INSTR_PER_FIELD_DESER if plan.is_ref else J._INSTR_PER_PRIMITIVE // 4
        )
        plan.desc_de_instr = J._INSTR_PER_CLASSDESC + len(klass.name) * 2
        return plan

    assert isinstance(klass, InstanceKlass)
    enc_ops, dec_ops, data_bytes, n_ref = _field_ops(klass, ())
    field_count = len(klass.fields)
    n_prim = field_count - n_ref
    plan = InstancePlan()
    plan.klass = klass
    plan.size_bytes = HEADER_BYTES + field_count * 8
    plan.field_count = field_count
    plan.enc_ops = enc_ops
    plan.enc_data_bytes = data_bytes
    plan.dec_ops = dec_ops
    plan.n_ref = n_ref
    plan.n_prim = n_prim
    plan.desc_blob = blob
    plan.desc_meta_bytes = meta_bytes
    plan.desc_type_bytes = type_bytes
    plan.desc_tail = tail
    plan.ser_instr = (
        J._INSTR_PER_OBJECT
        + n_prim * J._INSTR_PER_PRIMITIVE
        + n_ref * J._INSTR_PER_REFERENCE
    )
    plan.ser_aux = J._AUX_ACCESSES_PER_OBJECT_SER
    plan.ser_dep = 2 + n_ref
    plan.ser_reflect_instr = _java_reflection_instr(klass)
    plan.desc_ser_instr = J._INSTR_PER_CLASSDESC
    plan.de_instr = (
        J._INSTR_PER_OBJECT_DESER
        + J._INSTR_PER_ALLOC
        + field_count * J._INSTR_PER_FIELD_DESER
    )
    plan.de_aux = J._AUX_ACCESSES_PER_OBJECT_DESER
    plan.de_reflect_instr = _java_reflection_instr(klass)
    plan.desc_de_instr = J._INSTR_PER_CLASSDESC + len(klass.name) * 2
    return plan


def _compile_kryo(klass: Klass):
    from repro.formats import kryo as K

    if isinstance(klass, ArrayKlass):
        plan = ArrayPlan()
        plan.klass = klass
        plan.element_kind = klass.element_kind
        plan.element_width = klass.element_width
        plan.is_ref = klass.element_kind.is_reference
        plan.copy_elements = not plan.is_ref and klass.element_kind not in (
            FieldKind.INT,
            FieldKind.LONG,
        )
        plan.varint_code = (
            "i" if klass.element_kind is FieldKind.INT else
            "q" if klass.element_kind is FieldKind.LONG else ""
        )
        plan.desc_blob = b""
        plan.desc_meta_bytes = 0
        plan.desc_type_bytes = 0
        plan.desc_tail = b""
        plan.ser_instr = K._INSTR_PER_OBJECT
        plan.ser_aux = K._AUX_ACCESSES_PER_OBJECT_SER
        plan.ser_dep = 2
        plan.ser_elem_instr = (
            K._INSTR_PER_REFERENCE if plan.is_ref else K._INSTR_PER_PRIMITIVE
        )
        plan.desc_ser_instr = 0
        plan.de_instr = K._INSTR_PER_OBJECT_DESER + K._INSTR_PER_ALLOC
        plan.de_aux = K._AUX_ACCESSES_PER_OBJECT_DESER
        plan.de_elem_instr = K._INSTR_PER_FIELD_DESER
        plan.desc_de_instr = 0
        return plan

    assert isinstance(klass, InstanceKlass)
    enc_ops, dec_ops, data_bytes, n_ref = _field_ops(klass, (FieldKind.INT, FieldKind.LONG))
    field_count = len(klass.fields)
    n_prim = field_count - n_ref
    plan = InstancePlan()
    plan.klass = klass
    plan.size_bytes = HEADER_BYTES + field_count * 8
    plan.field_count = field_count
    plan.enc_ops = enc_ops
    plan.enc_data_bytes = data_bytes
    plan.dec_ops = dec_ops
    plan.n_ref = n_ref
    plan.n_prim = n_prim
    plan.desc_blob = b""
    plan.desc_meta_bytes = 0
    plan.desc_type_bytes = 0
    plan.desc_tail = b""
    plan.ser_instr = (
        K._INSTR_PER_OBJECT
        + n_prim * K._INSTR_PER_PRIMITIVE
        + n_ref * K._INSTR_PER_REFERENCE
    )
    plan.ser_aux = K._AUX_ACCESSES_PER_OBJECT_SER
    plan.ser_dep = 2 + n_ref
    # ReflectASM: one indexed access (4) + one field read/write (3) per field.
    plan.ser_reflect_instr = field_count * 7
    plan.desc_ser_instr = 0
    plan.de_instr = (
        K._INSTR_PER_OBJECT_DESER
        + K._INSTR_PER_ALLOC
        + field_count * K._INSTR_PER_FIELD_DESER
    )
    plan.de_aux = K._AUX_ACCESSES_PER_OBJECT_DESER
    plan.de_reflect_instr = field_count * 7
    plan.desc_de_instr = 0
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

    Field values accumulate into a slot-word list committed with one bulk
    ``write_words`` per object, preserving the interpreter's allocation
    order (and therefore identity hashes).
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

    def underflow(count: int) -> FormatError:
        return TruncatedStreamError(
            offset=pos, needed=count, available=n_data - pos
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
                    raise underflow(nbytes)
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
                    raise underflow(nbytes)
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
        words = [0] * plan.field_count
        if plan.n_ref == 0:
            run_dec_ops(plan.dec_ops, 0, words)
            if words:
                memory.write_words(obj.fields_base, words)
            return obj, None
        return obj, [0, obj, plan.dec_ops, 0, words]

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
                if words:
                    memory.write_words(obj.fields_base, words)
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
