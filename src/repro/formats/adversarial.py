"""Seeded adversarial-stream corpus for the hardened decode path.

The corpus mixes two kinds of hostility:

* **mutations** of valid streams — truncations (always rejectable),
  random bit-flips and pure garbage (must never *crash* or corrupt the
  heap, but a flip can land in a don't-care byte and still decode);
* **crafted attacks** that exploit format semantics — out-of-range class
  IDs, oversized varints, pathological array lengths, forward back-
  references, nesting/cycle bombs, and header fields that lie about the
  image size.

Everything is derived from one integer seed via :class:`random.Random`,
so a corpus is a reproducible regression artifact: the golden seeds
checked into ``tests/test_adversarial_decode.py`` replay byte-for-byte.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, List

from repro.formats.base import SerializedStream, Serializer
from repro.formats.cereal_format import CerealSerializer
from repro.formats.javaser import (
    JavaSerializer,
    MAGIC,
    SC_SERIALIZABLE,
    TC_ARRAY,
    TC_CLASSDESC,
    TC_OBJECT,
    VERSION,
    serial_version_uid,
)
from repro.formats.kryo import (
    KryoSerializer,
    MARK_ARRAY,
    MARK_BACKREF,
    MARK_OBJECT,
)
from repro.formats.registry import ClassRegistration
from repro.formats.secure import VersionedKryo
from repro.formats.skyway import SkywaySerializer
from repro.formats.streams import StreamWriter
from repro.jvm.heap import Heap
from repro.jvm.klass import FieldKind, KlassRegistry
from repro.workloads.micro import build_microbench, register_micro_klasses

DEFAULT_SEED = 0xC0FFEE

FORMAT_NAMES = ("java-builtin", "kryo", "skyway", "cereal", "kryo-versioned")


@dataclass
class AdversarialSample:
    """One malicious (or possibly-malicious) stream to feed a decoder."""

    name: str  # unique, e.g. "kryo/truncate/3"
    format_name: str
    kind: str  # truncate | bitflip | garbage | <crafted attack name>
    data: bytes
    # True: the stream is provably invalid and MUST raise a typed error.
    # False (bit-flips, garbage): decode may succeed by luck, but must
    # never crash untyped and must leave the heap untouched on failure.
    must_reject: bool


@dataclass
class AdversarialCorpus:
    """The generated samples plus everything needed to decode them."""

    seed: int
    samples: List[AdversarialSample]
    registry: KlassRegistry  # klass registry for reader heaps
    registration: ClassRegistration  # shared by kryo/skyway/cereal

    def serializer_for(self, format_name: str) -> Serializer:
        return make_serializer(format_name, self.registration)

    def fresh_heap(self) -> Heap:
        return Heap(registry=self.registry)

    def by_format(self) -> Dict[str, List[AdversarialSample]]:
        out: Dict[str, List[AdversarialSample]] = {}
        for sample in self.samples:
            out.setdefault(sample.format_name, []).append(sample)
        return out


def make_serializer(
    format_name: str, registration: ClassRegistration
) -> Serializer:
    if format_name == "java-builtin":
        return JavaSerializer()
    if format_name == "kryo":
        return KryoSerializer(registration=registration)
    if format_name == "skyway":
        return SkywaySerializer(registration=registration)
    if format_name == "cereal":
        return CerealSerializer(registration=registration)
    if format_name == "kryo-versioned":
        return VersionedKryo(registration=registration)
    raise ValueError(f"unknown format {format_name!r}")


def as_stream(format_name: str, data: bytes) -> SerializedStream:
    """Wrap raw attack bytes for a decoder (sections intentionally empty)."""
    return SerializedStream(format_name=format_name, data=data, sections={})


def _mutations(
    rng: random.Random,
    format_name: str,
    data: bytes,
    truncations: int,
    bitflips: int,
    garbage: int,
) -> List[AdversarialSample]:
    samples: List[AdversarialSample] = []
    for index in range(truncations):
        cut = rng.randrange(1, len(data))
        samples.append(
            AdversarialSample(
                name=f"{format_name}/truncate/{index}",
                format_name=format_name,
                kind="truncate",
                data=data[:cut],
                must_reject=True,
            )
        )
    for index in range(bitflips):
        position = rng.randrange(len(data))
        bit = 1 << rng.randrange(8)
        flipped = bytearray(data)
        flipped[position] ^= bit
        samples.append(
            AdversarialSample(
                name=f"{format_name}/bitflip/{index}",
                format_name=format_name,
                kind="bitflip",
                data=bytes(flipped),
                must_reject=False,
            )
        )
    for index in range(garbage):
        length = rng.randrange(1, 256)
        samples.append(
            AdversarialSample(
                name=f"{format_name}/garbage/{index}",
                format_name=format_name,
                kind="garbage",
                data=rng.randbytes(length)
                if hasattr(rng, "randbytes")
                else bytes(rng.randrange(256) for _ in range(length)),
                must_reject=False,
            )
        )
    return samples


def _varint(value: int) -> bytes:
    writer = StreamWriter()
    writer.write_varint(value, "v")
    return writer.getvalue()


def _kryo_primitive_bytes(kind: FieldKind) -> int:
    """Bytes a zero value of ``kind`` occupies in the Kryo wire format."""
    if kind in (FieldKind.BOOLEAN, FieldKind.BYTE):
        return 1
    if kind in (FieldKind.CHAR, FieldKind.SHORT):
        return 2
    if kind in (FieldKind.INT, FieldKind.LONG):
        return 1  # zig-zag varint: zero is one byte
    if kind is FieldKind.FLOAT:
        return 4
    if kind is FieldKind.DOUBLE:
        return 8
    raise ValueError(f"not a primitive kind: {kind}")


def _kryo_attacks(registration: ClassRegistration) -> List[AdversarialSample]:
    long_array_id = None
    instance_id = None
    ref_field_id = None
    for class_id, klass in enumerate(registration):
        if klass.is_array and klass.element_kind is FieldKind.LONG:
            long_array_id = class_id
        if not klass.is_array:
            if instance_id is None:
                instance_id = class_id
            if ref_field_id is None and any(
                d.kind.is_reference for d in klass.fields
            ):
                ref_field_id = class_id

    samples = [
        AdversarialSample(
            name="kryo/class_id_oob/0",
            format_name="kryo",
            kind="class_id_oob",
            data=bytes([MARK_OBJECT]) + _varint(10**6),
            must_reject=True,
        ),
        AdversarialSample(
            name="kryo/oversized_varint/0",
            format_name="kryo",
            kind="oversized_varint",
            data=bytes([MARK_OBJECT]) + b"\xff" * 11,
            must_reject=True,
        ),
        AdversarialSample(
            # A 10th varint byte above 0x01 decodes past 2^64.
            name="kryo/oversized_varint/1",
            format_name="kryo",
            kind="oversized_varint",
            data=bytes([MARK_OBJECT]) + b"\x80" * 9 + b"\x7f",
            must_reject=True,
        ),
    ]
    if long_array_id is not None:
        samples.append(
            AdversarialSample(
                # 2^40 longs from a 10-byte stream.
                name="kryo/array_bomb/0",
                format_name="kryo",
                kind="array_bomb",
                data=bytes([MARK_ARRAY])
                + _varint(long_array_id)
                + _varint(1 << 40),
                must_reject=True,
            )
        )
    if instance_id is not None:
        samples.append(
            AdversarialSample(
                name="kryo/forward_backref/0",
                format_name="kryo",
                kind="forward_backref",
                data=bytes([MARK_BACKREF]) + _varint(7),
                must_reject=True,
            )
        )
    if ref_field_id is not None:
        # Nesting bomb: a chain of objects each opening the next object in
        # its first reference field, deeper than any sane decode stack.
        # The repeating unit is MARK_OBJECT + class ID + zero bytes for
        # every primitive field before that reference, so the child marker
        # lands exactly where the decoder expects a reference.
        klass = registration.klass_of(ref_field_id)
        unit = bytearray([MARK_OBJECT])
        unit += _varint(ref_field_id)
        for descriptor in klass.fields:
            if descriptor.kind.is_reference:
                break
            unit += b"\x00" * _kryo_primitive_bytes(descriptor.kind)
        depth = 6000
        samples.append(
            AdversarialSample(
                name="kryo/cycle_bomb/0",
                format_name="kryo",
                kind="cycle_bomb",
                data=bytes(unit) * depth,
                must_reject=True,
            )
        )
    return samples


def _javaser_attacks() -> List[AdversarialSample]:
    prelude = struct.pack("<HH", MAGIC, VERSION)

    def utf(text: str) -> bytes:
        encoded = text.encode("utf-8")
        return struct.pack("<H", len(encoded)) + encoded

    unknown = (
        prelude
        + bytes([TC_OBJECT, TC_CLASSDESC])
        + utf("NoSuchClass")
        + b"\x00" * 9  # uid + flags, read before the name lookup fails
    )

    # A real long[] class descriptor followed by an absurd length claim.
    from repro.jvm.klass import ArrayKlass

    long_array = ArrayKlass(FieldKind.LONG)
    uid = serial_version_uid(long_array)
    array_bomb = (
        prelude
        + bytes([TC_ARRAY, TC_CLASSDESC])
        + utf(long_array.name)
        + struct.pack("<Q", uid)
        + bytes([SC_SERIALIZABLE])
        + struct.pack("<H", 0)
        + bytes([ord("J")])
        + struct.pack("<I", 0xFFFF_FFF0)
    )
    return [
        AdversarialSample(
            name="java-builtin/unknown_class/0",
            format_name="java-builtin",
            kind="unknown_class",
            data=unknown,
            must_reject=True,
        ),
        AdversarialSample(
            name="java-builtin/array_bomb/0",
            format_name="java-builtin",
            kind="array_bomb",
            data=array_bomb,
            must_reject=True,
        ),
        AdversarialSample(
            name="java-builtin/bad_magic/0",
            format_name="java-builtin",
            kind="bad_magic",
            data=b"\x00\x00\x00\x00" + b"\x70",
            must_reject=True,
        ),
    ]


def _header_lie_attacks(
    format_name: str, data: bytes
) -> List[AdversarialSample]:
    """Patch the u32 size/count header words of a Skyway or Cereal stream."""
    size_lie = bytearray(data)
    size_lie[0:4] = struct.pack("<I", 0x7FFF_FFF8)
    count_lie = bytearray(data)
    count_lie[4:8] = struct.pack("<I", 0x7FFF_FFF0)
    return [
        AdversarialSample(
            name=f"{format_name}/header_size_lie/0",
            format_name=format_name,
            kind="header_size_lie",
            data=bytes(size_lie),
            must_reject=True,
        ),
        AdversarialSample(
            name=f"{format_name}/header_count_lie/0",
            format_name=format_name,
            kind="header_count_lie",
            data=bytes(count_lie),
            must_reject=True,
        ),
    ]


def build_corpus(
    seed: int = DEFAULT_SEED,
    truncations: int = 8,
    bitflips: int = 8,
    garbage: int = 4,
) -> AdversarialCorpus:
    """Generate the full seeded corpus across every format.

    One valid baseline stream per format is produced from the tree-narrow
    microbenchmark, then mutated; the crafted attacks are appended.
    Identical ``(seed, counts)`` always yields identical bytes.
    """
    rng = random.Random(seed)
    registry = KlassRegistry()
    register_micro_klasses(registry)
    # A primitive array klass so the crafted array-bomb attacks have a
    # registered class ID to point their absurd length claims at.
    registry.array_klass(FieldKind.LONG)
    heap = Heap(registry=registry)
    root = build_microbench(heap, "tree-narrow")
    registration = ClassRegistration()
    for klass in registry:
        registration.register(klass)

    samples: List[AdversarialSample] = []
    for format_name in FORMAT_NAMES:
        serializer = make_serializer(format_name, registration)
        baseline = serializer.serialize(root).stream.data
        samples.extend(
            _mutations(rng, format_name, baseline, truncations, bitflips, garbage)
        )
        if format_name in ("skyway", "cereal"):
            samples.extend(_header_lie_attacks(format_name, baseline))
    samples.extend(_kryo_attacks(registration))
    samples.extend(_javaser_attacks())
    return AdversarialCorpus(
        seed=seed,
        samples=samples,
        registry=registry,
        registration=registration,
    )
