"""Adversarial-decode robustness bench with hard rejection gates.

Feeds the seeded malicious corpus from :mod:`repro.formats.adversarial`
through :func:`repro.formats.secure.secure_deserialize` and gates on the
hardening contract rather than on speed:

1. **Typed rejection** — every sample either decodes cleanly or raises a
   typed :class:`~repro.common.errors.FormatError` subtype. Any other
   exception escaping the decoder is an untyped crash and fails the run.
2. **No partial heap mutation** — after every rejected decode the
   destination heap's allocation pointer and object table must be exactly
   what they were before the attempt.
3. **Must-reject coverage** — samples flagged ``must_reject`` (truncations
   and the crafted attacks) are provably invalid; accepting one fails.
4. **Trusted-path overhead** — hardened decode of a *valid* stream, and
   the versioned identity fast path, are timed against the raw decoder;
   the overhead ratio is recorded and gated loosely (hardening must stay
   cheap, not free).

Results land in ``benchmarks/results/BENCH_adversarial.json`` with a
rejection breakdown by format and by reason.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_adversarial.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict

if __name__ == "__main__":  # allow `python benchmarks/bench_adversarial.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _emit import emit_json  # noqa: E402
from repro.common.errors import FormatError  # noqa: E402
from repro.formats.adversarial import (  # noqa: E402
    DEFAULT_SEED,
    as_stream,
    build_corpus,
)
from repro.formats.secure import (  # noqa: E402
    VersionedKryo,
    classify_rejection,
    decode_stats,
    secure_deserialize,
)
from repro.formats.kryo import KryoSerializer  # noqa: E402

_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
# Hardened decode of a trusted stream must cost < 5% over the raw decoder;
# the bench gate is looser than the acceptance target to absorb timer noise
# on loaded CI hosts.
_OVERHEAD_GATE = 1.25


def run_corpus(seed: int, truncations: int, bitflips: int, garbage: int) -> Dict:
    corpus = build_corpus(
        seed=seed, truncations=truncations, bitflips=bitflips, garbage=garbage
    )
    by_format: Dict[str, Dict[str, int]] = {}
    by_reason: Dict[str, int] = {}
    untyped_crashes = []
    heap_mutations = []
    must_reject_escapes = []
    accepted = rejected = 0

    serializers = {
        name: corpus.serializer_for(name) for name in corpus.by_format()
    }
    for sample in corpus.samples:
        heap = corpus.fresh_heap()
        serializer = serializers[sample.format_name]
        before = heap.checkpoint()
        fmt = by_format.setdefault(
            sample.format_name, {"accepted": 0, "rejected": 0}
        )
        try:
            secure_deserialize(
                serializer, as_stream(sample.format_name, sample.data), heap
            )
        except FormatError as error:
            rejected += 1
            fmt["rejected"] += 1
            reason = classify_rejection(error)
            by_reason[reason] = by_reason.get(reason, 0) + 1
            after = heap.checkpoint()
            if (after.alloc_ptr, after.alloc_count) != (
                before.alloc_ptr,
                before.alloc_count,
            ):
                heap_mutations.append(sample.name)
        except Exception as error:  # noqa: BLE001 - the gate itself
            untyped_crashes.append(f"{sample.name}: {type(error).__name__}")
        else:
            accepted += 1
            fmt["accepted"] += 1
            if sample.must_reject:
                must_reject_escapes.append(sample.name)

    return {
        "samples": len(corpus.samples),
        "accepted": accepted,
        "rejected": rejected,
        "rejected_by_reason": dict(sorted(by_reason.items())),
        "by_format": {k: by_format[k] for k in sorted(by_format)},
        "untyped_crashes": untyped_crashes,
        "heap_mutations_after_rejection": heap_mutations,
        "must_reject_escapes": must_reject_escapes,
    }


def measure_overhead(repeats: int) -> Dict:
    """Time valid-stream decode: raw vs hardened vs versioned identity."""
    corpus = build_corpus(truncations=0, bitflips=0, garbage=0)
    plain = KryoSerializer(registration=corpus.registration)
    versioned = VersionedKryo(registration=corpus.registration)

    source = corpus.fresh_heap()
    from repro.workloads.micro import build_microbench

    root = build_microbench(source, "tree-narrow")
    plain_stream = plain.serialize(root).stream
    versioned_stream = versioned.serialize(root).stream

    def timed(serializer, stream, secure: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            heap = corpus.fresh_heap()
            start = time.perf_counter()
            if secure:
                secure_deserialize(serializer, stream, heap)
            else:
                serializer.deserialize(stream, heap)
            best = min(best, time.perf_counter() - start)
        return best

    raw = timed(plain, plain_stream, secure=False)
    hardened = timed(plain, plain_stream, secure=True)
    identity = timed(versioned, versioned_stream, secure=True)
    return {
        "raw_decode_s": raw,
        "hardened_decode_s": hardened,
        "versioned_identity_decode_s": identity,
        "hardened_overhead_ratio": hardened / raw if raw else float("inf"),
        "versioned_overhead_ratio": identity / raw if raw else float("inf"),
        "stream_bytes": len(plain_stream.data),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="small fast run")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    if args.smoke:
        truncations, bitflips, garbage, repeats = 4, 4, 2, 3
    else:
        truncations, bitflips, garbage, repeats = 16, 16, 8, 7

    corpus_results = run_corpus(args.seed, truncations, bitflips, garbage)
    overhead = measure_overhead(repeats)
    stats = decode_stats()
    breakdown = corpus_results["rejected_by_reason"]

    checks = {
        "typed_rejection": {
            "ok": not corpus_results["untyped_crashes"],
            "detail": f"{len(corpus_results['untyped_crashes'])} untyped crashes",
        },
        "no_partial_heap_mutation": {
            "ok": not corpus_results["heap_mutations_after_rejection"],
            "detail": (
                f"{len(corpus_results['heap_mutations_after_rejection'])} "
                "heaps mutated after a rejected decode"
            ),
        },
        "must_reject_rejected": {
            "ok": not corpus_results["must_reject_escapes"],
            "detail": (
                f"{len(corpus_results['must_reject_escapes'])} provably "
                "invalid streams accepted"
            ),
        },
        # An empty or all-accepted corpus means the fuzzer silently stopped
        # generating attacks.
        "rejection_breakdown": {
            "ok": corpus_results["rejected"] > 0
            and {"truncated", "resource_limit"} <= set(breakdown)
            and stats["rejected"] == corpus_results["rejected"],
            "detail": f"rejected by reason {breakdown}, decode stats {stats}",
        },
        "hardening_overhead": {
            "ok": overhead["hardened_overhead_ratio"] <= _OVERHEAD_GATE,
            "detail": (
                f"hardened/raw = {overhead['hardened_overhead_ratio']:.3f} "
                f"(gate {_OVERHEAD_GATE:.2f})"
            ),
        },
    }

    path = emit_json(
        _RESULTS_DIR,
        "adversarial",
        results={"corpus": corpus_results, "overhead": overhead,
                 "decode_stats": stats},
        meta={
            "seed": args.seed,
            "smoke": args.smoke,
            "truncations": truncations,
            "bitflips": bitflips,
            "garbage": garbage,
            "repeats": repeats,
        },
        checks=checks,
    )

    print(f"adversarial corpus: {corpus_results['samples']} samples, "
          f"{corpus_results['rejected']} rejected, "
          f"{corpus_results['accepted']} accepted")
    print(f"rejection breakdown: {breakdown}")
    print(f"hardened overhead: {overhead['hardened_overhead_ratio']:.3f}x, "
          f"versioned identity: {overhead['versioned_overhead_ratio']:.3f}x")
    print(f"wrote {path}")

    failed = [name for name, check in checks.items() if not check["ok"]]
    for name in failed:
        print(f"FAIL {name}: {checks[name]['detail']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
