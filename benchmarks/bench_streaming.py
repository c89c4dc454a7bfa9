"""Streaming chunked serialization: TTFB and arena-footprint gates.

Two legs, one contract each — at **equal goodput** (chunking re-times
when bytes leave, it never changes what the run costs), streaming must
deliver first bytes much earlier while holding a bounded arena window
instead of the whole payload:

* **Shuffle leg** — a large KV shuffle on the mini-Spark engine, run
  whole-stream and chunked (:class:`repro.spark.ChunkingConfig`). Gates:
  chunked-vs-single-shot byte identity (formats-level and end-to-end
  record equivalence), total ledger time within 0.1%, aggregate
  time-to-first-byte reduced >= 5x, and the largest chunk a delivery
  held (the ``transfer.chunk_high_water_mark_bytes`` gauge) >= 4x below
  the whole-stream encode buffer.
* **Service leg** — large responses streamed from the serialization
  server (:class:`repro.service.StreamingConfig`). Gates: identical
  completed-request count and goodput, dispatch-relative TTFB reduced
  >= 5x, response-buffer high-water mark >= 4x below whole-response
  buffering, and the SLO report's streaming section reconciling with
  the ``response.chunk`` spans in the exported trace to within 1 ns.

Both legs run under one enabled tracer; ``TRACE_streaming.json`` carries
``transfer.chunk`` spans (spark track) and ``request``/``response.chunk``
span trees (service tracks) and must validate as Chrome trace JSON.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_streaming.py --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_streaming.py
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":  # allow `python benchmarks/bench_streaming.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _emit import emit_json, emit_trace, trace_json_path  # noqa: E402
from repro.analysis import ReportTable  # noqa: E402
from repro.formats import (  # noqa: E402
    CerealSerializer,
    KryoSerializer,
    collect_chunks,
)
from repro.jvm.klass import FieldDescriptor, FieldKind, InstanceKlass  # noqa: E402
from repro.obs import (  # noqa: E402
    Tracer,
    exact_quantile,
    get_registry,
    set_tracer,
    validate_chrome_trace,
)
from repro.service import (  # noqa: E402
    PoissonWorkload,
    RequestMix,
    SerializationServer,
    ServiceCatalog,
    ServiceConfig,
    SizeClass,
    StreamingConfig,
)
from repro.spark import ChunkingConfig, MiniSparkContext, SoftwareBackend  # noqa: E402

_SEED = 0x57E4
_TTFB_GATE = 5.0
_ARENA_GATE = 4.0
_CHUNK_BYTES = 2048
_CHUNK_HWM = "transfer.chunk_high_water_mark_bytes"

_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


# -- shuffle leg -------------------------------------------------------------------------


def _kv_context(chunking: Optional[ChunkingConfig]) -> Tuple[MiniSparkContext, object]:
    context = MiniSparkContext(
        SoftwareBackend(KryoSerializer()), chunking=chunking
    )
    klass = context.registry.register(
        InstanceKlass(
            "KV",
            [
                FieldDescriptor("key", FieldKind.LONG),
                FieldDescriptor("value", FieldKind.LONG),
            ],
        )
    )
    context.registry.array_klass(FieldKind.REFERENCE)
    registration = context.backend.serializer.registration
    for k in context.registry:
        registration.register(k)
    return context, klass


def _shuffle_keys(context, klass, num_records: int) -> List[int]:
    records = []
    for index in range(num_records):
        record = context.executor_heap.allocate(klass)
        record.set("key", index)
        record.set("value", index * 7)
        records.append(record)
    dataset = context.parallelize(records, 2)
    shuffled = dataset.shuffle(key_fn=lambda r: r.get("key") % 2, num_partitions=2)
    return sorted(
        r.get("key") for partition in shuffled.partitions for r in partition
    )


def run_shuffle_leg(smoke: bool, tracer: Tracer) -> Dict:
    num_records = 8_000 if smoke else 24_000

    whole_context, klass = _kv_context(chunking=None)
    whole_keys = _shuffle_keys(whole_context, klass, num_records)
    whole_total_ns = whole_context.breakdown.total_ns

    chunk_hwm = get_registry().gauge(_CHUNK_HWM)
    chunk_hwm.reset()
    previous = set_tracer(tracer)
    try:
        chunked_context, klass = _kv_context(
            chunking=ChunkingConfig(chunk_bytes=_CHUNK_BYTES)
        )
        chunked_keys = _shuffle_keys(chunked_context, klass, num_records)
    finally:
        set_tracer(previous)
    chunked_total_ns = chunked_context.breakdown.total_ns
    stats = chunked_context.chunk_stats
    arena_hwm = int(chunk_hwm.value)

    first_sum = sum(s.first_byte_ns for s in stats)
    whole_first_sum = sum(s.whole_first_byte_ns for s in stats)
    whole_buffer = max(s.payload_bytes for s in stats)
    chunk_spans = [
        s for s in tracer.spans() if s.name == "transfer.chunk"
    ]
    return {
        "num_records": num_records,
        "chunk_bytes": _CHUNK_BYTES,
        "deliveries": len(stats),
        "chunks": sum(s.chunks for s in stats),
        "records_match": chunked_keys == whole_keys,
        "whole_total_ns": whole_total_ns,
        "chunked_total_ns": chunked_total_ns,
        "ttfb_speedup": whole_first_sum / first_sum if first_sum else 0.0,
        "max_bucket_bytes": whole_buffer,
        "arena_hwm_bytes": arena_hwm,
        "arena_reduction": whole_buffer / arena_hwm if arena_hwm else 0.0,
        "trace_chunk_spans": len(chunk_spans),
        "retries": sum(s.retries for s in stats),
    }


def byte_identity_check(catalog: ServiceCatalog) -> Dict:
    """Chunked concatenation must equal the single-shot encode, byte for
    byte, on the catalog's largest graph."""
    serializer = CerealSerializer(catalog.registration)
    entry = max(catalog.entries.values(), key=lambda e: e.stream_bytes)
    whole = serializer.serialize(entry.root)
    failures = []
    for chunk_bytes in (1024, _CHUNK_BYTES, len(whole.stream.data) + 1):
        # No transfer runs here, so the over-payload chunk size (one chunk
        # holding the whole stream) never reaches the chunk HWM gauge.
        chunks, summary = collect_chunks(serializer, entry.root, chunk_bytes)
        if b"".join(chunks) != whole.stream.data:
            failures.append(f"chunk_bytes={chunk_bytes} diverged")
        if summary.total_bytes != len(whole.stream.data):
            failures.append(f"chunk_bytes={chunk_bytes} summary mismatch")
    return {
        "entry": entry.name,
        "stream_bytes": whole.stream.size_bytes,
        "ok": not failures,
        "detail": "; ".join(failures)
        or f"identical at 3 chunk sizes over {whole.stream.size_bytes} bytes",
    }


# -- service leg -------------------------------------------------------------------------

_SERVICE_SIZES = (
    SizeClass("small", "tree", objects=48),
    SizeClass("huge", "graph", objects=1200, fanout=5),
)
_SERVICE_MIX = RequestMix(
    serialize_fraction=0.7, size_weights={"small": 0.25, "huge": 0.75}
)


def _run_service(
    catalog: ServiceCatalog,
    streaming: Optional[StreamingConfig],
    num_requests: int,
    tracer: Optional[Tracer] = None,
):
    workload = PoissonWorkload(
        1200.0, num_requests, seed=_SEED, mix=_SERVICE_MIX
    ).generate(catalog)
    server = SerializationServer(
        catalog,
        ServiceConfig(num_shards=2, functional_every=0, streaming=streaming),
        tracer=tracer,
    )
    report = server.run(workload)
    return server, report


def run_service_leg(smoke: bool, tracer: Tracer) -> Dict:
    num_requests = 300 if smoke else 1000
    catalog = ServiceCatalog(size_classes=_SERVICE_SIZES)

    _, baseline = _run_service(catalog, None, num_requests)
    streaming = StreamingConfig(
        chunk_bytes=4096, max_inflight_chunks=4, threshold_bytes=32 * 1024
    )
    previous = set_tracer(tracer)
    try:
        server, report = _run_service(
            catalog, streaming, num_requests, tracer=tracer
        )
    finally:
        set_tracer(previous)
    stats = server.streamer.stats()
    return {
        "num_requests": num_requests,
        "chunk_bytes": streaming.chunk_bytes,
        "max_inflight_chunks": streaming.max_inflight_chunks,
        "threshold_bytes": streaming.threshold_bytes,
        "baseline_goodput_qps": baseline.goodput_qps,
        "streamed_goodput_qps": report.goodput_qps,
        "baseline_completed": baseline.completed_requests,
        "streamed_completed": report.completed_requests,
        "streaming": stats,
        "slo": report.as_dict().get("streaming", {}),
        "ttfb_speedup": stats["service_ttfb_speedup"],
        "buffer_reduction": (
            stats["whole_buffer_hwm_bytes"] / stats["buffer_hwm_bytes"]
            if stats["buffer_hwm_bytes"]
            else 0.0
        ),
    }


# -- checks ------------------------------------------------------------------------------


def check_properties(results: Dict) -> Dict[str, Dict]:
    checks: Dict[str, Dict] = {}
    shuffle = results["shuffle"]
    service = results["service"]

    checks["shuffle_byte_identity"] = results["byte_identity"]
    hwm = get_registry().snapshot()[_CHUNK_HWM]
    checks["chunk_pool_hwm"] = {
        "ok": 0 < hwm <= shuffle["chunk_bytes"],
        "detail": f"{_CHUNK_HWM} {hwm} B, chunk {shuffle['chunk_bytes']} B",
    }

    checks["shuffle_records_equivalent"] = {
        "ok": shuffle["records_match"],
        "detail": (
            f"{shuffle['num_records']} records identical after chunked "
            f"shuffle across {shuffle['chunks']} chunks"
        ),
    }

    drift = abs(shuffle["chunked_total_ns"] - shuffle["whole_total_ns"]) / max(
        shuffle["whole_total_ns"], 1.0
    )
    checks["shuffle_equal_goodput"] = {
        "ok": drift < 1e-3 and shuffle["retries"] == 0,
        "detail": (
            f"ledger drift {drift:.2e} "
            f"({shuffle['chunked_total_ns']:,.0f} vs "
            f"{shuffle['whole_total_ns']:,.0f} ns), "
            f"{shuffle['retries']} retries"
        ),
    }

    checks["shuffle_ttfb_speedup"] = {
        "ok": shuffle["ttfb_speedup"] >= _TTFB_GATE,
        "detail": (
            f"aggregate TTFB {shuffle['ttfb_speedup']:.1f}x faster chunked "
            f"(gate {_TTFB_GATE:.0f}x) over {shuffle['deliveries']} deliveries"
        ),
    }

    checks["shuffle_arena_hwm"] = {
        "ok": shuffle["arena_reduction"] >= _ARENA_GATE,
        "detail": (
            f"arena HWM {shuffle['arena_hwm_bytes']:,} B vs whole-stream "
            f"buffer {shuffle['max_bucket_bytes']:,} B = "
            f"{shuffle['arena_reduction']:.1f}x smaller (gate {_ARENA_GATE:.0f}x)"
        ),
    }

    checks["shuffle_trace_chunks"] = {
        "ok": shuffle["trace_chunk_spans"] == shuffle["chunks"],
        "detail": (
            f"{shuffle['trace_chunk_spans']} transfer.chunk spans for "
            f"{shuffle['chunks']} chunks shipped"
        ),
    }

    checks["service_equal_goodput"] = {
        "ok": (
            service["streamed_completed"] == service["baseline_completed"]
            and abs(
                service["streamed_goodput_qps"] - service["baseline_goodput_qps"]
            )
            / max(service["baseline_goodput_qps"], 1.0)
            < 0.05
        ),
        "detail": (
            f"goodput {service['streamed_goodput_qps']:,.0f} streamed vs "
            f"{service['baseline_goodput_qps']:,.0f} whole QPS, "
            f"{service['streamed_completed']} completed both ways"
        ),
    }

    checks["service_ttfb_speedup"] = {
        "ok": service["ttfb_speedup"] >= _TTFB_GATE,
        "detail": (
            f"dispatch-relative TTFB {service['ttfb_speedup']:.1f}x faster "
            f"streamed (gate {_TTFB_GATE:.0f}x) over "
            f"{service['streaming']['streamed']} streamed responses"
        ),
    }

    checks["service_buffer_hwm"] = {
        "ok": service["buffer_reduction"] >= _ARENA_GATE,
        "detail": (
            f"response buffer HWM {service['streaming']['buffer_hwm_bytes']:,} B "
            f"vs whole {service['streaming']['whole_buffer_hwm_bytes']:,} B = "
            f"{service['buffer_reduction']:.1f}x smaller (gate {_ARENA_GATE:.0f}x)"
        ),
    }
    return checks


def trace_checks(results: Dict, tracer: Tracer, trace_path: str) -> Dict[str, Dict]:
    """Gate the exported trace: structure + streaming-SLO reconciliation."""
    import json

    checks: Dict[str, Dict] = {}
    with open(trace_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        counts = validate_chrome_trace(document)
        ok = counts["X"] > 0
        detail = f"event counts {counts}"
    except ValueError as error:
        ok, detail = False, str(error)
    checks["trace_exports_and_validates"] = {"ok": ok, "detail": detail}

    # Per streamed request, TTFB measured from the trace (first
    # response.chunk end minus request span start) must reproduce the SLO
    # report's streaming quantiles to within 1 ns.
    slo = results["service"]["slo"]
    spans = tracer.spans()
    requests = {
        s.attrs.get("request_id"): s for s in spans if s.name == "request"
    }
    first_byte: Dict[object, float] = {}
    chunk_spans = 0
    for span in spans:
        if span.name != "response.chunk":
            continue
        chunk_spans += 1
        rid = span.attrs.get("request_id")
        if rid not in first_byte or span.end_ns < first_byte[rid]:
            first_byte[rid] = span.end_ns
    ttfbs = sorted(
        done - requests[rid].start_ns for rid, done in first_byte.items()
    )
    expected_chunks = results["service"]["streaming"]["chunks"]
    expected_streamed = slo.get("streamed_requests", 0)
    if chunk_spans != expected_chunks or len(ttfbs) != expected_streamed:
        checks["service_slo_trace_reconciles"] = {
            "ok": False,
            "detail": (
                f"{chunk_spans} chunk spans for {expected_chunks} chunks, "
                f"{len(ttfbs)} streamed requests for {expected_streamed}"
            ),
        }
        return checks
    err50 = abs(exact_quantile(ttfbs, 50.0) - slo["ttfb_ns"]["p50"])
    err99 = abs(exact_quantile(ttfbs, 99.0) - slo["ttfb_ns"]["p99"])
    checks["service_slo_trace_reconciles"] = {
        "ok": err50 <= 1.0 and err99 <= 1.0,
        "detail": (
            f"span-derived TTFB p50/p99 off by {err50:.3g}/{err99:.3g} ns "
            f"over {len(ttfbs)} streamed requests"
        ),
    }
    return checks


# -- driver ------------------------------------------------------------------------------


def run_bench(smoke: bool = False) -> Tuple[Dict, ReportTable, Tracer]:
    tracer = Tracer(enabled=True, capacity=1 << 18)
    shuffle = run_shuffle_leg(smoke, tracer)

    catalog_for_identity = ServiceCatalog(size_classes=_SERVICE_SIZES)
    identity = byte_identity_check(catalog_for_identity)

    service = run_service_leg(smoke, tracer)
    results = {
        "shuffle": shuffle,
        "service": service,
        "byte_identity": identity,
    }

    table = ReportTable(
        "Streaming chunked serialization: TTFB and arena footprint",
        ["Leg", "Payload", "Chunks", "TTFB speedup", "Buffer: whole",
         "Buffer: chunked", "Reduction"],
    )
    table.add_row(
        "shuffle",
        f"{shuffle['max_bucket_bytes'] / 1024:.0f} KiB/bucket",
        str(shuffle["chunks"]),
        f"{shuffle['ttfb_speedup']:.1f}x",
        f"{shuffle['max_bucket_bytes'] / 1024:.0f} KiB",
        f"{shuffle['arena_hwm_bytes'] / 1024:.0f} KiB",
        f"{shuffle['arena_reduction']:.1f}x",
    )
    table.add_row(
        "service",
        f"{service['streaming']['whole_buffer_hwm_bytes'] / 1024:.0f} KiB/resp",
        str(service["streaming"]["chunks"]),
        f"{service['ttfb_speedup']:.1f}x",
        f"{service['streaming']['whole_buffer_hwm_bytes'] / 1024:.0f} KiB",
        f"{service['streaming']['buffer_hwm_bytes'] / 1024:.0f} KiB",
        f"{service['buffer_reduction']:.1f}x",
    )
    table.add_note(
        f"seed {_SEED:#x}; equal goodput both legs (chunking re-times "
        f"egress, never the work); gates: TTFB >= {_TTFB_GATE:.0f}x, "
        f"buffer >= {_ARENA_GATE:.0f}x"
    )
    return results, table, tracer


def _emit(
    results: Dict, table: ReportTable, tracer: Tracer, results_dir: str, smoke: bool
) -> Dict[str, Dict]:
    table.show()
    table.save(results_dir, "streaming")
    trace_path = emit_trace(
        results_dir, "streaming", tracer, metadata={"seed": _SEED}
    )
    checks = check_properties(results)
    checks.update(trace_checks(results, tracer, trace_path))
    emit_json(
        results_dir,
        "streaming",
        results,
        meta={"seed": _SEED, "smoke": smoke, "chunk_bytes": _CHUNK_BYTES},
        checks=checks,
    )
    return checks


# -- pytest entry point ------------------------------------------------------------------


def test_streaming(benchmark, results_dir):
    def build():
        results, table, tracer = run_bench(smoke=False)
        return results, _emit(results, table, tracer, results_dir, smoke=False)

    _, checks = benchmark.pedantic(build, rounds=1, iterations=1)
    for name, outcome in checks.items():
        assert outcome["ok"], f"{name}: {outcome['detail']}"


# -- CLI entry point (CI smoke job) ------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small payloads for CI (< 60 s)",
    )
    parser.add_argument("--results-dir", default=_RESULTS_DIR)
    args = parser.parse_args(argv)
    results, table, tracer = run_bench(smoke=args.smoke)
    checks = _emit(results, table, tracer, args.results_dir, smoke=args.smoke)
    failed = {name: c for name, c in checks.items() if not c["ok"]}
    for name, outcome in checks.items():
        status = "ok" if outcome["ok"] else "FAIL"
        print(f"check {name}: {status} — {outcome['detail']}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print(f"BENCH_streaming.json written under {args.results_dir}")
    print(
        f"TRACE_streaming.json written to "
        f"{trace_json_path(args.results_dir, 'streaming')}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
