"""Machine-readable benchmark output shared by every ``bench_*.py``.

The human-readable ``ReportTable`` text under ``benchmarks/results/``
records what a run looked like; the ``BENCH_<name>.json`` files written
here record the numbers themselves, so the performance trajectory across
commits can be diffed and plotted mechanically. One schema for all
benches:

    {
      "schema_version": 1,
      "bench": "<name>",
      "meta": {...seed, grid, calibration...},
      "results": {...bench-specific payload...},
      "runtime": {...flat process-wide metrics registry snapshot...},
      "checks": {"<check>": {"ok": bool, "detail": "..."}, ...}   # optional
    }

``runtime`` is :meth:`repro.obs.metrics.MetricsRegistry.snapshot` of the
process-wide registry at emit time: one flat dict keyed by metric name
(``plan_cache.hits``, ``layout_cache.misses``,
``transfer.chunk_high_water_mark_bytes``, ``decode.rejected{reason=...}``,
``memstore.*``, ...), so cache health, decode rejections and every other
counter the run recorded can be diffed across commits alongside
throughput.

Keys are sorted and no wall-clock timestamps are embedded, so a seeded
bench emits byte-identical ``results`` run-to-run (the ``runtime``
counters are excluded from that guarantee — they reflect whatever ran
in the process first).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

SCHEMA_VERSION = 1


def trace_json_path(results_dir: str, name: str) -> str:
    return os.path.join(results_dir, f"TRACE_{name}.json")


def emit_trace(results_dir: str, name: str, tracer, metadata=None) -> str:
    """Validate and write ``TRACE_<name>.json`` (Chrome trace-event JSON).

    The file loads directly in ``chrome://tracing`` / Perfetto; returns
    the path. Raises :class:`ValueError` if the tracer's contents render
    to a malformed document, so benches fail loudly rather than shipping
    an unloadable trace.
    """
    from repro.obs.export import write_chrome_trace

    os.makedirs(results_dir, exist_ok=True)
    meta = {"bench": name}
    if metadata:
        meta.update(metadata)
    return write_chrome_trace(
        tracer, trace_json_path(results_dir, name), metadata=meta
    )


def bench_json_path(results_dir: str, name: str) -> str:
    return os.path.join(results_dir, f"BENCH_{name}.json")


def emit_json(
    results_dir: str,
    name: str,
    results: Dict,
    meta: Optional[Dict] = None,
    checks: Optional[Dict] = None,
) -> str:
    """Write ``BENCH_<name>.json``; returns the path."""
    from repro.obs.metrics import get_registry

    if not results:
        raise ValueError(f"refusing to emit empty results for bench {name!r}")
    document: Dict = {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "meta": meta or {},
        "results": results,
        "runtime": get_registry().snapshot(),
    }
    if checks is not None:
        document["checks"] = checks
    os.makedirs(results_dir, exist_ok=True)
    path = bench_json_path(results_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_json(results_dir: str, name: str) -> Dict:
    """Read a previously emitted ``BENCH_<name>.json``."""
    with open(bench_json_path(results_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)
