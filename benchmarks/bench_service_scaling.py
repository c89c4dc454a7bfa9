"""Service scaling sweep: QPS x shard count x batch deadline.

Drives the event-loop serialization service (:mod:`repro.service`) with a
seeded open-loop Poisson workload and sweeps offered load (as fractions of
one shard's serialize-pool capacity), shard count, and the batch
coalescing deadline. Emits the human table plus machine-readable
``BENCH_service.json`` and self-checks three properties of the curves:

(a) with batching disabled, p99 rises monotonically with offered QPS at
    every fixed shard count — and the single-shard series climbs steeply
    once offered load crosses capacity;
(b) at the highest offered QPS, adding shards reduces p99;
(c) at the highest offered QPS on one shard (the saturated regime), a
    batching deadline > 0 beats deadline 0 on goodput: coalescing
    amortizes per-dispatch overhead exactly where it matters.

A small chaos run (accelerator capacity faults + bounded queue) rides
along so shed/degrade counts also land in the JSON trajectory. The chaos
run executes under an enabled tracer and exports ``TRACE_service.json``
(Chrome trace-event format — open it in ``chrome://tracing`` or
https://ui.perfetto.dev): request/queue/execute span trees, batch spans
per shard, and fault instants. Two extra checks gate the export: the file
must validate structurally, and p50/p99 recomputed from the exported
request spans must match the SLO report to within 1 ns.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_service_scaling.py --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_scaling.py
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":  # allow `python benchmarks/bench_service_scaling.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _emit import emit_json, emit_trace, trace_json_path  # noqa: E402
from _golden import verify  # noqa: E402
from repro.analysis import ReportTable  # noqa: E402
from repro.faults import FaultInjector, FaultPolicy  # noqa: E402
from repro.obs import (  # noqa: E402
    Tracer,
    exact_quantile,
    set_tracer,
    validate_chrome_trace,
)
from repro.service import (  # noqa: E402
    AdmissionConfig,
    PoissonWorkload,
    RequestMix,
    SerializationServer,
    ServiceCatalog,
    ServiceConfig,
)

_SEED = 0x5E12
_BATCH_WAIT_NS = 20_000.0
_MONOTONE_TOL = 0.01  # 1% slack for flat low-load plateaus

_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _grid(smoke: bool) -> Tuple[Tuple[float, ...], Tuple[int, ...], Tuple[float, ...], int]:
    if smoke:
        return (0.5, 1.0, 1.5), (1, 2), (0.0, _BATCH_WAIT_NS), 1500
    return (0.5, 0.8, 1.1, 1.5), (1, 2, 4), (0.0, _BATCH_WAIT_NS), 6000


def _single_shard_capacity_qps(catalog: ServiceCatalog, mix: RequestMix) -> float:
    """Offered QPS that saturates one shard's serialize pool (the
    bottleneck pool under a 50/50 kind mix)."""
    mean_ns = catalog.mean_service_ns("serialize", mix.size_weights)
    units = catalog.accelerator.config.num_serializer_units
    return units * 1e9 / mean_ns / max(mix.serialize_fraction, 1e-9)


def run_sweep(smoke: bool = False) -> Tuple[Dict, ReportTable]:
    fractions, shard_counts, deadlines, num_requests = _grid(smoke)
    catalog = ServiceCatalog()
    mix = RequestMix()
    capacity = _single_shard_capacity_qps(catalog, mix)
    admission = AdmissionConfig(max_outstanding=200_000, enable_degrade=False)

    table = ReportTable(
        "Service scaling: offered QPS x shards x batch deadline",
        ["Load", "QPS", "Shards", "Wait (us)", "p50 (us)", "p99 (us)",
         "p999 (us)", "Goodput", "Batch"],
    )
    rows: List[Dict] = []
    for fraction in fractions:
        qps = capacity * fraction
        workload = PoissonWorkload(
            qps=qps, num_requests=num_requests, seed=_SEED, mix=mix
        )
        for shards in shard_counts:
            for deadline_ns in deadlines:
                config = ServiceConfig(
                    num_shards=shards,
                    batch_wait_ns=deadline_ns,
                    admission=admission,
                    functional_every=64,
                )
                server = SerializationServer(catalog, config)
                report = server.run(workload.generate(catalog))
                row = {
                    "load_fraction": fraction,
                    "offered_qps": report.offered_qps,
                    "target_qps": qps,
                    "shards": shards,
                    "deadline_ns": deadline_ns,
                    "p50_ns": report.p50(),
                    "p95_ns": report.p95(),
                    "p99_ns": report.p99(),
                    "p999_ns": report.p999(),
                    "mean_ns": report.mean_latency_ns(),
                    "goodput_qps": report.goodput_qps,
                    "shed": report.shed_requests,
                    "degraded": report.degraded_requests,
                    "mean_batch_size": report.mean_batch_size,
                    "verified": report.verified_requests,
                }
                rows.append(row)
                table.add_row(
                    f"{fraction:.1f}x",
                    f"{qps / 1e3:,.0f}k",
                    str(shards),
                    f"{deadline_ns / 1e3:.0f}",
                    f"{row['p50_ns'] / 1e3:.1f}",
                    f"{row['p99_ns'] / 1e3:.1f}",
                    f"{row['p999_ns'] / 1e3:.1f}",
                    f"{row['goodput_qps'] / 1e3:,.0f}k",
                    f"{row['mean_batch_size']:.2f}",
                )
    table.add_note(
        f"{num_requests} requests/run, seed {_SEED:#x}, load relative to "
        f"one-shard serialize-pool capacity ({capacity / 1e3:,.0f}k QPS)"
    )
    table.add_note(
        "deadline 0 = unbatched; deadline > 0 coalesces up to 8 requests "
        "per dispatch"
    )

    chaos, tracer = _chaos_run(catalog, mix, capacity, smoke)
    payload = {
        "meta": {
            "seed": _SEED,
            "smoke": smoke,
            "num_requests": num_requests,
            "capacity_qps": capacity,
            "load_fractions": list(fractions),
            "shard_counts": list(shard_counts),
            "deadlines_ns": list(deadlines),
            "batch_wait_ns": _BATCH_WAIT_NS,
        },
        "results": {"sweep": rows, "chaos": chaos},
    }
    return payload, table, tracer


def _chaos_run(
    catalog: ServiceCatalog, mix: RequestMix, capacity: float, smoke: bool
) -> Tuple[Dict, Tracer]:
    """Overload + accelerator capacity faults: shed/degrade trajectory.

    Runs with tracing enabled on a private tracer (installed process-wide
    for the duration so fault instants land in it too); the caller exports
    it as ``TRACE_service.json``.
    """
    injector = FaultInjector(
        FaultPolicy(seed=_SEED, accelerator_fault_prob=0.05)
    )
    config = ServiceConfig(
        num_shards=1,
        functional_every=8,
        admission=AdmissionConfig(max_outstanding=256, degrade_threshold=0.75),
    )
    workload = PoissonWorkload(
        qps=capacity * 1.3,
        num_requests=400 if smoke else 1500,
        seed=_SEED + 1,
        mix=mix,
    )
    tracer = Tracer(enabled=True, capacity=1 << 18)
    previous = set_tracer(tracer)
    try:
        report = SerializationServer(
            catalog, config, injector=injector, tracer=tracer
        ).run(workload.generate(catalog))
    finally:
        set_tracer(previous)
    return report.as_dict(), tracer


# -- trajectory checks --------------------------------------------------------------


def _series(rows: List[Dict], shards: int, deadline_ns: float) -> List[Dict]:
    picked = [
        r for r in rows if r["shards"] == shards and r["deadline_ns"] == deadline_ns
    ]
    return sorted(picked, key=lambda r: r["load_fraction"])


def _nondecreasing(values: List[float], tol: float) -> bool:
    return all(b >= a * (1.0 - tol) for a, b in zip(values, values[1:]))


def check_properties(payload: Dict) -> Dict[str, Dict]:
    rows = payload["results"]["sweep"]
    meta = payload["meta"]
    shard_counts = meta["shard_counts"]
    deadlines = meta["deadlines_ns"]
    top_load = max(meta["load_fractions"])
    checks: Dict[str, Dict] = {}

    # (a) p99 vs offered load: monotone for every unbatched series, and the
    # saturating single-shard series must actually climb.
    failures = []
    for shards in shard_counts:
        p99s = [r["p99_ns"] for r in _series(rows, shards, 0.0)]
        if not _nondecreasing(p99s, _MONOTONE_TOL):
            failures.append(f"shards={shards} deadline=0 p99 series {p99s}")
    for deadline_ns in deadlines:
        p99s = [r["p99_ns"] for r in _series(rows, min(shard_counts), deadline_ns)]
        if not _nondecreasing(p99s, _MONOTONE_TOL) or p99s[-1] < 1.5 * p99s[0]:
            failures.append(
                f"1-shard deadline={deadline_ns:g} series not saturating: {p99s}"
            )
    checks["p99_monotone_vs_load"] = {
        "ok": not failures,
        "detail": "; ".join(failures) or "p99 non-decreasing in offered QPS",
    }

    # (b) adding shards at the highest offered QPS reduces p99.
    failures = []
    for deadline_ns in deadlines:
        top_rows = [
            r
            for r in rows
            if r["load_fraction"] == top_load and r["deadline_ns"] == deadline_ns
        ]
        top_rows.sort(key=lambda r: r["shards"])
        p99s = [r["p99_ns"] for r in top_rows]
        reversed_ok = all(b <= a * (1.0 + 0.05) for a, b in zip(p99s, p99s[1:]))
        if not reversed_ok or p99s[0] < 1.5 * p99s[-1]:
            failures.append(f"deadline={deadline_ns:g} p99 by shards {p99s}")
    checks["p99_falls_with_shards"] = {
        "ok": not failures,
        "detail": "; ".join(failures) or "p99 non-increasing in shard count",
    }

    # (c) batching wins goodput in the saturated single-shard regime.
    unbatched = _series(rows, min(shard_counts), 0.0)[-1]
    batched = _series(rows, min(shard_counts), max(deadlines))[-1]
    ok = batched["goodput_qps"] > unbatched["goodput_qps"]
    checks["batching_improves_goodput"] = {
        "ok": ok,
        "detail": (
            f"goodput {batched['goodput_qps']:,.0f} (deadline "
            f"{max(deadlines):g} ns) vs {unbatched['goodput_qps']:,.0f} "
            f"(unbatched) at {top_load}x load on "
            f"{min(shard_counts)} shard(s)"
        ),
    }

    # Chaos: every admitted request completed (shed+completed == total) and
    # the fault layer saw recoveries whenever faults were injected.
    chaos = payload["results"]["chaos"]
    requests = chaos["requests"]
    accounted = requests["completed"] + requests["shed"] == requests["total"]
    faults = chaos.get("faults", {}).get("accelerator", {})
    recovered = faults.get("injected", 0) == faults.get("recovered", 0)
    checks["chaos_accounting"] = {
        "ok": accounted and recovered,
        "detail": f"requests {requests}, accelerator faults {faults}",
    }

    # The seeded chaos run is deterministic, so its request counts and p99
    # are pinned exactly: a change to shard scheduling, routing, admission
    # or verification sampling fails here.
    entry = "chaos-smoke" if meta["smoke"] else "chaos"
    pinned = {"requests": requests, "p99_ns": chaos["latency_ns"]["all"]["p99"]}
    detail = verify("service", {entry: pinned})
    checks["chaos_pinned"] = {"ok": not detail, "detail": detail or f"{entry} {pinned}"}
    return checks


def trace_checks(payload: Dict, trace_path: str) -> Dict[str, Dict]:
    """Gate the exported chaos trace: structure + SLO reconciliation."""
    import json

    checks: Dict[str, Dict] = {}
    with open(trace_path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        counts = validate_chrome_trace(document)
        ok = counts["X"] > 0 and counts["M"] > 0
        detail = f"event counts {counts}"
    except ValueError as error:
        ok, detail = False, str(error)
    checks["trace_exports_and_validates"] = {"ok": ok, "detail": detail}

    # Request spans in the exported JSON carry ts/dur in microseconds;
    # re-derive latency quantiles and demand they match the SLO report to
    # within 1 ns of simulated time.
    chaos = payload["results"]["chaos"]
    slo = chaos["latency_ns"]["all"]
    completed = chaos["requests"]["completed"]
    latencies = sorted(
        event["dur"] * 1e3
        for event in document["traceEvents"]
        if event.get("ph") == "X" and event.get("name") == "request"
    )
    if len(latencies) != completed:
        checks["trace_reconciles_slo"] = {
            "ok": False,
            "detail": (
                f"{len(latencies)} request spans for {completed} "
                f"completed requests"
            ),
        }
        return checks
    p50 = exact_quantile(latencies, 50.0)
    p99 = exact_quantile(latencies, 99.0)
    err50 = abs(p50 - slo["p50"])
    err99 = abs(p99 - slo["p99"])
    checks["trace_reconciles_slo"] = {
        "ok": err50 <= 1.0 and err99 <= 1.0,
        "detail": (
            f"span-derived p50/p99 off by {err50:.3g}/{err99:.3g} ns "
            f"over {completed} request spans"
        ),
    }
    return checks


def _emit(
    payload: Dict, table: ReportTable, tracer: Tracer, results_dir: str
) -> Dict[str, Dict]:
    table.show()
    table.save(results_dir, "service_scaling")
    trace_path = emit_trace(
        results_dir,
        "service",
        tracer,
        metadata={"seed": _SEED, "run": "chaos"},
    )
    checks = check_properties(payload)
    checks.update(trace_checks(payload, trace_path))
    emit_json(
        results_dir,
        "service",
        payload["results"],
        meta=payload["meta"],
        checks=checks,
    )
    return checks


# -- pytest entry point ----------------------------------------------------------------


def test_service_scaling(benchmark, results_dir):
    def build():
        payload, table, tracer = run_sweep(smoke=False)
        return payload, _emit(payload, table, tracer, results_dir)

    _, checks = benchmark.pedantic(build, rounds=1, iterations=1)
    for name, outcome in checks.items():
        assert outcome["ok"], f"{name}: {outcome['detail']}"


# -- CLI entry point (CI smoke job) ------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small QPS grid for CI (< 60 s)",
    )
    parser.add_argument("--results-dir", default=_RESULTS_DIR)
    args = parser.parse_args(argv)
    payload, table, tracer = run_sweep(smoke=args.smoke)
    checks = _emit(payload, table, tracer, args.results_dir)
    failed = {name: c for name, c in checks.items() if not c["ok"]}
    for name, outcome in checks.items():
        status = "ok" if outcome["ok"] else "FAIL"
        print(f"check {name}: {status} — {outcome['detail']}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print(f"BENCH_service.json written under {args.results_dir}")
    print(f"TRACE_service.json written to {trace_json_path(args.results_dir, 'service')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
