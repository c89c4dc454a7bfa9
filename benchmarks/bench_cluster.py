"""Cluster serving: static vs autoscaled fleets under a flash crowd.

Drives the multi-node serving layer (:mod:`repro.cluster`) — consistent-
hash placement, replicated shard groups, locality-aware routing, reactive
autoscaling — over one shared virtual clock and emits the human table
plus machine-readable ``BENCH_cluster.json``. Four scenario families:

(a) **flash crowd** — a 6x arrival spike over a 2-node baseline, served
    by a reactively autoscaled fleet (2..8 nodes) and by static fleets of
    2/3/4 nodes. The autoscaled run must beat every static fleet whose
    shard-second budget is at least its own on p99: capacity that follows
    demand outperforms the same capacity provisioned flat;
(b) **failover** — injected node-loss faults reap in-flight requests and
    re-execute them on surviving replicas. Zero *accepted* requests may
    be lost, and retried requests keep their original arrival in the SLO
    (re-execution is inside the latency, never hidden by it);
(c) **determinism** — the failover scenario (workload + fault draws +
    failover + retries) replayed end-to-end must serialize to the
    byte-identical report (process-global cache counters stripped);
(d) **trace** — the autoscaled run exports ``TRACE_cluster.json``
    (Chrome trace-event format — ``chrome://tracing`` / Perfetto):
    per-node ``node.up`` lifecycle spans parenting request span trees,
    plus ``autoscale.up`` / ``autoscale.down`` / ``node.failover``
    instants. The file must validate structurally and carry exactly one
    ``request`` span per completed request.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_cluster.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":  # allow `python benchmarks/bench_cluster.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _emit import emit_json, emit_trace, trace_json_path  # noqa: E402
from _golden import verify  # noqa: E402
from repro.analysis import ReportTable  # noqa: E402
from repro.cluster import (  # noqa: E402
    AutoscalerConfig,
    ClusterConfig,
    ClusterReport,
    SerializationCluster,
)
from repro.faults import FaultInjector, FaultPolicy  # noqa: E402
from repro.obs import Tracer, set_tracer, validate_chrome_trace  # noqa: E402
from repro.service import (  # noqa: E402
    AdmissionConfig,
    DEFAULT_TENANTS,
    FlashCrowdWorkload,
    KeySkew,
    PoissonWorkload,
    RequestMix,
    ServiceCatalog,
    ServiceConfig,
)

_SEED = 0x5E12

# Flash-crowd shape: long 40% pre-spike warm phase at 0.4x-per-node load,
# then half the requests arrive 6x faster. The spike wall-time must dwarf
# the autoscaler's reaction time (detect + cooldown-paced scale-ups +
# provisioning) or reactive capacity cannot win; at the full request
# count the spike spans ~1.6 ms against a ~300 us reaction.
_BASE_FLEET = 2
_BASE_UTIL = 0.4
_SPIKE_FACTOR = 6.0
_SPIKE_START = 0.4
_SPIKE_DURATION = 0.5
_STATIC_FLEETS = (2, 3, 4)

# Shard-second parity slack: a static fleet only enters the comparison
# when its budget is at least this fraction of the autoscaled run's.
_BUDGET_PARITY = 0.98

_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def _grid(smoke: bool) -> int:
    """Flash-crowd request count (spike wall-time scales with it)."""
    return 6000 if smoke else 13000


def _single_shard_capacity_qps(catalog: ServiceCatalog, mix: RequestMix) -> float:
    mean_ns = catalog.mean_service_ns("serialize", mix.size_weights)
    units = catalog.accelerator.config.num_serializer_units
    return units * 1e9 / mean_ns / max(mix.serialize_fraction, 1e-9)


def _service_config(max_outstanding: int = 200_000) -> ServiceConfig:
    return ServiceConfig(
        num_shards=1,
        admission=AdmissionConfig(
            max_outstanding=max_outstanding, enable_degrade=False
        ),
        functional_every=256,
    )


def _autoscaler_config() -> AutoscalerConfig:
    return AutoscalerConfig(
        min_nodes=_BASE_FLEET,
        max_nodes=8,
        queue_high_per_node=32.0,
        queue_low_per_node=2.0,
        cooldown_ns=60_000.0,
        provision_delay_ns=120_000.0,
    )


def _row(label: str, report: ClusterReport) -> Dict:
    slo = report.slo
    return {
        "fleet": label,
        "nodes": len(report.nodes),
        "p50_ns": slo.p50(),
        "p99_ns": slo.p99(),
        "p999_ns": slo.p999(),
        "goodput_qps": slo.goodput_qps,
        "completed": slo.completed_requests,
        "shed": slo.shed_requests,
        "shard_seconds": report.shard_seconds,
        "scale_ups": sum(
            1 for a in report.autoscale_actions if a["action"] == "scale-up"
        ),
        "scale_downs": sum(
            1 for a in report.autoscale_actions if a["action"] == "scale-down"
        ),
        "failovers": report.failovers,
        "locality_hits": report.locality_hits,
        "locality_misses": report.locality_misses,
    }


def _flash_crowd(
    catalog: ServiceCatalog, mix: RequestMix, capacity: float, smoke: bool
) -> Tuple[Dict, Tracer]:
    """Autoscaled vs static fleets under the spike; autoscaled run traced."""
    num_requests = _grid(smoke)
    base_qps = _BASE_UTIL * capacity * _BASE_FLEET
    workload = FlashCrowdWorkload(
        qps=base_qps,
        num_requests=num_requests,
        seed=_SEED,
        mix=mix,
        keys=KeySkew(),
        tenants=DEFAULT_TENANTS,
        spike_factor=_SPIKE_FACTOR,
        spike_start_fraction=_SPIKE_START,
        spike_duration_fraction=_SPIKE_DURATION,
    )
    requests = workload.generate(catalog)

    tracer = Tracer(enabled=True, capacity=1 << 18)
    previous = set_tracer(tracer)
    try:
        auto_config = ClusterConfig(
            num_nodes=_BASE_FLEET,
            service=_service_config(),
            control_interval_ns=10_000.0,
            autoscaler=_autoscaler_config(),
        )
        auto_report = SerializationCluster(
            catalog, auto_config, tracer=tracer
        ).run(requests)
    finally:
        set_tracer(previous)

    static_rows: List[Dict] = []
    for nodes in _STATIC_FLEETS:
        config = ClusterConfig(num_nodes=nodes, service=_service_config())
        report = SerializationCluster(catalog, config).run(requests)
        static_rows.append(_row(f"static-{nodes}", report))

    results = {
        "num_requests": num_requests,
        "base_qps": base_qps,
        "spike_start_ns": _SPIKE_START * num_requests / base_qps * 1e9,
        "auto": _row("autoscaled", auto_report),
        "auto_actions": auto_report.autoscale_actions,
        "auto_completed": auto_report.slo.completed_requests,
        "static": static_rows,
    }
    return results, tracer


def _failover_payload(catalog: ServiceCatalog, mix: RequestMix) -> Dict:
    """One deterministic failover run as its report payload.

    Node-loss draws fire per control tick per routable node, so the
    probability is calibrated for a handful of losses over the run — the
    surviving replicas must absorb every reaped request.
    """
    workload = PoissonWorkload(
        qps=250_000,
        num_requests=4000,
        seed=7,
        mix=mix,
        keys=KeySkew(),
        tenants=DEFAULT_TENANTS,
    )
    injector = FaultInjector(FaultPolicy(seed=23, node_loss_prob=0.003))
    config = ClusterConfig(
        num_nodes=5,
        control_interval_ns=50_000.0,
        service=ServiceConfig(
            num_shards=1,
            admission=AdmissionConfig(max_outstanding=8192),
        ),
    )
    report = SerializationCluster(catalog, config, injector=injector).run(
        workload.generate(catalog)
    )
    return report.as_dict()


def run_sweep(smoke: bool = False) -> Tuple[Dict, ReportTable, Tracer]:
    catalog = ServiceCatalog()
    mix = RequestMix()
    capacity = _single_shard_capacity_qps(catalog, mix)

    flash, tracer = _flash_crowd(catalog, mix, capacity, smoke)
    failover = _failover_payload(catalog, mix)
    replay = _failover_payload(catalog, mix)
    canonical = json.dumps(failover, sort_keys=True)
    determinism = {
        "identical": canonical == json.dumps(replay, sort_keys=True),
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }

    table = ReportTable(
        "Cluster serving: flash crowd, static vs autoscaled fleets",
        ["Fleet", "Nodes", "p50 (us)", "p99 (us)", "p999 (us)",
         "Goodput", "Shard-sec", "Scale +/-"],
    )
    for row in [flash["auto"]] + flash["static"]:
        table.add_row(
            row["fleet"],
            str(row["nodes"]),
            f"{row['p50_ns'] / 1e3:.1f}",
            f"{row['p99_ns'] / 1e3:.1f}",
            f"{row['p999_ns'] / 1e3:.1f}",
            f"{row['goodput_qps'] / 1e3:,.0f}k",
            f"{row['shard_seconds']:.5f}",
            f"{row['scale_ups']}/{row['scale_downs']}",
        )
    table.add_note(
        f"{flash['num_requests']} requests, seed {_SEED:#x}, base load "
        f"{_BASE_UTIL:.1f}x per node on {_BASE_FLEET} nodes, spike "
        f"{_SPIKE_FACTOR:g}x over the middle {_SPIKE_DURATION:.0%} of arrivals"
    )
    table.add_note(
        "autoscaled fleet: 2..8 single-shard nodes, queue-depth trigger, "
        "120 us provisioning; shard-sec = provisioned node-seconds"
    )
    fo = failover["cluster"]
    table.add_note(
        f"failover run: {fo['failovers']} node losses, "
        f"{fo['retried_requests']} re-executed, "
        f"{fo['lost_after_failover']} lost"
    )

    payload = {
        "meta": {
            "seed": _SEED,
            "smoke": smoke,
            "capacity_qps": capacity,
            "base_fleet": _BASE_FLEET,
            "base_utilization": _BASE_UTIL,
            "spike_factor": _SPIKE_FACTOR,
            "spike_start_fraction": _SPIKE_START,
            "spike_duration_fraction": _SPIKE_DURATION,
            "static_fleets": list(_STATIC_FLEETS),
            "budget_parity": _BUDGET_PARITY,
        },
        "results": {
            "flash_crowd": flash,
            "failover": failover,
            "determinism": determinism,
        },
    }
    return payload, table, tracer


# -- trajectory checks --------------------------------------------------------------


def check_properties(payload: Dict) -> Dict[str, Dict]:
    checks: Dict[str, Dict] = {}
    flash = payload["results"]["flash_crowd"]
    auto = flash["auto"]

    # (a) the autoscaled fleet beats every static fleet of equal-or-larger
    # shard-second budget on p99 — elastic capacity wins at equal cost.
    budget = auto["shard_seconds"] * payload["meta"]["budget_parity"]
    peers = [r for r in flash["static"] if r["shard_seconds"] >= budget]
    ok = bool(peers) and all(auto["p99_ns"] < r["p99_ns"] for r in peers)
    checks["autoscaled_beats_equal_budget_static"] = {
        "ok": ok,
        "detail": (
            f"auto p99 {auto['p99_ns'] / 1e3:.1f} us at "
            f"{auto['shard_seconds']:.5f} shard-sec vs "
            + (
                ", ".join(
                    f"{r['fleet']} {r['p99_ns'] / 1e3:.1f} us at "
                    f"{r['shard_seconds']:.5f}"
                    for r in peers
                )
                or "no static fleet at parity budget"
            )
        ),
    }

    # The controller must react to the spike, not to the warm phase: the
    # first scale-up lands after the crowd arrives, and the fleet contracts
    # again once it passes.
    ups = [a for a in flash["auto_actions"] if a["action"] == "scale-up"]
    first_up = ups[0]["ts_ns"] if ups else 0.0
    reacts = bool(ups) and first_up >= 0.5 * flash["spike_start_ns"]
    # The post-spike tail in the smoke grid ends before the drained fleet
    # crosses the scale-down trigger, so contraction only gates full runs.
    contracts = auto["scale_downs"] > 0 or payload["meta"]["smoke"]
    checks["autoscaler_reacts_to_spike"] = {
        "ok": reacts and contracts,
        "detail": (
            f"{len(ups)} scale-ups (first at {first_up / 1e3:.0f} us, spike "
            f"at {flash['spike_start_ns'] / 1e3:.0f} us), "
            f"{auto['scale_downs']} scale-downs"
        ),
    }

    # Replicated placement keeps most dispatches inside the tenant's zone.
    hits, misses = auto["locality_hits"], auto["locality_misses"]
    checks["locality_routing_effective"] = {
        "ok": hits > misses,
        "detail": f"{hits} same-zone dispatches vs {misses} cross-zone",
    }

    # (b) failover loses zero accepted requests: every record is accounted
    # for, re-executions happened, and none of them fell off the fleet.
    fo = payload["results"]["failover"]
    cluster = fo["cluster"]
    requests = fo["slo"]["requests"]
    accounted = (
        requests["completed"] + requests["shed"] + requests["rejected"]
        == requests["total"]
    )
    ok = (
        cluster["failovers"] > 0
        and cluster["retried_requests"] > 0
        and requests["retried"] > 0
        and cluster["lost_after_failover"] == 0
        and accounted
    )
    checks["failover_zero_accepted_loss"] = {
        "ok": ok,
        "detail": (
            f"{cluster['failovers']} node losses, "
            f"{cluster['retried_requests']} re-executed, "
            f"{cluster['lost_after_failover']} lost, requests {requests}"
        ),
    }

    # (c) the failover scenario replays byte-identically.
    det = payload["results"]["determinism"]
    checks["deterministic_replay"] = {
        "ok": det["identical"],
        "detail": f"canonical report sha256 {det['sha256'][:16]}…",
    }

    # The seeded node-loss run is deterministic: its failover count and
    # locality are pinned exactly.
    pinned = {key: cluster[key] for key in ("failovers", "locality", "lost_after_failover")}
    detail = verify("cluster", {"failover": pinned})
    checks["failover_pinned"] = {"ok": not detail, "detail": detail or f"failover {pinned}"}
    return checks


def trace_checks(payload: Dict, trace_path: str) -> Dict[str, Dict]:
    """Gate the exported cluster trace: structure + span census."""
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

    events = document["traceEvents"]
    node_spans = sum(
        1 for e in events if e.get("ph") == "X" and e.get("name") == "node.up"
    )
    request_spans = sum(
        1 for e in events if e.get("ph") == "X" and e.get("name") == "request"
    )
    instants = {
        e["name"]
        for e in events
        if e.get("ph") in ("i", "I") and e.get("name", "").startswith("autoscale.")
    }
    flash = payload["results"]["flash_crowd"]
    expected_nodes = flash["auto"]["nodes"]
    completed = flash["auto_completed"]
    ok = (
        node_spans == expected_nodes
        and request_spans == completed
        and "autoscale.up" in instants
    )
    checks["trace_census_matches_cluster"] = {
        "ok": ok,
        "detail": (
            f"{node_spans} node.up spans for {expected_nodes} nodes, "
            f"{request_spans} request spans for {completed} completed, "
            f"autoscale instants {sorted(instants)}"
        ),
    }
    return checks


def _emit(
    payload: Dict, table: ReportTable, tracer: Tracer, results_dir: str
) -> Dict[str, Dict]:
    table.show()
    table.save(results_dir, "cluster_serving")
    trace_path = emit_trace(
        results_dir,
        "cluster",
        tracer,
        metadata={"seed": _SEED, "run": "flash_crowd_autoscaled"},
    )
    checks = check_properties(payload)
    checks.update(trace_checks(payload, trace_path))
    emit_json(
        results_dir,
        "cluster",
        payload["results"],
        meta=payload["meta"],
        checks=checks,
    )
    return checks


# -- pytest entry point ----------------------------------------------------------------


def test_cluster_serving(benchmark, results_dir):
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
        help="smaller flash crowd for CI (< 60 s)",
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
    print(f"BENCH_cluster.json written under {args.results_dir}")
    print(f"TRACE_cluster.json written to {trace_json_path(args.results_dir, 'cluster')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
