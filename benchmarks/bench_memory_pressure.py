"""Memory-pressure sweep: where the cache-tier crossover sits, by S/D cost.

The system-level claim this gate protects ("Garbage Collection or
Serialization? Between a Rock and a Hard Place!" meets Cereal): which
cache tier wins depends on how cheap S/D is.

* **deserialized on-heap** pins the cached graph bytes against the heap
  budget, so every transient allocation in the iterative loop is charged
  GC at the occupancy-driven curve's elevated rate — expensive exactly
  when the budget is tight;
* **serialized off-heap** keeps the heap empty (GC at the flat base rate)
  but pays a full deserialization plus rebuild GC on *every* read —
  expensive exactly when S/D is slow.

Three legs:

* **Crossover matrix** — budget (tight / medium / generous) x tier x
  serializer (java / kryo software / cereal accelerator), one iterative
  cached workload per cell. Gates: at the tight budget cereal-serialized
  beats deserialized while java-serialized loses to it; at the generous
  budget deserialized wins (or ties) for every serializer; deserialized
  totals fall monotonically as the budget grows; serialized totals are
  budget-invariant.
* **Policy leg** — a crafted admission/read pattern on an off-heap budget
  that forces exactly one spill, where ``lru`` / ``size`` / ``cost``
  each pick a *different* victim (least-recent vs largest vs
  cheapest-rebuild-per-byte), all deterministic.
* **Reconciliation leg** — a traced cell asserting ``memstore.*``
  counters match the manager's transition log and that the sum of
  ``memstore.*`` span durations reproduces the manager's charged-ns
  tally to within 1 ns.

Run standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_memory_pressure.py --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_memory_pressure.py
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Tuple

if __name__ == "__main__":  # allow `python benchmarks/bench_memory_pressure.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _emit import emit_json, emit_trace, trace_json_path  # noqa: E402
from repro.analysis import ReportTable  # noqa: E402
from repro.cereal import CerealAccelerator  # noqa: E402
from repro.formats import JavaSerializer, KryoSerializer  # noqa: E402
from repro.jvm.klass import FieldKind  # noqa: E402
from repro.memstore import (  # noqa: E402
    POLICY_NAMES,
    MemstoreConfig,
    TIER_DESERIALIZED,
    TIER_SERIALIZED,
    TIER_SPILLED,
)
from repro.obs import Tracer, get_registry  # noqa: E402
from repro.spark import CerealBackend, MiniSparkContext, SoftwareBackend  # noqa: E402
from repro.spark.apps.base import ensure_klass, register_backend_classes  # noqa: E402

_SEED = 0x3E40
_RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

SERIALIZERS = ("java", "kryo", "cereal")
#: Budget levels as multiples of the cached graph bytes: ``tight`` pins
#: the cache at ~85% occupancy (deep into the pressure curve), ``medium``
#: at 50%, ``generous`` at 10% (below the knee — flat GC).
BUDGET_LEVELS = (("tight", 1.0 / 0.85), ("medium", 2.0), ("generous", 10.0))
TIERS_SWEPT = (TIER_DESERIALIZED, TIER_SERIALIZED)


def _make_backend(name: str):
    if name == "java":
        return SoftwareBackend(JavaSerializer())
    if name == "kryo":
        return SoftwareBackend(KryoSerializer())
    if name == "cereal":
        return CerealBackend(CerealAccelerator())
    raise ValueError(name)


def _make_context(serializer: str, memstore_config=None, tracer=None):
    context = MiniSparkContext(
        _make_backend(serializer),
        memstore_config=memstore_config,
        tracer=tracer,
    )
    ensure_klass(
        context.registry,
        "PressureRecord",
        [("key", FieldKind.LONG), ("payload", FieldKind.REFERENCE)],
    )
    context.registry.array_klass(FieldKind.DOUBLE)
    context.registry.array_klass(FieldKind.LONG)
    context.registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(context.backend, context.registry)
    return context


def _build_records(context, count: int, payload_doubles: int = 16):
    klass = context.registry.by_name("PressureRecord")
    heap = context.executor_heap
    records = []
    for index in range(count):
        record = heap.allocate(klass)
        record.set("key", index * 31)
        payload = heap.new_array(FieldKind.DOUBLE, payload_doubles)
        for slot in range(payload_doubles):
            payload.set_element(slot, float(index + slot) * 0.5)
        record.set("payload", payload)
        records.append(record)
    return records


# -- crossover matrix --------------------------------------------------------------------


def _probe_graph_bytes(num_records: int, partitions: int) -> int:
    """Measure the cached graph bytes (backend-independent) once."""
    context = _make_context("kryo")
    records = _build_records(context, num_records)
    cached = context.parallelize(records, partitions).cache_serialized()
    return sum(entry.graph_bytes for entry in cached.entries)


def _run_cell(
    serializer: str,
    tier: str,
    budget_bytes: int,
    num_records: int,
    partitions: int,
    iterations: int,
    churn_longs: int,
    tracer=None,
) -> Tuple[float, MiniSparkContext]:
    """One iterative cached workload; returns (total ns, context)."""
    config = MemstoreConfig(
        budget_bytes=budget_bytes,
        storage_fraction=1.0,
        # Off-heap explicitly uncapped: the sweep axis is the *heap*
        # budget, and java's verbose streams can exceed the graph bytes.
        offheap_budget_bytes=1 << 30,
        policy="lru",
    )
    context = _make_context(serializer, memstore_config=config, tracer=tracer)
    records = _build_records(context, num_records)
    cached = context.parallelize(records, partitions).cache(tier=tier)
    heap = context.executor_heap

    def churn(partition):
        # Per-record transient allocation: the iteration's nursery churn,
        # priced by whatever the pinned live set makes GC cost.
        for _ in partition:
            heap.new_array(FieldKind.LONG, churn_longs)
        return partition

    for _ in range(iterations):
        dataset = cached.read()
        dataset.map_partitions(churn, instructions_per_record=200.0)
    return context.breakdown.total_ns, context


def run_crossover_leg(smoke: bool) -> Dict:
    num_records = 600 if smoke else 1200
    partitions = 4
    iterations = 5 if smoke else 8
    churn_longs = 24

    graph_bytes = _probe_graph_bytes(num_records, partitions)
    budgets = {
        name: int(graph_bytes * factor) for name, factor in BUDGET_LEVELS
    }

    matrix: Dict[str, Dict[str, Dict[str, float]]] = {}
    for serializer in SERIALIZERS:
        matrix[serializer] = {}
        for budget_name, budget in budgets.items():
            cell: Dict[str, float] = {}
            for tier in TIERS_SWEPT:
                total, _ = _run_cell(
                    serializer, tier, budget,
                    num_records, partitions, iterations, churn_longs,
                )
                cell[tier] = total
            matrix[serializer][budget_name] = cell

    # Determinism probe: the most pressure-sensitive cell, run again.
    repeat, _ = _run_cell(
        "cereal", TIER_DESERIALIZED, budgets["tight"],
        num_records, partitions, iterations, churn_longs,
    )
    return {
        "num_records": num_records,
        "partitions": partitions,
        "iterations": iterations,
        "churn_longs": churn_longs,
        "graph_bytes": graph_bytes,
        "budgets": budgets,
        "matrix": matrix,
        "repeat_total_ns": repeat,
        "first_total_ns": matrix["cereal"]["tight"][TIER_DESERIALIZED],
    }


# -- policy leg --------------------------------------------------------------------------


def _run_policy(policy: str) -> Dict:
    """Crafted spill: four single-partition cached datasets, one eviction.

    Stream sizes and read pattern are arranged so each policy picks a
    *different* victim when the fourth admission overflows the off-heap
    budget:

    * entry 0 — small, read three times *before* the others are admitted
      (most reads, but the oldest access timestamp)
    * entry 1 — small, never read (fewest expected re-reads)
    * entry 2 — large, read once, recent (largest bytes)
    * entry 3 — the admission that forces the spill

    ``lru`` spills entry 0 (least recently accessed), ``cost`` spills
    entry 1 (cheapest modelled rebuild per byte: fewest expected re-reads),
    ``size`` spills entry 2 (most bytes relieved per demotion).
    """
    sizes = (40, 40, 400, 80)

    def build(config=None):
        context = _make_context("kryo", memstore_config=config)
        datasets = [
            context.parallelize(_build_records(context, size), 1)
            for size in sizes
        ]
        return context, datasets

    # Probe pass with an unbounded budget to learn the stream sizes.
    context, datasets = build()
    probe = [d.cache_serialized() for d in datasets[:3]]
    stream_bytes = [c.entries[0].stream_bytes for c in probe]
    probe_third = datasets[3].cache_serialized()
    total_streams = sum(stream_bytes) + probe_third.entries[0].stream_bytes

    config = MemstoreConfig(
        budget_bytes=512 * 1024 * 1024,
        offheap_budget_bytes=total_streams - 1,  # fourth admission overflows
        policy=policy,
    )
    context, datasets = build(config)
    cached = [datasets[0].cache_serialized()]
    cached[0].read()
    cached[0].read()
    cached[0].read()
    cached.append(datasets[1].cache_serialized())
    cached.append(datasets[2].cache_serialized())
    cached[2].read()
    cached.append(datasets[3].cache_serialized())  # forces one spill
    for c in cached:
        c.read()

    manager = context.memstore
    spills = [
        (entry_id, from_tier, to_tier)
        for entry_id, from_tier, to_tier, _ in manager.transitions
        if to_tier == TIER_SPILLED
    ]
    records_seen = sum(
        entry.reads for entry in manager.entries.values()
    )
    return {
        "policy": policy,
        "stream_bytes": stream_bytes,
        "transitions": list(manager.transitions),
        "spills": spills,
        "victim": spills[0][0] if spills else None,
        "total_ns": context.breakdown.total_ns,
        "reads_by_tier": dict(manager.reads),
        "entry_reads": records_seen,
        "stats": manager.stats(),
    }


def run_policy_leg() -> Dict:
    runs = {policy: _run_policy(policy) for policy in POLICY_NAMES}
    repeats = {policy: _run_policy(policy) for policy in POLICY_NAMES}
    return {
        "policies": runs,
        "repeat_totals": {
            policy: repeats[policy]["total_ns"] for policy in POLICY_NAMES
        },
        "victims": {policy: runs[policy]["victim"] for policy in POLICY_NAMES},
    }


# -- reconciliation leg ------------------------------------------------------------------


def run_reconciliation_leg(smoke: bool) -> Tuple[Dict, Tracer]:
    """A traced, pressure-free cell: spans and counters must reconcile."""
    num_records = 300 if smoke else 600
    iterations = 4
    registry = get_registry()
    before = registry.snapshot()
    tracer = Tracer(enabled=True, capacity=1 << 16)

    total, context = _run_cell(
        "kryo", TIER_SERIALIZED, 512 * 1024 * 1024,
        num_records, 3, iterations, churn_longs=8, tracer=tracer,
    )
    manager = context.memstore
    after = registry.snapshot()

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    spans = [s for s in tracer.spans() if s.name.startswith("memstore.")]
    span_sum = sum(s.end_ns - s.start_ns for s in spans)
    span_counts: Dict[str, int] = {}
    for span in spans:
        span_counts[span.name] = span_counts.get(span.name, 0) + 1
    return {
        "total_ns": total,
        "charged_ns": dict(manager.charged_ns),
        "charged_total_ns": manager.charged_total_ns,
        "span_sum_ns": span_sum,
        "span_counts": span_counts,
        "span_error_ns": abs(span_sum - manager.charged_total_ns),
        "admitted": manager.admitted[TIER_SERIALIZED],
        "reads": manager.reads[TIER_SERIALIZED],
        "counter_admitted": delta("memstore.admitted{tier=serialized}"),
        "counter_reads": delta("memstore.reads{tier=serialized}"),
        "transitions": len(manager.transitions),
    }, tracer


# -- checks ------------------------------------------------------------------------------


def check_properties(results: Dict) -> Dict[str, Dict]:
    checks: Dict[str, Dict] = {}
    crossover = results["crossover"]
    matrix = crossover["matrix"]

    tight_cereal = matrix["cereal"]["tight"]
    checks["tight_budget_cereal_serialized_wins"] = {
        "ok": tight_cereal[TIER_SERIALIZED] < tight_cereal[TIER_DESERIALIZED],
        "detail": (
            f"tight budget, cereal S/D: serialized {tight_cereal[TIER_SERIALIZED]:,.0f} ns "
            f"vs deserialized {tight_cereal[TIER_DESERIALIZED]:,.0f} ns"
        ),
    }

    tight_java = matrix["java"]["tight"]
    checks["tight_budget_java_serialized_loses"] = {
        "ok": tight_java[TIER_SERIALIZED] > tight_java[TIER_DESERIALIZED],
        "detail": (
            f"tight budget, java S/D: serialized {tight_java[TIER_SERIALIZED]:,.0f} ns "
            f"vs deserialized {tight_java[TIER_DESERIALIZED]:,.0f} ns"
        ),
    }

    generous_flips = {
        serializer: matrix[serializer]["generous"]
        for serializer in SERIALIZERS
    }
    flip_failures = [
        serializer
        for serializer, cell in generous_flips.items()
        if cell[TIER_DESERIALIZED] >= cell[TIER_SERIALIZED]
    ]
    checks["generous_budget_deserialized_wins"] = {
        "ok": not flip_failures,
        "detail": (
            "deserialized wins at the generous budget for "
            + ", ".join(SERIALIZERS)
            if not flip_failures
            else f"deserialized lost for: {flip_failures}"
        ),
    }

    monotone_failures = []
    for serializer in SERIALIZERS:
        tight = matrix[serializer]["tight"][TIER_DESERIALIZED]
        medium = matrix[serializer]["medium"][TIER_DESERIALIZED]
        generous = matrix[serializer]["generous"][TIER_DESERIALIZED]
        if not tight >= medium >= generous:
            monotone_failures.append(serializer)
    checks["deserialized_cost_monotone_in_pressure"] = {
        "ok": not monotone_failures,
        "detail": (
            "deserialized totals fall as the budget grows"
            if not monotone_failures
            else f"non-monotone for: {monotone_failures}"
        ),
    }

    invariant_failures = []
    for serializer in SERIALIZERS:
        totals = {
            name: matrix[serializer][name][TIER_SERIALIZED]
            for name, _ in BUDGET_LEVELS
        }
        if max(totals.values()) - min(totals.values()) > 1.0:
            invariant_failures.append((serializer, totals))
    checks["serialized_cost_budget_invariant"] = {
        "ok": not invariant_failures,
        "detail": (
            "serialized-tier totals identical across budgets (empty heap)"
            if not invariant_failures
            else f"budget-sensitive: {invariant_failures}"
        ),
    }

    drift = abs(crossover["repeat_total_ns"] - crossover["first_total_ns"])
    policy_repeat_drift = max(
        abs(
            results["policy"]["repeat_totals"][policy]
            - results["policy"]["policies"][policy]["total_ns"]
        )
        for policy in POLICY_NAMES
    )
    checks["deterministic_across_runs"] = {
        "ok": drift == 0.0 and policy_repeat_drift == 0.0,
        "detail": (
            f"repeat drift: crossover cell {drift} ns, "
            f"policy legs {policy_repeat_drift} ns"
        ),
    }

    victims = results["policy"]["victims"]
    expected = {"lru": 0, "cost": 1, "size": 2}
    checks["policies_pick_designed_victims"] = {
        "ok": victims == expected,
        "detail": f"spill victims {victims} (expected {expected})",
    }

    recon = results["reconciliation"]
    checks["spans_reconcile_with_ledger"] = {
        "ok": recon["span_error_ns"] <= 1.0,
        "detail": (
            f"sum of memstore.* span durations off by "
            f"{recon['span_error_ns']:.3g} ns from the manager's "
            f"{recon['charged_total_ns']:,.0f} ns charged"
        ),
    }
    checks["counters_reconcile_with_transitions"] = {
        "ok": (
            0 < recon["counter_admitted"] == recon["admitted"]
            and 0 < recon["counter_reads"] == recon["reads"]
            and recon["span_counts"].get("memstore.admit", 0)
            == recon["admitted"]
            and recon["span_counts"].get("memstore.read", 0) == recon["reads"]
        ),
        "detail": (
            f"memstore.admitted {recon['counter_admitted']} = "
            f"{recon['admitted']} admits, memstore.reads "
            f"{recon['counter_reads']} = {recon['reads']} reads, "
            f"span counts {recon['span_counts']}"
        ),
    }
    return checks


# -- driver ------------------------------------------------------------------------------


def run_bench(smoke: bool = False) -> Tuple[Dict, ReportTable, Tracer]:
    crossover = run_crossover_leg(smoke)
    policy = run_policy_leg()
    reconciliation, tracer = run_reconciliation_leg(smoke)
    results = {
        "crossover": crossover,
        "policy": policy,
        "reconciliation": reconciliation,
    }

    table = ReportTable(
        "Cache-tier crossover: GC pressure vs S/D cost",
        ["Serializer", "Budget", "Deserialized (ms)", "Serialized (ms)",
         "Winner"],
    )
    for serializer in SERIALIZERS:
        for budget_name, _ in BUDGET_LEVELS:
            cell = crossover["matrix"][serializer][budget_name]
            deser = cell[TIER_DESERIALIZED]
            ser = cell[TIER_SERIALIZED]
            winner = "serialized" if ser < deser else "deserialized"
            table.add_row(
                serializer,
                budget_name,
                f"{deser / 1e6:,.2f}",
                f"{ser / 1e6:,.2f}",
                winner,
            )
    table.add_note(
        f"seed {_SEED:#x}; budgets = graph_bytes x "
        f"{dict((n, round(f, 2)) for n, f in BUDGET_LEVELS)}; policy-leg "
        f"spill victims: {policy['victims']}"
    )
    return results, table, tracer


def _emit(
    results: Dict, table: ReportTable, tracer: Tracer, results_dir: str, smoke: bool
) -> Dict[str, Dict]:
    table.show()
    table.save(results_dir, "memory_pressure")
    emit_trace(
        results_dir, "memory_pressure", tracer, metadata={"seed": _SEED}
    )
    checks = check_properties(results)
    emit_json(
        results_dir,
        "memory_pressure",
        results,
        meta={
            "seed": _SEED,
            "smoke": smoke,
            "serializers": list(SERIALIZERS),
            "budget_levels": [name for name, _ in BUDGET_LEVELS],
            "policies": list(POLICY_NAMES),
        },
        checks=checks,
    )
    return checks


# -- pytest entry point ------------------------------------------------------------------


def test_memory_pressure(benchmark, results_dir):
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
        help="small matrix for CI (< 60 s)",
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
    print(f"BENCH_memory_pressure.json written under {args.results_dir}")
    print(
        f"TRACE_memory_pressure.json written to "
        f"{trace_json_path(args.results_dir, 'memory_pressure')}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
