"""Host-time benchmark of the simulator.

Usage (from the repository root)::

    python3 hostbench/run.py --workload micro-sw --seed 0 --seconds 30 --trace 0

One process runs one workload in one thread. It builds the inputs
``SETUPS`` times from cold process caches (``setup_s`` is the import time
plus the median build), then runs closed-loop passes over the workload's
ops while the next pass, as long as the last, fits in ``--seconds`` (at
least ``MIN_PASSES``), checking
every op's modelled outputs against ``golden/<workload>.json`` (or, on a
non-default seed, against the run's first pass). The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end times are scaled to a reference host speed: a fixed slice of
pure-Python work (:func:`probe`) runs before the first op and after every
op, and each op's host seconds are multiplied by ``REFERENCE_PROBE_S``
over the mean of the two probes around it. The shared host's speed
swings ~2x within seconds; the scaling cancels most of that swing while
any change to the program still moves the op's own time. Raw and scaled
pass seconds are printed to stderr. Per-layer metrics are raw.

``--trace 0`` reports the end-to-end metrics (medians over passes);
``--trace 1`` runs one untraced and one traced pass and reports per-layer
host self time and counts (see ``layers.py``), writing the layer spans as
Chrome trace JSON to ``results/trace-<workload>.json``.

``--write-golden`` rewrites the golden file from the run's first pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import OrderedDict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN_DIR = os.path.join(HERE, "golden")
RESULTS_DIR = os.path.join(HERE, "results")

SETUPS = 3
MIN_PASSES = 2
MB = 1e6
PROBE_STEPS = 8000
#: Probe time (s) of the reference host that scaled times refer to.
REFERENCE_PROBE_S = 0.003
_MASK = (1 << 64) - 1

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("micro-sw", "micro-cereal", "spark-apps"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def probe() -> float:
    """Seconds the host takes for a fixed slice of simulator-like Python.

    An LRU of 2048 int keys driven by a linear congruential generator:
    dict probes, ordered-dict moves and int arithmetic, the operations
    the cache, MAI and heap models spend their time in. Only the standard
    library runs here, so no change to the program can move it; its
    duration tracks how fast the shared host runs at that moment.
    """
    start = clock()
    lru = OrderedDict()
    state = 0x9E3779B97F4A7C15
    for step in range(PROBE_STEPS):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
        key = (state >> 40) & 4095
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = step
            if len(lru) > 2048:
                lru.popitem(last=False)
    return clock() - start


def host_scale(before: float, after: float) -> float:
    """Factor that maps host seconds measured between two probes to
    seconds on a host whose probe takes ``REFERENCE_PROBE_S``."""
    return 2.0 * REFERENCE_PROBE_S / (before + after)


class Pass:
    """One pass: op results, failures, and its time raw and scaled."""

    def __init__(self, results, failures, raw_s, wall_s):
        self.results = results
        self.failures = failures
        self.raw_s = raw_s  # host seconds inside the ops, as measured
        self.wall_s = wall_s  # the same, scaled op by op (``host_scale``)
        self.ser_s = sum(r.ser_s for r in results)
        self.ser_bytes = sum(r.ser_bytes for r in results)
        self.de_s = sum(r.de_s for r in results)
        self.de_bytes = sum(r.de_bytes for r in results)

    @property
    def ser_mb_per_s(self) -> float:
        return self.ser_bytes / MB / self.ser_s if self.ser_s else 0.0

    @property
    def de_mb_per_s(self) -> float:
        return self.de_bytes / MB / self.de_s if self.de_s else 0.0


def run_pass(ops, profiler=None, counters=None) -> Pass:
    """Run every op once; a probe between ops scales each op's times."""
    results, failures = [], []
    raw_s = wall_s = 0.0
    before = probe()
    for name, op in ops:
        result = None
        start = clock()
        try:
            if profiler is None:
                result = op()
            else:
                result = profiler.run_as(name, op)
        except Exception:  # an op that raises is a counted failure
            failures.append(name)
            print(f"op failed: {name}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        elapsed = clock() - start
        if counters is not None:
            counters.harvest()
        after = probe()
        scale = host_scale(before, after)
        before = after
        raw_s += elapsed
        wall_s += elapsed * scale
        if result is not None:
            result.ser_s *= scale
            result.de_s *= scale
            results.append(result)
    return Pass(results, failures, raw_s, wall_s)


def normalized(outputs):
    """Outputs as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(outputs))


def check_outputs(passes, reference, label):
    """Count ops whose modelled outputs differ from ``reference``."""
    mismatched = 0
    for one in passes:
        for result in one.results:
            expected = reference.get(result.name)
            actual = normalized(result.outputs)
            if expected == actual:
                continue
            mismatched += 1
            if expected is None:
                print(f"{label} mismatch: {result.name}: no reference", file=sys.stderr)
                continue
            keys = sorted(k for k in set(expected) | set(actual)
                          if expected.get(k) != actual.get(k))
            details = ", ".join(
                f"{k}: {actual.get(k)!r} != {expected.get(k)!r}" for k in keys
            )
            print(f"{label} mismatch: {result.name}: {details}", file=sys.stderr)
    return mismatched


def golden_path(workload_name):
    return os.path.join(GOLDEN_DIR, f"{workload_name}.json")


def write_golden(workload_name, first_pass):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    ops = {r.name: normalized(r.outputs) for r in first_pass.results}
    with open(golden_path(workload_name), "w", encoding="utf-8") as handle:
        json.dump({"workload": workload_name, "ops": ops}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")


def reference_outputs(workload, passes):
    """Golden outputs on the default seed; else the run's first pass."""
    from workloads import DEFAULT_SEED

    if workload.seed == DEFAULT_SEED or not workload.seeded:
        with open(golden_path(workload.name), encoding="utf-8") as handle:
            return json.load(handle)["ops"], "golden"
    return {r.name: normalized(r.outputs) for r in passes[0].results}, "replay"


def score(workload, passes):
    """(ops attempted, ops that raised or missed their reference)."""
    reference, label = reference_outputs(workload, passes)
    raised = sum(len(p.failures) for p in passes)
    mismatched = check_outputs(passes, reference, label)
    attempted = sum(len(p.results) + len(p.failures) for p in passes)
    return attempted, raised + mismatched


def build(workload_cls, seed):
    """SETUPS cold set-ups; returns (last workload, scaled build seconds)."""
    from workloads import reset_process_caches

    builds = []
    for _ in range(SETUPS):
        # A heap and its objects reference each other, so a build is a
        # cycle: drop it and collect it now, not inside a timed set-up.
        workload = None
        gc.collect()
        reset_process_caches()
        workload = workload_cls(seed)
        # Steps are timed like ops, each scaled by the probes around it.
        built = run_pass(workload.setup_steps())
        if built.failures:
            raise RuntimeError(f"set-up failed: {', '.join(built.failures)}")
        builds.append(built.wall_s)
    gc.collect()  # garbage the last set-up left, before the first pass
    return workload, builds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, ops, seconds, import_s, build_s):
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(ops))
        if len(passes) == MIN_PASSES:
            # Read before the passes only a fast host has time for, so the
            # peak does not depend on the host's speed.
            rss_mb = peak_rss_mb()
        if len(passes) >= MIN_PASSES and clock() - start + passes[-1].raw_s > seconds:
            break
    metrics = {
        "setup_s": (import_s + statistics.median(build_s), "s"),
        "pass_s": (statistics.median(p.wall_s for p in passes), "s"),
        "ser_mb_per_s": (statistics.median(p.ser_mb_per_s for p in passes), "MB/s"),
        "de_mb_per_s": (statistics.median(p.de_mb_per_s for p in passes), "MB/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return passes, metrics


def per_layer(workload, ops):
    from layers import LayerCounters, LayerProfiler, coverage
    from repro.obs import Tracer
    from repro.obs.export import write_chrome_trace

    untraced = run_pass(ops)
    gc.collect()
    profiler = LayerProfiler()
    counters = LayerCounters(profiler)
    profiler.install()
    origin = time.perf_counter_ns()
    try:
        traced = run_pass(ops, profiler, counters)
    finally:
        profiler.uninstall()

    self_s = profiler.self_seconds()
    calls = profiler.call_counts()
    c = counters

    def per(total_s, count):
        return total_s * 1e9 / count if count else 0.0

    call_s = sorted(s for r in untraced.results for s in r.call_s)
    ledger = {key: sum(r.outputs.get(key, 0.0) for r in untraced.results)
              for key in ("compute_ns", "gc_ns", "io_ns",
                          "serialize_ns", "deserialize_ns")}
    metrics = {
        "memory.trace.self_s": (self_s["memory.trace"], "s"),
        "memory.trace.records": (c.trace_records, "count"),
        "memory.trace.host_ns_per_record": (per(self_s["memory.trace"], c.trace_records), "ns"),
        "cpu.cache.self_s": (self_s["cpu.cache"], "s"),
        "cpu.cache.replays": (c.replays, "count"),
        "cpu.cache.builds": (c.builds, "count"),
        "cpu.cache.lines": (c.lines, "count"),
        "cpu.cache.host_ns_per_line": (per(self_s["cpu.cache"], c.lines), "ns"),
        "cpu.cache.l1_hit_rate": (c.l1_hits / c.lines if c.lines else 0.0, "fraction"),
        "cpu.cache.llc_miss_rate": (
            c.llc_misses / c.llc_accesses if c.llc_accesses else 0.0, "fraction"),
        "cpu.core.self_s": (self_s["cpu.core"], "s"),
        "cpu.harness.self_s": (self_s["cpu.harness"], "s"),
        "formats.ser.self_s": (self_s["formats.ser"], "s"),
        "formats.de.self_s": (self_s["formats.de"], "s"),
        "formats.calls": (calls["formats.ser"] + calls["formats.de"], "count"),
        "formats.stream_bytes": (c.stream_bytes, "bytes"),
        "jvm.self_s": (self_s["jvm"], "s"),
        "jvm.calls": (calls["jvm"], "count"),
        "memory.space.self_s": (self_s["memory.space"], "s"),
        "cereal.su.self_s": (self_s["cereal.su"], "s"),
        "cereal.du.self_s": (self_s["cereal.du"], "s"),
        "cereal.mai.self_s": (self_s["cereal.mai"], "s"),
        "cereal.device.self_s": (self_s["cereal.device"], "s"),
        "cereal.mai.blocks": (c.mai_blocks, "count"),
        "cereal.mai.coalesce_rate": (c.coalesce_rate, "fraction"),
        "cereal.modelled_ms": (c.modelled_unit_ns / 1e6, "sim_ms"),
        "memory.dram.self_s": (self_s["memory.dram"], "s"),
        "memory.dram.accesses": (c.dram_accesses, "count"),
        "memory.dram.host_ns_per_access": (per(self_s["memory.dram"], c.dram_accesses), "ns"),
        "spark.engine.self_s": (self_s["spark.engine"], "s"),
        "spark.transfer.self_s": (self_s["spark.transfer"], "s"),
        "spark.backend.self_s": (self_s["spark.backend"], "s"),
        "spark.apps.self_s": (self_s["spark.apps"], "s"),
        "spark.sd_calls": (len(call_s), "count"),
        "spark.sd_call_p50_ms": (
            statistics.median(call_s) * 1e3 if call_s else 0.0, "ms"),
        "spark.sd_call_p99_ms": (
            statistics.quantiles(call_s, n=100)[98] * 1e3 if len(call_s) > 1 else 0.0, "ms"),
        "spark.modelled.compute_ms": (ledger["compute_ns"] / 1e6, "sim_ms"),
        "spark.modelled.gc_ms": (ledger["gc_ns"] / 1e6, "sim_ms"),
        "spark.modelled.io_ms": (ledger["io_ns"] / 1e6, "sim_ms"),
        "spark.modelled.sd_ms": (
            (ledger["serialize_ns"] + ledger["deserialize_ns"]) / 1e6, "sim_ms"),
        "bench.self_s": (self_s["bench"], "s"),
        "layers.coverage": (coverage(self_s, traced.raw_s), "fraction"),
        "trace.overhead": (traced.wall_s / untraced.wall_s, "ratio"),
    }

    tracer = Tracer(enabled=True, capacity=1 << 18)
    profiler.export_spans(tracer, origin)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    write_chrome_trace(
        tracer,
        os.path.join(RESULTS_DIR, f"trace-{workload.name}.json"),
        metadata={"clock": "host-ns", "workload": workload.name,
                  "seed": workload.seed},
    )
    return [untraced, traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = clock()
    from workloads import WORKLOADS
    import_s = (clock() - start) * REFERENCE_PROBE_S / probe()

    workload, build_s = build(WORKLOADS[args.workload], args.seed)
    ops = workload.ops()
    if args.trace:
        passes, metrics = per_layer(workload, ops)
    else:
        passes, metrics = end_to_end(workload, ops, args.seconds, import_s, build_s)

    if args.write_golden:
        write_golden(workload.name, passes[0])
    attempted, failed = score(workload, passes)
    print(f"{workload.name} seed {workload.seed}: import {import_s:.3f} s, builds "
          + " ".join(f"{b:.3f}" for b in build_s) + " s; passes (raw/scaled s) "
          + " ".join(f"{p.raw_s:.2f}/{p.wall_s:.2f}" for p in passes),
          file=sys.stderr)
    if args.trace:
        metrics["op_fail_rate"] = (failed / attempted, "fraction")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
