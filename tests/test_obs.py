"""Unit tests for the repro.obs metrics/tracing/export subsystem."""

import json
import math

import pytest

from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    Tracer,
    exact_quantile,
    to_chrome_trace,
    validate_chrome_trace,
)


# -- exact_quantile -----------------------------------------------------------------


class TestExactQuantile:
    def test_empty_series_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            exact_quantile([], 50.0)

    def test_out_of_range_q_raises(self):
        for q in (-0.1, 100.1, 1000.0):
            with pytest.raises(ValueError, match="must be in \\[0, 100\\]"):
                exact_quantile([1.0], q)

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 37.5, 50.0, 99.9, 100.0):
            assert exact_quantile([42.0], q) == 42.0

    def test_p0_and_p100_are_min_and_max(self):
        series = [1.0, 5.0, 9.0, 200.0]
        assert exact_quantile(series, 0.0) == 1.0
        assert exact_quantile(series, 100.0) == 200.0

    def test_linear_interpolation(self):
        # rank = (4 - 1) * 0.5 = 1.5 -> halfway between 2nd and 3rd sample
        assert exact_quantile([10.0, 20.0, 30.0, 40.0], 50.0) == 25.0
        assert exact_quantile([0.0, 100.0], 25.0) == 25.0


# -- registry + metric types --------------------------------------------------------


class TestMetricsRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("hits", layer="transfer")
        second = registry.counter("hits", layer="transfer")
        assert first is second
        # Label order must not matter.
        a = registry.gauge("depth", shard="0", kind="q")
        b = registry.gauge("depth", kind="q", shard="0")
        assert a is b

    def test_distinct_labels_distinct_metrics(self):
        registry = MetricsRegistry()
        assert registry.counter("hits", a="1") is not registry.counter(
            "hits", a="2"
        )
        assert len(registry) == 2

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("level")
        gauge.set(3.0)
        gauge.set_max(2.0)  # lower: ignored
        assert gauge.value == 3.0
        gauge.set_max(7.0)
        assert gauge.value == 7.0

    def test_snapshot_flat_sorted_and_labeled(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(2)
        registry.counter("a.count", site="s1").inc()
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a.count{site=s1}"] == 1
        assert snap["b.count"] == 2

    def test_reset_zeroes_but_preserves_handles(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc(3)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("n") is counter

    def test_disable_gates_histograms_not_counters(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        hist = registry.histogram("lat")
        registry.disable()
        counter.inc()
        hist.observe(5.0)
        assert counter.value == 1  # counters stay live (CI gates read them)
        assert hist.count == 0  # histogram observation is the no-op path
        registry.enable()
        hist.observe(5.0)
        assert hist.count == 1

    def test_direct_value_bump_matches_inc(self):
        # Hot paths (plan/layout cache probes) bump Counter.value directly
        # to skip the method call; both routes must read back identically.
        a, b = Counter("a"), Counter("b")
        a.inc(3)
        b.value += 3
        assert a.value == b.value == 3


class TestHistogram:
    def test_exact_quantiles_inside_reservoir(self):
        hist = Histogram("lat", exact_limit=100)
        values = [float(v) for v in (9, 1, 5, 3, 7)]
        for value in values:
            hist.observe(value)
        assert hist.exact
        for q in (0.0, 25.0, 50.0, 90.0, 100.0):
            assert hist.quantile(q) == exact_quantile(sorted(values), q)

    def test_bucket_path_brackets_truth(self):
        hist = Histogram("lat", exact_limit=4)
        values = [float(2**k) for k in range(10)]
        for value in values:
            hist.observe(value)
        assert not hist.exact
        assert hist.quantile(0.0) == min(values)
        assert hist.quantile(100.0) == max(values)
        p50 = hist.quantile(50.0)
        assert min(values) <= p50 <= max(values)
        # log2 interpolation error is bounded by the covering bucket width.
        truth = exact_quantile(sorted(values), 50.0)
        assert p50 <= truth * 2 and truth <= max(p50 * 2, 1.0)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            Histogram("lat").quantile(50.0)

    def test_summary_shape(self):
        hist = Histogram("lat")
        assert hist.summary() == {"count": 0}
        hist.observe(10.0)
        summary = hist.summary()
        assert summary["count"] == 1
        assert summary["p50"] == summary["p99"] == 10.0
        assert summary["exact"] is True

    def test_reset(self):
        hist = Histogram("lat")
        hist.observe(1.0)
        hist.reset()
        assert hist.count == 0
        assert hist.min == math.inf


class TestHistogramMerge:
    def test_merge_preserves_exact_quantiles(self):
        """Two small histograms merge into the exact union distribution."""
        a = Histogram("lat", exact_limit=100)
        b = Histogram("lat", exact_limit=100)
        left = [1.0, 9.0, 5.0]
        right = [2.0, 8.0]
        for value in left:
            a.observe(value)
        for value in right:
            b.observe(value)
        merged = a.merge(b)
        assert merged is a
        union = sorted(left + right)
        assert a.exact
        assert a.count == 5
        assert a.min == 1.0 and a.max == 9.0
        for q in (0.0, 25.0, 50.0, 75.0, 100.0):
            assert a.quantile(q) == exact_quantile(union, q)

    def test_merge_matches_single_histogram(self):
        """merge(split streams) == observe(everything in one histogram)."""
        whole = Histogram("lat", exact_limit=64)
        parts = [Histogram("lat", exact_limit=64) for _ in range(3)]
        values = [float((7 * k) % 23 + 1) for k in range(30)]
        for index, value in enumerate(values):
            whole.observe(value)
            parts[index % 3].observe(value)
        target = parts[0]
        target.merge(parts[1]).merge(parts[2])
        assert target.count == whole.count
        assert target.total == whole.total
        for q in (0.0, 50.0, 99.0, 100.0):
            assert target.quantile(q) == whole.quantile(q)

    def test_merge_beyond_reservoir_degrades_to_buckets(self):
        a = Histogram("lat", exact_limit=4)
        b = Histogram("lat", exact_limit=4)
        for value in (1.0, 2.0, 4.0):
            a.observe(value)
        for value in (8.0, 16.0, 32.0):
            b.observe(value)
        a.merge(b)
        assert not a.exact  # 6 samples > exact_limit=4
        assert a.count == 6
        assert a.quantile(0.0) == 1.0
        assert a.quantile(100.0) == 32.0

    def test_merge_empty_is_noop(self):
        a = Histogram("lat")
        a.observe(3.0)
        before = a.summary()
        a.merge(Histogram("lat"))
        assert a.summary() == before

    def test_merge_into_empty_adopts_bounds(self):
        a = Histogram("lat")
        b = Histogram("lat")
        b.observe(7.0)
        a.merge(b)
        assert a.count == 1
        assert a.min == a.max == 7.0
        assert a.quantile(50.0) == 7.0


class TestRegistryMerge:
    def test_merge_snapshot_combines_all_metric_kinds(self):
        main = MetricsRegistry(enabled=True)
        node = MetricsRegistry(enabled=True)
        main.counter("reqs", node="n0").inc(2)
        node.counter("reqs", node="n0").inc(3)
        node.counter("reqs", node="n1").inc(5)
        main.gauge("queue").set(4.0)
        node.gauge("queue").set(9.0)
        node.histogram("lat", node="n1").observe(10.0)
        main.merge_snapshot(node)
        assert main.counter("reqs", node="n0").value == 5
        assert main.counter("reqs", node="n1").value == 5
        assert main.gauge("queue").value == 9.0
        assert main.histogram("lat", node="n1").count == 1

    def test_merge_snapshot_gauge_keeps_high_water(self):
        main = MetricsRegistry(enabled=True)
        other = MetricsRegistry(enabled=True)
        main.gauge("depth").set(12.0)
        other.gauge("depth").set(3.0)
        main.merge_snapshot(other)
        assert main.gauge("depth").value == 12.0

    def test_merge_snapshot_leaves_source_untouched(self):
        main = MetricsRegistry(enabled=True)
        other = MetricsRegistry(enabled=True)
        other.counter("c").inc(4)
        other.histogram("h").observe(1.0)
        snapshot_before = other.snapshot()
        main.merge_snapshot(other)
        assert other.snapshot() == snapshot_before


# -- tracer -------------------------------------------------------------------------


class TestTracer:
    def test_disabled_is_inert(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer") as span:
            assert span is None
        tracer.instant("marker")
        tracer.advance(100.0)
        assert tracer.record_span("r", 0.0, 5.0) is None
        assert tracer.spans() == []
        assert tracer.events() == []
        assert tracer._sim_now == 0.0

    def test_nesting_parents_and_bounds(self):
        tracer = Tracer(enabled=True)
        tracer.advance(100.0)
        with tracer.span("outer") as outer:
            tracer.advance(150.0)
            with tracer.span("inner") as inner:
                tracer.advance(200.0)
            tracer.advance(250.0)
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == outer.span_id
        assert inner.start_ns >= outer.start_ns
        assert inner.end_ns <= outer.end_ns
        assert outer.start_ns == 100.0 and outer.end_ns == 250.0

    def test_no_orphan_parent_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        ids = {s.span_id for s in tracer.spans()}
        for span in tracer.spans():
            assert span.parent_id is None or span.parent_id in ids

    def test_retrospective_spans(self):
        tracer = Tracer(enabled=True)
        parent = tracer.record_span("batch", 10.0, 50.0, track="shard0")
        child = tracer.record_span("unit", 12.0, 40.0, parent=parent)
        assert child.parent_id == parent.span_id
        with pytest.raises(ValueError, match="ends before it starts"):
            tracer.record_span("bad", 50.0, 10.0)

    def test_advance_is_monotonic(self):
        tracer = Tracer(enabled=True)
        tracer.advance(100.0)
        tracer.advance(50.0)  # backwards: ignored
        assert tracer._sim_now == 100.0

    def test_instant_defaults_to_sim_now(self):
        tracer = Tracer(enabled=True)
        tracer.advance(33.0)
        tracer.instant("fault.fired", site="s", kind="drop")
        (event,) = tracer.events()
        assert event.ts_ns == 33.0
        assert event.attrs == {"site": "s", "kind": "drop"}

    def test_ring_buffer_drops_oldest(self):
        tracer = Tracer(enabled=True, capacity=4)
        for index in range(10):
            tracer.record_span(f"s{index}", float(index), float(index) + 1)
        assert tracer.spans_recorded == 10
        assert len(tracer.spans()) == 4
        assert tracer.dropped_spans == 6
        assert [s.name for s in tracer.spans()] == ["s6", "s7", "s8", "s9"]


# -- chrome trace export + validator ------------------------------------------------


def _sample_tracer():
    tracer = Tracer(enabled=True)
    with tracer.span("outer", track="requests"):
        tracer.advance(1000.0)
        with tracer.span("inner", track="requests"):
            tracer.advance(2500.0)
    tracer.instant("fault", ts_ns=1500.0, track="faults")
    return tracer


class TestChromeExport:
    def test_valid_document_counts(self):
        document = to_chrome_trace(_sample_tracer())
        counts = validate_chrome_trace(document)
        assert counts["X"] == 2
        assert counts["i"] == 1
        assert counts["M"] == 2  # one thread_name per track

    def test_thread_names_cover_tracks(self):
        document = to_chrome_trace(_sample_tracer())
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {"requests", "faults"}

    def test_ts_dur_are_sim_microseconds(self):
        document = to_chrome_trace(_sample_tracer())
        outer = next(
            e for e in document["traceEvents"] if e.get("name") == "outer"
        )
        assert outer["ts"] == 0.0
        assert outer["dur"] == 2.5  # 2500 sim-ns -> 2.5 us

    def test_wall_excluded_by_default(self):
        document = to_chrome_trace(_sample_tracer())
        for event in document["traceEvents"]:
            assert "wall_dur_ns" not in event.get("args", {})

    def test_export_is_deterministic(self):
        a = json.dumps(to_chrome_trace(_sample_tracer()), sort_keys=True)
        b = json.dumps(to_chrome_trace(_sample_tracer()), sort_keys=True)
        assert a == b

    def test_validator_rejects_malformed(self):
        def doc(events):
            return {"traceEvents": events}

        good = {"name": "s", "ph": "X", "pid": 1, "tid": 0, "ts": 0.0, "dur": 1.0}
        validate_chrome_trace(doc([good]))
        with pytest.raises(ValueError, match="'traceEvents'"):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(doc([dict(good, ph="Z")]))
        with pytest.raises(ValueError, match="non-empty 'name'"):
            validate_chrome_trace(doc([dict(good, name="")]))
        with pytest.raises(ValueError, match="must be an int"):
            validate_chrome_trace(doc([dict(good, tid="0")]))
        with pytest.raises(ValueError, match="non-negative"):
            validate_chrome_trace(doc([dict(good, ts=-1.0)]))
        with pytest.raises(ValueError, match="monotonic"):
            validate_chrome_trace(
                doc([dict(good, ts=5.0), dict(good, ts=1.0)])
            )
        with pytest.raises(ValueError, match="'dur'"):
            validate_chrome_trace(doc([dict(good, dur=-2.0)]))
        with pytest.raises(ValueError, match="not JSON-serializable"):
            validate_chrome_trace(doc([dict(good, args={"x": object()})]))
