"""Trace-vs-SLO reconciliation and determinism on seeded service runs.

The request spans a :class:`SerializationServer` emits are not a parallel
bookkeeping path — they are views over the same completion records the
SLO report summarizes. These tests pin that equivalence: quantiles
recomputed from the exported Chrome trace must match the SLO report to
within 1 ns of simulated time, and two runs with the same seed must
export byte-identical traces.
"""

import json

import pytest

from repro.faults import FaultInjector, FaultPolicy
from repro.obs import Tracer, exact_quantile, set_tracer, to_chrome_trace
from repro.service import (
    AdmissionConfig,
    PoissonWorkload,
    RequestMix,
    SerializationServer,
    ServiceCatalog,
    ServiceConfig,
    SizeClass,
)
from repro.service.workload import KIND_SERIALIZE

_SEED = 20260806
_SIZE_CLASSES = (
    SizeClass("small", "tree", objects=24),
    SizeClass("large", "graph", objects=96, fanout=4),
)
_MIX = RequestMix(
    serialize_fraction=0.5, size_weights={"small": 0.8, "large": 0.2}
)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(size_classes=_SIZE_CLASSES)


def _capacity_qps(catalog):
    mean_ns = catalog.mean_service_ns(KIND_SERIALIZE, _MIX.size_weights)
    units = catalog.accelerator.config.num_serializer_units
    return units * 1e9 / mean_ns / _MIX.serialize_fraction


def _traced_run(catalog):
    """One seeded overload run with tracing on; returns (report, tracer)."""
    injector = FaultInjector(FaultPolicy(seed=_SEED, accelerator_fault_prob=0.05))
    config = ServiceConfig(
        num_shards=2,
        functional_every=8,
        admission=AdmissionConfig(max_outstanding=128, degrade_threshold=0.75),
    )
    workload = PoissonWorkload(
        qps=_capacity_qps(catalog) * 1.2,
        num_requests=300,
        seed=_SEED + 1,
        mix=_MIX,
    )
    tracer = Tracer(enabled=True, capacity=1 << 18)
    previous = set_tracer(tracer)
    try:
        server = SerializationServer(
            catalog, config, injector=injector, tracer=tracer
        )
        report = server.run(workload.generate(catalog))
    finally:
        set_tracer(previous)
    return report, tracer


def _request_latencies_ns(document):
    """Completed-request latencies recomputed from the exported trace."""
    return sorted(
        event["dur"] * 1e3  # exported ts/dur are microseconds
        for event in document["traceEvents"]
        if event["ph"] == "X" and event["name"] == "request"
    )


class TestTraceReconcilesSLO:
    def test_span_quantiles_match_slo_within_1ns(self, catalog):
        report, tracer = _traced_run(catalog)
        latencies = _request_latencies_ns(to_chrome_trace(tracer))
        assert len(latencies) == report.completed_requests
        for q in (50.0, 95.0, 99.0):
            from_trace = exact_quantile(latencies, q)
            from_slo = report.latency_ns_at(q)
            assert abs(from_trace - from_slo) <= 1.0, (
                f"p{q}: trace={from_trace} slo={from_slo}"
            )

    def test_request_span_count_and_attrs(self, catalog):
        report, tracer = _traced_run(catalog)
        requests = [s for s in tracer.spans() if s.name == "request"]
        assert len(requests) == report.completed_requests
        by_id = {s.attrs["request_id"]: s for s in requests}
        for record in report.records:
            if not record.completed:
                continue
            span = by_id[record.request_id]
            assert span.start_ns == record.arrival_ns
            assert span.end_ns == record.finish_ns
            assert span.attrs["outcome"] == record.outcome
            assert span.attrs["backend"] == record.backend

    def test_queue_execute_children_partition_the_request(self, catalog):
        report, tracer = _traced_run(catalog)
        spans = tracer.spans()
        children = {}
        for span in spans:
            if span.name in ("request.queue", "request.execute"):
                children.setdefault(span.parent_id, []).append(span)
        for span in spans:
            if span.name != "request":
                continue
            parts = sorted(
                children[span.span_id], key=lambda s: s.start_ns
            )
            assert [p.name for p in parts] == ["request.queue", "request.execute"]
            queue, execute = parts
            assert queue.start_ns == span.start_ns
            assert queue.end_ns == execute.start_ns
            assert execute.end_ns == span.end_ns

    def test_shed_requests_become_instants(self, catalog):
        report, tracer = _traced_run(catalog)
        sheds = [e for e in tracer.events() if e.name == "request.shed"]
        assert len(sheds) == report.shed_requests

    def test_same_seed_byte_identical_trace(self, catalog):
        def render():
            _, tracer = _traced_run(catalog)
            return json.dumps(to_chrome_trace(tracer), sort_keys=True)

        assert render() == render()
