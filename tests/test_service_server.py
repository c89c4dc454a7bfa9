"""End-to-end tests of the event-loop serialization server."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.faults import FaultInjector, FaultPolicy
from repro.service import (
    AdmissionConfig,
    PoissonWorkload,
    RequestMix,
    SerializationServer,
    ServiceCatalog,
    ServiceConfig,
    SizeClass,
)
from repro.service.slo import (
    BACKEND_CEREAL,
    BACKEND_NONE,
    BACKEND_SOFTWARE,
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    OUTCOME_SHED,
)
from repro.service.workload import KIND_SERIALIZE

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
    """Single-shard serialize-pool saturation rate for this catalog."""
    mean_ns = catalog.mean_service_ns(KIND_SERIALIZE, _MIX.size_weights)
    units = catalog.accelerator.config.num_serializer_units
    return units * 1e9 / mean_ns / _MIX.serialize_fraction


def _workload(catalog, load_fraction, num_requests=400, seed=11):
    qps = load_fraction * _capacity_qps(catalog)
    return PoissonWorkload(qps, num_requests, seed=seed, mix=_MIX).generate(
        catalog
    )


class TestServerBasics:
    def test_moderate_load_all_served_on_accelerator(self, catalog):
        server = SerializationServer(
            catalog, ServiceConfig(num_shards=2, functional_every=1)
        )
        report = server.run(_workload(catalog, 0.4))
        assert report.total_requests == 400
        assert report.shed_requests == 0
        assert report.verified_requests == report.completed_requests
        for record in report.records:
            assert record.outcome == OUTCOME_OK
            assert record.backend == BACKEND_CEREAL
            assert record.finish_ns > record.arrival_ns
            assert record.dispatch_ns >= record.arrival_ns
            assert record.batch_id >= 0

    def test_same_seed_same_report(self, catalog):
        """With verification on, the first run compiles plans and the
        second hits them; nothing process-global may leak into the report."""

        def run(functional_every):
            server = SerializationServer(
                catalog,
                ServiceConfig(num_shards=2, functional_every=functional_every),
            )
            report = server.run(_workload(catalog, 0.8))
            if functional_every == 1:
                assert report.verified_requests == report.completed_requests > 0
            return json.dumps(report.as_dict(), sort_keys=True)

        for functional_every in (0, 1):
            assert run(functional_every) == run(functional_every), functional_every

    def test_latency_rises_with_load(self, catalog):
        def p99(load):
            config = ServiceConfig(
                num_shards=1,
                batch_wait_ns=0.0,
                functional_every=0,
                admission=AdmissionConfig(
                    max_outstanding=100_000, enable_degrade=False
                ),
            )
            server = SerializationServer(catalog, config)
            return server.run(_workload(catalog, load)).p99()

        light, heavy = p99(0.3), p99(1.4)
        assert heavy > 1.5 * light

    def test_more_shards_cut_tail_latency(self, catalog):
        def p99(shards):
            config = ServiceConfig(
                num_shards=shards,
                batch_wait_ns=0.0,
                functional_every=0,
                admission=AdmissionConfig(
                    max_outstanding=100_000, enable_degrade=False
                ),
            )
            server = SerializationServer(catalog, config)
            return server.run(_workload(catalog, 1.4)).p99()

        assert p99(4) < p99(1)

    def test_batching_amortizes_dispatch_overhead(self, catalog):
        def goodput(wait_ns):
            config = ServiceConfig(
                num_shards=1,
                batch_wait_ns=wait_ns,
                functional_every=0,
                admission=AdmissionConfig(
                    max_outstanding=100_000, enable_degrade=False
                ),
            )
            server = SerializationServer(catalog, config)
            report = server.run(_workload(catalog, 1.5, num_requests=800))
            return report.goodput_qps, report.mean_batch_size

        unbatched, size_unbatched = goodput(0.0)
        batched, size_batched = goodput(20_000.0)
        assert size_unbatched == 1.0
        assert size_batched > 1.5
        assert batched > unbatched

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ServiceConfig(num_shards=0)
        with pytest.raises(ConfigError):
            ServiceConfig(functional_every=-1)

    def test_duplicate_request_ids_rejected(self, catalog):
        requests = _workload(catalog, 0.5, num_requests=4)
        requests[1].request_id = requests[0].request_id
        server = SerializationServer(catalog, ServiceConfig(functional_every=0))
        with pytest.raises(ConfigError):
            server.run(requests)

    def test_second_run_rejected(self, catalog):
        server = SerializationServer(catalog, ServiceConfig(functional_every=1))
        report = server.run(_workload(catalog, 0.5, num_requests=100))
        assert report.verified_requests == report.completed_requests == 100
        with pytest.raises(ConfigError):
            server.run(_workload(catalog, 0.5, num_requests=100))


class TestRouting:
    def _run(self, catalog, shards=4):
        config = ServiceConfig(num_shards=shards, functional_every=0)
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 1.0, num_requests=600))
        return server, report

    # Least-loaded is the server's only routing policy.
    @pytest.mark.parametrize("routing", ["least-loaded"])
    def test_policies_complete_all_requests(self, catalog, routing):
        _, report = self._run(catalog)
        assert report.completed_requests == report.total_requests

    def test_least_loaded_uses_every_shard(self, catalog):
        server, _ = self._run(catalog)
        assert all(shard.dispatched_requests > 0 for shard in server.shards)


class TestFunctionalSampling:
    """``functional_every=N`` verifies requests 1, N+1, 2N+1, ..."""

    @pytest.mark.parametrize("every", [0, 1, 2, 16])
    def test_verified_count_follows_functional_every(self, catalog, every):
        config = ServiceConfig(num_shards=2, functional_every=every)
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 0.4, num_requests=60))
        completed = report.completed_requests
        assert completed == 60
        expected = 0 if every == 0 else -(-completed // every)
        assert report.verified_requests == expected


class TestDegradeAndShed:
    def test_overload_degrades_then_sheds(self, catalog):
        config = ServiceConfig(
            num_shards=1,
            functional_every=0,
            admission=AdmissionConfig(
                max_outstanding=64, degrade_threshold=0.5
            ),
        )
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 3.0, num_requests=800))
        assert report.degraded_requests > 0
        assert report.shed_requests > 0
        assert report.completed_requests + report.shed_requests == 800
        for record in report.records:
            if record.outcome == OUTCOME_SHED:
                assert record.backend == BACKEND_NONE
            elif record.outcome == OUTCOME_DEGRADED:
                assert record.backend == BACKEND_SOFTWARE
        summary = report.as_dict()
        assert summary["requests"]["shed"] == report.shed_requests
        assert summary["requests"]["degraded"] == report.degraded_requests
        assert summary["throughput"]["shed_rate"] > 0

    def test_chaos_faults_degrade_without_dropping_requests(self, catalog):
        """Acceptance: capacity faults shed/degrade but never lose work.

        ``functional_every=1`` makes the server actually execute and
        round-trip-check every admitted request it claims completed, so
        correctness under the fault schedule is verified, not assumed.
        """
        injector = FaultInjector(
            FaultPolicy(seed=0xC405, accelerator_fault_prob=0.2)
        )
        config = ServiceConfig(
            num_shards=1,
            functional_every=1,
            admission=AdmissionConfig(
                max_outstanding=128, degrade_threshold=0.75
            ),
        )
        server = SerializationServer(catalog, config, injector=injector)
        report = server.run(_workload(catalog, 1.5, num_requests=600))

        # Nothing is silently lost: every request is accounted for, and
        # every completed one was functionally verified.
        assert report.completed_requests + report.shed_requests == 600
        assert report.verified_requests == report.completed_requests

        # The fault schedule actually fired, and every fault was recovered
        # by falling back to the software lane.
        layer = report.fault_report.layer("accelerator")
        assert layer.injected > 0
        assert layer.recovered == layer.injected
        assert layer.fallbacks > 0
        assert report.degraded_batches > 0
        fallback_requests = sum(
            1
            for r in report.records
            if r.outcome == OUTCOME_DEGRADED and r.batch_id >= 0
        )
        assert fallback_requests == layer.fallbacks

        # The counts surface in the machine-readable report.
        summary = report.as_dict()
        assert summary["faults"]["accelerator"]["injected"] == layer.injected
        assert summary["batching"]["degraded_batches"] == report.degraded_batches
        assert summary["requests"]["degraded"] == report.degraded_requests

    def test_degraded_requests_use_software_timing(self, catalog):
        config = ServiceConfig(
            num_shards=1,
            functional_every=0,
            admission=AdmissionConfig(
                max_outstanding=32, degrade_threshold=0.25
            ),
        )
        server = SerializationServer(catalog, config)
        report = server.run(_workload(catalog, 3.0, num_requests=400))
        degraded = [
            r for r in report.records if r.outcome == OUTCOME_DEGRADED
        ]
        assert degraded
        assert server.software.served == len(degraded)
