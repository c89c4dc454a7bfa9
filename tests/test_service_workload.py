"""Tests for the service workload generators, coalescer, admission, SLO."""

import pytest

from repro.common.errors import ConfigError
from repro.service.admission import (
    DECISION_ADMIT,
    DECISION_DEGRADE,
    DECISION_SHED,
    AdmissionConfig,
    AdmissionController,
)
from repro.service.batching import (
    MAX_BATCH_REQUESTS,
    BatchCoalescer,
)
from repro.service.slo import (
    OUTCOME_DEGRADED,
    OUTCOME_OK,
    OUTCOME_SHED,
    RequestRecord,
    SLOReport,
)
from repro.service.timing_cache import LRUCache
from repro.service.workload import (
    DEFAULT_TENANTS,
    KIND_DESERIALIZE,
    KIND_SERIALIZE,
    FlashCrowdWorkload,
    KeySkew,
    PoissonWorkload,
    RequestMix,
    ServiceCatalog,
    ServiceRequest,
    SizeClass,
    TenantClass,
)

_SMALL_CLASSES = (
    SizeClass("small", "tree", objects=24),
    SizeClass("medium", "list", objects=64),
)


@pytest.fixture(scope="module")
def catalog():
    return ServiceCatalog(size_classes=_SMALL_CLASSES)


def _mix():
    return RequestMix(
        serialize_fraction=0.5, size_weights={"small": 0.7, "medium": 0.3}
    )


def _signature(requests):
    return [(r.kind, r.entry.name) for r in requests]


class TestCatalog:
    def test_entries_built_with_timings(self, catalog):
        assert set(catalog.entries) == {"small", "medium"}
        for entry in catalog.entries.values():
            assert entry.stream.size_bytes > 0
            for kind in (KIND_SERIALIZE, KIND_DESERIALIZE):
                assert entry.accel_timing[kind].elapsed_ns > 0
                assert entry.software_ns[kind] > 0

    def test_streams_decodable_with_shared_registration(self, catalog):
        from repro.formats.verify import graphs_equivalent
        from repro.jvm import Heap

        for entry in catalog.entries.values():
            rebuilt = catalog.accelerator.codec.deserialize(
                entry.stream, Heap(registry=catalog.registry)
            ).root
            assert graphs_equivalent(entry.root, rebuilt)

    def test_mean_service_ns_weighted(self, catalog):
        small = catalog.entries["small"].accel_timing[KIND_SERIALIZE].elapsed_ns
        medium = catalog.entries["medium"].accel_timing[KIND_SERIALIZE].elapsed_ns
        mean = catalog.mean_service_ns(
            KIND_SERIALIZE, {"small": 1.0, "medium": 1.0}
        )
        assert mean == pytest.approx((small + medium) / 2)
        with pytest.raises(ConfigError):
            catalog.mean_service_ns(KIND_SERIALIZE, {"absent": 1.0})

    def test_empty_catalog_rejected(self):
        with pytest.raises(ConfigError):
            ServiceCatalog(size_classes=())


class TestOpenLoopWorkload:
    def test_same_seed_same_requests(self, catalog):
        a = PoissonWorkload(1e6, 500, seed=7, mix=_mix()).generate(catalog)
        b = PoissonWorkload(1e6, 500, seed=7, mix=_mix()).generate(catalog)
        assert _signature(a) == _signature(b)
        assert [r.arrival_ns for r in a] == [r.arrival_ns for r in b]

    def test_different_seed_different_sequence(self, catalog):
        a = PoissonWorkload(1e6, 500, seed=7, mix=_mix()).generate(catalog)
        b = PoissonWorkload(1e6, 500, seed=8, mix=_mix()).generate(catalog)
        assert _signature(a) != _signature(b)

    def test_qps_rescales_without_reshuffling(self, catalog):
        """The core monotonicity guarantee: QPS only compresses time."""
        slow = PoissonWorkload(1e6, 400, seed=3, mix=_mix()).generate(catalog)
        fast = PoissonWorkload(2e6, 400, seed=3, mix=_mix()).generate(catalog)
        assert _signature(slow) == _signature(fast)
        for s, f in zip(slow, fast):
            assert s.arrival_ns == pytest.approx(2.0 * f.arrival_ns)

    def test_mean_rate_matches_qps(self, catalog):
        requests = PoissonWorkload(1e6, 4000, seed=1, mix=_mix()).generate(
            catalog
        )
        span_s = requests[-1].arrival_ns * 1e-9
        assert 4000 / span_s == pytest.approx(1e6, rel=0.1)

    def test_mix_fractions_respected(self, catalog):
        requests = PoissonWorkload(1e6, 4000, seed=2, mix=_mix()).generate(
            catalog
        )
        ser = sum(1 for r in requests if r.kind == KIND_SERIALIZE)
        small = sum(1 for r in requests if r.entry.name == "small")
        assert ser / len(requests) == pytest.approx(0.5, abs=0.05)
        assert small / len(requests) == pytest.approx(0.7, abs=0.05)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            PoissonWorkload(0.0, 10)
        with pytest.raises(ConfigError):
            PoissonWorkload(1e6, 0)
        with pytest.raises(ConfigError):
            RequestMix(serialize_fraction=1.5)
        with pytest.raises(ConfigError):
            RequestMix(size_weights={})

    def test_mix_must_reference_catalog(self, catalog):
        workload = PoissonWorkload(
            1e6, 10, mix=RequestMix(size_weights={"absent": 1.0})
        )
        with pytest.raises(ConfigError):
            workload.generate(catalog)


def _request(catalog, request_id, kind=KIND_SERIALIZE, name="small"):
    return ServiceRequest(request_id, kind, catalog.entries[name], 0.0)


class TestBatchCoalescer:
    def test_count_cap_closes_batch(self, catalog):
        coalescer = BatchCoalescer(max_wait_ns=1e6)
        outcomes = [
            coalescer.add(_request(catalog, i), float(i))
            for i in range(MAX_BATCH_REQUESTS)
        ]
        assert outcomes[0].opened_seq is not None
        assert outcomes[0].deadline_ns == pytest.approx(1e6)
        assert all(
            outcome.batch is None and outcome.opened_seq is None
            for outcome in outcomes[1:-1]
        )
        batch = outcomes[-1].batch
        assert batch is not None and batch.size == MAX_BATCH_REQUESTS
        assert batch.opened_ns == 0.0
        assert batch.closed_ns == float(MAX_BATCH_REQUESTS - 1)

    def _fill(self, coalescer, catalog, kind=KIND_SERIALIZE, start=0):
        """Add one request short of the count cap; returns the group seq."""
        seq = coalescer.add(_request(catalog, start, kind), 0.0).opened_seq
        for i in range(start + 1, start + MAX_BATCH_REQUESTS - 1):
            assert coalescer.add(_request(catalog, i, kind), 0.0).batch is None
        return seq

    def test_kinds_batch_separately(self, catalog):
        coalescer = BatchCoalescer(max_wait_ns=1e6)
        self._fill(coalescer, catalog)
        assert (
            coalescer.add(_request(catalog, 100, KIND_DESERIALIZE), 0.0).batch
            is None
        )
        batch = coalescer.add(_request(catalog, 101, KIND_SERIALIZE), 1.0).batch
        assert batch is not None and batch.kind == KIND_SERIALIZE
        assert batch.size == MAX_BATCH_REQUESTS

    def test_stale_deadline_is_noop(self, catalog):
        coalescer = BatchCoalescer(max_wait_ns=1e6)
        seq = self._fill(coalescer, catalog)
        coalescer.add(_request(catalog, 99), 1.0)  # closes by count
        assert coalescer.flush_due(KIND_SERIALIZE, seq, 1e6) is None

    def test_live_deadline_flushes(self, catalog):
        coalescer = BatchCoalescer(max_wait_ns=1e6)
        seq = coalescer.add(_request(catalog, 0), 0.0).opened_seq
        batch = coalescer.flush_due(KIND_SERIALIZE, seq, 1e6)
        assert batch is not None and batch.size == 1
        assert batch.closed_ns == 1e6

    def test_unbatched_mode(self, catalog):
        coalescer = BatchCoalescer(max_wait_ns=0.0)
        for i in range(5):
            outcome = coalescer.add(_request(catalog, i), float(i))
            assert outcome.batch is not None and outcome.batch.size == 1
        assert coalescer.mean_batch_size == 1.0

    def test_flush_all_drains_both_kinds(self, catalog):
        coalescer = BatchCoalescer(max_wait_ns=1e6)
        coalescer.add(_request(catalog, 0, KIND_SERIALIZE), 0.0)
        coalescer.add(_request(catalog, 1, KIND_DESERIALIZE), 0.0)
        batches = coalescer.flush_all(5.0)
        assert len(batches) == 2
        assert {b.kind for b in batches} == {KIND_SERIALIZE, KIND_DESERIALIZE}
        assert coalescer.flush_all(6.0) == []

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            BatchCoalescer(max_wait_ns=-1.0)


class TestAdmission:
    def test_admit_below_threshold(self):
        controller = AdmissionController(
            AdmissionConfig(max_outstanding=10, degrade_threshold=0.8)
        )
        for _ in range(7):
            assert controller.decide() == DECISION_ADMIT
        assert controller.outstanding == 7

    def test_degrade_band_then_shed(self):
        controller = AdmissionController(
            AdmissionConfig(max_outstanding=10, degrade_threshold=0.8)
        )
        decisions = [controller.decide() for _ in range(12)]
        assert decisions[:8] == [DECISION_ADMIT] * 8
        assert decisions[8:10] == [DECISION_DEGRADE] * 2
        assert decisions[10:] == [DECISION_SHED] * 2
        assert controller.outstanding == 10  # shed requests take no slot
        assert controller.peak_outstanding == 10
        assert controller.admitted + controller.shed + controller.rejected == 12

    def test_release_reopens_admission(self):
        controller = AdmissionController(AdmissionConfig(max_outstanding=2))
        controller.decide(), controller.decide()
        assert controller.decide() == DECISION_SHED
        controller.release()
        assert controller.decide() != DECISION_SHED

    def test_degrade_disabled(self):
        controller = AdmissionController(
            AdmissionConfig(
                max_outstanding=4, degrade_threshold=0.5, enable_degrade=False
            )
        )
        assert [controller.decide() for _ in range(4)] == [DECISION_ADMIT] * 4

    def test_over_release_rejected(self):
        controller = AdmissionController()
        with pytest.raises(ConfigError):
            controller.release()


def _record(i, latency_ns, outcome=OUTCOME_OK, kind=KIND_SERIALIZE):
    backend = "none" if outcome == OUTCOME_SHED else "cereal"
    finish = 0.0 if outcome == OUTCOME_SHED else latency_ns
    return RequestRecord(
        request_id=i,
        kind=kind,
        size_class="small",
        arrival_ns=0.0,
        dispatch_ns=0.0,
        finish_ns=finish,
        outcome=outcome,
        backend=backend,
    )


class TestSLOReport:
    def test_percentiles_over_known_population(self):
        records = [_record(i, float(i + 1)) for i in range(100)]
        report = SLOReport(records=records)
        assert report.p50() == pytest.approx(50.5)
        assert report.p99() == pytest.approx(99.01)
        assert report.max_latency_ns() == 100.0
        assert report.mean_latency_ns() == pytest.approx(50.5)

    def test_shed_requests_excluded_from_latency(self):
        records = [_record(i, 10.0) for i in range(9)]
        records.append(_record(9, 1e9, outcome=OUTCOME_SHED))
        report = SLOReport(records=records)
        assert report.shed_requests == 1
        assert report.shed_rate == pytest.approx(0.1)
        assert report.max_latency_ns() == 10.0

    def test_per_kind_split(self):
        records = [_record(i, 10.0, kind=KIND_SERIALIZE) for i in range(5)]
        records += [
            _record(5 + i, 30.0, kind=KIND_DESERIALIZE) for i in range(5)
        ]
        report = SLOReport(records=records)
        assert report.p50(KIND_SERIALIZE) == 10.0
        assert report.p50(KIND_DESERIALIZE) == 30.0

    def test_as_dict_shape(self):
        records = [_record(0, 5.0), _record(1, 7.0, outcome=OUTCOME_DEGRADED)]
        summary = SLOReport(records=records).as_dict()
        assert summary["requests"] == {
            "total": 2,
            "completed": 2,
            "shed": 0,
            "rejected": 0,
            "degraded": 1,
            "retried": 0,
            "verified": 0,
        }
        assert set(summary["latency_ns"]["all"]) == {
            "p50", "p95", "p99", "p999", "mean", "max",
        }
        assert "faults" not in summary


# -- workload shapes (flash crowd) ---------------------------------------------------


class TestWorkloadShapes:
    def test_flash_crowd_compresses_only_the_window(self, catalog):
        base = PoissonWorkload(1e6, 2000, seed=4, mix=_mix()).generate(
            catalog
        )
        crowd_workload = FlashCrowdWorkload(
            1e6, 2000, seed=4, mix=_mix(), spike_factor=10.0,
            spike_start_fraction=0.5, spike_duration_fraction=0.25,
        )
        crowd = crowd_workload.generate(catalog)
        start, end = crowd_workload.spike_window()
        assert (start, end) == (1000, 1500)
        assert _signature(crowd) == _signature(base)

        def gaps(requests):
            arrivals = [r.arrival_ns for r in requests]
            return [b - a for a, b in zip(arrivals, arrivals[1:])]

        base_gaps, crowd_gaps = gaps(base), gaps(crowd)
        # Outside the window gaps are identical; inside they shrink 10x.
        for index in range(0, start - 1):
            assert crowd_gaps[index] == pytest.approx(base_gaps[index])
        for index in range(start, end - 1):
            assert crowd_gaps[index] == pytest.approx(
                base_gaps[index] / 10.0
            )

    def test_flash_crowd_validation(self):
        with pytest.raises(ConfigError, match="spike_factor"):
            FlashCrowdWorkload(1e6, 100, spike_factor=0.5)
        with pytest.raises(ConfigError, match="spike_start_fraction"):
            FlashCrowdWorkload(1e6, 100, spike_start_fraction=1.0)


# -- rng stream isolation ------------------------------------------------------------


class TestRngStreamIsolation:
    """Each workload feature draws from its own seeded substream, so
    enabling one never perturbs the sequences existing tests pin."""

    def test_keys_do_not_perturb_base_sequence(self, catalog):
        plain = PoissonWorkload(1e6, 1000, seed=7, mix=_mix()).generate(
            catalog
        )
        keyed = PoissonWorkload(
            1e6, 1000, seed=7, mix=_mix(), keys=KeySkew()
        ).generate(catalog)
        assert _signature(keyed) == _signature(plain)
        assert [r.arrival_ns for r in keyed] == [
            r.arrival_ns for r in plain
        ]
        assert [r.malformed for r in keyed] == [r.malformed for r in plain]
        assert all(r.key for r in keyed)
        assert all(r.key == "" for r in plain)

    def test_tenants_do_not_perturb_base_sequence_or_keys(self, catalog):
        keyed = PoissonWorkload(
            1e6, 1000, seed=7, mix=_mix(), keys=KeySkew()
        ).generate(catalog)
        both = PoissonWorkload(
            1e6, 1000, seed=7, mix=_mix(), keys=KeySkew(),
            tenants=DEFAULT_TENANTS,
        ).generate(catalog)
        assert _signature(both) == _signature(keyed)
        assert [r.arrival_ns for r in both] == [
            r.arrival_ns for r in keyed
        ]
        assert [r.key for r in both] == [r.key for r in keyed]
        assert all(r.tenant for r in both)

    def test_malformed_fraction_still_isolated(self, catalog):
        plain = PoissonWorkload(
            1e6, 1000, seed=3, mix=_mix(), keys=KeySkew()
        ).generate(catalog)
        flagged = PoissonWorkload(
            1e6, 1000, seed=3, mix=_mix(), keys=KeySkew(),
            malformed_fraction=0.2,
        ).generate(catalog)
        assert _signature(flagged) == _signature(plain)
        assert [r.key for r in flagged] == [r.key for r in plain]
        assert any(r.malformed for r in flagged)


# -- key skew and tenant mixes -------------------------------------------------------


class TestKeySkewAndTenants:
    def test_zipfian_keys_concentrate_on_low_ranks(self, catalog):
        requests = PoissonWorkload(
            1e6, 4000, seed=11, mix=_mix(),
            keys=KeySkew(key_space=64, exponent=1.2),
        ).generate(catalog)
        counts = {}
        for request in requests:
            counts[request.key] = counts.get(request.key, 0) + 1
        hottest = max(counts, key=lambda k: (counts[k], k))
        assert hottest == "key-0"
        # The head dominates: rank 0 far above the uniform share.
        assert counts["key-0"] > 4 * (4000 / 64)

    def test_tenant_weights_and_attributes(self, catalog):
        tenants = (
            TenantClass("gold", weight=0.7, priority=0, zone="zone-a"),
            TenantClass("bronze", weight=0.3, priority=2, zone="zone-b"),
        )
        requests = PoissonWorkload(
            1e6, 4000, seed=13, mix=_mix(), tenants=tenants
        ).generate(catalog)
        gold = [r for r in requests if r.tenant == "gold"]
        bronze = [r for r in requests if r.tenant == "bronze"]
        assert len(gold) + len(bronze) == len(requests)
        assert len(gold) / len(requests) == pytest.approx(0.7, abs=0.05)
        assert all(r.priority == 0 and r.zone == "zone-a" for r in gold)
        assert all(r.priority == 2 and r.zone == "zone-b" for r in bronze)

    def test_key_skew_validation(self):
        with pytest.raises(ConfigError, match="key_space"):
            KeySkew(key_space=0)
        with pytest.raises(ConfigError, match="exponent"):
            KeySkew(exponent=-1.0)
        with pytest.raises(ConfigError, match="weight"):
            TenantClass("t", weight=0.0)


# -- QoS priority admission ----------------------------------------------------------


class TestPriorityAdmission:
    def test_default_shares_match_pre_qos_behaviour(self):
        classic = AdmissionController(AdmissionConfig(max_outstanding=4))
        qos = AdmissionController(AdmissionConfig(max_outstanding=4))
        for _ in range(6):
            assert classic.decide() == qos.decide(priority=5)

    def test_outcomes_counted_per_priority(self):
        config = AdmissionConfig(max_outstanding=4, degrade_threshold=0.5)
        controller = AdmissionController(config)
        decisions = [controller.decide(priority=p) for p in (0, 1, 2, 1, 0)]
        assert decisions == [
            DECISION_ADMIT, DECISION_ADMIT, DECISION_DEGRADE,
            DECISION_DEGRADE, DECISION_SHED,
        ]
        assert controller.degraded_by_priority == {2: 1, 1: 1}
        assert controller.shed_by_priority == {0: 1}


def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a": "b" is now the oldest
    cache.put("c", 3)
    assert len(cache) == 2
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    cache.put("d", 4)  # "a" was refreshed before "c", so "a" goes
    assert cache.get("a") is None
    assert (cache.get("c"), cache.get("d")) == (3, 4)
