"""Deterministic fault injection and the resilience layers it exercises.

Covers the acceptance criteria of the fault-tolerance work:

* determinism — same seed, same app => byte-identical fault reports and
  identical time breakdowns; zero-probability injection and no framing
  => times exactly match the fault-free model (zero happy-path cost);
* recovery — at realistic fault rates every Spark app completes, shuffled
  and collected graphs are structurally equivalent to a fault-free run,
  and every accelerator ``CapacityError`` is absorbed by the software
  fallback instead of propagating.
"""

import dataclasses
import hashlib

import pytest

from repro.cereal import CerealAccelerator
from repro.common.errors import (
    CapacityError,
    ConfigError,
    CorruptionError,
    TransientError,
)
from repro.faults import FaultInjector, FaultPolicy, FaultReport
from repro.formats import ClassRegistration, KryoSerializer, graphs_equivalent
from repro.jvm.klass import FieldKind
from repro.spark import (
    CerealBackend,
    MiniSparkContext,
    RetryPolicy,
    SoftwareBackend,
    TimeBreakdown,
)
from repro.spark.apps import SPARK_APPS
from repro.spark.apps.base import ensure_klass, register_backend_classes
from repro.spark.transfer import ResilientTransfer

CHAOS = FaultPolicy.chaos(seed=1234, probability=0.05)


def _kryo_backend():
    return SoftwareBackend(KryoSerializer(ClassRegistration()))


def _build_records(context, count=60):
    klass = ensure_klass(
        context.registry,
        "FaultRecord",
        [("key", FieldKind.LONG), ("payload", FieldKind.REFERENCE)],
    )
    context.registry.array_klass(FieldKind.DOUBLE)
    context.registry.array_klass(FieldKind.REFERENCE)
    register_backend_classes(context.backend, context.registry)
    heap = context.executor_heap
    records = []
    for index in range(count):
        record = heap.allocate(klass)
        record.set("key", index * 37)
        payload = heap.new_array(FieldKind.DOUBLE, 6)
        for slot in range(6):
            payload.set_element(slot, float(index * 6 + slot))
        record.set("payload", payload)
        records.append(record)
    return records


class TestFaultInjectorDeterminism:
    def test_draws_are_pure_functions_of_seed_channel_index(self):
        a = FaultInjector(FaultPolicy(seed=99))
        b = FaultInjector(FaultPolicy(seed=99))
        draws_a = [a.draw("transfer.shuffle") for _ in range(50)]
        draws_b = [b.draw("transfer.shuffle") for _ in range(50)]
        assert draws_a == draws_b
        assert all(0.0 <= d < 1.0 for d in draws_a)

    def test_channels_are_independent(self):
        a = FaultInjector(FaultPolicy(seed=7))
        b = FaultInjector(FaultPolicy(seed=7))
        # Interleaving draws on another channel must not perturb the first.
        first = [a.draw("x") for _ in range(10)]
        interleaved = []
        for _ in range(10):
            b.draw("noise")
            interleaved.append(b.draw("x"))
        assert first == interleaved

    def test_different_seeds_differ(self):
        a = FaultInjector(FaultPolicy(seed=1))
        b = FaultInjector(FaultPolicy(seed=2))
        assert [a.draw("c") for _ in range(20)] != [
            b.draw("c") for _ in range(20)
        ]

    def test_corrupt_bytes_is_deterministic_and_damaging(self):
        data = bytes(range(256)) * 4
        a = FaultInjector(FaultPolicy(seed=5))
        b = FaultInjector(FaultPolicy(seed=5))
        for _ in range(20):
            damaged_a = a.corrupt_bytes(data, "shuffle")
            damaged_b = b.corrupt_bytes(data, "shuffle")
            assert damaged_a == damaged_b
            assert damaged_a != data

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            FaultPolicy(corruption_prob=1.5)
        with pytest.raises(ConfigError):
            FaultPolicy(corruption_prob=0.5, drop_prob=0.4, latency_spike_prob=0.2)


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        policy = RetryPolicy()
        # A 0.5 draw sits at the centre of the jitter band: no jitter.
        waits = [policy.backoff_ns(n, 0.5) for n in range(12)]
        assert waits == sorted(waits)
        assert waits[0] == policy.base_backoff_ns
        assert waits[-1] == policy.max_backoff_ns

    def test_jitter_bounds(self):
        policy = RetryPolicy()
        low = policy.backoff_ns(0, 0.0)
        high = policy.backoff_ns(0, 1.0)
        assert low == pytest.approx(policy.base_backoff_ns * 0.8)
        assert high == pytest.approx(policy.base_backoff_ns * 1.2)

    @pytest.mark.parametrize("draw", [0.0, 1.0])
    def test_full_jitter_range_never_charges_negative_time(self, draw):
        # A jitter above 1 would make a low draw charge negative time.
        policy = RetryPolicy()
        assert 0.0 <= policy.jitter <= 1.0
        assert 0.0 <= policy.backoff_ns(0, draw) <= 2 * policy.base_backoff_ns

    def test_retries_exhausted_raises_transient_error(self):
        breakdown = TimeBreakdown()
        injector = FaultInjector(FaultPolicy(seed=3, drop_prob=1.0))
        transfer = ResilientTransfer(
            breakdown,
            injector=injector,
            frame_streams=True,
        )
        backend = _kryo_backend()
        context = MiniSparkContext(backend)
        records = _build_records(context, count=4)
        stream = context.serialize_bucket(records, site="shuffle")
        with pytest.raises(TransientError):
            transfer.deliver(stream, "shuffle")
        stats = injector.report.layer("transfer")
        # The initial attempt plus every retry.
        assert stats.detected == 1 + RetryPolicy.max_retries == 9
        assert stats.recovered == 0
        assert breakdown.retry_ns > 0

    @pytest.mark.parametrize("chunked", [False, True])
    def test_retries_exhausted_error_names_the_stream_or_chunk(self, chunked):
        injector = FaultInjector(FaultPolicy(seed=3, drop_prob=1.0))
        transfer = ResilientTransfer(
            TimeBreakdown(), injector=injector, frame_streams=True
        )
        context = MiniSparkContext(_kryo_backend())
        stream = context.serialize_bucket(
            _build_records(context, count=4), site="shuffle"
        )
        deliver = transfer.deliver_chunked if chunked else transfer.deliver
        with pytest.raises(TransientError) as raised:
            deliver(stream, "shuffle")
        what = "shuffle chunk 0" if chunked else "shuffle transfer"
        assert str(raised.value) == (
            f"{what} failed 9 consecutive times (last fault: drop); "
            "retries exhausted"
        )
        assert injector.report.layer("transfer").detected == 9


class TestHappyPathInvariance:
    """Fault probability 0 + framing off must cost exactly nothing."""

    @pytest.mark.parametrize("app", ["terasort", "svm"])
    def test_zero_probability_matches_seed_model(self, app):
        baseline = SPARK_APPS[app](_kryo_backend())
        injected = SPARK_APPS[app](
            _kryo_backend(), injector=FaultInjector(FaultPolicy(seed=11))
        )
        assert injected.total_ns == baseline.total_ns
        assert injected.breakdown.retry_ns == 0.0
        assert injected.breakdown.gc_ns == baseline.breakdown.gc_ns
        assert len(injected.breakdown.operations) == len(
            baseline.breakdown.operations
        )

    def test_transfer_without_injector_is_identity(self):
        context = MiniSparkContext(_kryo_backend())
        records = _build_records(context, count=4)
        stream = context.serialize_bucket(records, site="shuffle")
        assert context.transfer.deliver(stream, "shuffle") is stream
        assert context.breakdown.retry_ns == 0.0


class TestChaosDeterminism:
    def test_same_seed_same_report_and_breakdown(self):
        runs = []
        for _ in range(2):
            injector = FaultInjector(CHAOS)
            result = SPARK_APPS["terasort"](
                _kryo_backend(), injector=injector, frame_streams=True
            )
            runs.append((result, injector.report))
        first, second = runs
        assert first[1].as_dict() == second[1].as_dict()
        assert first[0].total_ns == second[0].total_ns
        assert first[0].breakdown.retry_ns == second[0].breakdown.retry_ns
        assert len(first[0].breakdown.operations) == len(
            second[0].breakdown.operations
        )

    def test_different_seed_different_schedule(self):
        totals = []
        for seed in (1, 2, 3, 4):
            injector = FaultInjector(FaultPolicy.chaos(seed=seed, probability=0.08))
            result = SPARK_APPS["terasort"](
                _kryo_backend(), injector=injector, frame_streams=True
            )
            totals.append(
                (result.total_ns, injector.report.totals.injected)
            )
        assert len(set(totals)) > 1


class TestRecovery:
    def test_shuffle_collect_graphs_survive_chaos(self):
        """Faulted shuffle+collect must yield an equivalent object graph."""

        def run(injector, frame):
            context = MiniSparkContext(
                _kryo_backend(), injector=injector, frame_streams=frame
            )
            records = _build_records(context, count=48)
            dataset = context.parallelize(records, 4)
            shuffled = dataset.shuffle(
                key_fn=lambda r: int(r.get("key")), num_partitions=4
            )
            return shuffled.collect()

        clean = run(None, False)
        chaotic = run(FaultInjector(CHAOS), True)
        assert len(clean) == len(chaotic)
        for a, b in zip(clean, chaotic):
            assert graphs_equivalent(a, b)

    @pytest.mark.parametrize("app", list(SPARK_APPS))
    def test_every_app_completes_under_chaos(self, app):
        injector = FaultInjector(FaultPolicy.chaos(seed=77, probability=0.05))
        baseline = SPARK_APPS[app](_kryo_backend())
        result = SPARK_APPS[app](
            _kryo_backend(), injector=injector, frame_streams=True
        )
        assert result.records == baseline.records
        # Chaos can only add time (retries, re-execution, GC pauses).
        assert result.total_ns >= baseline.total_ns
        totals = injector.report.totals
        assert totals.detected == totals.recovered  # nothing escalated
        assert totals.injected >= totals.detected - totals.fallbacks

    def test_cereal_apps_complete_with_accelerator_chaos(self):
        injector = FaultInjector(FaultPolicy.chaos(seed=5, probability=0.05))
        accelerator = CerealAccelerator()
        backend = CerealBackend(accelerator, injector=injector)
        result = SPARK_APPS["terasort"](
            backend, injector=injector, frame_streams=True
        )
        assert result.total_ns > 0
        report = injector.report
        acc = report.layer("accelerator")
        assert acc.fallbacks == result.breakdown.fallback_count
        assert acc.detected == acc.recovered


class TestChaosPin:
    """Exact modelled outputs of one chaos run, fallback paths included.

    Terasort under ``FaultPolicy.chaos(seed=1, probability=0.2)`` with
    framed streams. On Cereal the schedule injects two serialize faults
    (run on the Kryo fallback) and three deserialize faults (decoded by the
    software Cereal codec); the two Kryo-produced streams then decode on
    Kryo too. Every number is seeded, so the pins are exact: the ledger
    digest is ``repr`` of each :class:`SDOperation` as a tuple.
    """

    PINNED = {
        "cereal": (
            "d010e6839d25b306581065b43c9f1451a9c0a904121975b1466f5a0e59029ce9",
            (4441581.650606592, 1321088.0, 180000000.0, 2272290.1045751637,
             3890558.470588235, 10193221.238986235),
            7,
            (18, 20, 20, 7),
            {
                "accelerator": {"injected": 5, "detected": 7, "recovered": 7,
                                "fallbacks": 7},
                "executor": {"injected": 3, "detected": 3, "recovered": 3,
                             "fallbacks": 0},
                "heap": {"injected": 7, "detected": 7, "recovered": 7,
                         "fallbacks": 0},
                "transfer": {"injected": 3, "detected": 3, "recovered": 3,
                             "fallbacks": 0},
            },
        ),
        "kryo": (
            "f5abca25ddfcfd8f40bba2733fc4233254c6f3972987cb9856fefcf53e6b3a99",
            (4441581.650606592, 1321088.0, 180000000.0, 9595107.614379086,
             7444579.379084969, 10191810.038986236),
            0,
            (13, 13, 13, 0),
            {
                "executor": {"injected": 3, "detected": 3, "recovered": 3,
                             "fallbacks": 0},
                "heap": {"injected": 7, "detected": 7, "recovered": 7,
                         "fallbacks": 0},
                "transfer": {"injected": 3, "detected": 3, "recovered": 3,
                             "fallbacks": 0},
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_terasort_chaos_outputs_pinned(self, name):
        injector = FaultInjector(FaultPolicy.chaos(seed=1, probability=0.2))
        if name == "cereal":
            backend = CerealBackend(CerealAccelerator(), injector=injector)
        else:
            backend = _kryo_backend()
        result = SPARK_APPS["terasort"](
            backend, scale=0.2, injector=injector, frame_streams=True
        )
        breakdown = result.breakdown
        ledger = hashlib.sha256(
            repr([dataclasses.astuple(op) for op in breakdown.operations]).encode()
        ).hexdigest()
        buckets = (
            breakdown.compute_ns,
            breakdown.gc_ns,
            breakdown.io_ns,
            breakdown.serialize_ns,
            breakdown.deserialize_ns,
            breakdown.retry_ns,
        )
        ledger_digest, bucket_ns, fallbacks, totals, layers = self.PINNED[name]
        assert ledger == ledger_digest
        assert buckets == bucket_ns
        assert breakdown.fallback_count == fallbacks
        assert getattr(backend, "fallback_count", 0) == fallbacks
        assert dataclasses.astuple(injector.report.totals) == totals
        assert injector.report.as_dict() == layers


class TestAcceleratorFallback:
    def _run_with_fault_prob(self, probability):
        injector = FaultInjector(
            FaultPolicy(seed=9, accelerator_fault_prob=probability)
        )
        backend = CerealBackend(CerealAccelerator(), injector=injector)
        result = SPARK_APPS["terasort"](backend, injector=injector)
        return result, injector

    def test_every_capacity_error_absorbed(self):
        result, injector = self._run_with_fault_prob(1.0)
        # Every operation had an injected CapacityError; all were absorbed.
        assert result.breakdown.fallback_count == len(
            result.breakdown.operations
        )
        assert injector.report.layer("accelerator").fallbacks == len(
            result.breakdown.operations
        )

    def test_partial_faults_mix_hardware_and_fallback(self):
        result, injector = self._run_with_fault_prob(0.3)
        fallbacks = result.breakdown.fallback_count
        assert 0 < fallbacks < len(result.breakdown.operations)

    def test_real_capacity_error_absorbed_without_injector(self):
        """A genuine (non-injected) CapacityError must also fall back."""
        backend = CerealBackend(CerealAccelerator())

        def exploding_serialize(root):
            raise CapacityError("MAI coalescing buffer overflow")

        backend.accelerator.serialize = exploding_serialize
        context = MiniSparkContext(backend)
        records = _build_records(context, count=8)
        stream = context.serialize_bucket(records, site="shuffle")
        assert context.breakdown.operations[-1].fallback
        assert stream.format_name == "kryo"
        # And the fallback stream deserializes through the same backend.
        received = context.deserialize_bucket(stream, site="shuffle")
        assert len(received) == 8
        assert backend.fallback_count == 2  # serialize + deserialize

    def test_fallback_result_equivalent_to_hardware(self):
        fallback_ctx = None
        results = []
        for prob in (0.0, 1.0):
            injector = FaultInjector(
                FaultPolicy(seed=2, accelerator_fault_prob=prob)
            )
            backend = CerealBackend(CerealAccelerator(), injector=injector)
            context = MiniSparkContext(backend, injector=injector)
            records = _build_records(context, count=12)
            dataset = context.parallelize(records, 3)
            results.append(
                dataset.shuffle(key_fn=lambda r: int(r.get("key"))).collect()
            )
            fallback_ctx = context
        hardware, software = results
        assert fallback_ctx.breakdown.fallback_count > 0
        assert len(hardware) == len(software)
        for a, b in zip(hardware, software):
            assert graphs_equivalent(a, b)


class TestFramingLayer:
    def test_framed_stream_sections_balance(self):
        context = MiniSparkContext(_kryo_backend())
        records = _build_records(context, count=4)
        stream = context.serialize_bucket(records, site="shuffle")
        framed = stream.framed()
        framed.check_sections()
        assert framed.size_bytes == stream.size_bytes + 16
        assert framed.framed() is framed  # idempotent
        assert framed.unframed().data == stream.data

    def test_unframed_on_bare_stream_raises(self):
        context = MiniSparkContext(_kryo_backend())
        records = _build_records(context, count=4)
        stream = context.serialize_bucket(records, site="shuffle")
        with pytest.raises(CorruptionError):
            stream.unframed()


class TestFaultReport:
    def test_merge_and_totals(self):
        a = FaultReport()
        a.record_injected("transfer", 3)
        a.record_detected("transfer", 2)
        b = FaultReport()
        b.record_injected("accelerator")
        b.record_fallback("accelerator")
        a.merge(b)
        assert a.totals.injected == 4
        assert a.totals.fallbacks == 1
        assert a.as_dict()["transfer"]["injected"] == 3

    def test_report_exposed_through_analysis(self):
        from repro.analysis import FaultReport as AnalysisFaultReport

        report = AnalysisFaultReport()
        report.record_injected("heap")
        assert report.as_dict()["heap"]["injected"] == 1
        assert report.totals.injected == 1
