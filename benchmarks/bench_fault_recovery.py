"""Chaos benchmark — end-to-end cost of fault recovery.

Sweeps the injected fault probability from 0% to 10% over one Spark
application per backend (TeraSort: both shuffle- and transfer-heavy) and
reports the end-to-end slowdown versus the fault-free run, the transfer
retry count, lineage re-executions, and accelerator fallbacks. Checksummed
framing is enabled for every faulted run so corruption is always detected
rather than silently decoded.
"""

from __future__ import annotations

from _emit import emit_json
from repro.analysis import ReportTable
from repro.cereal import CerealAccelerator
from repro.faults import FaultInjector, FaultPolicy
from repro.formats import ClassRegistration, JavaSerializer, KryoSerializer
from repro.spark.apps import SPARK_APPS
from repro.spark.backend import CerealBackend, SoftwareBackend

_APP = "terasort"
_PROBABILITIES = (0.0, 0.01, 0.02, 0.05, 0.10)
_SEED = 0xFA57


def _make_backend(name: str, injector):
    if name == "java-builtin":
        return SoftwareBackend(JavaSerializer())
    if name == "kryo":
        return SoftwareBackend(KryoSerializer(ClassRegistration()))
    if name == "cereal":
        return CerealBackend(CerealAccelerator(), injector=injector)
    raise ValueError(name)


def _run_once(backend_name: str, probability: float):
    if probability > 0:
        injector = FaultInjector(
            FaultPolicy.chaos(seed=_SEED, probability=probability)
        )
    else:
        injector = None
    backend = _make_backend(backend_name, injector)
    result = SPARK_APPS[_APP](
        backend,
        injector=injector,
        frame_streams=probability > 0,
    )
    report = injector.report if injector is not None else None
    return result, report


def test_fault_recovery_sweep(benchmark, results_dir):
    def build():
        table = ReportTable(
            f"Fault recovery: {_APP}, fault probability sweep",
            [
                "Backend",
                "Fault %",
                "Total (ms)",
                "Slowdown",
                "Retry (ms)",
                "Retries",
                "Re-execs",
                "Fallbacks",
            ],
        )
        slowdowns = {}
        rows = []
        for backend_name in ("java-builtin", "kryo", "cereal"):
            baseline_ns = None
            for probability in _PROBABILITIES:
                result, report = _run_once(backend_name, probability)
                total_ns = result.total_ns
                if baseline_ns is None:
                    baseline_ns = total_ns
                slowdown = total_ns / baseline_ns
                slowdowns[(backend_name, probability)] = slowdown
                if report is not None:
                    transfer = report.layer("transfer")
                    executor = report.layer("executor")
                    accelerator = report.layer("accelerator")
                    retries = transfer.detected
                    reexecs = executor.recovered
                    fallbacks = accelerator.fallbacks
                else:
                    retries = reexecs = fallbacks = 0
                rows.append(
                    {
                        "backend": backend_name,
                        "fault_probability": probability,
                        "total_ns": total_ns,
                        "slowdown": slowdown,
                        "retry_ns": result.breakdown.retry_ns,
                        "retries": retries,
                        "reexecutions": reexecs,
                        "fallbacks": fallbacks,
                        "faults": report.as_dict() if report is not None else {},
                    }
                )
                table.add_row(
                    backend_name,
                    f"{probability * 100:.0f}%",
                    f"{total_ns / 1e6:.2f}",
                    f"{slowdown:.3f}x",
                    f"{result.breakdown.retry_ns / 1e6:.2f}",
                    str(retries),
                    str(reexecs),
                    str(fallbacks),
                )
        table.add_note(
            "framing enabled for faulted runs; seed fixed, so every row is "
            "exactly reproducible"
        )
        table.show()
        table.save(results_dir, "fault_recovery")
        emit_json(
            results_dir,
            "fault_recovery",
            {"sweep": rows},
            meta={
                "app": _APP,
                "seed": _SEED,
                "probabilities": list(_PROBABILITIES),
            },
        )
        return slowdowns

    slowdowns = benchmark.pedantic(build, rounds=1, iterations=1)
    for backend_name in ("java-builtin", "kryo", "cereal"):
        assert slowdowns[(backend_name, 0.0)] == 1.0
        # Recovery overhead at 10% faults stays bounded: the model never
        # loses completed work, so slowdown is far below catastrophic.
        assert slowdowns[(backend_name, 0.10)] < 2.0
        # And fault handling is never free once faults actually fire.
        assert slowdowns[(backend_name, 0.10)] >= 1.0
