"""Fault policies: what can fail, and with what probability.

A policy is immutable; the same policy object can drive many runs. The
three transfer-level probabilities (corruption, drop, latency spike) are
mutually exclusive outcomes of a single per-transfer draw, so their sum
must stay <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError

_PROBABILITY_FIELDS = (
    "corruption_prob",
    "drop_prob",
    "latency_spike_prob",
    "executor_loss_prob",
    "accelerator_fault_prob",
    "heap_exhaustion_prob",
    "node_loss_prob",
)


@dataclass(frozen=True)
class FaultPolicy:
    """Seeded, per-fault-kind probabilities for one chaos configuration."""

    seed: int = 0
    #: Transfer arrives with flipped bytes or truncated (a quarter of the
    #: corruption faults truncate; see ``FaultInjector.corrupt_bytes``).
    corruption_prob: float = 0.0
    #: Transfer never arrives (network drop / peer died before sending).
    drop_prob: float = 0.0
    #: Transfer arrives intact but late (congested network, GC'd peer);
    #: each spike costs :data:`repro.faults.injector.LATENCY_SPIKE_NS`.
    latency_spike_prob: float = 0.0
    #: A map-side executor dies after producing a shuffle bucket.
    executor_loss_prob: float = 0.0
    #: The accelerator overflows a fixed-capacity structure (CAM / MAI
    #: queue) mid-operation and raises ``CapacityError``.
    accelerator_fault_prob: float = 0.0
    #: The destination heap cannot hold the rebuilt graph without an
    #: emergency collection first.
    heap_exhaustion_prob: float = 0.0
    #: A whole serving node (accelerator shards + software lane) drops out
    #: of the cluster. Evaluated once per node per cluster control tick.
    node_loss_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.transfer_fault_prob > 1.0:
            raise ConfigError(
                "corruption_prob + drop_prob + latency_spike_prob must not "
                f"exceed 1, got {self.transfer_fault_prob}"
            )

    @property
    def transfer_fault_prob(self) -> float:
        """Combined probability that one transfer attempt misbehaves."""
        return self.corruption_prob + self.drop_prob + self.latency_spike_prob

    @classmethod
    def chaos(cls, seed: int = 0, probability: float = 0.05) -> "FaultPolicy":
        """Uniform chaos: every fault kind fires with ``probability``.

        The three transfer outcomes split the transfer budget evenly so the
        *total* per-transfer fault rate equals ``probability``. Use with
        ``frame_streams=True`` so injected corruption is detectable.
        """
        share = probability / 3.0
        return cls(
            seed=seed,
            corruption_prob=share,
            drop_prob=share,
            latency_spike_prob=share,
            executor_loss_prob=probability,
            accelerator_fault_prob=probability,
            heap_exhaustion_prob=probability,
            node_loss_prob=probability,
        )


#: Shared "nothing ever fails" policy (used as a default).
NO_FAULTS = FaultPolicy()
