"""Admission control: bounded queues, load shedding, and degrade routing.

The service is open-loop — clients do not slow down when the server falls
behind — so backpressure has to be explicit. The controller tracks how
many admitted requests are anywhere in the system (coalescer, shard
queues, software lane) and applies a two-threshold policy:

* above ``degrade_threshold`` occupancy, new requests are *degraded*:
  admitted, but routed to the CPU software serializers instead of the
  accelerator shards. Software service is slower per request but adds
  capacity orthogonal to the saturated shard pools, trading latency for
  goodput exactly like production sidecar fallbacks do;
* at full occupancy (``max_outstanding``), new requests are *shed*:
  rejected immediately, counted against goodput, and excluded from the
  latency distribution (the client got an error, not a slow answer).

Malformed payloads form a separate shed class: the hardened decode path
(:mod:`repro.formats.secure`) rejects them with a typed error before any
slot is occupied, so they never consume queue capacity or appear in the
latency distribution. They are counted on the controller (``rejected``)
and in the ``decode.rejected{...}`` obs counters, distinct from
load shedding — a shed request was valid but unlucky; a rejected request
was never valid at all.

A third degrade source lives in the server: accelerator capacity faults
(from :mod:`repro.faults`) reroute already-dispatched batches to the
software lane. Those are counted separately as fault fallbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.errors import ConfigError

DECISION_ADMIT = "admit"
DECISION_DEGRADE = "degrade"
DECISION_SHED = "shed"
DECISION_REJECT = "reject"  # malformed payload: refused by the decoder


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounded-queue geometry and the degrade threshold."""

    max_outstanding: int = 1024
    degrade_threshold: float = 0.75
    enable_degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_outstanding <= 0:
            raise ConfigError("max_outstanding must be positive")
        if not 0.0 < self.degrade_threshold <= 1.0:
            raise ConfigError("degrade_threshold must be in (0, 1]")


class AdmissionController:
    """Occupancy tracker making the admit/degrade/shed decision."""

    def __init__(self, config: AdmissionConfig = AdmissionConfig()):
        self.config = config
        self.outstanding = 0
        self.peak_outstanding = 0
        self.admitted = 0
        self.degraded = 0
        self.shed = 0
        self.rejected = 0
        self.shed_by_priority: Dict[int, int] = {}
        self.degraded_by_priority: Dict[int, int] = {}

    def reject_malformed(self, reason: str = "malformed") -> str:
        """A payload the hardened decoder refused; occupies no slot.

        Counted per ``reason`` in the ``decode.rejected`` obs metric so
        SLO reports and bench snapshots can break rejections down the
        same way :func:`repro.formats.secure.decode_stats` does.
        """
        from repro.obs.metrics import get_registry

        self.rejected += 1
        get_registry().counter(
            "decode.rejected", format="service", reason=reason
        ).inc()
        return DECISION_REJECT

    def decide(self, priority: int = 0) -> str:
        """Decision for one arriving request; occupies a slot unless shed.

        ``priority`` is the request's QoS class: every class sees the
        full queue; sheds and degrades are counted per class.
        """
        capacity = self.config.max_outstanding
        if self.outstanding >= capacity:
            self.shed += 1
            self.shed_by_priority[priority] = (
                self.shed_by_priority.get(priority, 0) + 1
            )
            return DECISION_SHED
        decision = DECISION_ADMIT
        if (
            self.config.enable_degrade
            and self.outstanding >= self.config.degrade_threshold * capacity
        ):
            decision = DECISION_DEGRADE
            self.degraded += 1
            self.degraded_by_priority[priority] = (
                self.degraded_by_priority.get(priority, 0) + 1
            )
        self.admitted += 1
        self.outstanding += 1
        self.peak_outstanding = max(self.peak_outstanding, self.outstanding)
        return decision

    def release(self, count: int = 1) -> None:
        """A previously admitted request completed; free its slot."""
        if count > self.outstanding:
            raise ConfigError(
                f"releasing {count} requests but only {self.outstanding} "
                f"are outstanding"
            )
        self.outstanding -= count
