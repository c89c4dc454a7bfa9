"""The deterministic fault injector.

Every decision is a pure function of ``(policy.seed, channel, index)``
where ``channel`` names the decision point (e.g. ``"transfer.shuffle"``)
and ``index`` is a per-channel monotonic counter. Draws are produced by the
splitmix64 finalizer over those three inputs — no global RNG state, so
interleaving decisions across channels cannot perturb each other, and two
runs that perform the same operations in the same order inject byte-
identical fault schedules.

Fired decisions additionally land as instant events on the process-wide
tracer (track ``faults``), so a Chrome-trace export of a chaos run shows
exactly where in simulated time each fault hit. Quiet decisions (the
overwhelmingly common case) never touch the tracer.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.hashing import fnv1a64 as _fnv1a64
from repro.common.hashing import splitmix64
from repro.faults.policy import FaultPolicy
from repro.faults.report import FaultReport
from repro.obs.trace import get_tracer

_TWO64 = float(1 << 64)

#: Transfer fault kinds, in draw-partition order.
FAULT_CORRUPT = "corrupt"
FAULT_DROP = "drop"
FAULT_LATENCY = "latency"

#: Extra delay the transfer layer charges for one latency spike.
LATENCY_SPIKE_NS = 5e6

#: Of the corruption faults, this fraction truncate instead of bit-flip.
_TRUNCATION_FRACTION = 0.25


class FaultInjector:
    """Seeded fault oracle shared by every resilience layer of one run."""

    def __init__(self, policy: Optional[FaultPolicy] = None):
        self.policy = policy if policy is not None else FaultPolicy()
        self.report = FaultReport()
        self._counters: Dict[str, int] = {}

    # -- the deterministic draw ------------------------------------------------------

    def draw(self, channel: str) -> float:
        """Uniform [0, 1) draw; advances only ``channel``'s counter."""
        index = self._counters.get(channel, 0)
        self._counters[channel] = index + 1
        mixed = splitmix64(
            splitmix64(self.policy.seed ^ _fnv1a64(channel)) ^ index
        )
        return mixed / _TWO64

    # -- decision points ---------------------------------------------------------------

    def transfer_fault(self, site: str) -> Optional[str]:
        """Outcome of one transfer attempt at ``site``.

        Returns ``"corrupt"``, ``"drop"``, ``"latency"``, or ``None`` —
        one draw per attempt, partitioned by the policy's probabilities.
        """
        policy = self.policy
        if policy.transfer_fault_prob <= 0.0:
            return None
        draw = self.draw(f"transfer.{site}")
        if draw < policy.corruption_prob:
            fault = FAULT_CORRUPT
        elif draw < policy.corruption_prob + policy.drop_prob:
            fault = FAULT_DROP
        elif draw < policy.transfer_fault_prob:
            fault = FAULT_LATENCY
        else:
            return None
        self._mark("fault.transfer", site=site, kind=fault)
        return fault

    def corrupt_bytes(self, data: bytes, site: str) -> bytes:
        """Deterministically damage ``data``: truncate or flip one byte."""
        if not data:
            return data
        channel = f"corrupt.{site}"
        if self.draw(channel) < _TRUNCATION_FRACTION:
            keep = min(int(self.draw(channel) * len(data)), len(data) - 1)
            return data[:keep]
        position = min(int(self.draw(channel) * len(data)), len(data) - 1)
        flip = 1 + min(int(self.draw(channel) * 255), 254)
        mutated = bytearray(data)
        mutated[position] ^= flip
        return bytes(mutated)

    def executor_lost(self) -> bool:
        """Does the executor holding the just-produced map output die?"""
        if self.policy.executor_loss_prob <= 0.0:
            return False
        lost = self.draw("executor") < self.policy.executor_loss_prob
        if lost:
            self._mark("fault.executor")
        return lost

    def accelerator_fault(self, kind: str) -> bool:
        """Does the accelerator overflow a fixed structure on this op?"""
        if self.policy.accelerator_fault_prob <= 0.0:
            return False
        fired = (
            self.draw(f"accelerator.{kind}")
            < self.policy.accelerator_fault_prob
        )
        if fired:
            self._mark("fault.accelerator", kind=kind)
        return fired

    def node_lost(self, node_id: str) -> bool:
        """Does serving node ``node_id`` drop out at this decision point?

        The cluster control loop asks once per live node per tick, each on
        its own channel, so adding or removing nodes never perturbs the
        fault schedule of the others.
        """
        if self.policy.node_loss_prob <= 0.0:
            return False
        fired = self.draw(f"node.{node_id}") < self.policy.node_loss_prob
        if fired:
            self._mark("fault.node", node=node_id)
        return fired

    def heap_exhausted(self, site: str) -> bool:
        """Does this deserialization hit an exhausted destination heap?"""
        if self.policy.heap_exhaustion_prob <= 0.0:
            return False
        fired = self.draw(f"heap.{site}") < self.policy.heap_exhaustion_prob
        if fired:
            self._mark("fault.heap", site=site)
        return fired

    def _mark(self, name: str, **attrs) -> None:
        """Drop an instant event on the faults track (no-op when disabled)."""
        get_tracer().instant(name, category="fault", track="faults", **attrs)

    def jitter(self, site: str) -> float:
        """Uniform draw feeding retry-backoff jitter (seeded like faults)."""
        return self.draw(f"backoff.{site}")
