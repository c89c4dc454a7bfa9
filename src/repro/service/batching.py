"""Batch coalescing: trade a bounded wait for amortized dispatch cost.

The accelerator's command-queue interface rewards batches: descriptor
setup, doorbell, and DMA programming are paid once per dispatch, and a
batch of independent operations fills the whole SU/DU pool in one shot.
The coalescer holds arriving requests per kind (serialize and deserialize
target different unit pools, so they batch separately) until one of two
triggers closes the batch:

* the request-count cap (fills the unit pool exactly),
* the wait deadline (bounds the latency cost of waiting for peers).

``max_wait_ns == 0`` degenerates to one-request batches dispatched
immediately — the unbatched baseline every batching sweep compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.service.workload import KINDS, ServiceRequest

#: Requests per batch: one per unit of the default pool.
MAX_BATCH_REQUESTS = 8


@dataclass
class Batch:
    """A closed group of same-kind requests dispatched together."""

    batch_id: int
    kind: str
    requests: List[ServiceRequest]
    opened_ns: float
    closed_ns: float

    @property
    def size(self) -> int:
        return len(self.requests)


@dataclass
class _PendingGroup:
    """An open (not yet dispatched) batch accumulating requests."""

    seq: int
    opened_ns: float
    requests: List[ServiceRequest] = field(default_factory=list)


@dataclass
class AddOutcome:
    """What happened when a request entered the coalescer."""

    batch: Optional[Batch] = None  # set when the add closed a batch
    opened_seq: Optional[int] = None  # set when the add opened a new group
    deadline_ns: Optional[float] = None  # flush deadline for the new group


class BatchCoalescer:
    """Per-kind accumulation with a count cap and a wait deadline."""

    def __init__(self, max_wait_ns: float = 20_000.0):
        if max_wait_ns < 0:
            raise ConfigError("max_wait_ns must be non-negative")
        self.max_wait_ns = max_wait_ns
        self._pending: Dict[str, Optional[_PendingGroup]] = {k: None for k in KINDS}
        self._next_seq = 0
        self._next_batch_id = 0
        self.batches_closed = 0
        self.requests_batched = 0

    # -- internals ---------------------------------------------------------------------

    def _close(self, kind: str, now_ns: float) -> Batch:
        group = self._pending[kind]
        assert group is not None and group.requests
        self._pending[kind] = None
        batch = Batch(
            batch_id=self._next_batch_id,
            kind=kind,
            requests=group.requests,
            opened_ns=group.opened_ns,
            closed_ns=now_ns,
        )
        self._next_batch_id += 1
        self.batches_closed += 1
        self.requests_batched += batch.size
        return batch

    # -- event-loop interface -------------------------------------------------------

    def add(self, request: ServiceRequest, now_ns: float) -> AddOutcome:
        """Admit one request; maybe close a batch or open a new group."""
        if request.kind not in KINDS:
            raise ConfigError(f"unknown request kind {request.kind!r}")
        if self.max_wait_ns == 0:
            # Unbatched mode: every request is its own immediate batch.
            self._pending[request.kind] = _PendingGroup(
                seq=self._next_seq, opened_ns=now_ns, requests=[request]
            )
            self._next_seq += 1
            return AddOutcome(batch=self._close(request.kind, now_ns))
        outcome = AddOutcome()
        group = self._pending[request.kind]
        if group is None:
            group = _PendingGroup(seq=self._next_seq, opened_ns=now_ns)
            self._next_seq += 1
            self._pending[request.kind] = group
            outcome.opened_seq = group.seq
            outcome.deadline_ns = now_ns + self.max_wait_ns
        group.requests.append(request)
        if len(group.requests) >= MAX_BATCH_REQUESTS:
            outcome.batch = self._close(request.kind, now_ns)
        return outcome

    def flush_due(self, kind: str, seq: int, now_ns: float) -> Optional[Batch]:
        """Close the pending group iff it is still the one that set ``seq``.

        Deadline events for groups already closed by the count cap
        arrive stale; the sequence check makes them harmless no-ops.
        """
        group = self._pending.get(kind)
        if group is None or group.seq != seq:
            return None
        return self._close(kind, now_ns)

    def flush_all(self, now_ns: float) -> List[Batch]:
        """Close every open group (end-of-run drain)."""
        batches = []
        for kind in KINDS:
            if self._pending.get(kind) is not None:
                batches.append(self._close(kind, now_ns))
        return batches

    def pending_requests(self) -> List[ServiceRequest]:
        """Requests admitted but not yet dispatched (open groups), in
        arrival order. Failover uses this to reap a failed node's
        coalescer without dispatching anything."""
        pending: List[ServiceRequest] = []
        for kind in KINDS:
            group = self._pending.get(kind)
            if group is not None:
                pending.extend(group.requests)
        return pending

    def clear_pending(self) -> int:
        """Drop every open group (the node died with them); returns the
        number of requests discarded. They were never counted as batched,
        so ``mean_batch_size`` stays truthful."""
        dropped = 0
        for kind in KINDS:
            group = self._pending.get(kind)
            if group is not None:
                dropped += len(group.requests)
                self._pending[kind] = None
        return dropped

    @property
    def mean_batch_size(self) -> float:
        if self.batches_closed == 0:
            return 0.0
        return self.requests_batched / self.batches_closed
