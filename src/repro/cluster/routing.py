"""Consistent-hash placement with replication and locality preference.

Keys map onto a ring of virtual nodes (many per physical node, so load
spreads evenly); the *preference list* of a key is the first R distinct
physical nodes walking clockwise from the key's point. That walk gives
the two properties the cluster leans on:

* **stability** — adding or removing one node remaps only the keys whose
  ring arcs that node owned (~1/N of the key space), so a scale event or
  failover does not reshuffle the whole cluster;
* **replica separation** — the preference list skips virtual nodes of
  physical nodes already chosen, so a key's primary and replicas are
  always distinct machines.

Hashing is FNV-1a finished with splitmix64 — a stable, unsalted function
of the string alone, so placements are identical across runs and
processes (Python's built-in ``hash`` is salted per process and would
break determinism).
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigError
from repro.common.hashing import stable_hash

__all__ = ["ClusterRouter", "ConsistentHashRing", "stable_hash"]

#: Virtual nodes per physical node on the ring.
VNODES = 64
#: Preference-list length: the primary plus one failover replica.
REPLICATION_FACTOR = 2


class ConsistentHashRing:
    """The classic virtual-node consistent-hash ring."""

    def __init__(self):
        self._points: List[int] = []  # sorted ring positions
        self._owner: Dict[int, str] = {}  # position -> physical node
        self._nodes: Dict[str, List[int]] = {}  # node -> its positions

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def add_node(self, node_id: str) -> None:
        if not node_id:
            raise ConfigError("node_id must be non-empty")
        if node_id in self._nodes:
            raise ConfigError(f"node {node_id!r} is already on the ring")
        points = []
        for replica in range(VNODES):
            point = stable_hash(f"{node_id}#{replica}")
            # A 64-bit collision across vnode labels is effectively
            # impossible, but dropping the duplicate keeps the ring sane.
            if point in self._owner:
                continue
            self._owner[point] = node_id
            bisect.insort(self._points, point)
            points.append(point)
        self._nodes[node_id] = points

    def remove_node(self, node_id: str) -> None:
        points = self._nodes.pop(node_id, None)
        if points is None:
            raise ConfigError(f"node {node_id!r} is not on the ring")
        for point in points:
            del self._owner[point]
            index = bisect.bisect_left(self._points, point)
            self._points.pop(index)

    def preference(self, key: str, count: int) -> List[str]:
        """The first ``count`` *distinct physical nodes* clockwise from
        the key's ring point — primary first, then failover replicas."""
        if not self._points or count <= 0:
            return []
        start = bisect.bisect_right(self._points, stable_hash(key))
        chosen: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            owner = self._owner[point]
            if owner in seen:
                continue
            seen.add(owner)
            chosen.append(owner)
            if len(chosen) >= count:
                break
        return chosen


class ClusterRouter:
    """Key → serving-node dispatch over the ring, locality-aware.

    The router owns the ring membership (only UP nodes are on it) and a
    zone map. Dispatch walks the key's preference list of
    ``REPLICATION_FACTOR`` nodes: with a request zone given, the first
    replica in that zone wins; otherwise the primary does. Because
    failed/draining nodes leave the ring, failover routing is just the
    same walk on the shrunken ring.
    """

    def __init__(self):
        self.ring = ConsistentHashRing()
        self._zones: Dict[str, str] = {}
        self.locality_hits = 0
        self.locality_misses = 0

    def add_node(self, node_id: str, zone: str = "") -> None:
        self.ring.add_node(node_id)
        self._zones[node_id] = zone

    def remove_node(self, node_id: str) -> None:
        self.ring.remove_node(node_id)
        self._zones.pop(node_id, None)

    def replicas_for(self, key: str) -> List[str]:
        """The key's current preference list (primary first)."""
        return self.ring.preference(key, REPLICATION_FACTOR)

    def route(
        self, key: str, zone: str = "", exclude: Sequence[str] = ()
    ) -> Optional[str]:
        """Pick the serving node for ``key`` (None if no node is up).

        ``exclude`` drops nodes that already failed this request (retry
        escalation walks further down the preference list).
        """
        candidates = [
            node for node in self.replicas_for(key) if node not in exclude
        ]
        if not candidates:
            return None
        if zone:
            for node in candidates:
                if self._zones.get(node, "") == zone:
                    self.locality_hits += 1
                    return node
            self.locality_misses += 1
        return candidates[0]
