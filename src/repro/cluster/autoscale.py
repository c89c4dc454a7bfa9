"""Reactive autoscaling from observed load, not offered load.

The autoscaler is deliberately blind to the workload generator: it reads
only what a production controller could read — the ``cluster.*`` gauges
the cluster publishes into the :mod:`repro.obs` metrics registry each
control tick (queue depth summed over routable nodes, windowed p99 over
recent completions, node counts). Decisions:

* **scale up** when per-node queue depth exceeds ``queue_high_per_node``.
  Booting a node takes ``provision_delay_ns`` of simulated time, during
  which the node accrues cost but serves nothing — reactive scaling
  therefore always trails a flash crowd's leading edge, and the bench
  quantifies by how much.
* **scale down** when per-node queue depth falls below
  ``queue_low_per_node``: one node is drained — it finishes queued work,
  then retires.

Each decision is logged with the windowed p99 it saw.

A cooldown separates consecutive actions so one burst cannot slam the
cluster through its whole node budget, and ``min_nodes``/``max_nodes``
bound the fleet. Pending (STARTING) nodes count toward capacity so the
controller does not double-provision while a node boots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.obs.metrics import MetricsRegistry

SCALE_UP = "scale-up"
SCALE_DOWN = "scale-down"

#: Gauge names the cluster publishes and the autoscaler reads.
GAUGE_QUEUE_DEPTH = "cluster.queue_depth"
GAUGE_P99_NS = "cluster.p99_ns"
GAUGE_UP_NODES = "cluster.up_nodes"
GAUGE_STARTING_NODES = "cluster.starting_nodes"


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop thresholds and actuation limits."""

    min_nodes: int = 1
    max_nodes: int = 8
    #: Scale up when (queue depth / routable nodes) exceeds this.
    queue_high_per_node: float = 48.0
    #: Scale down when (queue depth / routable nodes) is below this.
    queue_low_per_node: float = 4.0
    #: Minimum simulated time between consecutive scaling actions.
    cooldown_ns: float = 2_000_000.0
    #: STARTING -> UP boot lag for nodes this controller provisions.
    provision_delay_ns: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.min_nodes <= 0:
            raise ConfigError("min_nodes must be positive")
        if self.max_nodes < self.min_nodes:
            raise ConfigError("max_nodes must be >= min_nodes")
        if self.queue_high_per_node <= self.queue_low_per_node:
            raise ConfigError(
                "queue_high_per_node must exceed queue_low_per_node"
            )
        if self.queue_low_per_node < 0:
            raise ConfigError("thresholds must be non-negative")
        if self.cooldown_ns < 0 or self.provision_delay_ns < 0:
            raise ConfigError("delays must be non-negative")


class Autoscaler:
    """One reactive controller instance (state: last action time + log)."""

    def __init__(self, config: AutoscalerConfig):
        self.config = config
        self._last_action_ns: Optional[float] = None
        self.actions: List[Dict[str, object]] = []

    def _log(
        self, action: str, now_ns: float, queue_per_node: float, p99_ns: float
    ) -> None:
        self._last_action_ns = now_ns
        self.actions.append(
            {
                "action": action,
                "ts_ns": now_ns,
                "queue_per_node": queue_per_node,
                "p99_ns": p99_ns,
            }
        )

    def decide(self, registry: MetricsRegistry, now_ns: float) -> str:
        """One control-tick evaluation; returns "", SCALE_UP or SCALE_DOWN.

        Reads cluster state exclusively from ``registry`` gauges — the
        same snapshot any dashboard of the run sees.
        """
        config = self.config
        if (
            self._last_action_ns is not None
            and now_ns - self._last_action_ns < config.cooldown_ns
        ):
            return ""
        up = int(registry.gauge(GAUGE_UP_NODES).value)
        starting = int(registry.gauge(GAUGE_STARTING_NODES).value)
        if up <= 0:
            return ""
        queue_depth = registry.gauge(GAUGE_QUEUE_DEPTH).value
        p99_ns = registry.gauge(GAUGE_P99_NS).value
        queue_per_node = queue_depth / up
        provisioned = up + starting
        hot = queue_per_node > config.queue_high_per_node
        if hot and provisioned < config.max_nodes:
            self._log(SCALE_UP, now_ns, queue_per_node, p99_ns)
            return SCALE_UP
        cold = queue_per_node < config.queue_low_per_node
        if cold and starting == 0 and up > config.min_nodes:
            self._log(SCALE_DOWN, now_ns, queue_per_node, p99_ns)
            return SCALE_DOWN
        return ""
