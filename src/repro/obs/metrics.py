"""Process-wide metrics: labeled counters, gauges, and histograms.

One registry every instrumented layer records into — the plan and
layout caches, the chunked transfer path, the hardened decoder, the
memory store, the serving layer — in place of a bespoke stats dict per
subsystem:

* :class:`Counter` — monotonically increasing count (``inc``), e.g. cache
  hits, requests by outcome, fault injections by layer.
* :class:`Gauge` — a settable level (``set`` / ``set_max``), e.g. the
  largest chunk a chunked transfer held or resident cache entries.
* :class:`Histogram` — a value distribution with fixed log2-scale buckets
  plus an exact small-sample reservoir, so quantiles are *exact* until the
  sample count exceeds the reservoir and bucket-interpolated beyond it.

Metrics are keyed on ``(name, sorted labels)``; fetching the same key
twice returns the same object, so modules can cache handles at import
time. :meth:`MetricsRegistry.snapshot` renders the whole registry as one
flat JSON-able dict — the ``runtime`` block of every ``BENCH_*.json``.

Cost model: counters and gauges stay live even when the registry is
disabled — they are single int/float updates, and the CI cache-health
gates depend on them. ``disable()`` is the no-op fast path
for the *expensive* instruments: histogram observation (sorting reservoir
upkeep) returns immediately, and the span tracer in
:mod:`repro.obs.trace` carries its own independent switch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exact_quantile",
    "get_registry",
    "set_registry",
]

#: log2 buckets: bucket ``i`` holds values in ``[2**(i-1), 2**i)`` (bucket
#: 0 holds everything below 1). 64 buckets cover any ns-scale latency.
_NUM_BUCKETS = 64


def exact_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of pre-sorted ``ordered`` (q in [0, 100]).

    This is the *one* quantile definition in the reproduction: the SLO
    summaries, the trace exports, and every histogram's exact path all
    route here, so "p99" means the same number
    in every report. Edge cases are exact by construction: an empty series
    raises a clear :class:`ValueError`, one sample returns that sample,
    and ``q == 0`` / ``q == 100`` return the true min / max.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"quantile q must be in [0, 100], got {q}")
    if not ordered:
        raise ValueError("cannot take a quantile of no samples")
    if len(ordered) == 1 or q == 0.0:
        return ordered[0]
    if q == 100.0:
        return ordered[-1]
    rank = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _bucket_index(value: float) -> int:
    """The log2 bucket for ``value`` (values < 1 land in bucket 0)."""
    if value < 1.0:
        return 0
    return min(_NUM_BUCKETS - 1, int(value).bit_length())


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A settable level (last-write-wins, plus a high-water helper)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        """Record a high-water mark: keep the larger of old and new."""
        if value > self.value:
            self.value = value

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Log2-bucketed distribution with an exact small-sample reservoir.

    The first ``exact_limit`` observations are retained verbatim, so
    small-sample quantiles (the common case for per-run SLO summaries) are
    exact — identical to :func:`exact_quantile` over the raw series. Past
    the reservoir, quantiles interpolate linearly inside the covering log2
    bucket, which bounds the error by the bucket width while keeping
    memory fixed for arbitrarily long service runs.
    """

    __slots__ = (
        "name", "labels", "count", "total", "min", "max",
        "_buckets", "_samples", "_sorted", "exact_limit", "_registry",
    )

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        exact_limit: int = 4096,
        registry: Optional["MetricsRegistry"] = None,
    ):
        if exact_limit < 0:
            raise ValueError("exact_limit must be non-negative")
        self.name = name
        self.labels = labels
        self.exact_limit = exact_limit
        self._registry = registry
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets = [0] * _NUM_BUCKETS
        self._samples: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._registry is not None and not self._registry.enabled:
            return  # the disabled no-op fast path
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._buckets[_bucket_index(value)] += 1
        if len(self._samples) < self.exact_limit:
            self._samples.append(value)
            self._sorted = False

    @property
    def exact(self) -> bool:
        """True while every observation is still in the reservoir."""
        return self.count == len(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _ordered_samples(self) -> List[float]:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return self._samples

    def quantile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100]); exact when possible."""
        if self.count == 0:
            raise ValueError(
                f"histogram {self.name!r} has no samples to take a quantile of"
            )
        if self.exact:
            return exact_quantile(self._ordered_samples(), q)
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile q must be in [0, 100], got {q}")
        if q == 0.0:
            return self.min
        if q == 100.0:
            return self.max
        # Bucket path: walk the cumulative counts, interpolate within the
        # covering bucket's [low, high) bounds.
        rank = (self.count - 1) * (q / 100.0)
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            if bucket_count == 0:
                continue
            if seen + bucket_count > rank:
                low = 0.0 if index == 0 else float(1 << (index - 1))
                high = float(1 << index)
                low = max(low, self.min)
                high = min(high, self.max)
                if bucket_count == 1 or high <= low:
                    return low
                fraction = (rank - seen) / (bucket_count - 1)
                return low + (high - low) * min(1.0, fraction)
            seen += bucket_count
        return self.max

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram, in place.

        This is how per-node latency distributions aggregate into
        cluster-wide quantiles: counts, totals, min/max, and log2 buckets
        add element-wise, and the exact reservoirs concatenate. As long as
        the combined sample count still fits this histogram's
        ``exact_limit``, the merged quantiles remain *exact* — identical
        to :func:`exact_quantile` over the union of the raw series. Past
        the limit the merge degrades to the bucket-interpolated path, the
        same behaviour a single long-running histogram has.

        Merging never mutates ``other``; returns ``self`` for chaining.
        """
        if other.count == 0:
            return self
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for index, bucket_count in enumerate(other._buckets):
            if bucket_count:
                self._buckets[index] += bucket_count
        room = self.exact_limit - len(self._samples)
        if room > 0:
            self._samples.extend(other._samples[:room])
            self._sorted = False
        return self

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets = [0] * _NUM_BUCKETS
        self._samples = []
        self._sorted = True

    def summary(self) -> Dict[str, float]:
        """count/mean/min/max plus the SLO quantiles, as plain floats."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
            "p999": self.quantile(99.9),
            "exact": self.exact,
        }


class MetricsRegistry:
    """Get-or-create home for every metric of one process (or test)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}

    # -- lifecycle ---------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        """Stop histogram observation (counters/gauges stay live)."""
        self.enabled = False

    # -- get-or-create -----------------------------------------------------------

    def _fetch(self, cls, name: str, labels: Mapping[str, object], **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._fetch(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._fetch(Gauge, name, labels)

    def histogram(self, name: str, exact_limit: int = 4096, **labels) -> Histogram:
        return self._fetch(
            Histogram, name, labels, exact_limit=exact_limit, registry=self
        )

    # -- views ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The whole registry as one flat, JSON-able, sorted dict."""
        out: Dict[str, object] = {}
        for (name, labels), metric in self._metrics.items():
            key = _render_key(name, labels)
            if isinstance(metric, Counter):
                out[key] = metric.value
            elif isinstance(metric, Gauge):
                out[key] = metric.value
            else:
                out[key] = metric.summary()  # type: ignore[union-attr]
        return dict(sorted(out.items()))

    def merge_snapshot(self, other: "MetricsRegistry") -> None:
        """Fold another registry's current state into this one.

        The cluster layer gives every server node a private registry and
        aggregates them through here: counters add, gauges keep the
        high-water mark, histograms :meth:`Histogram.merge` (so
        cluster-wide quantiles stay exact while the combined sample count
        fits the reservoir). Metrics absent from this registry are created
        with the same name/labels; a name registered under a different
        metric type raises :class:`TypeError` exactly like ``_fetch``
        does. ``other`` is read, never mutated.
        """
        for (name, labels), metric in other._metrics.items():
            if isinstance(metric, Counter):
                mine = self._fetch(Counter, name, dict(labels))
                mine.value += metric.value
            elif isinstance(metric, Gauge):
                mine = self._fetch(Gauge, name, dict(labels))
                mine.set_max(metric.value)
            else:
                mine = self._fetch(
                    Histogram,
                    name,
                    dict(labels),
                    exact_limit=metric.exact_limit,
                    registry=self,
                )
                mine.merge(metric)

    def reset(self) -> None:
        """Zero every metric in place (handles cached by modules survive)."""
        for metric in self._metrics.values():
            metric.reset()  # type: ignore[union-attr]

    def __len__(self) -> int:
        return len(self._metrics)


#: The process-wide registry every instrumented layer records into.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one.

    Module-level metric handles created from the old registry keep
    recording into it, so prefer :meth:`MetricsRegistry.reset` for
    isolation; this hook exists for overhead experiments that need a
    genuinely cold registry.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous
