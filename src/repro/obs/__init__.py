"""``repro.obs`` — unified tracing + metrics for every layer.

The paper's analysis lives or dies on *attribution*: decomposing S/D time
into per-stage costs (walk, pack, MAI, DMA) and separating it from GC,
queueing, and retry time. This package is the substrate that produces
that attribution everywhere, for free, in every bench and test:

* :mod:`repro.obs.metrics` — a process-wide registry of labeled
  counters, gauges, and histograms (log-scale buckets + exact
  small-sample quantiles) with ``snapshot()``/``delta()``. Its flat
  ``snapshot()`` is the one runtime-stats shape (plan/layout cache,
  chunked transfer, decode, schema and memstore counters), and the one shared
  quantile definition
  (:func:`~repro.obs.metrics.exact_quantile`) backs the histograms,
  the trace exports and the service SLO summaries.
* :mod:`repro.obs.trace` — a span tracer on the simulated clock,
  context-manager/retrospective APIs, parent/child nesting, instant
  events, and bounded ring buffers. The service event
  loop, device simulator, mini-Spark engine, and fault injector all emit
  into it when enabled; disabled (the default) every hook is a single
  attribute check.
* :mod:`repro.obs.export` — Chrome trace-event JSON (open in
  ``chrome://tracing`` / Perfetto), with a structural validator the
  tests and CI run over every exported file.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exact_quantile,
    get_registry,
    set_registry,
)
from repro.obs.trace import (
    InstantEvent,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exact_quantile",
    "get_registry",
    "set_registry",
    "InstantEvent",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
