"""Trace exporter: Chrome trace-event JSON.

:func:`to_chrome_trace` renders a :class:`~repro.obs.trace.Tracer` as a
Chrome trace-event document — open it at ``chrome://tracing`` or
https://ui.perfetto.dev to scrub through a service run's request spans,
shard unit timelines, and fault markers. The mapping:

* span → one complete event (``ph: "X"``) with ``ts``/``dur`` in
  microseconds of *simulated* time;
* instant event → ``ph: "i"`` with thread scope;
* every distinct track → one ``tid`` plus a ``thread_name`` metadata
  event, so Perfetto labels rows "requests", "shard0", "spark", ...

Exports are deterministic for a seeded run: events sort on
``(ts, tid, name)`` and carry the simulated clock only.

:func:`validate_chrome_trace` is the structural gate the tests and CI
run over every exported file: required keys per phase, integer pid/tid,
non-negative monotonic timestamps, JSON-serializability.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.trace import Tracer

__all__ = [
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]

_PID = 1
_VALID_PHASES = ("X", "i", "M")


def _track_ids(tracer: Tracer) -> Dict[str, int]:
    tracks = {span.track for span in tracer.spans()}
    tracks.update(event.track for event in tracer.events())
    return {track: index for index, track in enumerate(sorted(tracks))}


def to_chrome_trace(
    tracer: Tracer,
    metadata: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The tracer's contents as a Chrome trace-event document (a dict)."""
    tids = _track_ids(tracer)
    events: List[Dict[str, object]] = []
    for span in tracer.spans():
        args: Dict[str, object] = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "pid": _PID,
                "tid": tids[span.track],
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "args": args,
            }
        )
    for event in tracer.events():
        events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "s": "t",  # thread-scoped marker
                "pid": _PID,
                "tid": tids[event.track],
                "ts": event.ts_ns / 1e3,
                "args": dict(event.attrs),
            }
        )
    events.sort(key=lambda e: (e["ts"], e["tid"], e["name"]))
    # Thread-name metadata first, so viewers label rows before drawing.
    named: List[Dict[str, object]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in sorted(tids.items(), key=lambda kv: kv[1])
    ]
    document: Dict[str, object] = {
        "traceEvents": named + events,
        "displayTimeUnit": "ns",
        "metadata": dict(metadata or {}),
    }
    document["metadata"].setdefault("clock", "simulated-ns")
    document["metadata"].setdefault("dropped_spans", tracer.dropped_spans)
    document["metadata"].setdefault("dropped_events", tracer.dropped_events)
    return document


def write_chrome_trace(
    tracer: Tracer,
    path: str,
    metadata: Optional[Dict[str, object]] = None,
) -> str:
    """Validate and write the trace JSON to ``path``; returns ``path``."""
    document = to_chrome_trace(tracer, metadata=metadata)
    validate_chrome_trace(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def validate_chrome_trace(document: Dict[str, object]) -> Dict[str, int]:
    """Assert ``document`` is well-formed Chrome trace JSON.

    Raises :class:`ValueError` naming the first malformed event; returns
    per-phase counts on success so callers can gate on non-emptiness.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("trace document must be a dict with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    try:
        json.dumps(document)
    except (TypeError, ValueError) as error:
        raise ValueError(f"trace document is not JSON-serializable: {error}")
    counts = {phase: 0 for phase in _VALID_PHASES}
    last_ts = -1.0
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where} has unknown phase {phase!r}")
        counts[phase] += 1
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where} is missing a non-empty 'name'")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where} field {key!r} must be an int")
        if phase == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"{where} 'ts' must be a non-negative number")
        if ts < last_ts:
            raise ValueError(
                f"{where} breaks monotonic ts order ({ts} < {last_ts})"
            )
        last_ts = float(ts)
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where} 'dur' must be a non-negative number")
    return counts

