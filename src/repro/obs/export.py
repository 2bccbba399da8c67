"""Snapshot exporters: nested dict, JSON lines, tables, Chrome traces.

All formats are deterministic renderings of the same nested-dict
snapshot (:meth:`repro.obs.instrument.Observability.snapshot`): keys are
sorted, timestamps are exact strings or logical ticks, floats keep their
``repr``. Byte-identical runs produce byte-identical exports in every
format — asserted by the test suite, relied on by the benchmarks.

:func:`to_chrome_trace` renders spans and flight-recorder events in the
Chrome ``trace_event`` JSON format, loadable in ``chrome://tracing`` or
Perfetto; see its docstring for the time/track mapping.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.obs.events import events_rows
from repro.obs.instrument import Observability
from repro.obs.metrics import export_value


def to_dict(obs: Observability) -> dict[str, Any]:
    """The canonical nested-dict snapshot (metrics + spans + events)."""
    return obs.snapshot()


def to_json_lines(obs: Observability) -> str:
    """One JSON object per line: metrics (sorted), spans, then events.

    Line shapes: ``{"metric": name, "type": ..., "series": [...]}``,
    ``{"span": name, "span_id": ..., ...}`` and ``{"event": name,
    "seq": ..., ...}``. Keys are sorted within every object, making the
    output stable enough to diff or hash.
    """
    lines = []
    snapshot = obs.snapshot()
    for name in sorted(snapshot["metrics"]):
        body = {"metric": name, **snapshot["metrics"][name]}
        lines.append(json.dumps(body, sort_keys=True))
    for span in snapshot["spans"]:
        lines.append(json.dumps({"span": span["name"], **span},
                                sort_keys=True))
    for event in snapshot["events"]:
        lines.append(json.dumps({"event": event["name"], **event},
                                sort_keys=True))
    return "\n".join(lines)


def _format_labels(labels: Mapping[str, Any] | None) -> str:
    if not labels:
        return ""
    return ",".join(f"{k}={labels[k]}" for k in sorted(labels))


def _format_value(entry: Mapping[str, Any]) -> str:
    value = entry["value"]
    if isinstance(value, Mapping):  # histogram
        return (
            f"count={value['count']} sum={value['sum']:.6g} "
            f"buckets={value['counts']}"
        )
    return str(value)


def metrics_rows(obs: Observability) -> list[tuple[str, str, str, str]]:
    """Flatten a snapshot to ``(metric, type, labels, value)`` rows."""
    rows = []
    for name, body in sorted(obs.snapshot()["metrics"].items()):
        for entry in body["series"]:
            rows.append((
                name,
                body["type"],
                _format_labels(entry.get("labels")),
                _format_value(entry),
            ))
    return rows


def to_table(obs: Observability, title: str | None = None) -> str:
    """Aligned text table of every metric series, benchmark-style."""
    from repro.bench.reporting import table_text

    return table_text(
        ("metric", "type", "labels", "value"),
        metrics_rows(obs),
        title=title,
    )


def events_to_table(obs: Observability, title: str | None = None,
                    min_severity=None, limit: int | None = None) -> str:
    """Aligned text table of flight-recorder events (newest last)."""
    from repro.bench.reporting import table_text

    events = obs.events.events(min_severity=min_severity)
    if limit is not None:
        events = events[-limit:]
    return table_text(
        ("seq", "at", "severity", "component", "event", "attributes"),
        events_rows(events),
        title=title,
    )


def _trace_ts(value: Any) -> float:
    """A trace_event timestamp (microseconds) from a recorded time.

    Logical ticks map to one microsecond each; simulated clock values
    (exact rationals) are seconds and scale by 10**6. Both conversions
    are deterministic for identical inputs.
    """
    if isinstance(value, int):
        return float(value)
    return float(value) * 1_000_000.0


def _time_domain(value: Any) -> str:
    return "logical" if isinstance(value, int) else "simulated"


def trace_events(obs: Observability) -> list[dict[str, Any]]:
    """Chrome ``trace_event`` rows for the recorded spans and events.

    Mapping:

    * every finished span becomes a complete ("X") event with ``ts`` /
      ``dur`` in microseconds;
    * track (``tid``) assignment is by correlation first: a span or
      event carrying a ``trace_id`` attribute (stamped by
      :class:`~repro.obs.tracing.TraceContext`) lands on that trace's
      own track regardless of which component recorded it — one
      causally-linked per-session track across router, shards, player
      and page store. A ``scope`` attribute (a fleet shard's tagged
      view) is the next tiebreak, giving each shard a stable track;
    * otherwise the structural fallback keeps nesting well-formed
      despite the two time domains: a span shares a track with its
      nearest ancestor in a *different* time domain (so one VOD
      session's simulated spans land on that session's track), falling
      back to its tree root — per-session playbacks that all start at
      simulated t=0 therefore never interleave on one track;
    * flight-recorder events become instant ("i") events on one track
      per trace / (component, time-domain);
    * the full list is sorted by ``(ts, -dur)``, so ``ts`` is monotonic
      on every track and an enclosing span always precedes its
      same-time-domain children (a cross-domain parent lives on a
      different track, where ordering against its children is
      meaningless).
    """
    spans = [s for s in obs.tracer.spans if s.end is not None]
    by_id = {s.span_id: s for s in spans}

    def anchor(span) -> tuple:
        """Track key: trace id, scope, nearest differing-domain
        ancestor, else tree root."""
        domain = _time_domain(span.start)
        trace_id = span.attributes.get("trace_id")
        if trace_id is not None:
            return ("trace", str(trace_id))
        scope = span.attributes.get("scope")
        if scope is not None:
            return ("scope", str(scope), domain)
        node = span
        root = span
        while node.parent_id is not None and node.parent_id in by_id:
            node = by_id[node.parent_id]
            root = node
            if _time_domain(node.start) != domain:
                return ("span", node.span_id, domain)
        return ("span", root.span_id, domain)

    track_ids: dict[tuple, int] = {}

    def tid_for(key: tuple) -> int:
        if key not in track_ids:
            track_ids[key] = len(track_ids) + 1
        return track_ids[key]

    rows: list[dict[str, Any]] = []
    for span in spans:
        start = _trace_ts(span.start)
        duration = max(_trace_ts(span.end) - start, 0.0)
        args: dict[str, Any] = {
            key: export_value(span.attributes[key])
            for key in sorted(span.attributes)
        }
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        rows.append({
            "name": span.name,
            "cat": _time_domain(span.start),
            "ph": "X",
            "ts": start,
            "dur": duration,
            "pid": 1,
            "tid": tid_for(anchor(span)),
            "args": args,
        })
    for event in obs.events.events():
        args = {
            key: export_value(event.attributes[key])
            for key in sorted(event.attributes)
        }
        args["seq"] = event.seq
        args["severity"] = event.severity.name
        trace_id = event.attributes.get("trace_id")
        if trace_id is not None:
            event_key: tuple = ("trace", str(trace_id))
        else:
            event_key = ("events", event.component,
                         _time_domain(event.at))
        rows.append({
            "name": f"{event.component}:{event.name}",
            "cat": event.severity.name,
            "ph": "i",
            "s": "t",
            "ts": _trace_ts(event.at),
            "pid": 1,
            "tid": tid_for(event_key),
            "args": args,
        })
    rows.sort(key=lambda r: (r["ts"], -r.get("dur", 0.0)))
    names = []
    for key, tid in sorted(track_ids.items(), key=lambda kv: kv[1]):
        if key[0] == "trace":
            label = f"trace:{key[1]}"
        elif key[0] == "scope":
            label = f"scope:{key[1]}:{key[2]}"
        elif key[0] == "span":
            root = by_id[key[1]]
            label = f"{key[2]}:{root.name}#{root.span_id}"
        else:
            label = f"events:{key[1]}:{key[2]}"
        names.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": label},
        })
    return names + rows


def to_chrome_trace(obs: Observability) -> str:
    """The trace_event JSON document (chrome://tracing / Perfetto)."""
    return json.dumps(
        {"displayTimeUnit": "ms", "traceEvents": trace_events(obs)},
        sort_keys=True,
    )
