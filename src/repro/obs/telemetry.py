"""Clock-driven telemetry: scrapes, a time-series store, burn-rate alerts.

:meth:`MetricsRegistry.snapshot` is a single end-of-run export with no
time axis, and :class:`~repro.obs.slo.SloPolicy` evaluates once per
finished report — neither can say *when* an error budget started
burning while sessions are still streaming. This module adds the time
axis:

* :class:`Telemetry` — a repeating :class:`~repro.engine.kernel.EventLoop`
  event that, every ``interval`` of simulated time, samples the whole
  metrics registry into a :class:`TelemetryStore` and evaluates alert
  rules. The scrape re-schedules itself only while the loop still has
  work pending, so a drained serve ends with one final sample instead
  of an immortal timer.
* :class:`TelemetryStore` — an in-memory time-series store. Each
  ``(source, metric, label set)`` series is a timed stream: an
  append-only run of samples in time order on the simulated clock,
  each stamped with its exact rational scrape time. Windowed rollups —
  :meth:`~TelemetryStore.delta`, :meth:`~TelemetryStore.rate`,
  :meth:`~TelemetryStore.quantile` via elementwise bucket-count merges
  — are pure functions of the stored samples, and every read, the dump
  and the dashboard come from that one copy.
* :class:`AlertManager` — multi-window burn-rate alerting in the
  Prometheus style: each :class:`BurnRateRule` re-expresses an
  :class:`~repro.obs.slo.Slo` objective over a short/long window pair;
  an alert goes *pending* when the short window runs hot, *firing*
  when both windows agree, and *resolved* when the short window cools.
  Every transition is a flight-recorder event stamped with the
  simulated clock and a row in the store's alert log.

Determinism contract (the same one the rest of :mod:`repro.obs`
keeps): scrape times come from the kernel's rational clock, rollups
are exact-or-float arithmetic over stored samples, and
:meth:`TelemetryStore.dump` iterates in sorted order — two same-seed
runs produce byte-identical dumps and alert timelines.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable

from repro.core.rational import Rational, as_rational
from repro.core.time_system import to_ticks
from repro.errors import ObservabilityError
from repro.obs.events import Severity
from repro.obs.metrics import bucket_quantile
from repro.obs.slo import Slo, SloPolicy, default_slo_policy

__all__ = [
    "Alert",
    "AlertManager",
    "BurnRateRule",
    "DEFAULT_SCRAPE_INTERVAL",
    "Telemetry",
    "TelemetryStore",
    "default_burn_rate_rules",
]

#: Default scrape cadence (simulated seconds). A quarter second keeps
#: several samples inside the default one-second short window while
#: adding only a handful of events per simulated second of serving.
DEFAULT_SCRAPE_INTERVAL = Rational(1, 4)

#: Most extra scrapes :meth:`Telemetry.drain` takes to cool a source's
#: alerts, a bound against pathological windows.
_DRAIN_LIMIT = 64

#: Where each readable field sits in a stored sample, which is the
#: tuple ``(at, value, count, total, counts, scrape_id, kind)``.
_FIELDS = {"value": 1, "count": 2, "total": 3}
_COUNTS, _SCRAPE_ID, _KIND = 4, 5, 6


def _real(reading: Any) -> float | None:
    """A reading as the store keeps it: a float, or None for NaN, bools
    and anything non-numeric — they have no place on a time axis, but
    their presence is still dumped."""
    if isinstance(reading, bool) or not isinstance(reading, (int, float)):
        return None
    reading = float(reading)
    return None if reading != reading else reading


def _field_index(field: str) -> int:
    index = _FIELDS.get(field)
    if index is None:
        raise ObservabilityError(
            f"field must be value, count or total, got {field!r}"
        )
    return index


class TelemetryStore:
    """An exact-timestamped time series of metric samples, in memory.

    One sample per (scrape, metric, label set), appended to its
    ``(source, metric, labels-JSON)`` series. Counters and gauges keep
    their reading in ``value``; histograms keep the observation
    ``count``, the running ``total`` and the bucket-count vector (the
    fixed boundaries live once per metric). Readings are floats, and
    ``None`` where a reading is NaN, a bool or not a number.

    A source's scrapes must not go back in time, so every series stays
    in time order: a window is read from the newest sample backwards.
    """

    def __init__(self):
        self._scrapes: list[tuple[str, Rational]] = []
        self._newest: dict[str, Rational] = {}
        self._series: dict[tuple[str, str, str], list[tuple]] = {}
        self._bounds: dict[str, tuple] = {}
        self._alerts: list[tuple] = []
        # Memos: each (source, metric, label pairs)'s series, so a label
        # set's JSON is built once; each query's matches until a new one.
        self._slots: dict[tuple, list[tuple]] = {}
        self._matches: dict[tuple, list] = {}
        # Each (source, metric)'s last stored body and (series, sample)s.
        self._last: dict[tuple[str, str], tuple[dict, list]] = {}

    # -- writes ---------------------------------------------------------------

    def record_scrape(self, source: str, at, snapshot: dict[str, Any]) -> int:
        """Store one full registry snapshot taken at simulated ``at``.

        Returns the scrape id. ``snapshot`` is the
        :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` shape (a
        scoped view's restricted snapshot works identically). A scrape
        older than ``source``'s newest raises
        :class:`~repro.errors.ObservabilityError`.

        A body handed to the store is a value: never change it after.
        Handed ``(source, metric)``'s last stored body again, the store
        restamps that body's samples with the new time and scrape id.
        """
        when = as_rational(at)
        newest = self._newest.get(source)
        if newest is not None and when < newest:
            raise ObservabilityError(
                f"source {source!r} scraped at {when}, before its newest "
                f"scrape at {newest}"
            )
        self._newest[source] = when
        self._scrapes.append((source, when))
        scrape_id = len(self._scrapes)
        for metric in sorted(snapshot):
            body = snapshot[metric]
            last = self._last.get((source, metric))
            if last is not None and last[0] is body:
                for samples, (_, reading, count, total, counts, _, kind) in last[1]:
                    samples.append((when, reading, count, total, counts,
                                    scrape_id, kind))
                continue
            stored = []
            kind = body.get("type", "metric")
            for series in body.get("series", ()):
                labels = series.get("labels", {})
                slot = (source, metric, *labels.items())
                samples = self._slots.get(slot)
                if samples is None:
                    samples = self._slots[slot] = self._series.setdefault(
                        (source, metric, json.dumps(labels, sort_keys=True)), [])
                    self._matches.clear()
                value = series.get("value")
                if kind == "histogram" and isinstance(value, dict):
                    if metric not in self._bounds:
                        self._bounds[metric] = tuple(value["buckets"])
                    sample = (when, None, value["count"], _real(value["sum"]),
                              tuple(value["counts"]), scrape_id, kind)
                else:
                    reading = float(value) if type(value) is int else _real(value)
                    sample = (when, reading, None, None, None, scrape_id, kind)
                samples.append(sample)
                stored.append((samples, sample))
            self._last[source, metric] = (body, stored)
        return scrape_id

    def record_alert(self, alert: str, source: str, state: str, at,
                     burn_short: float, burn_long: float) -> int:
        """Append one alert transition to the timeline."""
        self._alerts.append((alert, source, state, as_rational(at),
                             float(burn_short), float(burn_long)))
        return len(self._alerts)

    # -- reads ----------------------------------------------------------------

    @property
    def scrape_count(self) -> int:
        return len(self._scrapes)

    def latest_time(self) -> Rational | None:
        """The newest scrape's simulated time, or None when empty."""
        return self._scrapes[-1][1] if self._scrapes else None

    def sources(self) -> list[str]:
        return sorted(self._newest)

    def metrics(self) -> list[str]:
        return sorted({metric for _, metric, _ in self._series})

    def metric_kinds(self) -> dict[str, str]:
        """``{metric: kind}`` for every stored metric."""
        kinds = {key[1]: samples[-1][_KIND] for key, samples
                 in self._series.items()}
        return {metric: kinds[metric] for metric in sorted(kinds)}

    def _matching(self, metric: str, source: str | None) -> list:
        """``(key, samples)`` for every series answering to ``metric``:
        its exact name, or a scoped ``<prefix>.<metric>`` (fleet shards
        prefix every metric with their shard name)."""
        found = self._matches.get((metric, source))
        if found is None:
            suffix = "." + metric
            found = self._matches[metric, source] = [
                (key, samples) for key, samples in self._series.items()
                if (key[1] == metric or key[1].endswith(suffix))
                and (source is None or key[0] == source)]
        return found

    @staticmethod
    def _windowed(samples: list[tuple], at, start) -> tuple | None:
        """``(last-at-or-before-start, last-at-or-before-at)`` samples,
        or None when the series has no sample by ``at``. A series
        younger than the window start has no baseline and contributes
        from zero."""
        end = len(samples)
        while end and samples[end - 1][0] is not at and samples[end - 1][0] > at:
            end -= 1
        if not end:
            return None
        begin = bisect_right(samples, start, 0, end, key=itemgetter(0))
        return (samples[begin - 1] if begin else None), samples[end - 1]

    def _window(self, window, at) -> tuple[Rational, Rational] | None:
        """``(at, start)`` of the trailing ``window`` ending at ``at``
        (default: the newest scrape), or None for an empty store."""
        at = self.latest_time() if at is None else as_rational(at)
        if at is None:
            return None
        window = as_rational(window)
        if window <= 0:
            raise ObservabilityError(f"window must be positive, got {window}")
        return at, at - window

    def delta(self, metric: str, window, at=None, source: str | None = None,
              field: str = "value") -> float:
        """Counter increase over the trailing ``window`` ending at ``at``
        (default: the newest scrape), summed across matching series.

        Only samples taken at or before ``at`` count. ``field`` selects
        the sampled reading: ``"value"`` for counters and gauges,
        ``"count"`` / ``"total"`` for histogram observation counts and
        running sums. A series first seen inside the window contributes
        its whole reading (counters start at zero).
        """
        index = _field_index(field)
        return self._delta(metric, self._window(window, at), source, index)

    def _delta(self, metric: str, span: tuple[Rational, Rational] | None,
               source: str | None, index: int) -> float:
        """:meth:`delta` of the sampled reading at ``index`` over
        ``span``, an ``(at, start)`` pair from :meth:`_window`."""
        if span is None:
            return 0.0
        total = 0.0
        for _, samples in self._matching(metric, source):
            bracket = self._windowed(samples, *span)
            if bracket is None:
                continue
            baseline, last = bracket
            if last[index] is None:
                continue
            before = baseline[index] if baseline is not None and \
                baseline[index] is not None else 0.0
            total += last[index] - before
        return total

    def rate(self, metric: str, window, at=None, source: str | None = None,
             field: str = "value") -> float:
        """Per-second rate: :meth:`delta` over the window length."""
        return self.delta(metric, window, at=at, source=source,
                          field=field) / float(as_rational(window))

    def quantile(self, metric: str, q: float, window, at=None,
                 source: str | None = None) -> float:
        """Windowed quantile of a histogram metric.

        Merges the elementwise bucket-count *deltas* over the window
        across every matching series, then interpolates within the
        merged counts by :func:`~repro.obs.metrics.bucket_quantile`, as
        :meth:`~repro.obs.metrics.Histogram.quantile` does (overflow
        ranks clamp to the last finite boundary). 0.0 when the window
        saw no observations.
        """
        span = self._window(window, at)
        if span is None:
            return bucket_quantile((), (), q)
        merged: list[int] = []
        bounds: tuple[float, ...] | None = None
        for (_, name, _), samples in self._matching(metric, source):
            bracket = self._windowed(samples, *span)
            if bracket is None or bracket[1][_COUNTS] is None:
                continue
            if bounds is None:
                bounds = self._bounds.get(name)
                if bounds is None:
                    continue
            baseline, last = bracket
            last_counts = last[_COUNTS]
            if baseline is not None and baseline[_COUNTS] is not None:
                base_counts = baseline[_COUNTS]
            else:
                base_counts = (0,) * len(last_counts)
            if not merged:
                merged = [0] * len(last_counts)
            for i, (lo, hi_c) in enumerate(zip(base_counts, last_counts)):
                merged[i] += hi_c - lo
        return bucket_quantile(bounds or (), merged, q)

    def series(self, metric: str, source: str | None = None,
               field: str = "value") -> dict[tuple, list[tuple]]:
        """Every matching series as ``{(source, metric, labels):
        [(time, value), ...]}`` over all its samples — the dashboard's
        raw feed."""
        index = _field_index(field)
        return {
            key: [(sample[0], sample[index]) for sample in samples]
            for key, samples in self._matching(metric, source)
        }

    def alert_rows(self) -> list[dict[str, Any]]:
        """The alert timeline in transition order, exact timestamps."""
        return [
            {
                "seq": seq, "alert": alert, "source": source,
                "state": state, "at": str(at),
                "burn_short": burn_short, "burn_long": burn_long,
            }
            for seq, (alert, source, state, at, burn_short, burn_long)
            in enumerate(self._alerts, start=1)
        ]

    def dump(self) -> str:
        """The whole store as deterministic JSON lines.

        Scrapes by id, samples by (scrape id, metric, labels JSON),
        histogram boundaries by metric, alerts by sequence number;
        sorted keys, exact timestamps as ``num/den`` strings — the
        byte-identity oracle for same-seed runs.
        """
        lines = [
            json.dumps({"scrape": sid, "source": source, "at": str(at)},
                       sort_keys=True)
            for sid, (source, at) in enumerate(self._scrapes, start=1)
        ]
        rows = sorted(
            ((sample[_SCRAPE_ID], metric, labels, sample)
             for (_, metric, labels), samples in self._series.items()
             for sample in samples),
            key=lambda row: row[:3],
        )
        for sid, metric, labels, sample in rows:
            _, value, count, total, counts, _, kind = sample
            body: dict[str, Any] = {"scrape": sid, "metric": metric,
                                    "labels": json.loads(labels),
                                    "kind": kind}
            if kind == "histogram":
                body["count"] = count
                body["sum"] = total
                body["counts"] = [] if counts is None else list(counts)
            else:
                body["value"] = value
            lines.append(json.dumps(body, sort_keys=True))
        for metric in sorted(self._bounds):
            lines.append(json.dumps(
                {"histogram": metric, "buckets": list(self._bounds[metric])},
                sort_keys=True))
        for row in self.alert_rows():
            lines.append(json.dumps(row, sort_keys=True))
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        """Drop every stored sample, scrape and alert."""
        for held in (self._scrapes, self._newest, self._series, self._bounds,
                     self._alerts, self._slots, self._matches, self._last):
            held.clear()

    def __enter__(self) -> "TelemetryStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TelemetryStore({self.scrape_count} scrapes, "
            f"{len(self._alerts)} alert transitions)"
        )


# -- burn-rate rules -----------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class BurnRateRule:
    """One SLO objective re-expressed over sliding windows.

    The measured value is ``delta(numerator) / delta(denominator)``
    over each window — or, with ``denominator=None``, the numerator's
    per-second rate. The rule runs hot in a window when
    ``slo.burn(measured) >= burn_threshold``. Short/long window pairs
    are the Prometheus multi-window idiom: the short window reacts,
    the long window confirms, and their conjunction gates *firing* so
    a single bad scrape cannot page.
    """

    name: str
    slo: Slo
    numerator: str
    denominator: str | None = None
    short_window: Any = Rational(1)
    long_window: Any = Rational(4)
    burn_threshold: float = 1.0
    numerator_field: str = "value"
    denominator_field: str = "value"

    def __post_init__(self) -> None:
        short = as_rational(self.short_window)
        long = as_rational(self.long_window)
        if short <= 0 or long <= 0:
            raise ObservabilityError(
                f"rule {self.name!r} windows must be positive"
            )
        if short >= long:
            raise ObservabilityError(
                f"rule {self.name!r} short window {short} must be shorter "
                f"than long window {long}"
            )
        if self.burn_threshold <= 0:
            raise ObservabilityError(
                f"rule {self.name!r} burn_threshold must be positive"
            )

    def measured(self, store: TelemetryStore, source: str | None,
                 at, window) -> float:
        """The measured value over the trailing ``window`` ending at
        ``at`` (default: the newest scrape)."""
        return self._measured(store, source, store._window(window, at),
                              window)

    def _measured(self, store: TelemetryStore, source: str | None,
                  span: tuple[Rational, Rational] | None, window) -> float:
        """The measured value over ``span`` (None: an empty store)."""
        numerator = store._delta(self.numerator, span, source,
                                 _field_index(self.numerator_field))
        if self.denominator is None:
            return numerator / float(as_rational(window))
        denominator = store._delta(self.denominator, span, source,
                                   _field_index(self.denominator_field))
        return numerator / denominator if denominator > 0 else 0.0


def default_burn_rate_rules(
        policy: SloPolicy | None = None) -> tuple[BurnRateRule, ...]:
    """Stock rules re-expressing the serving SLOs over windows.

    Only the objectives with a natural windowed reading are covered:
    deadline-miss rate (underruns over elements) and rebuffer ratio
    (lateness seconds accrued per second of serving). Startup latency
    and delivered quality remain per-report verdicts.
    """
    policy = default_slo_policy() if policy is None else policy
    by_name = {slo.name: slo for slo in policy}
    rules = []
    miss = by_name.get("deadline-miss-rate")
    if miss is not None:
        rules.append(BurnRateRule(
            name="deadline-miss-burn", slo=miss,
            numerator="engine.play.underruns",
            denominator="engine.play.elements",
        ))
    rebuffer = by_name.get("rebuffer-ratio")
    if rebuffer is not None:
        rules.append(BurnRateRule(
            name="rebuffer-burn", slo=rebuffer,
            numerator="engine.play.lateness_seconds",
            numerator_field="total",
        ))
    return tuple(rules)


# -- alert lifecycle -----------------------------------------------------------

#: Alert states. Transitions always pass through *pending*; *resolved*
#: is re-armable (a later hot short window restarts at pending).
INACTIVE = "inactive"
PENDING = "pending"
FIRING = "firing"
RESOLVED = "resolved"

_TRANSITION_SEVERITY = {
    PENDING: Severity.WARNING,
    FIRING: Severity.ERROR,
    RESOLVED: Severity.INFO,
    INACTIVE: Severity.DEBUG,
}


@dataclass
class Alert:
    """One rule's lifecycle against one source."""

    name: str
    source: str
    state: str = INACTIVE
    since: Any = None
    burn_short: float = 0.0
    burn_long: float = 0.0
    transitions: list[tuple] = field(default_factory=list)

    def export(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "source": self.source,
            "state": self.state,
            "since": None if self.since is None else str(self.since),
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "transitions": [
                {"state": state, "at": str(at)}
                for state, at in self.transitions
            ],
        }


def _next_state(state: str, hot_short: bool, hot_long: bool) -> str:
    if state in (INACTIVE, RESOLVED):
        return PENDING if hot_short else state
    if state == PENDING:
        if not hot_short:
            return INACTIVE
        return FIRING if hot_long else PENDING
    # firing
    return RESOLVED if not hot_short else FIRING


class AlertManager:
    """Evaluates burn-rate rules at scrape time, tracks alert state.

    One :class:`Alert` per (rule, source). Every state change is
    recorded in the store's alert log and — when a flight recorder is
    supplied — as a ``telemetry`` event at the scrape's simulated
    time. ``on_transition``, when set, is called as
    ``on_transition(alert, at)`` after each change; tests and
    dashboards use it to observe health mid-serve.
    """

    def __init__(self, rules: tuple[BurnRateRule, ...],
                 store: TelemetryStore):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError(
                f"duplicate burn-rate rule names: {names}"
            )
        self.rules = tuple(rules)
        self.store = store
        #: The distinct rule windows (equal windows are one key).
        self._windows = tuple(dict.fromkeys(
            window for rule in rules
            for window in (rule.short_window, rule.long_window)))
        self._alerts: dict[tuple[str, str], Alert] = {}
        self.on_transition: Callable[[Alert, Any], None] | None = None

    def evaluate(self, source: str, at, events=None, metrics=None) -> list[Alert]:
        """Run every rule against ``source`` at simulated ``at``.

        Returns the alerts that changed state this evaluation.
        """
        # Rules share windows: each window's start is one subtraction.
        spans = {window: self.store._window(window, at)
                 for window in self._windows}
        changed = []
        for rule in self.rules:
            burn_short = rule.slo.burn(rule._measured(
                self.store, source, spans[rule.short_window],
                rule.short_window))
            burn_long = rule.slo.burn(rule._measured(
                self.store, source, spans[rule.long_window],
                rule.long_window))
            hot_short = burn_short >= rule.burn_threshold
            hot_long = burn_long >= rule.burn_threshold
            key = (rule.name, source)
            alert = self._alerts.get(key)
            if alert is None:
                alert = self._alerts[key] = Alert(name=rule.name,
                                                  source=source)
            alert.burn_short = burn_short
            alert.burn_long = burn_long
            state = _next_state(alert.state, hot_short, hot_long)
            if state == alert.state:
                continue
            alert.state = state
            alert.since = at
            alert.transitions.append((state, at))
            self.store.record_alert(rule.name, source, state, at,
                                    burn_short, burn_long)
            if events is not None:
                events.record(
                    _TRANSITION_SEVERITY[state], "telemetry",
                    f"alert.{state}", at=at, alert=rule.name,
                    source=source, burn_short=burn_short,
                    burn_long=burn_long,
                )
            if metrics is not None:
                metrics.counter(
                    "telemetry.alert.transitions",
                    help="alert state changes, labeled by new state",
                ).inc(state=state)
            if self.on_transition is not None:
                self.on_transition(alert, at)
            changed.append(alert)
        return changed

    def all(self) -> list[Alert]:
        """Every tracked alert, sorted by (rule, source)."""
        return [self._alerts[key] for key in sorted(self._alerts)]

    def for_source(self, source: str) -> list[Alert]:
        return [a for a in self.all() if a.source == source]

    def firing(self, source: str | None = None) -> list[Alert]:
        return [a for a in self.all() if a.state == FIRING
                and (source is None or a.source == source)]

    def active(self, source: str | None = None) -> list[Alert]:
        """Alerts currently pending or firing."""
        return [a for a in self.all() if a.state in (PENDING, FIRING)
                and (source is None or a.source == source)]

    def __repr__(self) -> str:
        return (
            f"AlertManager({len(self.rules)} rules, "
            f"{len(self.firing())} firing)"
        )


# -- the scraper ---------------------------------------------------------------


class Telemetry:
    """The clock-driven scraper tying store and alerts to a serve.

    :meth:`attach` schedules the first scrape ``interval`` after the
    loop's current time, in whole ticks of the loop's clock: the loop
    is built at a frequency on which the interval is whole (a serve
    batch's timebase covers it). Each scrape samples the registry,
    evaluates the alert rules, and re-schedules itself only while the
    loop still has other work pending — the timer never keeps a
    finished serve alive. :meth:`drain` cools remaining active alerts
    after the workload finishes by scheduling further scrapes over an
    idle loop.

    One Telemetry may serve a whole fleet: each shard attaches with
    its own ``source`` name and scoped sink, and the shared store
    keeps per-source series. ``rules`` defaults to
    :func:`default_burn_rate_rules`; pass
    ``default_burn_rate_rules(policy)`` to alert on another policy.
    """

    def __init__(self, *, interval=DEFAULT_SCRAPE_INTERVAL,
                 rules: tuple[BurnRateRule, ...] | None = None):
        self.interval = as_rational(interval)
        if self.interval <= 0:
            raise ObservabilityError(
                f"scrape interval must be positive, got {interval}"
            )
        self.store = TelemetryStore()
        if rules is None:
            rules = default_burn_rate_rules()
        self.alerts = AlertManager(rules, self.store)
        self._overflow_seen: dict[tuple[str, tuple], int] = {}
        self._overflow_bodies: dict[str, dict] = {}

    def attach(self, loop, obs, source: str) -> None:
        """Schedule the repeating scrape on ``loop`` for ``obs``, every
        ``interval`` in whole ticks of the loop's clock."""
        ticks = to_ticks(self.interval, loop.clock.frequency)
        loop.after_ticks(ticks, self._scrape, loop, obs, source, ticks)

    def _scrape(self, loop, obs, source: str, ticks: int) -> None:
        self.sample(obs, source, at=loop.clock.now())
        if loop.pending > 0:
            loop.after_ticks(ticks, self._scrape, loop, obs, source, ticks)

    def sample(self, obs, source: str, at) -> int:
        """Take one sample now: snapshot, overflow check, alert pass."""
        snapshot = obs.metrics.snapshot()
        self._note_overflow(obs, snapshot)
        scrape_id = self.store.record_scrape(source, at, snapshot)
        self.alerts.evaluate(source, at, events=obs.events,
                             metrics=obs.metrics)
        return scrape_id

    def _note_overflow(self, obs, snapshot: dict[str, Any]) -> None:
        """Mirror histogram overflow-bucket growth into a counter.

        ``Histogram.quantile`` clamps overflow ranks to the last finite
        boundary; this counter makes that saturation visible in the
        time series instead of silent. The overflow is each series'
        last bucket count in ``snapshot``; a grown counter's export is
        written back into ``snapshot``, so this scrape stores it. A body
        checked before is skipped: its overflow cannot have grown.
        """
        overflow = None
        for name, body in snapshot.items():
            if body["type"] != "histogram" or self._overflow_bodies.get(name) is body:
                continue
            self._overflow_bodies[name] = body
            for series in body["series"]:
                key = (name, tuple(series.get("labels", {}).items()))
                seen = self._overflow_seen.get(key, 0)
                current = series["value"]["counts"][-1]
                if current > seen:
                    if overflow is None:
                        overflow = obs.metrics.counter(
                            "telemetry.histogram.overflow",
                            help="observations beyond the last histogram"
                                 " boundary, by metric",
                        )
                    overflow.inc(current - seen, metric=name)
                    self._overflow_seen[key] = current
        if overflow is not None:
            snapshot[overflow.name] = overflow.export()

    def drain(self, loop, obs, source: str) -> int:
        """Scrape an idle loop until ``source`` has no active alerts.

        Each extra scrape advances the simulated clock one interval;
        with no new traffic the windows empty, burns cool, and pending
        alerts cancel while firing ones resolve — all before the serve
        returns. At most :data:`_DRAIN_LIMIT` scrapes bound the
        cool-down against pathological windows. Returns the number of
        extra scrapes taken.
        """
        taken = 0
        ticks = to_ticks(self.interval, loop.clock.frequency)
        while taken < _DRAIN_LIMIT and self.alerts.active(source):
            loop.after_ticks(ticks, self.sample_once, loop, obs, source)
            loop.run()
            taken += 1
        return taken

    def sample_once(self, loop, obs, source: str) -> None:
        """One non-rescheduling scrape (the drain's step)."""
        self.sample(obs, source, at=loop.clock.now())

    def __repr__(self) -> str:
        return (
            f"Telemetry(interval={self.interval}, "
            f"{self.store.scrape_count} scrapes, "
            f"{len(self.alerts.rules)} rules)"
        )
