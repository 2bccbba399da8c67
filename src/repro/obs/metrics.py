"""Deterministic metrics: counters, gauges and fixed-bucket histograms.

The registry is the numerical half of :mod:`repro.obs`. Three metric
kinds cover the stack's needs:

* :class:`Counter` — monotonically increasing totals (page reads, retry
  attempts, injected faults);
* :class:`Gauge` — last-value or high-water readings (buffer occupancy,
  cataloged objects);
* :class:`Histogram` — distributions over *fixed* bucket boundaries
  declared at creation time (per-read lateness). Fixed boundaries are
  what makes snapshots comparable across runs and machines.

Determinism contract: metric values derive only from the instrumented
code's own (simulated or logical) arithmetic — never wall clock, never
process state — and every export path iterates in sorted order, so two
identical runs produce byte-identical snapshots.

Naming scheme: dotted ``subsystem.noun.event`` (``blob.page.reads``,
``engine.play.retries``), with variation expressed as labels
(``kind="transient"``, ``sequence="video1"``) rather than name suffixes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ObservabilityError

#: Default histogram boundaries (seconds): spans sub-millisecond jitter
#: through multi-second stalls. Values above the last boundary land in
#: the implicit +inf overflow bucket.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    if len(labels) == 1:
        # The common single-label case has nothing to sort.
        ((name, value),) = labels.items()
        return ((name, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def export_value(value: Any) -> Any:
    """A JSON-stable representation of a metric or timestamp value.

    Integers, floats, bools and None pass through (float ``repr`` is
    deterministic for identical inputs); everything else — notably
    :class:`~repro.core.rational.Rational` timestamps — becomes its
    exact ``str`` so no precision is lost.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return value
    return str(value)


class Metric:
    """Common labeled-series bookkeeping for all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, Any] = {}
        self._body: dict[str, Any] | None = None

    def labels_seen(self) -> list[LabelKey]:
        return sorted(self._series)

    def export(self) -> dict[str, Any]:
        """The metric's body, kept until a write changes the metric and
        shared by every snapshot in between: read it, never change it."""
        body = self._body
        if body is None:
            body = self._body = {"type": self.kind}
            if self.help:
                body["help"] = self.help
            body["series"] = [
                {"labels": dict(key), "value": self._export_value(key)} if key
                else {"value": self._export_value(key)}
                for key in sorted(self._series)
            ]
        return body

    def _export_value(self, key: LabelKey) -> Any:
        return export_value(self._series[key])


class Counter(Metric):
    """A monotonically increasing total, optionally labeled."""

    kind = "counter"

    def inc(self, amount: int = 1, **labels: Any) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount
        self._body = None

    def value(self, **labels: Any) -> int:
        return self._series.get(_label_key(labels), 0)

    def total(self) -> int:
        """Sum across all label combinations."""
        return sum(self._series.values())


class Gauge(Metric):
    """A point-in-time reading; ``set_max`` keeps high-water marks."""

    kind = "gauge"

    def set(self, value: Any, **labels: Any) -> None:
        self._series[_label_key(labels)] = value
        self._body = None

    def set_max(self, value: Any, **labels: Any) -> None:
        """Record ``value`` only if it exceeds the current reading.

        Comparing un-comparable types (a str high-water against an int,
        say) raises :class:`~repro.errors.ObservabilityError` — mixed
        series would make the high-water mark meaningless.
        """
        key = _label_key(labels)
        current = self._series.get(key)
        try:
            if current is not None and not value > current:
                return
        except TypeError:
            raise ObservabilityError(
                f"gauge {self.name!r} set_max cannot compare "
                f"{type(value).__name__} against the current "
                f"{type(current).__name__} reading"
            ) from None
        self._series[key] = value
        self._body = None

    def value(self, default: Any = None, **labels: Any) -> Any:
        return self._series.get(_label_key(labels), default)


def bucket_quantile(bounds: tuple[float, ...], counts: Sequence[int],
                    q: float) -> float:
    """The ``q``-quantile of bucketed counts, estimated by linear
    interpolation within the bucket containing the target rank.

    ``counts`` has one entry per boundary in ``bounds`` plus the
    overflow bucket. Deterministic: a pure function of the counts and
    the boundaries. The lower edge of the first bucket is taken as 0.0
    (or the boundary itself when it is negative); a rank landing in the
    overflow bucket returns the last boundary — the histogram cannot
    see past it. No observations give 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            if index >= len(bounds):
                return bounds[-1]
            hi = bounds[index]
            lo = bounds[index - 1] if index > 0 else min(0.0, hi)
            fraction = (target - cumulative) / count
            return lo + fraction * (hi - lo)
        cumulative += count
    return bounds[-1]


class Histogram(Metric):
    """Counts of observations falling into fixed, pre-declared buckets.

    ``buckets`` are ascending upper bounds; an implicit overflow bucket
    catches everything beyond the last boundary. Per series the
    histogram keeps the bucket counts, the observation count and the
    running sum (accumulated in observation order, so it is
    reproducible for identical runs).

    An observation is a float appended to its series' queue (the append
    :meth:`recorder` returns). Every read folds the queues first, in
    order: the first bound >= the value counts it, NaN overflows.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
                 help: str = ""):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"histogram {self.name!r} needs buckets")
        if any(a >= b for a, b in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"histogram {self.name!r} buckets must be strictly ascending"
            )
        self.buckets = bounds
        self._queues: dict[LabelKey, list[float]] = {}

    def recorder(self, **labels: Any) -> Callable[[float], None]:
        """The append of one series' queue: record a float observation."""
        key = _label_key(labels)
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = []
        return queue.append

    def observe(self, value: Any, **labels: Any) -> None:
        self.recorder(**labels)(float(value))

    def observe_zeros(self, count: int, **labels: Any) -> None:
        """Record ``count`` observations of 0.0 at once, in any order of
        folding: bucket counts commute, and a sum that starts at 0.0 is
        never -0.0, so adding 0.0 leaves it as it is."""
        if count > 0:
            series = self._open(_label_key(labels))
            series["counts"][bisect_left(self.buckets, 0.0)] += count
            series["count"] += count
            self._body = None

    def _fold(self) -> None:
        overflow = len(self.buckets)
        for key, queue in self._queues.items():
            if not queue:
                continue
            series = self._open(key)
            counts, total = series["counts"], series["sum"]
            for value in queue:
                counts[bisect_left(self.buckets, value)
                       if value == value else overflow] += 1
                total += value
            series["count"] += len(queue)
            series["sum"] = total
            queue.clear()
            self._body = None

    def _open(self, key: LabelKey) -> dict:
        return self._series.setdefault(key, {
            "counts": [0] * (len(self.buckets) + 1), "count": 0, "sum": 0.0})

    def _read(self, labels: Mapping[str, Any]) -> dict | None:
        self._fold()
        return self._series.get(_label_key(labels))

    def labels_seen(self) -> list[LabelKey]:
        self._fold()
        return super().labels_seen()

    def export(self) -> dict[str, Any]:
        self._fold()
        return super().export()

    def count(self, **labels: Any) -> int:
        series = self._read(labels)
        return series["count"] if series else 0

    def bucket_counts(self, **labels: Any) -> list[int]:
        series = self._read(labels)
        if series is None:
            return [0] * (len(self.buckets) + 1)
        return list(series["counts"])

    def sum(self, **labels: Any) -> float:
        """Running sum of observations for one labeled series (0.0 when
        the series has never been observed)."""
        series = self._read(labels)
        return series["sum"] if series else 0.0

    def overflow_count(self, **labels: Any) -> int:
        """Observations beyond the last declared boundary.

        :meth:`quantile` clamps overflow ranks to the last finite
        boundary — the histogram cannot see past it — so a saturated
        histogram silently understates its tail. This counter makes the
        saturation visible; the telemetry scraper mirrors it into the
        ``telemetry.histogram.overflow`` counter.
        """
        series = self._read(labels)
        return series["counts"][-1] if series else 0

    def quantile(self, q: float, **labels: Any) -> float:
        """The ``q``-quantile of one labeled series, by
        :func:`bucket_quantile` over its bucket counts. An unobserved
        series is 0.0."""
        series = self._read(labels)
        return bucket_quantile(self.buckets,
                               series["counts"] if series else (), q)

    def _export_value(self, key: LabelKey) -> Any:
        series = self._series[key]
        return {
            "buckets": list(self.buckets),
            "counts": list(series["counts"]),
            "count": series["count"],
            "sum": series["sum"],
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    Re-requesting a name returns the existing metric; requesting it as a
    different kind (or a histogram with different buckets) raises
    :class:`~repro.errors.ObservabilityError` — silent divergence would
    corrupt snapshots.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._sorted: list[tuple[str, Metric]] = []

    def _get(self, name: str, kind: type[Metric], factory) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not kind:
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, requested {kind.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    @staticmethod
    def _fill_help(metric: Metric, help: str) -> Metric:
        # first help wins; a later one only fills an empty slot, so
        # get-or-create call sites may pass help unconditionally
        if help and not metric.help:
            metric.help = help
            metric._body = None
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._fill_help(
            self._get(name, Counter, lambda: Counter(name, help)), help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._fill_help(
            self._get(name, Gauge, lambda: Gauge(name, help)), help)

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
                  help: str = "") -> Histogram:
        metric = self._fill_help(
            self._get(name, Histogram,
                      lambda: Histogram(name, buckets, help)), help)
        bounds = tuple(float(b) for b in buckets)
        if metric.buckets != bounds:
            raise ObservabilityError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.buckets}, requested {bounds}"
            )
        return metric

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise ObservabilityError(
                f"no metric named {name!r}; have: "
                f"{', '.join(self.names()) or '(none)'}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _members(self) -> list[tuple[str, Metric]]:
        """``(name, metric)`` by name, kept until the registry grows."""
        if len(self._sorted) != len(self._metrics):
            self._sorted = sorted(self._metrics.items())
        return self._sorted

    def snapshot(self) -> dict[str, Any]:
        """Nested-dict export, sorted at every level: a fresh dict of
        shared bodies (see :meth:`Metric.export`)."""
        return {name: metric.export() for name, metric in self._members()}
