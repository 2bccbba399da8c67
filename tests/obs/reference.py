"""Reference metrics: the uncached export and per-value fold.

:mod:`repro.obs.metrics` keeps each metric's export body until a write
changes it, and folds a count of zero observations into one bucket
without touching the sum. This is the registry it is held to: every
snapshot rebuilds every body, and a zero count is that many ``0.0``
observations folded one by one, in order, into the running sum.
Property tests apply the same writes to both and compare snapshots.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any

from repro.obs.metrics import _label_key, export_value


class ReferenceMetric:
    def __init__(self, kind: str, buckets: tuple[float, ...] = ()):
        self.kind = kind
        self.help = ""
        self.buckets = buckets
        self.series: dict = {}
        self.queues: dict = {}

    def inc(self, amount: int, **labels: Any) -> None:
        key = _label_key(labels)
        self.series[key] = self.series.get(key, 0) + amount

    def set(self, value: Any, **labels: Any) -> None:
        self.series[_label_key(labels)] = value

    def set_max(self, value: Any, **labels: Any) -> None:
        key = _label_key(labels)
        current = self.series.get(key)
        if current is None or value > current:
            self.series[key] = value

    def observe(self, value: float, **labels: Any) -> None:
        self.queues.setdefault(_label_key(labels), []).append(float(value))

    def observe_zeros(self, count: int, **labels: Any) -> None:
        for _ in range(count):
            self.observe(0.0, **labels)

    def fold(self) -> None:
        overflow = len(self.buckets)
        for key, queue in self.queues.items():
            if not queue:
                continue
            series = self.series.setdefault(key, {
                "counts": [0] * (overflow + 1), "count": 0, "sum": 0.0})
            counts, total = series["counts"], series["sum"]
            for value in queue:
                counts[bisect_left(self.buckets, value)
                       if value == value else overflow] += 1
                total += value
            series["count"] += len(queue)
            series["sum"] = total
            queue.clear()

    def export(self) -> dict[str, Any]:
        self.fold()
        body: dict[str, Any] = {"type": self.kind}
        if self.help:
            body["help"] = self.help
        body["series"] = []
        for key in sorted(self.series):
            value = self.series[key]
            if self.kind == "histogram":
                value = {"buckets": list(self.buckets),
                         "counts": list(value["counts"]),
                         "count": value["count"], "sum": value["sum"]}
            else:
                value = export_value(value)
            body["series"].append(
                {"labels": dict(key), "value": value} if key
                else {"value": value})
        return body


class ReferenceRegistry:
    def __init__(self) -> None:
        self.metrics: dict[str, ReferenceMetric] = {}

    def get(self, name: str, kind: str, buckets: tuple[float, ...] = (),
            help: str = "") -> ReferenceMetric:
        metric = self.metrics.setdefault(name, ReferenceMetric(kind, buckets))
        if help and not metric.help:
            metric.help = help
        return metric

    def snapshot(self) -> dict[str, Any]:
        return {name: self.metrics[name].export() for name in sorted(self.metrics)}
