"""The hook protocol connecting the stack to an observability sink.

:class:`Observability` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`~repro.obs.tracing.Tracer`; :class:`Instrumented` is the
mixin instrumentable classes adopt. The default sink is :data:`NULL_OBS`,
whose metrics and tracer are inert no-ops — uninstrumented code pays one
attribute load and a no-op call per hook, and never accumulates state.

Wiring is explicit and propagates downward: calling
``instrument(obs)`` on a container (a :class:`~repro.blob.store.BlobStore`,
a :class:`~repro.query.database.MediaDatabase`) re-instruments the
components it owns via the ``_instrument_children`` hook, so one call at
the top of an object graph observes the whole stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable

from repro.obs.events import DEFAULT_EVENT_CAPACITY, Event, FlightRecorder, Severity
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, TraceContext, Tracer


class Observability:
    """A metrics registry, a tracer and a flight recorder, exported
    together.

    ``clock`` (optional) is handed to the tracer and the flight
    recorder as their time source — pass a simulated clock's ``now`` to
    put spans and events on simulated time. ``event_capacity`` bounds
    the flight-recorder ring when no explicit recorder is supplied.
    """

    enabled = True

    #: Flat scope prefix of this sink — None at the root, the dotted
    #: prefix on views minted by :meth:`scoped`.
    scope: str | None = None

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 events: FlightRecorder | None = None,
                 clock: Callable[[], Any] | None = None,
                 event_capacity: int = DEFAULT_EVENT_CAPACITY):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(clock=clock)
        self.events = events if events is not None else FlightRecorder(
            capacity=event_capacity, clock=clock,
        )
        self._scopes: set[str] = set()

    def snapshot(self) -> dict[str, Any]:
        """The full nested-dict export: metrics, spans and events."""
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.export(),
            "events": self.events.export(),
        }

    @contextmanager
    def trace(self, context: TraceContext):
        """Stamp every span and event recorded in the body with the
        context's trace id, correlating work across components."""
        self.tracer.push_context(context)
        self.events.push_context(context)
        try:
            yield context
        finally:
            self.events.pop_context()
            self.tracer.pop_context()

    def scoped(self, prefix: str) -> "Observability":
        """A view of this sink with every metric name under ``prefix.``.

        Components sharing one registry — fleet shards, most notably —
        get disjoint metric namespaces while the export stays one
        sorted snapshot. Spans and events land in the shared tracer
        and flight recorder tagged with a ``scope`` attribute, so the
        Chrome-trace export can give each scope its own track. Scoping
        a scoped view composes prefixes.

        A flat prefix may be claimed only once per root sink: two
        shards scoping to the same name would silently interleave
        their series, so the second claim raises
        :class:`~repro.errors.ObservabilityError`.
        """
        view = Observability.__new__(Observability)
        view.metrics = ScopedMetrics(self.metrics, prefix)  # type: ignore[assignment]
        flat = view.metrics.flat
        if flat in self._scopes:
            from repro.errors import ObservabilityError

            raise ObservabilityError(
                f"scope {flat!r} already claimed on this sink; shards "
                f"sharing a registry need distinct prefixes"
            )
        self._scopes.add(flat)
        view._scopes = self._scopes
        view.scope = flat
        view.tracer = ScopedTracer(self.tracer, flat)  # type: ignore[assignment]
        view.events = ScopedFlightRecorder(self.events, flat)  # type: ignore[assignment]
        return view

    def __repr__(self) -> str:
        return (
            f"Observability({len(self.metrics.names())} metrics, "
            f"{len(self.tracer)} spans, {len(self.events)} events)"
        )


class ScopedMetrics:
    """A prefixing view over a :class:`MetricsRegistry`.

    Every metric created or looked up through the view has
    ``<prefix>.`` prepended to its name in the underlying registry.
    The view mirrors the registry surface the stack relies on —
    create (``counter``/``gauge``/``histogram``), ``get``, ``in``,
    ``names`` and ``snapshot`` — with ``names``/``snapshot``
    restricted to the view's own namespace (full prefixed names, so
    snapshots splice cleanly into the shared export).
    """

    def __init__(self, registry: MetricsRegistry, prefix: str):
        from repro.errors import ObservabilityError

        if not prefix:
            raise ObservabilityError("scoped metrics need a non-empty prefix")
        self.registry = registry
        self.prefix = prefix
        nested = isinstance(registry, ScopedMetrics)
        self.flat = f"{registry.flat}.{prefix}" if nested else prefix
        self._root = registry._root if nested else registry
        self._seen = self._scoped = []  # the root's member list last seen; ours

    def scoped_name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str, help: str = ""):
        return self.registry.counter(self.scoped_name(name), help)

    def gauge(self, name: str, help: str = ""):
        return self.registry.gauge(self.scoped_name(name), help)

    def histogram(self, name: str, buckets: Any = None, help: str = ""):
        if buckets is None:
            return self.registry.histogram(self.scoped_name(name), help=help)
        return self.registry.histogram(
            self.scoped_name(name), buckets, help,
        )

    def get(self, name: str):
        return self.registry.get(self.scoped_name(name))

    def __contains__(self, name: str) -> bool:
        return self.scoped_name(name) in self.registry

    def _members(self) -> list[tuple[str, Any]]:
        """The root registry's members under ``flat``, kept until it grows."""
        members = self._root._members()
        if members is not self._seen:
            marker = f"{self.flat}."
            self._seen = members
            self._scoped = [(name, metric) for name, metric in members
                            if name.startswith(marker)]
        return self._scoped

    def names(self) -> list[str]:
        return [name for name, _ in self._members()]

    def snapshot(self) -> dict[str, Any]:
        return {name: metric.export() for name, metric in self._members()}

    def __repr__(self) -> str:
        return f"ScopedMetrics({self.prefix!r}, {len(self.names())} metrics)"


class ScopedTracer:
    """A tagging view over a shared :class:`~repro.obs.tracing.Tracer`.

    Spans land in the underlying tracer with a ``scope`` attribute
    (explicit attributes win; nested scoping keeps the innermost —
    i.e. fullest — prefix because each view wraps the *root* tracer
    with its flat prefix). Everything else delegates.
    """

    def __init__(self, tracer: Any, scope: str):
        self.base = getattr(tracer, "base", tracer)
        self.scope = scope

    @property
    def spans(self):
        return self.base.spans

    @contextmanager
    def span(self, name: str, **attributes: Any):
        attributes.setdefault("scope", self.scope)
        with self.base.span(name, **attributes) as span:
            yield span

    def record(self, name: str, start: Any, end: Any,
               **attributes: Any) -> Span:
        attributes.setdefault("scope", self.scope)
        return self.base.record(name, start, end, **attributes)

    def event(self, name: str, at: Any = None, **attributes: Any) -> Span:
        attributes.setdefault("scope", self.scope)
        return self.base.event(name, at=at, **attributes)

    def push_context(self, context: TraceContext) -> None:
        self.base.push_context(context)

    def pop_context(self) -> TraceContext:
        return self.base.pop_context()

    def named(self, name: str) -> list[Span]:
        return self.base.named(name)

    def __len__(self) -> int:
        return len(self.base)

    def export(self) -> list[dict[str, Any]]:
        return self.base.export()

    def __repr__(self) -> str:
        return f"ScopedTracer({self.scope!r})"


class ScopedFlightRecorder:
    """A tagging view over a shared
    :class:`~repro.obs.events.FlightRecorder`; same contract as
    :class:`ScopedTracer`."""

    def __init__(self, events: Any, scope: str):
        self.base = getattr(events, "base", events)
        self.scope = scope

    @property
    def capacity(self) -> int:
        return self.base.capacity

    @property
    def dropped(self) -> int:
        return self.base.dropped

    def record(self, severity: Any, component: str, name: str,
               at: Any = None, **attributes: Any) -> Event:
        attributes.setdefault("scope", self.scope)
        return self.base.record(severity, component, name, at=at,
                                **attributes)

    def push_context(self, context: TraceContext) -> None:
        self.base.push_context(context)

    def pop_context(self) -> TraceContext:
        return self.base.pop_context()

    def events(self, min_severity: Any = None, component: str | None = None,
               name: str | None = None) -> list[Event]:
        return self.base.events(min_severity=min_severity,
                                component=component, name=name)

    def recent(self, count: int, min_severity: Any = None) -> list[Event]:
        return self.base.recent(count, min_severity=min_severity)

    def __len__(self) -> int:
        return len(self.base)

    def export(self) -> list[dict[str, Any]]:
        return self.base.export()

    def __repr__(self) -> str:
        return f"ScopedFlightRecorder({self.scope!r})"


class _NullMetric:
    """Accepts every metric call and records nothing."""

    def inc(self, amount: int = 1, **labels: Any) -> None:
        pass

    def set(self, value: Any, **labels: Any) -> None:
        pass

    def set_max(self, value: Any, **labels: Any) -> None:
        pass

    def observe(self, value: Any, **labels: Any) -> None:
        pass

    def observe_zeros(self, count: int, **labels: Any) -> None:
        pass

    def recorder(self, **labels: Any) -> Callable[[float], None]:
        return self.observe

    def value(self, default: Any = None, **labels: Any) -> Any:
        return default

    def total(self) -> int:
        return 0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()
_NULL_SPAN = Span(span_id=-1, parent_id=None, name="null", start=0, end=0)


class _NullMetricsRegistry:
    def counter(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, buckets: Any = None,
                  help: str = "") -> _NullMetric:
        return _NULL_METRIC

    def names(self) -> list[str]:
        return []

    def snapshot(self) -> dict[str, Any]:
        return {}


class _NullTracer:
    spans: list[Span] = []

    @contextmanager
    def span(self, name: str, **attributes: Any):
        yield _NULL_SPAN

    def record(self, name: str, start: Any, end: Any,
               **attributes: Any) -> Span:
        return _NULL_SPAN

    def event(self, name: str, at: Any = None, **attributes: Any) -> Span:
        return _NULL_SPAN

    def push_context(self, context: Any) -> None:
        pass

    def pop_context(self) -> None:
        return None

    def named(self, name: str) -> list[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def export(self) -> list[dict[str, Any]]:
        return []


_NULL_EVENT = Event(seq=-1, at=0, severity=Severity.DEBUG,
                    component="null", name="null")


class _NullFlightRecorder:
    capacity = 0
    dropped = 0

    def record(self, severity: Any, component: str, name: str,
               at: Any = None, **attributes: Any) -> Event:
        return _NULL_EVENT

    def push_context(self, context: Any) -> None:
        pass

    def pop_context(self) -> None:
        return None

    def events(self, min_severity: Any = None, component: str | None = None,
               name: str | None = None) -> list[Event]:
        return []

    def recent(self, count: int, min_severity: Any = None) -> list[Event]:
        return []

    def __len__(self) -> int:
        return 0

    def export(self) -> list[dict[str, Any]]:
        return []


class NullObservability(Observability):
    """The disabled sink: shares the metrics/tracer/events API, records
    nothing."""

    enabled = False

    def __init__(self) -> None:
        self.metrics = _NullMetricsRegistry()  # type: ignore[assignment]
        self.tracer = _NullTracer()  # type: ignore[assignment]
        self.events = _NullFlightRecorder()  # type: ignore[assignment]

    def scoped(self, prefix: str) -> "NullObservability":
        """Scoping an inert sink is a no-op: nothing is recorded anyway."""
        return self


#: Shared inert sink; the default for every :class:`Instrumented` object.
NULL_OBS = NullObservability()


class Instrumented:
    """Mixin giving a class an observability hook.

    ``self.obs`` is always usable — :data:`NULL_OBS` until
    :meth:`instrument` attaches a live sink. Subclasses that own other
    instrumented components override ``_instrument_children`` to
    propagate the sink downward.
    """

    _obs: Observability = NULL_OBS

    @property
    def obs(self) -> Observability:
        return self._obs

    def instrument(self, obs: Observability | None) -> "Instrumented":
        """Attach (or, with None, detach) an observability sink.

        Returns ``self`` so construction chains:
        ``BlobStore().instrument(obs)``.
        """
        self._obs = NULL_OBS if obs is None else obs
        self._instrument_children(self._obs)
        return self

    def _instrument_children(self, obs: Observability) -> None:
        """Propagate the sink to owned components (override as needed)."""
