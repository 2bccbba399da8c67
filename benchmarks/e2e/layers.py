"""Per-layer host-time tracing from outside the program.

The traced run wraps each layer's public entry points — listed in
:data:`LAYERS`, by module name — with timing shims installed by
``setattr`` and restored afterwards. Nothing under ``src/`` knows it is
being traced: the shims are the benchmark's own code.

A span opens when a wrapped call starts and closes when it returns or
raises. Spans nest on one parent stack (the program is single-threaded),
so a layer's *self* time is its spans' duration minus the time of the
spans they caused. Only aggregates are kept — self nanoseconds and call
counts per layer and per entry point — so a run of millions of spans
needs no memory for them.

Three kinds of entry point:

* ``call`` — a function or method, timed from call to return;
* ``steps`` — a method returning a generator (``Player.stepper``); each
  ``next`` on the returned generator is its own span;
* ``cm`` — a method returning a context manager (``Tracer.span``); its
  ``__enter__`` and ``__exit__`` are timed, the body is not.

What the shims cannot see: code that runs inside a wrapped call but
belongs to an unwrapped module is charged to the caller's layer. Exact
arithmetic in ``core.rational`` is the largest such cost; it shows up
in ``engine.player`` and ``engine.kernel``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter_ns

#: Layer -> (module path, owner name, attribute, kind) entry points.
#: ``owner`` is a class in the module, or None for a module function.
LAYERS: dict[str, tuple[tuple[str, str | None, str, str], ...]] = {
    "engine.fleet": (
        ("repro.engine.fleet", "Fleet", "__init__", "call"),
        ("repro.engine.fleet", "Fleet", "serve", "call"),
        ("repro.engine.fleet", "Fleet", "publish", "call"),
    ),
    "engine.vod": (
        ("repro.engine.vod", "SessionRequest", "__init__", "call"),
        ("repro.engine.vod", "VodServer", "__init__", "call"),
        ("repro.engine.vod", "VodServer", "serve", "call"),
        ("repro.engine.vod", "VodServer", "publish", "call"),
    ),
    "engine.kernel": (
        ("repro.engine.kernel", "EventLoop", "run", "call"),
    ),
    "engine.player": (
        ("repro.engine.player", "Player", "play", "call"),
        ("repro.engine.player", "Player", "stepper", "steps"),
        ("repro.engine.player", "Player", "plan_interpretation", "call"),
        ("repro.engine.player", "Player", "plan_multimedia", "call"),
    ),
    "engine.recorder": (
        ("repro.engine.recorder", "Recorder", "record", "call"),
    ),
    "analysis.graph": (
        ("repro.analysis.graph", "GraphChecker", "check_interpretation",
         "call"),
        ("repro.analysis.graph", "GraphChecker", "check_multimedia", "call"),
    ),
    "obs": (
        ("repro.obs.metrics", "Counter", "inc", "call"),
        ("repro.obs.metrics", "Gauge", "set", "call"),
        ("repro.obs.metrics", "Gauge", "set_max", "call"),
        ("repro.obs.metrics", "Histogram", "observe", "call"),
        ("repro.obs.metrics", "MetricsRegistry", "counter", "call"),
        ("repro.obs.metrics", "MetricsRegistry", "gauge", "call"),
        ("repro.obs.metrics", "MetricsRegistry", "histogram", "call"),
        ("repro.obs.metrics", "MetricsRegistry", "snapshot", "call"),
        ("repro.obs.tracing", "Tracer", "span", "cm"),
        ("repro.obs.tracing", "Tracer", "record", "call"),
        ("repro.obs.tracing", "Tracer", "event", "call"),
        ("repro.obs.tracing", "Tracer", "push_context", "call"),
        ("repro.obs.tracing", "Tracer", "pop_context", "call"),
        ("repro.obs.events", "FlightRecorder", "record", "call"),
        ("repro.obs.events", "FlightRecorder", "push_context", "call"),
        ("repro.obs.events", "FlightRecorder", "pop_context", "call"),
        ("repro.obs.instrument", "Observability", "__init__", "call"),
        ("repro.obs.instrument", "Observability", "trace", "cm"),
        ("repro.obs.instrument", "ScopedMetrics", "counter", "call"),
        ("repro.obs.instrument", "ScopedMetrics", "gauge", "call"),
        ("repro.obs.instrument", "ScopedMetrics", "histogram", "call"),
        ("repro.obs.instrument", "ScopedTracer", "span", "cm"),
        ("repro.obs.instrument", "ScopedTracer", "record", "call"),
        ("repro.obs.instrument", "ScopedTracer", "event", "call"),
        ("repro.obs.instrument", "ScopedFlightRecorder", "record", "call"),
        ("repro.obs.slo", "SloPolicy", "evaluate_report", "call"),
    ),
    "obs.telemetry": (
        ("repro.obs.telemetry", "Telemetry", "__init__", "call"),
        ("repro.obs.telemetry", "Telemetry", "sample", "call"),
    ),
    "durability": (
        ("repro.durability.store", "DurablePageStore", "commit", "call"),
        ("repro.durability.wal", "WriteAheadLog", "commit", "call"),
    ),
    "blob": (
        ("repro.blob.blob", "PagedBlob", "read", "call"),
        ("repro.blob.blob", "PagedBlob", "append", "call"),
    ),
    "cache.pool": (
        ("repro.cache.pool", "BufferPool", "get", "call"),
        ("repro.cache.pool", "BufferPool", "put", "call"),
    ),
    "codecs": (
        ("repro.codecs.jpeg_like", "JpegLikeCodec", "encode", "call"),
        ("repro.codecs.jpeg_like", "JpegLikeCodec", "decode", "call"),
    ),
    "core.derivation": (
        ("repro.core.derivation", "DerivationObject", "expand", "call"),
    ),
    "cache.derivations": (
        ("repro.cache.derivations", "DerivationCache", "materialize",
         "call"),
    ),
    "query.database": tuple(
        ("repro.query.database", "MediaDatabase", name, "call")
        for name in ("objects", "components_during",
                     "components_overlapping", "occurrences_of",
                     "set_attribute", "add_object", "add_multimedia")
    ),
    "query.index": tuple(
        ("repro.query.index", "TemporalIndex", name, "call")
        for name in ("object_names", "components_during",
                     "components_overlapping", "occurrences_of",
                     "set_attribute", "index_object", "ensure_multimedia")
    ),
}


class LayerTracer:
    """Aggregating span recorder on one parent stack."""

    def __init__(self):
        self.layers = tuple(LAYERS)
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.layer_calls: Counter = Counter()
        #: Calls per entry point, e.g. ``"Player.stepper.next"``.
        self.entry_calls: Counter = Counter()
        #: Sums the ``_AFTER`` hooks add, e.g. events fired, bytes read.
        self.totals: Counter = Counter()
        self.spans = 0
        self.top_ns = 0
        self._stack: list[list] = []
        self._watched: dict[int, tuple[object, dict[str, int]]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer: str, entry: str) -> None:
        self._stack.append([layer, entry, perf_counter_ns(), 0])

    def _exit(self) -> None:
        end = perf_counter_ns()
        layer, entry, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child
        self.layer_calls[layer] += 1
        self.entry_calls[entry] += 1
        self.spans += 1
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.top_ns += duration

    def watch(self, obj, *attributes: str) -> None:
        """Remember ``obj``'s counters on first sight, so :meth:`delta`
        reports only what happened while traced."""
        if id(obj) not in self._watched:
            self._watched[id(obj)] = (
                obj, {name: getattr(obj, name) for name in attributes},
            )

    def delta(self, kind: type, attribute: str) -> int:
        """Growth of ``attribute`` over every watched ``kind`` object."""
        return sum(
            getattr(obj, attribute) - base[attribute]
            for obj, base in self._watched.values()
            if isinstance(obj, kind) and attribute in base
        )

    # -- shims -----------------------------------------------------------------

    def _wrap_call(self, fn, layer: str, entry: str):
        tracer = self
        before = _BEFORE.get(entry)
        after = _AFTER.get(entry)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            tracer._enter(layer, entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def _wrap_steps(self, fn, layer: str, entry: str):
        tracer = self
        step_entry = f"{entry}.next"

        def timed_steps(generator):
            while True:
                tracer._enter(layer, step_entry)
                try:
                    value = next(generator)
                except StopIteration as stop:
                    return stop.value
                finally:
                    tracer._exit()
                yield value

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(layer, entry)
            try:
                generator = fn(*args, **kwargs)
            finally:
                tracer._exit()
            return timed_steps(generator)

        return traced

    def _wrap_cm(self, fn, layer: str, entry: str):
        tracer = self

        class TimedContext:
            __slots__ = ("inner",)

            def __init__(self, inner):
                self.inner = inner

            def __enter__(self):
                tracer._enter(layer, f"{entry}.enter")
                try:
                    return self.inner.__enter__()
                finally:
                    tracer._exit()

            def __exit__(self, *exc_info):
                tracer._enter(layer, f"{entry}.exit")
                try:
                    return self.inner.__exit__(*exc_info)
                finally:
                    tracer._exit()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(layer, entry)
            try:
                inner = fn(*args, **kwargs)
            finally:
                tracer._exit()
            return TimedContext(inner)

        return traced

    def install(self) -> "LayerTracer":
        """Install every shim; :meth:`restore` puts the originals back."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer in self.layers:
            for module_name, owner_name, attribute, kind in LAYERS[layer]:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None \
                    else getattr(module, owner_name)
                original = inspect.getattr_static(owner, attribute)
                if not inspect.isfunction(original):
                    raise TypeError(
                        f"{module_name}.{owner_name}.{attribute} is not a "
                        "plain function; the shim would change its binding"
                    )
                entry = f"{owner_name or module_name}.{attribute}"
                if kind == "steps":
                    shim = self._wrap_steps(original, layer, entry)
                elif kind == "cm":
                    shim = self._wrap_cm(original, layer, entry)
                else:
                    shim = self._wrap_call(original, layer, entry)
                self._restore.append((owner, attribute, original))
                setattr(owner, attribute, shim)
        return self

    def restore(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- results ---------------------------------------------------------------

    def metrics(self, wall_ns: int, sessions: int) -> dict[str, float]:
        """Per-layer readings for a traced phase of ``wall_ns``."""
        from repro.cache.derivations import DerivationCache
        from repro.cache.pool import BufferPool

        wall = max(wall_ns, 1)
        out: dict[str, float] = {}
        for layer in self.layers:
            out[f"{layer}.self_pct"] = 100.0 * self.self_ns[layer] / wall
            out[f"{layer}.calls"] = self.layer_calls[layer]
        entries = self.entry_calls
        out["engine.kernel.events"] = self.totals["kernel.events"]
        out["engine.player.steps"] = entries["Player.stepper.next"]
        out["engine.player.plays"] = entries["Player.play"]
        # A session either simulated a stepper of its own or copied a
        # report from the replay memo.
        out["engine.vod.memo_hit_ratio"] = (
            max(0.0, 1.0 - entries["Player.stepper"] / sessions)
            if sessions else 0.0
        )
        out["durability.commits"] = entries["DurablePageStore.commit"]
        out["blob.read_mb"] = self.totals["blob.bytes_read"] / 1e6
        out["cache.pool.hit_ratio"] = _ratio(
            self.delta(BufferPool, "hits"), self.delta(BufferPool, "misses"))
        out["cache.pool.evictions"] = self.delta(BufferPool, "evictions")
        out["cache.derivations.hit_ratio"] = _ratio(
            self.delta(DerivationCache, "hits"),
            self.delta(DerivationCache, "misses"))
        out["cache.derivations.evictions"] = \
            self.delta(DerivationCache, "evictions")
        out["core.derivation.expansions"] = entries["DerivationObject.expand"]
        out["trace.unattributed_share"] = max(0.0, 1.0 - self.top_ns / wall)
        out["trace.spans"] = self.spans
        return out


def _ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def _count_events(tracer: LayerTracer, args, fired) -> None:
    tracer.totals["kernel.events"] += fired


def _count_read(tracer: LayerTracer, args, data) -> None:
    tracer.totals["blob.bytes_read"] += len(data)


def _watch_cache(tracer: LayerTracer, args) -> None:
    tracer.watch(args[0], "hits", "misses", "evictions")


#: Entry point -> hook run before each call with (tracer, args).
_BEFORE = {
    "BufferPool.get": _watch_cache,
    "DerivationCache.materialize": _watch_cache,
}

#: Entry point -> hook run after each call with (tracer, args, result).
_AFTER = {
    "EventLoop.run": _count_events,
    "PagedBlob.read": _count_read,
}
