"""Inspect an RMF container file.

Usage::

    python -m repro.tools.inspect movie.rmf [--table NAME] [--play BANDWIDTH]

Prints the interpretation summary (sequences, descriptors, categories),
optionally one sequence's placement table, and optionally a simulated
playback report at the given bandwidth (bytes/second). With ``--obs``
the playback runs instrumented and the collected metrics are printed
as a table. With ``--cache PAGES`` the container is replayed through a
``PAGES``-page buffer pool (cold pass, then warm pass) and the
cache-hit accounting is printed.

``--health [CLIENTS]`` serves the container to CLIENTS concurrent
sessions (default 2, admission disabled so overload is visible) through
an instrumented :class:`~repro.engine.vod.VodServer` and prints the
server's health: status, SLO verdicts, pipeline stage profile and
recent flight-recorder events. ``--timeline PATH`` writes the same
instrumented run's spans and events as Chrome ``trace_event`` JSON,
loadable in chrome://tracing or Perfetto. Both take the serving
bandwidth from ``--play`` when given, else 2 MB/s.

``--fleet [SHARDS]`` serves the container across a SHARDS-shard
:class:`~repro.engine.fleet.Fleet` (default 3) and prints the shard
census — routing, per-shard session counts, event-loop stats — and the
fleet health rollup.

``--dash [CLIENTS]`` serves CLIENTS concurrent sessions (default 4,
admission disabled) with the clock-driven telemetry pipeline attached
and renders the terminal dashboard: per-series sparklines, the alert
table and timeline, and the shard heat row.

``--verify`` runs the static media-graph checker over the container's
interpretation and prints its findings; the exit code turns non-zero
on any ERROR-level diagnostic, so a broken container is caught before
anything tries to play it.

``--index`` catalogs the container into an indexed
:class:`~repro.query.database.MediaDatabase` and prints the relational
temporal index's census: per-relation row counts, the index inventory,
on-disk size and the last write-through.

``--wal`` treats the path as a write-ahead-log *directory* instead of
a container and prints the log's state — segments, record counts,
committed transactions, and whether the tail is torn — without
modifying it.

``--cfg QUALNAME`` treats the path as a *Python source file* instead
of a container and prints the dataflow engine's control-flow graph of
the named function (``serve`` or ``PagedBlob.read``-style qualnames),
node by node with its edges — the exact graph the DF rules analyze.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.reporting import format_rate, table_text
from repro.blob.blob import PagedBlob
from repro.blob.pages import MemoryPager, PageStore
from repro.cache import BufferPool
from repro.core.interpretation import Interpretation
from repro.engine.player import CostModel, Player
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.obs import (
    Observability,
    events_to_table,
    profile_stages,
    to_chrome_trace,
    to_table,
)
from repro.storage.container import read_container

#: Serving bandwidth for --health/--timeline when --play gives none.
DEFAULT_HEALTH_BANDWIDTH = 2_000_000


def describe_interpretation(interpretation: Interpretation) -> str:
    """Full human-readable description of a container's contents."""
    lines = [interpretation.describe(), ""]
    for name in interpretation.names():
        sequence = interpretation.sequence(name)
        stream = interpretation.materialize(name, read_payloads=False)
        descriptor = sequence.media_descriptor
        lines.append(f"{name}:")
        lines.append(f"  media type : {sequence.media_type.name}")
        lines.append(f"  time system: {sequence.time_system}")
        lines.append(f"  category   : {stream.category_label()}")
        lines.append(
            f"  elements   : {len(sequence)}, "
            f"{sequence.total_size():,} bytes, "
            f"span {stream.duration_seconds().to_timestamp()}"
        )
        for key in ("encoding", "quality_factor", "average_data_rate"):
            if key in descriptor:
                value = descriptor[key]
                if key == "average_data_rate":
                    value = format_rate(float(value))
                lines.append(f"  {key:11s}: {value}")
        lines.append("")
    return "\n".join(lines)


def placement_table_text(interpretation: Interpretation, name: str,
                         limit: int = 20) -> str:
    """One sequence's placement table (first ``limit`` rows)."""
    sequence = interpretation.sequence(name)
    rows = sequence.table()[:limit]
    suffix = "" if len(sequence) <= limit else f" (of {len(sequence)})"
    return table_text(
        sequence.table_columns(), rows,
        title=f"{name} placement table, first {len(rows)} rows{suffix}",
    )


def playback_text(interpretation: Interpretation, bandwidth: int,
                  obs: Observability | None = None) -> str:
    player = Player(CostModel(bandwidth=bandwidth), obs=obs)
    report = player.play(interpretation)
    text = f"playback at {format_rate(bandwidth)}: {report.summary()}"
    if obs is not None:
        text += "\n\n" + to_table(obs)
    return text


def paged_copy(interpretation: Interpretation,
               pool: BufferPool) -> Interpretation:
    """The same interpretation over a paged, pool-backed copy of its BLOB.

    Placement offsets are unchanged — only the backing store differs —
    so the copy replays identically while exercising the page cache.
    """
    store = PageStore(MemoryPager(), checksums=True, buffer_pool=pool)
    blob = PagedBlob(store)
    blob.append(interpretation.blob.read_all())
    copy = Interpretation(blob, f"{interpretation.name}-cached")
    for name in interpretation.names():
        copy.add_sequence(interpretation.sequence(name))
    return copy


def cached_replay_text(interpretation: Interpretation, pages: int) -> str:
    """Cold-then-warm replay through a buffer pool, with hit accounting."""
    obs = Observability()
    pool = BufferPool(pages)
    cached = paged_copy(interpretation, pool)
    cached.instrument(obs)
    cached.blob.store.instrument(obs)
    pager_reads = obs.metrics.counter("blob.page.pager_reads")

    def replay() -> int:
        before = pager_reads.total()
        for name in cached.names():
            cached.materialize(name)
        return pager_reads.total() - before

    cold = replay()
    warm = replay()
    rows = [
        ("buffer pool pages", pool.capacity_pages),
        ("cold pager reads", cold),
        ("warm pager reads", warm),
        ("cache hits", pool.hits),
        ("cache hit ratio", f"{pool.hit_ratio:.1%}"),
        ("evictions", pool.evictions),
        ("occupancy bytes", pool.occupancy_bytes),
    ]
    return table_text(
        ("metric", "value"), rows,
        title=f"cached replay through a {pages}-page buffer pool",
    )


def serve_instrumented(interpretation: Interpretation, bandwidth: int,
                       clients: int, obs: Observability,
                       telemetry=None) -> VodServer:
    """Serve ``clients`` concurrent sessions of the container's title
    through an instrumented VOD server (admission disabled)."""
    server = VodServer(bandwidth, obs=obs, telemetry=telemetry)
    server.publish(interpretation.name, interpretation)
    requests = [
        SessionRequest(client=f"client-{i}", title=interpretation.name)
        for i in range(clients)
    ]
    server.serve(requests, ServeOptions(enforce_admission=False))
    return server


def dashboard_text(interpretation: Interpretation, bandwidth: int,
                   clients: int) -> str:
    """Serve with telemetry attached and render the dashboard."""
    from repro.obs.telemetry import Telemetry
    from repro.tools.dashboard import render_dashboard

    obs = Observability()
    telemetry = Telemetry()
    serve_instrumented(interpretation, bandwidth, clients, obs,
                       telemetry=telemetry)
    return render_dashboard(telemetry.store, alerts=telemetry.alerts)


def fleet_census_text(interpretation: Interpretation, bandwidth: int,
                      shards: int, clients: int = 6) -> str:
    """Serve the container across a small fleet and print the shard
    census: routing, per-shard session counts, event-loop stats and
    the fleet health rollup."""
    from repro.engine.fleet import Fleet

    obs = Observability()
    fleet = Fleet(bandwidth, shards=shards, obs=obs)
    title = interpretation.name
    fleet.publish(title, interpretation)
    fleet.serve(
        [SessionRequest(client=f"client-{i}", title=title)
         for i in range(clients)],
        ServeOptions(enforce_admission=False),
    )
    health = fleet.health()
    rows = []
    for name in fleet.shard_names:
        shard = fleet.shard(name)
        shard_health = health.shards[name]
        stats = shard.last_loop_stats
        rows.append((
            name,
            "live" if name in fleet.live_shards else "DEAD",
            "yes" if fleet.route(title) == name else "",
            shard_health.sessions,
            shard_health.status,
            stats["events_processed"] if stats else 0,
        ))
    census = table_text(
        ("shard", "state", f"owns {title!r}", "sessions", "status",
         "events"),
        rows,
        title=f"fleet census: {shards} shards at "
              f"{format_rate(bandwidth)} each, {clients} sessions",
    )
    return census + "\n\n" + health.summary()


def index_census_text(interpretation: Interpretation) -> str:
    """Catalog the container behind a relational index; print its census."""
    from repro.query.database import MediaDatabase

    db = MediaDatabase(f"{interpretation.name}-catalog", index=True)
    db.add_interpretation(interpretation)
    census = db.index.census()
    rows = [
        (relation, count)
        for relation, count in sorted(census["rows"].items())
    ]
    rows.append(("(total writes)", census["writes"]))
    seq, op, detail = census["last_write"] or (0, "-", "-")
    rows.append(("(last write-through)", f"#{seq} {op} {detail}"))
    rows.append(("(size bytes)", census["size_bytes"]))
    relations = table_text(
        ("relation", "rows"), rows,
        title=f"temporal index census for {interpretation.name!r}",
    )
    indexes = "indexes: " + ", ".join(census["indexes"])
    return relations + "\n" + indexes


def health_text(server: VodServer, obs: Observability) -> str:
    """The server's health summary, stage profile and recent events."""
    parts = [server.health().summary()]
    profile = profile_stages(obs)
    if profile.stages:
        parts.append(profile.table())
    if len(obs.events):
        parts.append(events_to_table(obs, title="recent events", limit=15))
    return "\n\n".join(parts)


def cfg_dump_text(path: str, qualname: str) -> str:
    """The CFG dump of one function in a Python source file.

    Raises :class:`~repro.errors.AnalysisError` for an unknown
    qualname, listing what the file does define.
    """
    import ast
    from pathlib import Path

    from repro.analysis.cfg import build_cfg, function_defs
    from repro.errors import AnalysisError

    source = Path(path)
    tree = ast.parse(source.read_text(encoding="utf-8"))
    defs = function_defs(tree)
    for found, _, func in defs:
        if found == qualname:
            return build_cfg(func, name=source.name,
                             qualname=qualname).dump()
    raise AnalysisError(
        f"no function {qualname!r} in {path}; defines: "
        f"{', '.join(q for q, _, _ in defs) or '(none)'}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.inspect",
        description="Inspect an RMF media container.",
    )
    parser.add_argument("path", help="container file (.rmf)")
    parser.add_argument("--table", metavar="NAME",
                        help="print NAME's placement table")
    parser.add_argument("--play", metavar="BANDWIDTH", type=int,
                        help="simulate playback at BANDWIDTH bytes/second")
    parser.add_argument("--obs", action="store_true",
                        help="instrument --play and print the metric table")
    parser.add_argument("--cache", metavar="PAGES", type=int,
                        help="replay cold/warm through a PAGES-page "
                             "buffer pool and print hit accounting")
    parser.add_argument("--health", metavar="CLIENTS", type=int,
                        nargs="?", const=2,
                        help="serve CLIENTS concurrent sessions (default "
                             "2) and print the server's health: status, "
                             "SLO verdicts, stage profile, recent events")
    parser.add_argument("--fleet", metavar="SHARDS", type=int,
                        nargs="?", const=3,
                        help="serve the container across a SHARDS-shard "
                             "fleet (default 3) and print the shard "
                             "census and fleet health rollup")
    parser.add_argument("--dash", metavar="CLIENTS", type=int,
                        nargs="?", const=4,
                        help="serve CLIENTS concurrent sessions (default "
                             "4) with telemetry attached and render the "
                             "terminal dashboard")
    parser.add_argument("--timeline", metavar="PATH",
                        help="write the instrumented serving run as "
                             "Chrome trace_event JSON to PATH")
    parser.add_argument("--verify", action="store_true",
                        help="run the static graph checker over the "
                             "container and fail on any error finding")
    parser.add_argument("--index", action="store_true",
                        help="catalog the container behind the relational "
                             "temporal index and print its census")
    parser.add_argument("--wal", action="store_true",
                        help="treat PATH as a write-ahead-log directory "
                             "and print its state")
    parser.add_argument("--cfg", metavar="QUALNAME",
                        help="treat PATH as a Python source file and "
                             "print the control-flow graph of the "
                             "QUALNAME function (e.g. PagedBlob.read)")
    args = parser.parse_args(argv)

    if args.cfg:
        from repro.errors import MediaModelError

        try:
            print(cfg_dump_text(args.path, args.cfg))
        except (OSError, SyntaxError, MediaModelError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.wal:
        from repro.durability import REAL_FS, WriteAheadLog
        from repro.errors import MediaModelError

        if not REAL_FS.exists(args.path):
            print(f"error: no WAL directory at {args.path}",
                  file=sys.stderr)
            return 1
        try:
            with WriteAheadLog(args.path) as wal:
                print(wal.describe())
        except (OSError, MediaModelError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    try:
        interpretation = read_container(args.path)
    except (OSError, Exception) as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(describe_interpretation(interpretation))
    if args.verify:
        from repro.analysis import GraphChecker

        checker = GraphChecker(
            cost_model=CostModel(
                bandwidth=args.play or DEFAULT_HEALTH_BANDWIDTH
            )
        )
        report = checker.check(interpretation)
        print(report.render_text())
        print()
        if not report.ok:
            return 1
    if args.index:
        print(index_census_text(interpretation))
        print()
    if args.table:
        print(placement_table_text(interpretation, args.table))
        print()
    if args.play:
        obs = Observability() if args.obs else None
        print(playback_text(interpretation, args.play, obs=obs))
    if args.cache:
        print(cached_replay_text(interpretation, args.cache))
    if args.fleet is not None:
        print(fleet_census_text(
            interpretation,
            bandwidth=args.play or DEFAULT_HEALTH_BANDWIDTH,
            shards=args.fleet,
        ))
        print()
    if args.dash is not None:
        print(dashboard_text(
            interpretation,
            bandwidth=args.play or DEFAULT_HEALTH_BANDWIDTH,
            clients=args.dash,
        ))
        print()
    if args.health is not None or args.timeline:
        obs = Observability()
        server = serve_instrumented(
            interpretation,
            bandwidth=args.play or DEFAULT_HEALTH_BANDWIDTH,
            clients=args.health if args.health is not None else 1,
            obs=obs,
        )
        if args.health is not None:
            print(health_text(server, obs))
        if args.timeline:
            from repro.durability import atomic_write_bytes

            atomic_write_bytes(args.timeline,
                               to_chrome_trace(obs).encode("utf-8"))
            print(f"wrote Chrome trace to {args.timeline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
