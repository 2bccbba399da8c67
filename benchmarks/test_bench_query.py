"""E-query — the relational temporal index at catalog scale.

§6's argument for a relational encoding of media structure is that the
queries §1.2 motivates stay interactive when the catalog stops fitting
in a linear scan. This benchmark builds a million-object catalog (and a
deep composition over it), runs the headline query classes through both
the SQLite-backed temporal index and the pure-Python linear oracle, and
asserts the two backends return byte-identical answers — including
after a ``set_attribute`` mutation — while the indexed path is at least
an order of magnitude faster. The build time, the index size and each
query class's indexed time are also registered as ``BENCH_query.json``
readings.

Scale down with ``REPRO_BENCH_QUERY_OBJECTS`` /
``REPRO_BENCH_QUERY_COMPONENTS`` for smoke runs.
"""

import os
import time

import pytest

from repro.core.composition import MultimediaObject
from repro.core.media_object import StillMediaObject
from repro.core.media_types import media_type_registry
from repro.query.database import MediaDatabase

N_OBJECTS = int(os.environ.get("REPRO_BENCH_QUERY_OBJECTS", 1_000_000))
N_COMPONENTS = int(os.environ.get("REPRO_BENCH_QUERY_COMPONENTS", 200_000))
SPEEDUP_FLOOR = 10.0

GENRES = ("news", "drama", "sport", "nature", "archive")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def catalog():
    """A million-object catalog plus one wide composition, indexed."""
    text_type = media_type_registry.get("text")
    descriptor = text_type.make_media_descriptor()
    db = MediaDatabase("million", index=True)
    build_start = time.perf_counter()
    for i in range(N_OBJECTS):
        name = f"obj-{i:07d}"
        obj = StillMediaObject(text_type, descriptor, name, name=name)
        db.add_object(
            obj,
            genre=GENRES[i % len(GENRES)],
            year=1970 + (i % 57),
            reel=i % 999,
        )
    # Components draw on a pool of catalog objects so any one object
    # appears a realistic handful of times in the program.
    pool = max(1, N_COMPONENTS // 20)
    m = MultimediaObject("program")
    for i in range(N_COMPONENTS):
        # Overlapping, multi-scale placements: starts sweep the whole
        # timeline, durations cycle 1..8 so windows cut mid-component.
        m.add_temporal(db.get_object(f"obj-{i % pool:07d}"),
                       at=2 * i, duration=1 + i % 8, label=f"c{i:06d}")
    db.add_multimedia(m)
    db.index.ensure_multimedia(m)      # encode outside the timed region
    build_seconds = time.perf_counter() - build_start
    return db, build_seconds


def _gates(db):
    """The benchmark's query gates: (name, callable(backend))."""
    window = (2 * N_COMPONENTS // 2, 2 * N_COMPONENTS // 2 + 40)
    return [
        # genre cycles with period 5 and reel with period 999 (coprime),
        # so the conjunction is selective: ~1 in 4,995 objects.
        ("objects genre+reel",
         lambda backend: [o.name for o in db.objects(
             backend=backend, genre="sport", reel=123)]),
        ("components_during",
         lambda backend: db.components_during(
             "program", *window, backend=backend)),
        ("components_overlapping",
         lambda backend: db.components_overlapping(
             "program", f"c{N_COMPONENTS // 3:06d}", backend=backend)),
        ("occurrences_of",
         lambda backend: db.occurrences_of(
             "obj-0000000", backend=backend)),
    ]


def test_million_object_speedup(report, catalog):
    db, build_seconds = catalog
    rows = []
    speedups = {}
    for name, gate in _gates(db):
        indexed, hot = _timed(lambda g=gate: g("index"))
        linear, cold = _timed(lambda g=gate: g("linear"))
        assert indexed == linear, f"{name}: backends disagree"
        speedups[name] = cold / hot if hot else float("inf")
        slug = name.replace(" ", "_").replace("+", "_")
        report.metric("query", f"{slug}_indexed_ms", hot * 1e3)
        rows.append((name, str(len(indexed)), f"{cold * 1e3:9.1f}",
                     f"{hot * 1e3:9.3f}", f"{speedups[name]:8.1f}x"))
    report.table(
        "query",
        ("query", "results", "linear ms", "indexed ms", "speedup"),
        rows,
        title=f"temporal index vs linear oracle "
              f"({N_OBJECTS:,} objects, {N_COMPONENTS:,} components; "
              f"build+index {build_seconds:.1f}s)",
    )
    report.metric("query", "build_s", build_seconds)
    report.metric("query", "index_size_mb",
                  db.index.census()["size_bytes"] / 1e6)
    for name, speedup in speedups.items():
        assert speedup >= SPEEDUP_FLOOR, (
            f"{name}: {speedup:.1f}x < {SPEEDUP_FLOOR}x floor"
        )


def test_mutation_keeps_backends_identical(report, catalog):
    db, _ = catalog
    victim = f"obj-{N_OBJECTS // 2:07d}"
    db.set_attribute(victim, "genre", "restored")
    db.set_attribute(victim, "year", 2001)
    indexed, hot = _timed(lambda: [o.name for o in db.objects(
        backend="index", genre="restored")])
    linear, cold = _timed(lambda: [o.name for o in db.objects(
        backend="linear", genre="restored")])
    assert indexed == linear == [victim]
    # The sport/2001 cohort must not have picked up the victim twice,
    # and both backends must agree on the post-mutation world.
    for name, gate in _gates(db):
        assert gate("index") == gate("linear"), name
    census = db.index.census()
    report.kv(
        "query",
        [("mutated object", victim),
         ("post-mutation lookup (indexed)", f"{hot * 1e3:.3f} ms"),
         ("post-mutation lookup (linear)", f"{cold * 1e3:.1f} ms"),
         ("index writes (total)", census["writes"]),
         ("index size", f"{census['size_bytes'] / 1e6:.1f} MB")],
        title="write-through under mutation (dual-backend identical)",
    )
