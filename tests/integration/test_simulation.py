"""A seeded whole-system simulation of the video-on-demand service.

§1.1's motivating application, driven end to end in the manner of
FoundationDB's simulation testing: hypothesis draws one scenario — a
fleet size and per-shard bandwidth, one or two request batches over
three short titles with zero or staggered arrivals, some requests
forbidding retries, storage faults, a crash that kills the busiest
title's shard mid-batch, catalog writes —
and the scenario is served through the one serving path with
observability, telemetry and checkpoint-backed failover always on.
After every scenario these invariants must hold:

1. Exactly-once accounting per batch: outcomes + recovered + rejected
   is the number of requests, no identity is served twice, both served
   and rejected, or served unrequested, and ``fleet.health()``'s census
   agrees. A session whose request forbids retries reports none, also
   when it resumed on a survivor after a failover.
2. A crashed shard is dead; without a fault plan no session fails; at
   ample bandwidth without faults the deadline-miss SLO is green.
3. Every transition to firing is visible in ``fleet.health()`` at that
   instant, and once ``serve`` returns no alert on any source — a dead
   shard's included — is pending or firing.
4. No telemetry source scrapes back in time.
5. The catalog answers every dual-backend query identically on the
   index and on the linear scan, after its writes.
6. The same scenario served twice is byte-identical: session reports,
   the observability export, the telemetry store and fleet health.

A failure shrinks to a minimal :class:`Scenario`, which hypothesis
prints as data. The run is derandomized, so every test run draws the
same :data:`EXAMPLES` scenarios; raise the constant for a longer sweep.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.composition import MultimediaObject
from repro.core.rational import Rational
from repro.engine.fleet import Fleet, place
from repro.engine.player import RetryPolicy
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest
from repro.faults.crash import CrashInjector, CrashSite
from repro.faults.disk import SimulatedMedium
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.obs.export import to_json_lines
from repro.obs.telemetry import Telemetry
from repro.query.database import MediaDatabase

#: Scenarios per test run; derandomized, so always the same ones.
EXAMPLES = 200

#: Title name -> frame count; 80x60 frames, 15-18 kB/s per session.
TITLES = {"news": 10, "drama": 12, "sport": 14}

#: Requests draw titles with this skew, as VOD popularity does.
POPULARITY = ("news", "news", "news", "drama", "drama", "sport")

#: The policy a request may carry instead of the batch default.
NO_RETRIES = RetryPolicy(max_retries=0)

#: Per-shard bandwidth ladder, bytes/second: 12 kB/s is overloaded by
#: one session of any title, 2 MB/s is ample for twenty.
OVERLOADED = 12_000
AMPLE = 2_000_000
BANDWIDTHS = (OVERLOADED, 24_000, 96_000, AMPLE)

GENRES = ("drama", "news", "sport")
YEARS = (1992, 1993, 1994)
#: Attribute values the catalog writes draw from, including values
#: that compare equal across types (True == 1 == 1.0).
WRITE_VALUES = ("drama", "news", 1, 2, True, 1.0, "1", None)


@pytest.fixture(scope="module")
def titles():
    recorded = {}
    for name, count in TITLES.items():
        video = video_object(frames.scene(80, 60, count, "orbit"), name)
        recorded[name] = Recorder(MemoryBlob()).record(
            [video], encoders={name: JpegLikeCodec(quality=40).encode},
            interpretation_name=f"{name}-capture",
        )
    return recorded


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Batch:
    """One ``serve`` call: ``(title, arrival ms, forbids retries)`` per
    request."""

    requests: tuple[tuple[str, int, bool], ...]
    granularity: str
    admission: bool


@dataclass(frozen=True)
class Scenario:
    shards: int
    bandwidth: int
    batches: tuple[Batch, ...]
    #: ``(seed, transient_rate, bad_page_rate)`` of the batches'
    #: shared fault plan, or None for clean storage.
    faults: tuple[int, float, float] | None
    #: ``vod.serve.session`` occurrence at which the shard owning the
    #: first batch's busiest title dies, or None.
    crash_at: int | None
    #: Per title: (genre, year, start ms on the catalog's timeline).
    catalog: tuple[tuple[str, int, int], ...]
    #: ``(title, key, value)`` attribute writes after the batches.
    writes: tuple[tuple[str, str, object], ...]


#: A request: its title, the gap in ms since the previous arrival, and
#: whether it forbids retries.
REQUESTS = st.lists(
    st.tuples(st.sampled_from(POPULARITY), st.integers(0, 500),
              st.booleans()),
    min_size=1, max_size=20,
)
#: A batch's options: staggered arrivals, granularity, admission.
BATCH_OPTIONS = st.tuples(st.booleans(), st.sampled_from(("auto", "read")),
                          st.booleans())
FAULTS = st.none() | st.tuples(
    st.integers(0, 2**16), st.sampled_from((0.1, 0.3)),
    st.sampled_from((0.0, 0.05, 0.3)),
)
CATALOG = st.tuples(*[st.tuples(
    st.sampled_from(GENRES), st.sampled_from(YEARS), st.integers(0, 2000),
)] * len(TITLES))
WRITES = st.lists(st.tuples(
    st.sampled_from(tuple(TITLES)),
    st.sampled_from(("genre", "year", "restored")),
    st.sampled_from(WRITE_VALUES),
), max_size=6)


def make_batch(drawn, staggered: bool, granularity: str,
               admission: bool) -> Batch:
    arrivals = accumulate(gap if staggered else 0 for _, gap, _ in drawn)
    return Batch(tuple((title, ms, strict) for (title, _, strict), ms
                       in zip(drawn, arrivals)),
                 granularity, admission)


@st.composite
def scenarios(draw) -> Scenario:
    shards = draw(st.integers(1, 4))
    # One to twenty requests, served in one batch or in two halves.
    drawn = draw(REQUESTS)
    parts = [drawn]
    if len(drawn) > 1 and draw(st.booleans()):
        parts = [drawn[:len(drawn) // 2], drawn[len(drawn) // 2:]]
    served = tuple(make_batch(part, *draw(BATCH_OPTIONS)) for part in parts)
    # A failover needs a survivor, and a crash point the owner reaches
    # in the first batch (unless admission turns sessions away).
    crash_at = None
    if shards > 1:
        busiest = Counter(title for title, _, _ in served[0].requests)
        crash_at = draw(st.none() | st.integers(
            0, max(busiest.values()) - 1))
    return Scenario(
        shards=shards,
        bandwidth=draw(st.sampled_from(BANDWIDTHS)),
        batches=served,
        faults=draw(FAULTS),
        crash_at=crash_at,
        catalog=draw(CATALOG),
        writes=tuple(draw(WRITES)),
    )


def busiest_title(batch: Batch) -> str:
    counts = Counter(title for title, _, _ in batch.requests)
    return max(TITLES, key=lambda title: counts[title])


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Run:
    fleet: Fleet
    telemetry: Telemetry
    obs: Observability
    requests: list[list[SessionRequest]]
    reports: list
    #: Per batch: ``fleet.health()`` and the active alerts after serve.
    health_after: list
    active_after: list
    #: ``(visible in fleet.health(), fleet status)`` per firing.
    firings: list
    crashed: CrashInjector | None
    owner: str


def simulate(scenario: Scenario, titles) -> Run:
    shard_names = [f"shard{i}" for i in range(scenario.shards)]
    owner = place(busiest_title(scenario.batches[0]), shard_names)
    injector = (None if scenario.crash_at is None else CrashInjector(
        CrashSite("vod.serve.session", scenario.crash_at)))
    obs = Observability()
    telemetry = Telemetry()
    fleet = Fleet(
        bandwidth=scenario.bandwidth, shards=scenario.shards, obs=obs,
        telemetry=telemetry, checkpoint_fs=SimulatedMedium(),
        crash={} if injector is None else {owner: injector},
    )
    for name, interpretation in titles.items():
        fleet.publish(name, interpretation)
    firings = []

    def watch(alert, at) -> None:
        if alert.state == "firing":
            health = fleet.health()
            firing = {(a["name"], a["source"]) for a in health.firing_alerts}
            firings.append(((alert.name, alert.source) in firing,
                            health.status))

    telemetry.alerts.on_transition = watch
    fault_plan = None
    if scenario.faults is not None:
        seed, transient, bad_page = scenario.faults
        fault_plan = FaultPlan(seed=seed, transient_rate=transient,
                               bad_page_rate=bad_page)
    run = Run(fleet, telemetry, obs, [], [], [], [], firings, injector,
              owner)
    for number, batch in enumerate(scenario.batches):
        requests = [
            SessionRequest(client=f"b{number}-c{i}", title=title,
                           arrival_time=Rational(ms, 1000),
                           retry_policy=NO_RETRIES if strict else None)
            for i, (title, ms, strict) in enumerate(batch.requests)
        ]
        run.requests.append(requests)
        run.reports.append(fleet.serve(requests, ServeOptions(
            enforce_admission=batch.admission, fault_plan=fault_plan,
            granularity=batch.granularity,
        )))
        run.health_after.append(fleet.health())
        run.active_after.append(telemetry.alerts.active())
    return run


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def check_accounting(run: Run) -> None:
    outcomes: Counter = Counter()
    recovered = rejected_total = 0
    for requests, report, health in zip(run.requests, run.reports,
                                        run.health_after):
        requested = {r.key for r in requests}
        served = [s.identity for s in report.admitted]
        rejected = [r.key for r in report.rejected]
        failed = [(client, title) for client, title, _ in report.failed]
        assert len(set(served)) == len(served), "identity served twice"
        assert len(set(rejected)) == len(rejected)
        assert not set(served) & set(rejected), "served and rejected"
        assert not set(failed) & (set(served) | set(rejected))
        assert set(served) | set(rejected) | set(failed) <= requested, \
            "served without being requested"
        assert (len(report.outcomes()) + report.recovered
                + len(report.rejected)) == len(requests)
        strict = {r.key for r in requests if r.retry_policy is not None}
        for session in report.admitted:
            if session.identity in strict:
                assert session.report.retries == 0, \
                    f"{session.identity} retried against its policy"
        outcomes.update(report.outcomes().values())
        recovered += report.recovered
        rejected_total += len(report.rejected)
        # The fleet's census folds the same identities.
        assert health.sessions == sum(outcomes.values())
        assert (health.clean, health.underrun, health.degraded,
                health.failed) == (outcomes["clean"], outcomes["underrun"],
                                   outcomes["degraded"], outcomes["failed"])
        assert health.recovered == recovered
        assert health.rejected == rejected_total


def check_failover_and_failures(scenario: Scenario, run: Run) -> None:
    crashed = run.crashed is not None and run.crashed.fired is not None
    assert run.fleet.dead_shards == ([run.owner] if crashed else [])
    if scenario.faults is None:
        for report in run.reports:
            assert report.failed == []
        if scenario.bandwidth == AMPLE:
            deadline = [v for v in run.health_after[-1].slo
                        if v.slo == "deadline-miss-rate"]
            assert deadline and all(v.ok for v in deadline)


def check_alerts(run: Run) -> None:
    for visible, status in run.firings:
        assert visible and status != "ok"
    for active, health in zip(run.active_after, run.health_after):
        assert active == [], [(a.name, a.source, a.state) for a in active]
        assert health.firing_alerts == ()


def check_scrape_clocks(dump: str) -> None:
    times: dict[str, list[Rational]] = {}
    for line in filter(None, dump.splitlines()):
        row = json.loads(line)
        if "scrape" in row and "source" in row:
            times.setdefault(row["source"], []).append(Rational(row["at"]))
    for source, stamps in times.items():
        assert stamps == sorted(stamps), f"{source} scraped back in time"


def catalog_answers(db: MediaDatabase, backend: str) -> list:
    """Every dual-backend query: attribute selections on each stored
    value (and, for the cross-typed key, every value writes may use),
    then the temporal and composition queries over the schedule."""
    def names(objects) -> list[str]:
        return [obj.name for obj in objects]

    answers = [names(db.objects(backend=backend))]
    for key in ("genre", "year", "views", "restored"):
        probes = [db.attributes_of(title).get(key) for title in TITLES]
        if key == "restored":
            probes = list(WRITE_VALUES)
        for value in {repr(v): v for v in (*probes, None)}.values():
            answers.append(names(db.objects(backend=backend,
                                            **{key: value})))
    for title in TITLES:
        answers.append(db.components_overlapping("schedule", title,
                                                 backend=backend))
        answers.append(db.occurrences_of(title, backend=backend))
    for half in range(6):
        start = Rational(half, 2)
        answers.append(db.components_during(
            "schedule", start, start + Rational(1, 2), backend=backend))
    answers.append(db.component_descendants("schedule", backend=backend))
    return answers


def check_catalog(scenario: Scenario, run: Run, titles) -> None:
    db = MediaDatabase("vod-catalog", index=True)
    schedule = MultimediaObject("schedule")
    for title, (genre, year, start) in zip(TITLES, scenario.catalog):
        db.add_interpretation(titles[title])
        db.set_attribute(title, "genre", genre)
        db.set_attribute(title, "year", year)
        schedule.add_temporal(db.get_object(title),
                              at=Rational(start, 1000), label=title)
    db.add_multimedia(schedule)
    views: Counter = Counter()
    for report in run.reports:
        views.update(title for _, title in report.outcomes())
        for title in TITLES:
            db.set_attribute(title, "views", views[title])
    for title, key, value in scenario.writes:
        db.set_attribute(title, key, value)
    assert catalog_answers(db, "index") == catalog_answers(db, "linear")


def fingerprint(run: Run) -> tuple[str, str, str, str]:
    return (
        repr(run.reports),
        to_json_lines(run.obs),
        run.telemetry.store.dump(),
        json.dumps(run.fleet.health().export(), sort_keys=True),
    )


@settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
          database=None)
@given(scenario=scenarios())
def test_whole_system_simulation(titles, scenario):
    run = simulate(scenario, titles)
    check_accounting(run)
    check_failover_and_failures(scenario, run)
    check_alerts(run)
    first = fingerprint(run)
    check_scrape_clocks(first[2])
    check_catalog(scenario, run, titles)
    assert fingerprint(simulate(scenario, titles)) == first
