"""The four end-to-end workloads, each a set-up plus a stream of rounds.

A round is a fixed amount of user-visible work made of timed calls into
the program's public API. Round ``i`` of a workload draws its inputs
from ``Random(f"{seed}:...:{i}")``, so every run of a seed sees the same
rounds in the same order however many it completes, and the program
receives only the generated inputs.

Set-up builds what a round needs and is not timed as work: recorded
and published titles for the serve workloads (publishing runs the
static plan checks), synthesized frames and a pre-filled store for
``ingest-replay``, the catalog for ``catalog-query``. Only the calls a
round lists in ``call_ns`` are timed; what a round prepares around them
(a fresh fleet, request lists, correctness checks) is not.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter_ns

from reference import sampling_ns

#: Titles in the serve catalog and frames per title. Every title has the
#: same length and the same kind of footage — textured, with seed-drawn
#: content, which encodes to within a few per cent of the same size — so
#: every title costs about the same to serve, and seeds differ in
#: content, not in the amount of work.
TITLES = 8
TITLE_FRAMES = 130
FOOTAGE = "texture"
SHARDS = 4
#: Per-shard outbound bytes/s for the staggered serve. About a hundred
#: sessions play at once, half of them on the shard owning title0 and
#: title2, so the kernel re-prices bandwidth under real contention; a
#: cluster of arrivals can push reads past their deadlines (one seed's
#: 1,200-session serve missed 5% of them). Misses fall off a cliff
#: around it: 1.5% more bandwidth misses none, 2.5% less misses a
#: quarter.
STAGGERED_BANDWIDTH = 975_000


@dataclass
class SessionSample:
    """What the simulated-time (``sim_*``) readings need per session."""

    startup_s: float
    late_reads: int
    reads: int
    degraded: bool


@dataclass
class RoundResult:
    call_ns: list[int] = field(default_factory=list)
    units: int = 0
    failed: int = 0
    digest: bytes = b""
    sessions: list[SessionSample] = field(default_factory=list)
    #: Most sessions playing at one simulated instant (serve workloads).
    peak_sessions: int = 0
    errors: list[str] = field(default_factory=list)


def _timed(call_ns: list[int], fn, *args, **kwargs):
    """Call ``fn``, appending its host time, less the reference
    sampler's, to ``call_ns``."""
    sampled = sampling_ns()
    start = perf_counter_ns()
    result = fn(*args, **kwargs)
    call_ns.append(perf_counter_ns() - start - (sampling_ns() - sampled))
    return result


def _canonical(value) -> bytes:
    """Exact bytes for a digest: ``repr`` keeps rationals exact, and
    every value digested is built in a deterministic order."""
    return repr(value).encode("utf-8")


# -- serving -------------------------------------------------------------------


@dataclass
class ServeState:
    titles: dict
    #: Titles by Zipf rank, the most popular first.
    names: list[str]
    #: The fleet set-up published the catalog on, which puts the static
    #: plan checks in ``setup_s``. ``serve-batch`` serves its rounds
    #: from it; ``serve-live`` starts a fresh fleet per round.
    fleet: object

    def close(self) -> None:
        pass


def _zipf_counts(total: int, titles: int) -> list[int]:
    """``total`` sessions shared among ``titles`` in Zipf(1.0)
    proportion, by largest remainder."""
    weights = [1.0 / (rank + 1) for rank in range(titles)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(titles), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _peak_overlap(spans: list[tuple[float, float]]) -> int:
    """Most spans open at one instant; a span ends before one starting
    at the same instant begins."""
    edges = sorted([(end, -1) for _, end in spans]
                   + [(start, 1) for start, _ in spans])
    open_now = peak = 0
    for _, change in edges:
        open_now += change
        peak = max(peak, open_now)
    return peak


def _required_rate(interpretation) -> float:
    """A title's mean data rate, as admission prices it."""
    return sum(
        float(interpretation.sequence(name)
              .media_descriptor["average_data_rate"])
        for name in interpretation.names()
    )


class _ServeWorkload:
    """Shared set-up and checks of the two serve workloads."""

    unit = "sessions"
    sessions_per_round = 0
    smoke_sessions = 0
    #: Rounds in a traced run, and the prefix every run digests.
    trace_rounds = 1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.title_frames = 64 if smoke else TITLE_FRAMES
        if smoke:
            self.sessions_per_round = self.smoke_sessions
            self.trace_rounds = min(self.trace_rounds, 3)

    def setup(self) -> ServeState:
        from repro.blob.blob import MemoryBlob
        from repro.codecs.jpeg_like import JpegLikeCodec
        from repro.engine.recorder import Recorder
        from repro.media import frames
        from repro.media.objects import video_object

        rng = random.Random(f"{self.seed}:titles")
        codec = JpegLikeCodec(quality=40)
        titles = {}
        for index in range(TITLES):
            name = f"title{index}"
            footage = frames.scene(48, 36, self.title_frames, FOOTAGE,
                                   seed=rng.randrange(1000))
            titles[name] = Recorder(MemoryBlob()).record(
                [video_object(footage, name)],
                encoders={name: codec.encode},
            )
        # Publishing runs the static plan checks on every title.
        return ServeState(titles, list(titles), self._build_fleet(titles))

    def bandwidth(self, titles: dict) -> int:
        return STAGGERED_BANDWIDTH

    def _requests(self, state: ServeState, index: int, staggered: bool):
        from repro.core.rational import Rational
        from repro.engine.vod import SessionRequest

        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        # Exactly Zipf(1.0) shares of the round's sessions, title0 the
        # most popular, asked for in a seed-drawn order. Titles are
        # placed on shards by name, so a seed-drawn ranking or sampled
        # counts would change the load on the busiest shard, and with it
        # the deadline misses and the work of a round.
        counts = _zipf_counts(self.sessions_per_round, len(state.names))
        titles = [name for name, count in zip(state.names, counts)
                  for _ in range(count)]
        rng.shuffle(titles)
        arrival_ms = 0
        requests = []
        for n, title in enumerate(titles):
            if staggered:
                # Poisson arrivals, mean 20/s, on the simulated clock.
                arrival_ms += int(rng.expovariate(1 / 50.0))
            requests.append(SessionRequest(
                client=f"r{index}c{n}", title=title,
                arrival_time=Rational(arrival_ms, 1000),
            ))
        return requests

    def _build_fleet(self, titles: dict, **kwargs):
        from repro.engine.fleet import Fleet

        fleet = Fleet(bandwidth=self.bandwidth(titles), shards=SHARDS,
                      **kwargs)
        for name, interpretation in titles.items():
            fleet.publish(name, interpretation)
        return fleet

    def _account(self, requests, report, result: RoundResult) -> None:
        """Exactly-once accounting, then the round's digest and samples."""
        keys = [r.key for r in requests]
        outcomes = report.outcomes()
        served = [s.identity for s in report.admitted]
        rejected = [r.key for r in report.rejected]
        if len(served) != len(set(served)):
            result.errors.append("a session was served twice")
        if set(outcomes) & set(rejected):
            result.errors.append("a session was both served and rejected")
        if not set(outcomes) | set(rejected) <= set(keys):
            result.errors.append("report names a session nobody requested")
        if len(outcomes) + report.recovered + len(rejected) != len(keys):
            result.errors.append(
                f"{len(keys)} requests but {len(outcomes)} outcomes + "
                f"{report.recovered} recovered + {len(rejected)} rejected"
            )
        result.failed += len(report.failed) + len(rejected)
        arrivals = {r.client: float(r.arrival_time) for r in requests}
        rows, spans = [], []
        for session in report.admitted:
            playback = session.report
            outcome = outcomes[session.identity]
            rows.append([
                session.client, session.title, outcome,
                str(playback.startup_delay), playback.underruns,
                playback.element_count, playback.skipped_elements,
            ])
            # An underrun is exactly a read presented past its deadline.
            result.sessions.append(SessionSample(
                startup_s=float(playback.startup_delay),
                late_reads=playback.underruns,
                reads=playback.element_count,
                degraded=outcome == "degraded",
            ))
            arrival = arrivals[session.client]
            spans.append((arrival, arrival + float(playback.startup_delay
                                                   + playback.duration)))
        result.peak_sessions = _peak_overlap(spans)
        result.digest = _canonical({
            "sessions": sorted(rows), "recovered": report.recovered,
            "rejected": sorted(rejected), "failed": sorted(report.failed),
        })

    def final_check(self, state) -> list[str]:
        return []

    def extras(self, state) -> dict[str, float]:
        return {}


class ServeLive(_ServeWorkload):
    """Staggered arrivals at read granularity, observability and
    telemetry scrapes on: the honest end-to-end serve.

    A round is one batch served by a freshly started fleet, as one
    serving process with its own observability sinks would serve it.
    Its 240 sessions arrive over about 12 simulated seconds and each
    plays for about 5.5, so from the fifth second on about a hundred
    play at once (``sim_peak_sessions``). The fleet is built and publishes its catalog before the timed
    call; inside it, the serve plans each title once, on the shard that
    owns it.
    """

    name = "serve-live"
    sessions_per_round = 240
    smoke_sessions = 40

    def run_round(self, state: ServeState, index: int) -> RoundResult:
        from repro.engine.vod import ServeOptions
        from repro.obs import Observability
        from repro.obs.telemetry import Telemetry

        requests = self._requests(state, index, staggered=True)
        telemetry = Telemetry()
        try:
            fleet = self._build_fleet(state.titles, obs=Observability(),
                                      telemetry=telemetry)
            result = RoundResult(units=len(requests))
            report = _timed(result.call_ns, fleet.serve, requests,
                            ServeOptions(enforce_admission=False,
                                         granularity="read"))
        finally:
            telemetry.store.close()
        self._account(requests, report, result)
        return result


class ServeBatch(_ServeWorkload):
    """Uniform-arrival Zipf batches with admission enforced and
    observability off: the path the replay memo serves. Every round is
    one ``serve`` call on the fleet set-up published."""

    name = "serve-batch"
    sessions_per_round = 256
    smoke_sessions = 256
    trace_rounds = 60
    #: Batches one fleet serves before a fresh one replaces it, outside
    #: the timed calls. A fleet keeps every merged report (about 0.3 MB
    #: a batch), so without restarts peak memory would grow with the
    #: number of rounds a faster program completes.
    restart_every = 25

    def bandwidth(self, titles: dict) -> int:
        # Room for a whole batch of the heaviest title on one shard, so
        # admission is enforced yet never refuses anyone.
        heaviest = max(_required_rate(t) for t in titles.values())
        return int(heaviest * self.sessions_per_round) + 1

    def _build_fleet(self, titles: dict, **kwargs):
        from repro.engine.vod import SessionRequest

        fleet = super()._build_fleet(titles, **kwargs)
        # One session per title plans every title on the shard that owns
        # it, so no timed batch pays for a cold plan cache.
        fleet.serve([SessionRequest(client=f"warm-{name}", title=name)
                     for name in titles])
        return fleet

    def run_round(self, state: ServeState, index: int) -> RoundResult:
        if index and index % self.restart_every == 0:
            state.fleet = None
            state.fleet = self._build_fleet(state.titles)
        requests = self._requests(state, index, staggered=False)
        result = RoundResult(units=len(requests))
        report = _timed(result.call_ns, state.fleet.serve, requests)
        if report.rejected:
            result.errors.append(
                f"{len(report.rejected)} sessions refused admission")
        self._account(requests, report, result)
        return result


# -- the byte pipeline -------------------------------------------------------------


@dataclass
class IngestState:
    medium: object
    store: object
    codec: object
    sources: list
    ring: deque
    programs: list
    player: object

    def close(self) -> None:
        self.store.close()


class IngestReplay:
    """Record, replay and edit over a WAL-backed paged store.

    Each round records one take (encode, append, commit), decodes every
    frame of a stored take through the BLOB and a 64-page buffer pool,
    and plays one edited programme twice through a derivation cache
    that holds about a quarter of the programmes.
    """

    name = "ingest-replay"
    unit = "frames"
    trace_rounds = 8
    width, height = 96, 72

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.frames = 12 if smoke else 48
        self.ring_size = 4 if smoke else 8
        self.sources = 4 if smoke else 8
        self.edits = 4 if smoke else 16
        if smoke:
            self.trace_rounds = 3

    def setup(self) -> IngestState:
        from repro.blob.blob import PagedBlob
        from repro.blob.pages import FilePager
        from repro.cache.derivations import DerivationCache
        from repro.cache.pool import BufferPool
        from repro.codecs.jpeg_like import JpegLikeCodec
        from repro.core.composition import MultimediaObject
        from repro.durability.store import DurablePageStore
        from repro.durability.wal import WriteAheadLog
        from repro.edit.editor import MediaEditor
        from repro.engine.player import CostModel, Player
        from repro.engine.recorder import Recorder
        from repro.faults.disk import SimulatedMedium
        from repro.media import frames
        from repro.media.objects import video_object

        rng = random.Random(f"{self.seed}:ingest")
        sources = [
            video_object(frames.scene(self.width, self.height, self.frames,
                                      FOOTAGE, seed=rng.randrange(1000)),
                         f"source{i}")
            for i in range(self.sources)
        ]
        medium = SimulatedMedium()
        medium.makedirs("/data")
        store = DurablePageStore(
            FilePager("/data/store.pg", fs=medium),
            WriteAheadLog("/data/wal", fs=medium),
            checksums=True, buffer_pool=BufferPool(64),
            auto_checkpoint_bytes=1 << 20,
        )
        codec = JpegLikeCodec(quality=40)
        ring: deque = deque()
        for index in range(self.ring_size):
            source = sources[index % len(sources)]
            blob = PagedBlob(store)
            ring.append((blob, Recorder(blob).record(
                [source], encoders={source.name: codec.encode},
                interpretation_name=f"prefill{index}")))
            store.commit()
        # cut + fade + cut, concatenated: the Figure 4 edit shape.
        editor = MediaEditor()
        fade = max(2, self.frames // 6)
        head = self.frames // 2
        programs = []
        for index in range(self.edits):
            a, b = rng.sample(sources, 2)
            video = editor.concat(
                editor.cut(a, 0, head),
                editor.transition(a, b, fade, kind="fade", a_start=head),
                editor.cut(b, fade, self.frames),
            )
            program = MultimediaObject(f"edit{index}")
            program.add_temporal(video, at=0, label="video")
            programs.append(program)
        expanded = (head + self.frames) * self.width * self.height * 3
        cache = DerivationCache(budget_bytes=expanded * self.edits // 4)
        player = Player(CostModel(), derivation_cache=cache)
        return IngestState(medium, store, codec, sources, ring, programs,
                           player)

    def run_round(self, state: IngestState, index: int) -> RoundResult:
        from repro.blob.blob import PagedBlob
        from repro.engine.recorder import Recorder

        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        result = RoundResult()
        digest = hashlib.sha256()
        source = state.sources[rng.randrange(len(state.sources))]

        def record():
            oldest, _ = state.ring.popleft()
            oldest.release()
            blob = PagedBlob(state.store)
            take = Recorder(blob).record(
                [source], encoders={source.name: state.codec.encode},
                interpretation_name=f"take{index}")
            state.store.commit()
            return blob, take

        blob, take = _timed(result.call_ns, record)
        state.ring.append((blob, take))
        rows = [(e.blob_offset, e.size) for e in take.sequence(source.name)]
        digest.update(_canonical(rows))
        result.units += len(rows)

        blob, take = state.ring[rng.randrange(len(state.ring))]
        shape = (self.height, self.width, 3)
        for entry in take.sequence(take.names()[0]):
            frame = _timed(result.call_ns, lambda e=entry: state.codec.decode(
                blob.read(e.blob_offset, e.size)))
            result.units += 1
            if frame.shape != shape:
                result.errors.append(
                    f"decoded frame shape {frame.shape}, recorded {shape}")
                result.failed += 1
            digest.update(zlib.crc32(frame.tobytes()).to_bytes(4, "big"))

        program = state.programs[rng.randrange(len(state.programs))]
        first = _timed(result.call_ns, state.player.play, program)
        second = _timed(result.call_ns, state.player.play, program)
        if first != second:
            result.errors.append(f"{program.name}: two plays disagree")
        digest.update(_canonical([
            program.name, str(first.startup_delay), first.element_count,
            first.underruns,
        ]))
        result.digest = digest.digest()
        return result

    def final_check(self, state: IngestState) -> list[str]:
        """Crash after the last commit; recovery must restore every byte."""
        from repro.blob.blob import PagedBlob
        from repro.blob.pages import FilePager
        from repro.durability.store import recover_page_store
        from repro.durability.wal import WriteAheadLog

        before = [(blob.pages, len(blob), blob.read_all())
                  for blob, _ in state.ring]
        state.medium.crash()
        store, _ = recover_page_store(
            FilePager("/data/store.pg", fs=state.medium, repair=True),
            WriteAheadLog("/data/wal", fs=state.medium), checksums=True,
        )
        try:
            errors = [
                f"take {n} differs after crash recovery"
                for n, (pages, length, data) in enumerate(before)
                if PagedBlob(store, pages, length).read_all() != data
            ]
        finally:
            store.close()
        return errors

    def extras(self, state) -> dict[str, float]:
        return {}


# -- the catalog -------------------------------------------------------------------


GENRES = ("news", "drama", "sport", "nature", "archive")


@dataclass
class CatalogState:
    db: object

    def close(self) -> None:
        self.db.index.close()


class CatalogQuery:
    """Indexed temporal and attribute queries with writes between them.

    A round repeats four times: one query of each class — attribute
    conjunction, window, overlap, occurrence — then one
    ``set_attribute`` write.
    """

    name = "catalog-query"
    unit = "operations"
    trace_rounds = 500
    cycles = 4

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.objects = 8_000 if smoke else 30_000
        self.components = 1_600 if smoke else 6_000
        if smoke:
            self.trace_rounds = 75

    def setup(self) -> CatalogState:
        from repro.core.composition import MultimediaObject
        from repro.core.media_object import StillMediaObject
        from repro.core.media_types import media_type_registry
        from repro.query.database import MediaDatabase

        rng = random.Random(f"{self.seed}:catalog")
        text = media_type_registry.get("text")
        descriptor = text.make_media_descriptor()
        db = MediaDatabase("catalog", index=True)
        for i in range(self.objects):
            name = f"obj-{i:06d}"
            db.add_object(StillMediaObject(text, descriptor, name, name=name),
                          genre=rng.choice(GENRES),
                          year=1970 + rng.randrange(57),
                          reel=rng.randrange(999))
        # Components draw on a pool of objects so each recurs a handful
        # of times; starts sweep the timeline and durations cycle 1..8,
        # so windows cut through components.
        pool = self.components // 20
        program = MultimediaObject("program")
        for i in range(self.components):
            program.add_temporal(db.get_object(f"obj-{i % pool:06d}"),
                                 at=2 * i, duration=1 + i % 8,
                                 label=f"c{i:06d}")
        db.add_multimedia(program)
        return CatalogState(db)

    def _queries(self, rng: random.Random):
        span = 2 * self.components
        start = rng.randrange(span)
        return (
            ("objects", {"genre": rng.choice(GENRES),
                         "reel": rng.randrange(999)}),
            ("components_during", ("program", start, start + 40)),
            ("components_overlapping",
             ("program", f"c{rng.randrange(self.components):06d}")),
            ("occurrences_of",
             (f"obj-{rng.randrange(self.components // 20):06d}",)),
        )

    @staticmethod
    def _ask(db, kind: str, args, backend: str = "auto"):
        if kind == "objects":
            return [o.name for o in db.objects(backend=backend, **args)]
        return getattr(db, kind)(*args, backend=backend)

    @staticmethod
    def _plain(kind: str, answer):
        """An answer in plain values, cheap to digest exactly."""
        if kind != "occurrences_of":
            return answer
        return [(mm, path, i.start.numerator, i.start.denominator,
                 i.end.numerator, i.end.denominator)
                for mm, path, i in answer]

    def run_round(self, state: CatalogState, index: int) -> RoundResult:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        db = state.db
        result = RoundResult(units=5 * self.cycles)
        digested = []
        for _ in range(self.cycles):
            for kind, args in self._queries(rng):
                answer = _timed(result.call_ns, self._ask, db, kind, args)
                digested.append(self._plain(kind, answer))
            victim = f"obj-{rng.randrange(self.objects):06d}"
            genre = rng.choice(GENRES)
            _timed(result.call_ns, db.set_attribute, victim, "genre", genre)
            digested.append((victim, genre))
        result.digest = _canonical(digested)
        return result

    def final_check(self, state: CatalogState) -> list[str]:
        """Both backends must answer every query class identically."""
        rng = random.Random(f"{self.seed}:check")
        return [
            f"{kind}{args}: index and linear scan disagree"
            for kind, args in self._queries(rng)
            if self._ask(state.db, kind, args, "index")
            != self._ask(state.db, kind, args, "linear")
        ]

    def extras(self, state: CatalogState) -> dict[str, float]:
        """Per-layer readings the call shims cannot take."""
        return {"query.index.size_mb":
                state.db.index.census()["size_bytes"] / 1e6}


WORKLOADS = {
    cls.name: cls
    for cls in (ServeLive, ServeBatch, IngestReplay, CatalogQuery)
}
