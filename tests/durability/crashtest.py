"""The crash matrix: kill the process at every instruction, recover, assert.

The harness runs a workload **scenario** once with a recording
:class:`~repro.faults.crash.CrashInjector` to discover every crash
point it visits, then re-runs it once per ``(point, occurrence)`` site
with the injector armed there: the run dies mid-instruction with
:class:`~repro.errors.SimulatedCrash`, the
:class:`~repro.faults.disk.SimulatedMedium` settles unsynced writes by
their seeded fates, and the scenario's recovery path is invoked against
whatever survived. After recovery the scenario's invariants must hold:

* **no acknowledged write lost** — everything the workload was told was
  durable is still there, byte-identical;
* **no torn state visible** — recovered files parse cleanly; page
  checksums verify; a container is a complete old or new version,
  never a hybrid;
* **recovery is idempotent** — a crash *during* recovery (recovery has
  crash points too) is answered by recovering again, to the same state.

A scenario is any object with ``name``, ``run(fs, crash, acks)``,
``recover(fs, crash)`` and ``verify(state, acks)``. ``acks`` is the
acknowledgment journal: the workload appends an entry only after the
durability layer acknowledged the write, so at crash time it holds
exactly what a client is entitled to find after recovery. ``verify``
raises :class:`~repro.errors.DurabilityError` on any violation.

The crash points themselves (:class:`~repro.faults.crash.CrashInjector`
and every ``crash.point(...)`` call) belong to the program; this harness,
which arms them one by one, belongs to the test suite. Import it as
``tests.durability.crashtest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blob.blob import MemoryBlob
from repro.blob.pages import FilePager
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.interpretation import Interpretation, PlacementEntry
from repro.core.media_types import media_type_registry
from repro.durability.atomic import read_bytes, remove_stale_temp
from repro.durability.store import DurablePageStore, recover_page_store
from repro.durability.wal import WriteAheadLog
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.errors import DurabilityError, MediaModelError, SimulatedCrash
from repro.faults.crash import CrashInjector, CrashSite
from repro.faults.disk import SimulatedMedium
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs.events import Severity
from repro.obs.instrument import Instrumented, Observability
from repro.storage.container import (
    deserialize_container,
    serialize_container,
    write_container,
)


@dataclass(frozen=True)
class CrashOutcome:
    """What happened when the workload was killed at one site."""

    site: CrashSite
    fired: bool
    verified: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "pass" if self.verified else "FAIL"
        reached = "" if self.fired else " (site not reached)"
        tail = f": {self.detail}" if self.detail else ""
        return f"{status} {self.site}{reached}{tail}"


@dataclass
class CrashMatrixReport:
    """One scenario's exhaustive crash sweep."""

    scenario: str
    sites: list[CrashSite] = field(default_factory=list)
    outcomes: list[CrashOutcome] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(outcome.verified for outcome in self.outcomes)

    @property
    def failures(self) -> list[CrashOutcome]:
        return [o for o in self.outcomes if not o.verified]

    def summary(self) -> str:
        lines = [
            f"crash matrix [{self.scenario}]: "
            f"{len(self.outcomes)} sites, "
            f"{len(self.failures)} failures"
        ]
        for outcome in self.failures:
            lines.append(f"  {outcome}")
        return "\n".join(lines)


class CrashMatrix(Instrumented):
    """Exhaustive crash sweep of one scenario.

    ``seed`` parameterizes the medium's :class:`FaultPlan` write fates
    (kept / torn / lost at crash); seed 0 uses the maximally adversarial
    default — every unsynced write is lost.
    """

    def __init__(self, scenario, seed: int = 0,
                 obs: Observability | None = None):
        self.scenario = scenario
        self.seed = seed
        if obs is not None:
            self.instrument(obs)

    def _medium(self) -> SimulatedMedium:
        if self.seed == 0:
            return SimulatedMedium()
        plan = FaultPlan(
            seed=self.seed, torn_write_rate=0.3,
            unsynced_survival_rate=0.3,
        )
        return SimulatedMedium(plan=plan)

    def discover(self) -> list[CrashSite]:
        """The recording pass: run + recover cleanly, collect sites.

        The clean run must verify — a scenario broken without any crash
        would make every armed result meaningless."""
        fs = self._medium()
        crash = CrashInjector()
        acks: list = []
        self.scenario.run(fs, crash, acks)
        state = self.scenario.recover(fs, crash)
        self.scenario.verify(state, acks)
        return crash.sites()

    def run(self, max_sites: int | None = None) -> CrashMatrixReport:
        """Arm every discovered site in turn; returns the full report."""
        sites = self.discover()
        if max_sites is not None:
            sites = sites[:max_sites]
        report = CrashMatrixReport(scenario=self.scenario.name, sites=sites)
        for site in sites:
            outcome = self._run_one(site)
            report.outcomes.append(outcome)
            self._obs.metrics.counter("crashtest.sites").inc(
                verified=str(outcome.verified).lower()
            )
        severity = Severity.INFO if report.passed else Severity.ERROR
        self._obs.events.record(
            severity, "durability.crashtest", "matrix.complete",
            scenario=self.scenario.name, sites=len(report.outcomes),
            failures=len(report.failures),
        )
        return report

    def _run_one(self, site: CrashSite) -> CrashOutcome:
        fs = self._medium()
        crash = CrashInjector(site)
        acks: list = []
        try:
            self.scenario.run(fs, crash, acks)
        # The matrix is the process boundary: it observes the death, then
        # runs recovery.
        except SimulatedCrash:
            fs.crash()
        state = None
        for _ in range(3):
            try:
                state = self.scenario.recover(fs, crash)
                break
            except SimulatedCrash:
                # The armed site lives in the recovery path itself:
                # crash again and re-recover — idempotence is part of
                # the contract.
                fs.crash()
        else:
            return CrashOutcome(
                site, fired=crash.fired is not None, verified=False,
                detail="recovery did not converge after repeated crashes",
            )
        try:
            self.scenario.verify(state, acks)
        except MediaModelError as exc:
            return CrashOutcome(
                site, fired=crash.fired is not None, verified=False,
                detail=str(exc),
            )
        return CrashOutcome(site, fired=crash.fired is not None,
                            verified=True)


# -- scenarios ---------------------------------------------------------------------


class PageStoreCrashScenario:
    """Transactions against a WAL-backed page store on one medium.

    Acknowledgment = :meth:`DurablePageStore.commit` returning. The
    verifier re-reads every acknowledged page image and sweeps the
    checksums, so a lost acknowledged write *or* a visible torn page
    fails the site."""

    name = "page-store"

    def __init__(self, txns: int = 4, pages_per_txn: int = 2,
                 page_size: int = 256):
        self.txns = txns
        self.pages_per_txn = pages_per_txn
        self.page_size = page_size

    def _payload(self, txn: int, index: int) -> bytes:
        pattern = bytes(
            (txn * 37 + index * 11 + byte) % 251
            for byte in range(self.page_size)
        )
        return pattern

    def _open(self, fs, crash, repair: bool = False):
        fs.makedirs("/data")
        pager = FilePager("/data/store.pg", page_size=self.page_size,
                          fs=fs, repair=repair)
        wal = WriteAheadLog("/data/wal", segment_bytes=4096, fs=fs,
                            crash=crash)
        return pager, wal

    def run(self, fs, crash, acks: list) -> None:
        pager, wal = self._open(fs, crash)
        store = DurablePageStore(pager, wal, checksums=True, crash=crash)
        for txn in range(self.txns):
            written: dict[int, bytes] = {}
            for index in range(self.pages_per_txn):
                page_no = store.allocate()
                image = self._payload(txn, index)
                store.write(page_no, image)
                written[page_no] = image
            store.commit()
            # Only now is the transaction acknowledged.
            acks.append(written)
            if txn == self.txns // 2:
                store.checkpoint()
        store.close()

    def recover(self, fs, crash):
        pager, wal = self._open(fs, crash, repair=True)
        store, report = recover_page_store(
            pager, wal, checksums=True, crash=crash,
        )
        return store

    def verify(self, store, acks: list) -> None:
        for txn, written in enumerate(acks):
            for page_no, image in written.items():
                actual = store.read(page_no)
                if actual != image:
                    raise DurabilityError(
                        f"acknowledged write lost: txn {txn} page "
                        f"{page_no} differs after recovery"
                    )
        for page_no in range(len(store.pager)):
            if not store.verify_page(page_no):
                raise DurabilityError(
                    f"torn page visible after recovery: page {page_no} "
                    f"fails its checksum"
                )
        store.close()


class ContainerCrashScenario:
    """Atomic container replacement under crashes.

    The workload publishes version 0, then atomically replaces it with
    version 1. After any crash the file must be a *complete* version no
    older than the last acknowledged one, parse cleanly, and replay
    byte-identically to the uncrashed run of that version."""

    name = "container"

    def __init__(self, elements: int = 3):
        self.elements = elements

    def _build(self, version: int):
        video_type = media_type_registry.get("pal-video")
        descriptor = video_type.make_media_descriptor(
            frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
            color_model="RGB", encoding=f"raw-v{version}",
        )
        blob = MemoryBlob()
        entries = []
        for index in range(self.elements):
            payload = bytes([version * 100 + index * 7 + 1]) * (16 + index)
            offset = blob.append(payload)
            entries.append(
                PlacementEntry(index, index, 1, len(payload), offset)
            )
        interpretation = Interpretation(blob, f"title-v{version}")
        interpretation.add("video", video_type, descriptor, entries)
        return interpretation

    def _serialized(self, version: int) -> bytes:
        return serialize_container(self._build(version))

    def run(self, fs, crash, acks: list) -> None:
        fs.makedirs("/media")
        for version in range(2):
            write_container(self._build(version), "/media/title.rmf",
                            fs=fs, crash=crash)
            acks.append(version)

    def recover(self, fs, crash):
        remove_stale_temp("/media/title.rmf", fs=fs)
        if not fs.exists("/media/title.rmf"):
            return None
        return read_bytes("/media/title.rmf", fs=fs)

    def verify(self, data, acks: list) -> None:
        if not acks:
            # Nothing was ever acknowledged; a missing file is legal.
            if data is not None:
                deserialize_container(data)  # whatever exists must parse
            return
        if data is None:
            raise DurabilityError(
                "acknowledged container missing after crash"
            )
        versions = {v: self._serialized(v) for v in range(2)}
        matching = [v for v, raw in versions.items() if raw == data]
        if not matching:
            raise DurabilityError(
                "container on disk is not any complete version "
                "(torn or hybrid write became visible)"
            )
        if matching[0] < acks[-1]:
            raise DurabilityError(
                f"container rolled back past acknowledgment: found "
                f"version {matching[0]}, acknowledged {acks[-1]}"
            )
        restored = deserialize_container(data)
        baseline = deserialize_container(versions[matching[0]])
        for name in baseline.names():
            expected = [
                t.element.payload for t in baseline.materialize(name)
            ]
            actual = [
                t.element.payload for t in restored.materialize(name)
            ]
            if expected != actual:
                raise DurabilityError(
                    f"recovered replay of {name!r} is not byte-identical"
                )


class CheckpointCrashScenario:
    """VodServer killed mid-serve, restored from its checkpoint.

    The server checkpoints after every session; a crash at any point
    must leave a state from which restore + resume accounts for every
    admitted request exactly once — finished sessions arrive as
    ``recovered``, the rest are re-served as ``resumed`` (and a session
    that finished after its last durable checkpoint legitimately
    replays). Nothing is ever silently dropped."""

    name = "vod-checkpoint"

    def __init__(self, clients: int = 3, frame_count: int = 6):
        self.clients = clients
        self.frame_count = frame_count

    def _title(self):
        video = video_object(
            frames.scene(16, 12, self.frame_count, "orbit"), "feature",
        )
        return Recorder(MemoryBlob()).record(
            [video],
            encoders={"feature": JpegLikeCodec(quality=40).encode},
            interpretation_name="feature-capture",
        )

    def _requests(self) -> list:
        return [
            SessionRequest(client=f"client-{i}", title="feature")
            for i in range(self.clients)
        ]

    def run(self, fs, crash, acks: list) -> None:
        fs.makedirs("/srv")
        server = VodServer(bandwidth=50_000_000, crash=crash)
        server.publish("feature", self._title())
        report = server.serve(self._requests(), ServeOptions(
            checkpoint_to="/srv/vod.ckpt", checkpoint_fs=fs,
        ))
        acks.append(report.admitted_count)

    def recover(self, fs, crash):
        remove_stale_temp("/srv/vod.ckpt", fs=fs)
        if not fs.exists("/srv/vod.ckpt"):
            return None
        server = VodServer.restore("/srv/vod.ckpt", fs=fs, crash=crash)
        report = server.resume()
        return server, report

    def verify(self, state, acks: list) -> None:
        if state is None:
            # Crashed before the first checkpoint became durable: the
            # whole batch restarts, which loses nothing acknowledged.
            return
        server, report = state
        expected = self.clients
        accounted = (report.recovered + len(report.admitted)
                     + len(report.failed))
        if accounted != expected:
            raise DurabilityError(
                f"sessions lost across failover: {accounted} accounted "
                f"of {expected} admitted"
            )
        for session in report.admitted:
            if not session.resumed:
                raise DurabilityError(
                    f"session {session.client} served after restore "
                    f"is not marked resumed"
                )
        health = server.health()
        if report.admitted and health.degraded < len(report.admitted):
            raise DurabilityError(
                "resumed sessions are not accounted as degraded service"
            )


def default_scenarios(small: bool = False) -> list:
    """The built-in crash scenarios, smallest-first.

    ``small`` shrinks the workloads for the quick run,
    ``TestHarness.test_smoke_scenarios_pass``."""
    if small:
        return [
            ContainerCrashScenario(elements=2),
            PageStoreCrashScenario(txns=2, pages_per_txn=1, page_size=128),
        ]
    return [
        ContainerCrashScenario(),
        PageStoreCrashScenario(),
        CheckpointCrashScenario(),
    ]
