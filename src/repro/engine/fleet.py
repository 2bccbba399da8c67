"""A sharded VOD fleet: N servers behind a deterministic router.

ROADMAP's scale goal (~10⁵–10⁶ concurrent sessions) does not fit one
``VodServer``'s admission budget. The fleet composes N shards — each a
full :class:`~repro.engine.vod.VodServer` on the event kernel — behind
a rendezvous-hashed router:

* **Placement** — :func:`place` maps every title to exactly one *live*
  shard by highest-random-weight (rendezvous) hashing over a keyed
  BLAKE2 digest. Deterministic across processes (no Python hash
  randomization), total (every title maps somewhere while any shard
  lives), and minimal: killing a shard only moves the titles it owned.
* **Catalog** — replicated: :meth:`Fleet.publish` installs a title on
  every shard, so any survivor can adopt a displaced batch. Sessions,
  not titles, are what sharding spreads.
* **Admission** — fleet-wide: requests route first, then run the
  per-shard greedy admission against the owning shard's budget, so one
  hot shard rejects without starving the others.
* **Failover** — a shard that dies mid-serve (an injected
  :class:`~repro.errors.SimulatedCrash`) is marked dead; its last
  durable checkpoint batch is adopted by a rendezvous-chosen survivor
  and finished with :meth:`~repro.engine.vod.VodServer.resume`, so
  every displaced session is accounted exactly once — recovered,
  resumed, or failed.
* **Health** — :meth:`Fleet.health` rolls per-shard
  :class:`~repro.engine.vod.ServerHealth` and the identity-normalized
  session outcomes (:meth:`~repro.engine.vod.ServerReport.outcomes`)
  into one :class:`FleetHealth`, with worst-per-objective SLO verdicts
  across every session the fleet ever served.

The fleet exposes the same ``publish`` / ``prefetch`` / ``serve`` /
``health`` verbs as a single server, so callers can swap one for the
other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from hashlib import blake2b
from typing import TYPE_CHECKING, Iterable

from repro.engine.vod import (
    ServeOptions,
    ServerHealth,
    ServerReport,
    Session,
    SessionRequest,
    VodServer,
    admit_greedily,
    normalize_requests,
)
from repro.errors import CheckpointError, EngineError, SimulatedCrash
from repro.faults.crash import CrashInjector
from repro.obs.events import Severity
from repro.obs.instrument import NULL_OBS, Observability
from repro.obs.slo import SloVerdict, worst_verdicts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import Telemetry

__all__ = ["Fleet", "FleetHealth", "place"]


def place(title: str, shards: Iterable[str]) -> str:
    """Rendezvous placement: the live shard with the highest weight.

    Weight is an 8-byte keyed BLAKE2 digest of ``shard\\x00title`` — a
    pure function of the names, so placement is identical across
    processes and runs. Every title maps to exactly one shard while at
    least one lives; removing a shard reassigns only the titles that
    shard owned (the minimal-movement property the property suite
    checks). Digest ties break toward the lexically smallest shard
    name, so the choice is total even then.
    """
    best: str | None = None
    best_weight: int | None = None
    for shard in shards:
        digest = blake2b(
            f"{shard}\x00{title}".encode("utf-8"), digest_size=8,
        ).digest()
        weight = int.from_bytes(digest, "big")
        if (best_weight is None or weight > best_weight
                or (weight == best_weight and shard < best)):
            best, best_weight = shard, weight
    if best is None:
        raise EngineError("placement needs at least one live shard")
    return best


@dataclass(frozen=True)
class FleetHealth:
    """Fleet-wide health: per-shard rollup + normalized session census.

    The session counters are *identity-normalized*: every
    ``(client, title)`` identity the fleet ever admitted or failed
    contributes exactly one outcome, the worst observed across every
    report — so a session resumed on a survivor after a shard death
    (and therefore present in two shards' accounting) is counted once.
    """

    status: str
    shards: dict[str, ServerHealth]
    live: tuple[str, ...]
    dead: tuple[str, ...]
    sessions: int
    clean: int
    underrun: int
    degraded: int
    failed: int
    rejected: int
    recovered: int
    slo: tuple[SloVerdict, ...]
    #: Fleet-wide burn-rate alert exports (every shard's, in shard
    #: order) from the shared telemetry pipeline; empty without one.
    alerts: tuple[dict, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def firing_alerts(self) -> tuple[dict, ...]:
        return tuple(a for a in self.alerts if a["state"] == "firing")

    def export(self) -> dict:
        return {
            "status": self.status,
            "shards": {
                name: self.shards[name].export()
                for name in sorted(self.shards)
            },
            "live": list(self.live),
            "dead": list(self.dead),
            "sessions": self.sessions,
            "clean": self.clean,
            "underrun": self.underrun,
            "degraded": self.degraded,
            "failed": self.failed,
            "rejected": self.rejected,
            "recovered": self.recovered,
            "slo": [v.export() for v in self.slo],
            "alerts": list(self.alerts),
        }

    def summary(self) -> str:
        lines = [
            f"fleet: {self.status} "
            f"({len(self.live)} live, {len(self.dead)} dead)",
            f"sessions: {self.sessions} ({self.clean} clean, "
            f"{self.underrun} underrun, {self.degraded} degraded, "
            f"{self.failed} failed, {self.rejected} rejected, "
            f"{self.recovered} recovered)",
        ]
        for verdict in self.slo:
            lines.append(f"slo {verdict.summary()}")
        for alert in self.alerts:
            lines.append(
                f"alert {alert['name']} [{alert['state']}] "
                f"source={alert['source']}"
            )
        for name in sorted(self.shards):
            marker = "live" if name in self.live else "DEAD"
            lines.append(
                f"shard {name} [{marker}]: {self.shards[name].status}"
            )
        return "\n".join(lines)


#: Where each shard's checkpoint lives on the fleet's ``checkpoint_fs``.
_CHECKPOINT_DIR = "/fleet"


class Fleet:
    """N ``VodServer`` shards behind a consistent router.

    ``bandwidth`` is *per shard* (each shard owns its own outbound
    link). ``obs`` is split into per-shard namespaces via
    :meth:`Observability.scoped` — shard ``shard0``'s page reads land
    under ``shard0.blob.page.reads`` in the one shared registry — while
    fleet-level counters stay at ``fleet.*``.

    ``checkpoint_fs`` (a :class:`~repro.faults.disk.SimulatedMedium`)
    arms failover: every shard batch checkpoints after each session to
    ``/fleet/<shard>.ckpt``, and a shard crash mid-serve is
    absorbed — the batch resumes on a survivor instead of propagating.
    Without it, a :class:`~repro.errors.SimulatedCrash` propagates
    exactly as it does for a single server.

    ``crash`` optionally maps shard names to
    :class:`~repro.faults.crash.CrashInjector` instances, the handle
    the fault harness uses to kill a specific shard at a specific
    session boundary.
    """

    def __init__(self, bandwidth: int, shards: int = 3, *,
                 prefetch_depth: int = 8,
                 admission_margin: float = 1.0,
                 obs: Observability | None = None,
                 plan_check: str = "check",
                 crash: dict[str, CrashInjector] | None = None,
                 checkpoint_fs=None,
                 telemetry: "Telemetry | None" = None):
        if shards < 1:
            raise EngineError("a fleet needs at least one shard")
        self.obs = NULL_OBS if obs is None else obs
        self.checkpoint_fs = checkpoint_fs
        # One pipeline for the whole fleet: every shard scrapes into
        # the same store under its own source name, so cross-shard
        # rollups and the dashboard's heat row come from one place.
        self._telemetry = telemetry
        crash = crash or {}
        unknown = sorted(set(crash) - {f"shard{i}" for i in range(shards)})
        if unknown:
            raise EngineError(f"crash injectors for unknown shards: {unknown}")
        self._shards: dict[str, VodServer] = {}
        for index in range(shards):
            name = f"shard{index}"
            self._shards[name] = VodServer(
                bandwidth=bandwidth,
                prefetch_depth=prefetch_depth,
                admission_margin=admission_margin,
                obs=(None if obs is None else self.obs.scoped(name)),
                plan_check=plan_check,
                crash=crash.get(name),
                telemetry=telemetry,
            )
        self._live: list[str] = list(self._shards)
        # Each routed title's owner under the current live set; a shard
        # death (the only change to that set) clears it.
        self._owners: dict[str, str] = {}
        self._reports: list[ServerReport] = []
        if self.checkpoint_fs is not None:
            if not self.checkpoint_fs.exists(_CHECKPOINT_DIR):
                self.checkpoint_fs.makedirs(_CHECKPOINT_DIR)

    # -- topology ------------------------------------------------------------------

    @property
    def shard_names(self) -> list[str]:
        return list(self._shards)

    @property
    def live_shards(self) -> list[str]:
        return list(self._live)

    @property
    def dead_shards(self) -> list[str]:
        return [name for name in self._shards if name not in self._live]

    def shard(self, name: str) -> VodServer:
        try:
            return self._shards[name]
        except KeyError:
            raise EngineError(f"unknown shard {name!r}") from None

    def route(self, title: str) -> str:
        """The live shard that owns ``title`` right now."""
        owner = self._owners.get(title)
        if owner is None:
            if not self._live:
                raise EngineError("no live shards: the whole fleet is dead")
            owner = self._owners[title] = place(title, self._live)
        return owner

    def kill_shard(self, name: str) -> None:
        """Administratively take a shard out of the routing set.

        Placement immediately remaps the dead shard's titles onto the
        survivors (and only those titles). A shard that dies *mid-serve*
        doesn't need this — the failover path marks it dead itself.
        """
        self.shard(name)
        if name not in self._live:
            raise EngineError(f"shard {name!r} is already dead")
        self._mark_dead(name)

    def _mark_dead(self, name: str) -> None:
        self._live.remove(name)
        self._owners.clear()
        self.obs.metrics.counter("fleet.shard_deaths").inc()
        self.obs.events.record(
            Severity.ERROR, "fleet", "shard.died",
            shard=name, live=len(self._live),
        )

    # -- catalog -------------------------------------------------------------------

    def publish(self, title: str, interpretation) -> None:
        """Install a title on every shard (replicated catalog).

        Placement spreads *sessions*; the catalog itself is metadata
        and is replicated so any survivor can adopt a displaced batch
        after a shard death. Static verification runs per shard, same
        as a single server's publish.
        """
        for server in self._shards.values():
            server.publish(title, interpretation)

    def titles(self) -> list[str]:
        if not self._shards:
            return []
        return next(iter(self._shards.values())).titles()

    def prefetch(self, title: str) -> int:
        """Warm the storage path beneath ``title`` on the shard that
        owns it; returns bytes pulled (:meth:`VodServer.prefetch`)."""
        warmed = self.shard(self.route(title)).prefetch(title)
        self.obs.metrics.counter("fleet.prefetch_bytes").inc(warmed)
        return warmed

    def capacity(self, title: str) -> int:
        """Nominal fleet capacity for ``title``: the sum over live
        shards of each shard's single-title capacity."""
        return sum(
            self._shards[name].capacity(title) for name in self._live
        )

    # -- admission + serving -------------------------------------------------------

    def admit(self, requests) -> tuple[list[SessionRequest],
                                       list[SessionRequest]]:
        """Fleet-wide greedy admission: each request routes to its
        owning shard and must fit that shard's admission limit beside
        the load already admitted there — the one loop
        (:func:`~repro.engine.vod.admit_greedily`) of
        :meth:`VodServer.admit`. Returns (admitted, rejected)."""
        shards = self._shards
        return admit_greedily(normalize_requests(requests),
                              lambda title: shards[self.route(title)])

    def _checkpoint_path(self, name: str) -> str:
        return f"{_CHECKPOINT_DIR}/{name}.ckpt"

    def _drop_checkpoint(self, name: str) -> None:
        """Durably delete the checkpoint an earlier batch left for ``name``.

        A checkpoint describes the batch in flight. Left in place, a
        crash before the next batch's first durable checkpoint would
        resume the finished batch — its sessions counted as recovered
        again, the new batch's never served.
        """
        path = self._checkpoint_path(name)
        if self.checkpoint_fs.exists(path):
            self.checkpoint_fs.remove(path)
            self.checkpoint_fs.fsync_dir(_CHECKPOINT_DIR)

    def serve(self, requests,
              options: ServeOptions | None = None) -> ServerReport:
        """Serve a batch across the fleet; returns one merged report.

        Requests route to their owning shards and each shard's batch
        runs on its own event kernel (shards are independent machines).
        Admission is fleet-wide (:meth:`admit`) — shard serves run with
        admission off, since the router already enforced each shard's
        budget. With ``checkpoint_fs`` armed at construction, a shard
        that crashes mid-batch is failed over: survivors adopt its last
        durable checkpoint batch, and the merged report accounts every
        displaced session exactly once (recovered, resumed, or failed).
        """
        reqs = normalize_requests(requests)
        opts = ServeOptions() if options is None else options
        if opts.checkpoint_to is not None:
            raise EngineError(
                "the fleet manages shard checkpoints itself; construct "
                "Fleet(checkpoint_fs=...) instead of passing checkpoint_to"
            )
        if not reqs:
            raise EngineError("serve needs at least one request")
        if not self._live:
            raise EngineError("no live shards: the whole fleet is dead")
        if opts.enforce_admission:
            admitted, rejected = self.admit(reqs)
        else:
            admitted, rejected = reqs, []
        metrics = self.obs.metrics
        metrics.counter("fleet.requests").inc(len(reqs))
        metrics.counter("fleet.admitted").inc(len(admitted))
        metrics.counter("fleet.rejected").inc(len(rejected))
        groups: dict[str, list[SessionRequest]] = {}
        for request in admitted:
            groups.setdefault(self.route(request.title), []).append(request)
        serving_bandwidth = sum(
            self._shards[name].bandwidth for name in self._live
        )
        shard_reports: list[ServerReport] = []
        for name in list(self._shards):
            group = groups.get(name)
            if not group:
                continue
            shard = self._shards[name]
            shard_opts = opts.replace(enforce_admission=False)
            if self.checkpoint_fs is not None:
                self._drop_checkpoint(name)
                shard_opts = shard_opts.replace(
                    checkpoint_to=self._checkpoint_path(name),
                    checkpoint_fs=self.checkpoint_fs,
                )
            try:
                shard_reports.append(shard.serve(group, shard_opts))
            # repro: suppress DF008 — checkpoint-backed failover is the
            except SimulatedCrash:  # deliberate absorption point: the dead
                # shard's sessions resume from its checkpoint; without a
                # checkpoint medium the crash still propagates (raise above)
                if self.checkpoint_fs is None:
                    raise
                shard_reports.append(self._failover(name, group, opts))
        merged = self._merge(shard_reports, rejected, serving_bandwidth)
        self._reports.append(merged)
        return merged

    def _failover(self, dead: str, group: list[SessionRequest],
                  opts: ServeOptions) -> ServerReport:
        """Absorb a shard death: resume its batch on a survivor.

        The dead shard's last *durable* checkpoint carries the batch —
        completed-session summaries become ``recovered``, the rest
        re-serve as ``resumed``. A crash before the first durable
        checkpoint means nothing was acknowledged: the whole group
        re-serves. The survivor is rendezvous-chosen, so failover
        placement is as deterministic as routing. The dead shard's
        batch never reached its telemetry drain, so its alerts are
        cooled here (:meth:`VodServer.cool_alerts`).
        """
        self._mark_dead(dead)
        self._shards[dead].cool_alerts()
        if not self._live:
            raise EngineError(
                f"shard {dead!r} died and no live shards remain"
            )
        self.obs.metrics.counter("fleet.failovers").inc()
        fs = self.checkpoint_fs
        if hasattr(fs, "crash"):
            fs.crash()  # drop the dead shard's volatile writes
        batch = self._displaced_batch(dead, group)
        survivor_name = place(f"failover:{dead}", self._live)
        survivor = self._shards[survivor_name]
        self.obs.events.record(
            Severity.WARNING, "fleet", "shard.failover",
            shard=dead, survivor=survivor_name,
            remaining=len(batch["remaining"]),
            recovered=len(batch["completed"]),
        )
        survivor.adopt_batch(batch)
        return survivor.resume(ServeOptions(
            fault_plan=opts.fault_plan,
            retry_policy=opts.retry_policy,
            adaptation=opts.adaptation,
            granularity=opts.granularity,
        ))

    def _displaced_batch(self, dead: str,
                         group: list[SessionRequest]) -> dict:
        """The dead shard's mid-serve batch from its durable checkpoint,
        or a synthetic whole-group batch when none survived."""
        from repro.durability.atomic import read_bytes, remove_stale_temp

        path = self._checkpoint_path(dead)
        remove_stale_temp(path, fs=self.checkpoint_fs)
        if self.checkpoint_fs.exists(path):
            try:
                payload = json.loads(
                    read_bytes(path, fs=self.checkpoint_fs).decode("utf-8")
                )
            except (OSError, ValueError) as exc:
                raise CheckpointError(
                    f"unreadable checkpoint for dead shard {dead!r}: {exc}"
                ) from exc
            batch = payload.get("batch")
            if batch is not None:
                return batch
        # Nothing durable: the whole group restarts on the survivor.
        return {
            "requests": [list(r.key) for r in group],
            "rejected": [],
            "completed": [],
            "failed": [],
            "remaining": [r.to_payload() for r in group],
            "share": max(1, self._shards[dead].bandwidth // len(group)),
            "at": "0",
        }

    def _merge(self, shard_reports: list[ServerReport],
               rejected: list[SessionRequest],
               bandwidth: int) -> ServerReport:
        sessions: list[Session] = []
        failed: list[tuple[str, str, str]] = []
        recovered = 0
        shares = []
        for report in shard_reports:
            sessions.extend(report.admitted)
            failed.extend(report.failed)
            rejected = rejected + list(report.rejected)
            recovered += report.recovered
            if report.admitted_count:
                shares.append(report.per_client_bandwidth)
        return ServerReport(
            admitted=sessions,
            rejected=rejected,
            bandwidth=bandwidth,
            per_client_bandwidth=min(shares) if shares else 0,
            failed=failed,
            recovered=recovered,
        )

    # -- health --------------------------------------------------------------------

    def reports(self) -> list[ServerReport]:
        """Merged fleet reports, one per :meth:`serve`, oldest first."""
        return list(self._reports)

    def health(self) -> FleetHealth:
        """Fleet-wide health: per-shard rollup + normalized census.

        Session counters fold :meth:`ServerReport.outcomes` across
        every merged fleet report, worst outcome per identity — the
        exactly-once accounting the per-shard tier counters cannot
        give once failover duplicates a session across shards.
        """
        shard_health = {
            name: server.health() for name, server in self._shards.items()
        }
        outcomes: dict[tuple[str, str], str] = {}
        rank = ServerReport._OUTCOME_RANK
        for report in self._reports:
            for key, outcome in report.outcomes().items():
                held = outcomes.get(key)
                if held is None or rank[outcome] > rank[held]:
                    outcomes[key] = outcome
        counts = {"clean": 0, "underrun": 0, "degraded": 0, "failed": 0}
        for outcome in outcomes.values():
            counts[outcome] += 1
        rejected = len({
            r.key for report in self._reports for r in report.rejected
        })
        recovered = sum(report.recovered for report in self._reports)
        slo = tuple(worst_verdicts(
            s.report.slo for report in self._reports for s in report.admitted
        ))
        alerts: tuple[dict, ...] = ()
        if self._telemetry is not None:
            alerts = tuple(
                alert.export() for alert in self._telemetry.alerts.all()
            )
        dead = tuple(self.dead_shards)
        if (counts["failed"]
                or any(h.status == "critical" for h in shard_health.values())
                or any(v.severity >= Severity.CRITICAL for v in slo)):
            status = "critical"
        elif (dead or counts["degraded"] or counts["underrun"] or rejected
                or any(not v.ok for v in slo)
                or any(h.status == "degraded"
                       for h in shard_health.values())):
            status = "degraded"
        else:
            status = "ok"
        return FleetHealth(
            status=status,
            shards=shard_health,
            live=tuple(self._live),
            dead=dead,
            sessions=len(outcomes),
            clean=counts["clean"],
            underrun=counts["underrun"],
            degraded=counts["degraded"],
            failed=counts["failed"],
            rejected=rejected,
            recovered=recovered,
            slo=slo,
            alerts=alerts,
        )

    @property
    def telemetry(self) -> "Telemetry | None":
        """The shared telemetry pipeline, when one was attached."""
        return self._telemetry

    def __repr__(self) -> str:
        return (
            f"Fleet({len(self._shards)} shards, "
            f"{len(self._live)} live, {len(self.titles())} titles)"
        )
