"""Golden serve exports: byte-for-byte oracles for the serving path.

These serves are frozen under ``golden/``:

* ``fleet_read.txt`` — a 40-session staggered :meth:`Fleet.serve` at
  ``granularity="read"`` with observability on;
* ``fleet_read_faulted.txt`` — a 12-session staggered faulted
  :meth:`Fleet.serve` at ``granularity="read"``: transient errors, bad
  pages, degraded bandwidth and latency windows, retries with backoff,
  adaptation, sessions that fall back, and telemetry scraping every
  third of a second (its store dump follows the obs export);
* ``vod_faulted.txt`` — a same-seed faulted :meth:`VodServer.serve`
  with an :class:`AdaptationPolicy`;
* ``vod_*`` — uniform-arrival :meth:`VodServer.serve` batches over a
  two-title catalog: a clean mixed batch, a single session, an
  overloaded batch, a same-seed faulted run, a faulted run whose
  sessions fall back, an adaptation run, and the bytes of the
  checkpoint file a checkpointed serve leaves behind. They were frozen
  while the pre-kernel serving loop was still in the code and agreed
  with the kernel on every byte, so they pin the seed semantics.

Each ``.txt`` file holds every admitted session's
:class:`PlaybackReport` fields as exact ``repr`` — a rational that comes
back as a plain ``Fraction``, or moves by one part in a billion, changes
the bytes — followed by the ``to_json_lines`` export of the run's
observability sink.

Regenerate with ``PYTHONPATH=src python tests/engine/test_serve_golden.py``
only when a change is meant to alter what the server computes, and say
so in that change.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.fleet import Fleet
from repro.engine.player import AdaptationPolicy, RetryPolicy
from repro.engine.recorder import Recorder
from repro.durability.atomic import read_bytes
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.faults.disk import SimulatedMedium
from repro.faults.plan import FaultPlan
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability, to_json_lines
from repro.obs.telemetry import Telemetry

GOLDEN = Path(__file__).parent / "golden"


def make_titles() -> dict:
    """Three short textured titles of different lengths."""
    codec = JpegLikeCodec(quality=40)
    titles = {}
    for index, frame_count in enumerate((24, 18, 12)):
        name = f"title{index}"
        footage = frames.scene(48, 36, frame_count, "texture", seed=index)
        titles[name] = Recorder(MemoryBlob()).record(
            [video_object(footage, name)], encoders={name: codec.encode},
        )
    return titles


def render(report, obs: Observability) -> str:
    """Every admitted session's report fields, then the obs export."""
    lines = []
    for session in report.admitted:
        lines.append(f"# session {session.client} {session.title} "
                     f"degraded={session.degraded} resumed={session.resumed}")
        for field in dataclasses.fields(session.report):
            value = getattr(session.report, field.name)
            lines.append(f"{field.name}={value!r}")
    lines.append(f"# rejected {[r.key for r in report.rejected]!r}")
    lines.append(f"# failed {report.failed!r} recovered={report.recovered}")
    lines.append("# obs")
    return "\n".join(lines) + "\n" + to_json_lines(obs)


def fleet_read_serve() -> str:
    """40 sessions with seeded staggered arrivals on a 3-shard fleet,
    stepped one read per event so sessions share bandwidth."""
    titles = make_titles()
    obs = Observability()
    fleet = Fleet(bandwidth=120_000, shards=3, obs=obs)
    for name, interpretation in titles.items():
        fleet.publish(name, interpretation)
    rng = random.Random(40)
    names = list(titles)
    arrival_ms = 0
    requests = []
    for n in range(40):
        arrival_ms += rng.randrange(0, 90)
        requests.append(SessionRequest(
            client=f"c{n}", title=rng.choice(names),
            arrival_time=Rational(arrival_ms, 1000),
        ))
    report = fleet.serve(requests, ServeOptions(enforce_admission=False,
                                                granularity="read"))
    return render(report, obs)


def fleet_read_faulted_run():
    """12 staggered sessions on a 3-shard fleet at read granularity,
    under faults that make sessions retry, glitch, adapt and fall back,
    with scrapes on a 1/3 s interval. Returns the merged report, the
    sink and the telemetry pipeline."""
    titles = make_titles()
    obs = Observability()
    telemetry = Telemetry(interval=Rational(1, 3))
    fleet = Fleet(bandwidth=120_000, shards=3, obs=obs, telemetry=telemetry)
    for name, interpretation in titles.items():
        fleet.publish(name, interpretation)
    rng = random.Random(41)
    names = list(titles)
    arrival_ms = 0
    requests = []
    for n in range(12):
        arrival_ms += rng.randrange(0, 120)
        requests.append(SessionRequest(
            client=f"c{n}", title=rng.choice(names),
            arrival_time=Rational(arrival_ms, 1000),
        ))
    plan = FaultPlan(seed=15, page_size=512, transient_rate=0.15,
                     bad_page_rate=0.05, degraded_fraction=0.5,
                     degradation_span=6,
                     degraded_bandwidth_factor=Rational(1, 4),
                     degraded_latency=Rational(3, 1000))
    report = fleet.serve(requests, ServeOptions(
        enforce_admission=False, granularity="read", fault_plan=plan,
        adaptation=AdaptationPolicy(levels=3),
        retry_policy=RetryPolicy(max_retries=2, backoff=Rational(1, 250),
                                 backoff_factor=Rational(3, 2),
                                 abort_skip_fraction=0.1),
    ))
    return report, obs, telemetry


def fleet_read_faulted_serve() -> str:
    report, obs, telemetry = fleet_read_faulted_run()
    return (render(report, obs) + "# telemetry\n"
            + telemetry.store.dump())


def vod_faulted_serve() -> str:
    """A seeded faulted serve that adapts quality under degraded
    bandwidth and falls back on aborted sessions."""
    titles = make_titles()
    obs = Observability()
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8, obs=obs)
    for name, interpretation in titles.items():
        server.publish(name, interpretation)
    plan = FaultPlan(seed=9, page_size=512, transient_rate=0.1,
                     bad_page_rate=0.03, degraded_fraction=0.5,
                     degradation_span=8,
                     degraded_bandwidth_factor=Rational(1, 4))
    requests = [SessionRequest(client=f"c{n}", title=f"title{n % 3}")
                for n in range(6)]
    report = server.serve(requests, ServeOptions(
        fault_plan=plan, adaptation=AdaptationPolicy(levels=3),
        retry_policy=RetryPolicy(max_retries=1, abort_skip_fraction=0.1),
    ))
    return render(report, obs)


def catalog_server(obs=None) -> VodServer:
    """A server publishing a 25-frame ``feature`` and a 12-frame
    ``short``, both freshly recorded."""
    server = VodServer(bandwidth=2_000_000, prefetch_depth=8, obs=obs)
    for name, frame_count in (("feature", 25), ("short", 12)):
        footage = frames.scene(48, 36, frame_count, "orbit")
        server.publish(name, Recorder(MemoryBlob()).record(
            [video_object(footage, name)],
            encoders={name: JpegLikeCodec(quality=40).encode},
            interpretation_name=f"{name}-capture",
        ))
    return server


def catalog_requests(count: int, title: str = "feature") -> list:
    return [SessionRequest(client=f"client-{i}", title=title)
            for i in range(count)]


def catalog_serve(requests, options=None) -> str:
    obs = Observability()
    report = catalog_server(obs).serve(requests, options)
    return render(report, obs)


def vod_overloaded_serve() -> str:
    """Four requests past the feature's capacity; the surplus is
    rejected by admission."""
    obs = Observability()
    server = catalog_server(obs)
    report = server.serve(
        catalog_requests(server.capacity("feature") + 4))
    return render(report, obs)


def vod_checkpoint_bytes() -> str:
    """The checkpoint file a three-session checkpointed serve leaves."""
    fs = SimulatedMedium()
    catalog_server().serve(catalog_requests(3), ServeOptions(
        checkpoint_to="/ckpt/batch.json", checkpoint_fs=fs))
    return read_bytes("/ckpt/batch.json", fs=fs).decode("utf-8")


SERVES = {
    "fleet_read.txt": fleet_read_serve,
    "fleet_read_faulted.txt": fleet_read_faulted_serve,
    "vod_faulted.txt": vod_faulted_serve,
    "vod_clean_mixed.txt": lambda: catalog_serve(
        catalog_requests(3) + catalog_requests(2, "short")),
    "vod_single.txt": lambda: catalog_serve(catalog_requests(1)),
    "vod_overloaded.txt": vod_overloaded_serve,
    "vod_faulted_seed55.txt": lambda: catalog_serve(
        catalog_requests(3), ServeOptions(fault_plan=FaultPlan(
            seed=55, page_size=512, bad_page_rate=0.05))),
    # A strict retry policy sends every session through the degraded
    # fallback.
    "vod_fallbacks.txt": lambda: catalog_serve(
        catalog_requests(4), ServeOptions(
            fault_plan=FaultPlan(seed=55, page_size=512, bad_page_rate=0.2),
            retry_policy=RetryPolicy(max_retries=0,
                                     abort_skip_fraction=0.01))),
    "vod_adaptation.txt": lambda: catalog_serve(
        catalog_requests(3), ServeOptions(
            fault_plan=FaultPlan(seed=7, page_size=512, bad_page_rate=0.1),
            adaptation=AdaptationPolicy(levels=3))),
    "vod_checkpoint.json": vod_checkpoint_bytes,
}


@pytest.mark.parametrize("name", sorted(SERVES))
def test_serve_matches_golden(name):
    actual = SERVES[name]().encode("utf-8")
    expected = (GOLDEN / name).read_bytes()
    # Line lists first: on a mismatch pytest names the first line that
    # differs instead of diffing the whole file.
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


def test_faulted_read_serve_exercises_every_recovery_path():
    """The faulted read-granularity golden covers what the clean one
    cannot: retries, glitches, adaptation and a fallback, all stepped
    on the kernel."""
    report, obs, _telemetry = fleet_read_faulted_run()
    names = {event.name for event in obs.events.events()}
    assert {"read.retry", "element.skipped", "quality.adapted",
            "session.fallback"} <= names
    spans = {span.name for span in obs.tracer.spans}
    assert {"engine.retry", "engine.glitch", "engine.adaptation"} <= spans
    assert any(session.degraded for session in report.admitted)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, serve in SERVES.items():
        (GOLDEN / name).write_bytes(serve().encode("utf-8"))
        print(f"wrote {GOLDEN / name}")
