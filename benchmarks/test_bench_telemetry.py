"""TELEMETRY — scrape overhead and dump determinism.

Serves the overloaded six-session workload twice per measurement —
once bare, once with the clock-driven telemetry pipeline attached
(quarter-second scrape cadence, default burn-rate rules) — and asserts
the scrape-on serve stays under 2x the bare serve's wall time. Also
checks the byte-identity contract: two same-seed scrape-on runs must
produce identical telemetry-store dumps and alert timelines.

Wall-clock reads are confined to this benchmark (the lint gate covers
``src/repro`` only); everything inside the serve runs on simulated
time.
"""

import time

from repro.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.obs.telemetry import Telemetry

#: Bandwidth sized for roughly two of the six sessions, so the serve
#: overloads, underruns accrue and the burn-rate alerts exercise their
#: full lifecycle while the scraper is attached.
BANDWIDTH = 21_000
CLIENTS = 6
ROUNDS = 5


def build_movie():
    video = video_object(frames.scene(48, 36, 20, "orbit"), "feature")
    return Recorder(MemoryBlob()).record(
        [video], encoders={"feature": JpegLikeCodec(quality=40).encode},
    )


def serve_once(movie, with_telemetry: bool):
    telemetry = Telemetry() if with_telemetry else None
    server = VodServer(BANDWIDTH, obs=Observability(),
                       telemetry=telemetry)
    server.publish("feature", movie)
    requests = [
        SessionRequest(client=f"client-{i}", title="feature",
                       arrival_time=Rational(i, 8))
        for i in range(CLIENTS)
    ]
    start = time.perf_counter()
    server.serve(requests, ServeOptions(enforce_admission=False))
    return time.perf_counter() - start, telemetry


def test_telemetry_scrape_overhead(report):
    movie = build_movie()
    # one unmeasured warm-up of each shape, then alternate rounds so
    # machine drift hits both sides equally; best-of wins
    serve_once(movie, False)
    _, telemetry = serve_once(movie, True)
    bare = scraped = float("inf")
    for _ in range(ROUNDS):
        bare = min(bare, serve_once(movie, False)[0])
        elapsed, telemetry = serve_once(movie, True)
        scraped = min(scraped, elapsed)
    overhead = scraped / bare
    states = {row["state"] for row in telemetry.store.alert_rows()}

    report.kv(
        "telemetry",
        [
            ("bare serve (best of 5)", f"{bare * 1000:.2f} ms"),
            ("scrape-on serve (best of 5)", f"{scraped * 1000:.2f} ms"),
            ("overhead ratio", f"{overhead:.2f}x"),
            ("scrapes taken", telemetry.store.scrape_count),
            ("alert transitions", len(telemetry.store.alert_rows())),
            ("serves/s bare", f"{1.0 / bare:.2f}"),
            ("serves/s scraped", f"{1.0 / scraped:.2f}"),
        ],
        title="TELEMETRY — scrape overhead, overloaded 6-session serve",
    )
    report.metric("telemetry", "serves_per_second_bare", 1.0 / bare)
    report.metric("telemetry", "serves_per_second_scraped", 1.0 / scraped)
    report.metric("telemetry", "overhead_ratio", overhead)
    report.metric("telemetry", "scrapes", telemetry.store.scrape_count)
    report.metric("telemetry", "alert_transitions",
                  len(telemetry.store.alert_rows()))

    assert overhead < 2.0, (
        f"scrape-on serve took {overhead:.2f}x the bare serve"
    )
    # the workload must actually exercise the pipeline being measured
    assert telemetry.store.scrape_count > 5
    assert "firing" in states and "resolved" in states


def test_telemetry_dump_is_deterministic():
    movie = build_movie()
    _, first = serve_once(movie, with_telemetry=True)
    _, second = serve_once(movie, with_telemetry=True)
    assert first.store.dump() == second.store.dump()
    assert first.store.alert_rows() == second.store.alert_rows()
