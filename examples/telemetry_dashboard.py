"""Telemetry tour: clock-driven scrapes, burn-rate alerts, the dashboard.

An overloaded VOD serve — six staggered sessions against bandwidth
sized for two — watched live by the telemetry pipeline:

1. A ``Telemetry`` scraper rides the serve's own event loop, sampling
   every metric into a ``TelemetryStore`` at an exact rational cadence
   (quarter-second simulated time).
2. Multi-window burn-rate rules evaluate at each scrape and drive a
   deterministic alert lifecycle — pending while the short window runs
   hot, firing once the long window agrees, resolved when the burn
   cools — visible in ``health()`` *while the serve runs*.
3. Windowed rollups (``rate``/``delta``/``quantile``) answer "what was
   the underrun rate in the last simulated second?" after the fact.
4. ``render_dashboard`` draws the whole store — sparklines, the alert
   timeline, the shard heat row — as deterministic text.

Run:  python examples/telemetry_dashboard.py
"""

from repro.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.obs.telemetry import Telemetry
from repro.tools.dashboard import render_dashboard


def main() -> None:
    # -- 1. An overloaded serve with the scraper attached -----------------
    movie = Recorder(MemoryBlob()).record(
        [video_object(frames.scene(48, 36, 20, "orbit"), "feature")],
        encoders={"feature": JpegLikeCodec(quality=40).encode},
    )
    telemetry = Telemetry()          # 1/4 s scrapes, default burn rules
    server = VodServer(bandwidth=21_000, obs=Observability(),
                       telemetry=telemetry)
    server.publish("feature", movie)

    transitions = []

    def watch(alert, at):
        health = server.health()
        transitions.append((at, alert.name, alert.state, health.status))

    telemetry.alerts.on_transition = watch
    server.serve(
        [SessionRequest(client=f"client-{i}", title="feature",
                        arrival_time=Rational(i, 8))
         for i in range(6)],
        ServeOptions(enforce_admission=False),
    )

    # -- 2. The alert lifecycle, as health() saw it mid-serve -------------
    print("alert transitions observed mid-serve:")
    for at, name, state, status in transitions:
        print(f"  t={str(at):>4}  {name:<20} -> {state:<9} "
              f"(health: {status})")

    # -- 3. Windowed rollups over the scraped series ----------------------
    store = telemetry.store
    print(f"\n{store.scrape_count} scrapes, latest t={store.latest_time()}")
    print(f"underruns in the last simulated second: "
          f"{store.delta('engine.play.underruns', window=1):g}")
    print(f"underrun rate over the whole run:       "
          f"{store.rate('engine.play.underruns', window=4):g}/s")
    print(f"p95 lateness, trailing second:          "
          f"{store.quantile('engine.play.lateness_seconds', 0.95, window=1):.3f}s")

    # -- 4. The dashboard -------------------------------------------------
    print()
    print(render_dashboard(store, alerts=telemetry.alerts))

    # -- 5. Determinism: the store replays byte-identically ---------------
    telemetry2 = Telemetry()
    server2 = VodServer(bandwidth=21_000, obs=Observability(),
                        telemetry=telemetry2)
    server2.publish("feature", movie)
    server2.serve(
        [SessionRequest(client=f"client-{i}", title="feature",
                        arrival_time=Rational(i, 8))
         for i in range(6)],
        ServeOptions(enforce_admission=False),
    )
    identical = (telemetry2.store.dump() == store.dump()
                 and telemetry2.store.alert_rows() == store.alert_rows())
    print(f"\nsame-seed rerun reproduces store and alert log: {identical}")


if __name__ == "__main__":
    main()
