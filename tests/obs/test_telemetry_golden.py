"""Golden telemetry exports: byte-for-byte oracles for the store.

Three stores are frozen under ``golden/``:

* ``telemetry_serve_*`` — the :meth:`TelemetryStore.dump` and the
  :func:`render_dashboard` text of the overloaded six-session
  :meth:`VodServer.serve` (staggered arrivals, admission off), whose
  burn-rate alerts go pending, fire and resolve;
* ``telemetry_fleet_*`` — the same two outputs for a read-granularity
  three-shard :meth:`Fleet.serve` of three titles: two shards scrape
  into one store, histograms overflow, and alerts transition on both;
* ``telemetry_store_dump.jsonl`` — the dump of a hand-fed store holding
  the readings a time-series store can get wrong: an int counter,
  label sets whose tuple order and JSON order disagree
  (``{"sequence": "a"}`` and ``{"sequence": "a b"}``), NaN, bool,
  string and ``2**60 + 1`` gauge readings, an int histogram sum, a
  ``1/3`` scrape time and one alert.

Regenerate with ``PYTHONPATH=src python tests/obs/test_telemetry_golden.py``
only when a change is meant to alter what the store records, and say
so in that change.
"""

from pathlib import Path

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.core.rational import Rational
from repro.engine.fleet import Fleet
from repro.engine.recorder import Recorder
from repro.engine.vod import ServeOptions, SessionRequest, VodServer
from repro.media import frames
from repro.media.objects import video_object
from repro.obs import Observability
from repro.obs.telemetry import Telemetry, TelemetryStore
from repro.tools.dashboard import render_dashboard

GOLDEN = Path(__file__).parent / "golden"


def record_title(name: str, frame_count: int):
    footage = frames.scene(48, 36, frame_count, "orbit")
    return Recorder(MemoryBlob()).record(
        [video_object(footage, name)],
        encoders={name: JpegLikeCodec(quality=40).encode},
    )


def outputs(case: str, telemetry: Telemetry) -> dict[str, str]:
    return {
        f"{case}_dump.jsonl": telemetry.store.dump(),
        f"{case}_dashboard.txt": render_dashboard(
            telemetry.store, alerts=telemetry.alerts) + "\n",
    }


def serve_outputs() -> dict[str, str]:
    """Six sessions, 1/8 s apart, on bandwidth sized for about two."""
    telemetry = Telemetry()
    server = VodServer(21_000, obs=Observability(), telemetry=telemetry)
    server.publish("feature", record_title("feature", 20))
    server.serve(
        [SessionRequest(client=f"client-{i}", title="feature",
                        arrival_time=Rational(i, 8)) for i in range(6)],
        ServeOptions(enforce_admission=False),
    )
    return outputs("telemetry_serve", telemetry)


def fleet_outputs() -> dict[str, str]:
    """Six sessions, 1/4 s apart, over three titles on three shards."""
    telemetry = Telemetry()
    fleet = Fleet(bandwidth=6_000, shards=3, obs=Observability(),
                  telemetry=telemetry)
    for index, frame_count in enumerate((20, 16, 12)):
        fleet.publish(f"title{index}",
                      record_title(f"title{index}", frame_count))
    fleet.serve(
        [SessionRequest(client=f"client-{i}", title=f"title{i % 3}",
                        arrival_time=Rational(i, 4)) for i in range(6)],
        ServeOptions(enforce_admission=False, granularity="read"),
    )
    return outputs("telemetry_fleet", telemetry)


def hand_fed_snapshot(tick: int) -> dict:
    readings = {"big": 2**60 + 1, "bool": True, "nan": float("nan"),
                "text": "warm"}
    return {
        "hits": {"type": "counter", "series": [{"value": 10 * tick}]},
        "level": {"type": "gauge", "series": [
            {"labels": {"reading": name}, "value": value}
            for name, value in readings.items()
        ]},
        "plays": {"type": "counter", "series": [
            {"labels": {"sequence": "a"}, "value": 3 * tick},
            {"labels": {"sequence": "a b"}, "value": tick},
        ]},
        "wait": {"type": "histogram", "series": [{"value": {
            "buckets": [0.5, 2.0], "counts": [tick, 2 * tick, 1],
            "count": 3 * tick + 1, "sum": 4 * tick + 3,
        }}]},
    }


def store_outputs() -> dict[str, str]:
    with TelemetryStore() as store:
        for tick, at in enumerate((Rational(1, 3), Rational(1),
                                   Rational(2)), start=1):
            store.record_scrape("srv", at, hand_fed_snapshot(tick))
        store.record_scrape("edge", Rational(5, 2), hand_fed_snapshot(1))
        store.record_alert("hits-burn", "srv", "pending", Rational(2),
                           1.5, 0.25)
        return {"telemetry_store_dump.jsonl": store.dump()}


CASES = {
    "serve": serve_outputs,
    "fleet": fleet_outputs,
    "store": store_outputs,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_telemetry_matches_golden(case):
    for name, text in CASES[case]().items():
        actual = text.encode("utf-8")
        expected = (GOLDEN / name).read_bytes()
        # Line lists first: on a mismatch pytest names the first line
        # that differs instead of diffing the whole file.
        assert actual.splitlines() == expected.splitlines(), name
        assert actual == expected, name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for build in CASES.values():
        for name, text in build().items():
            (GOLDEN / name).write_bytes(text.encode("utf-8"))
            print(f"wrote {GOLDEN / name}")
