"""Tests for snapshot exporters."""

import json
from collections import defaultdict

import pytest

from repro.core.rational import Rational
from repro.obs import Observability, Severity, to_json_lines, to_table
from repro.obs.export import (
    events_to_table,
    metrics_rows,
    spans_to_table,
    to_chrome_trace,
    to_dict,
    trace_events,
)


def populated_obs():
    obs = Observability()
    obs.metrics.counter("blob.page.reads").inc(3)
    obs.metrics.counter("faults.injected").inc(2, kind="transient")
    obs.metrics.gauge("engine.play.buffer_high_water").set(5)
    obs.metrics.histogram("lateness", buckets=(0.1, 1.0)).observe(0.05)
    with obs.tracer.span("engine.retry", attempt=1):
        pass
    return obs


class TestToDict:
    def test_has_metrics_and_spans(self):
        snap = to_dict(populated_obs())
        assert set(snap) == {"metrics", "spans", "events"}
        assert "blob.page.reads" in snap["metrics"]
        assert snap["spans"][0]["name"] == "engine.retry"


class TestJsonLines:
    def test_every_line_is_json(self):
        text = to_json_lines(populated_obs())
        lines = text.splitlines()
        assert len(lines) == 5  # 4 metrics + 1 span
        for line in lines:
            json.loads(line)

    def test_metrics_precede_spans_and_are_sorted(self):
        parsed = [json.loads(l) for l in
                  to_json_lines(populated_obs()).splitlines()]
        metric_names = [p["metric"] for p in parsed if "metric" in p]
        assert metric_names == sorted(metric_names)
        assert "span" in parsed[-1]

    def test_identical_observations_export_identically(self):
        assert to_json_lines(populated_obs()) == to_json_lines(populated_obs())


class TestTables:
    def test_metrics_rows_flatten_series(self):
        rows = metrics_rows(populated_obs())
        by_name = {row[0]: row for row in rows}
        assert by_name["blob.page.reads"][1:] == ("counter", "", "3")
        assert by_name["faults.injected"][2] == "kind=transient"
        assert "count=1" in by_name["lateness"][3]

    def test_to_table_renders_every_metric(self):
        text = to_table(populated_obs(), title="obs")
        assert text.startswith("obs")
        for name in ("blob.page.reads", "faults.injected", "lateness"):
            assert name in text

    def test_spans_table_renders_and_limits(self):
        obs = populated_obs()
        obs.tracer.event("second")
        text = spans_to_table(obs, limit=1)
        assert "engine.retry" in text
        assert "second" not in text

    def test_events_table_filters_severity(self):
        obs = populated_obs()
        obs.events.record(Severity.DEBUG, "cache", "evicted")
        obs.events.record(Severity.ERROR, "pager", "fault", page=3)
        text = events_to_table(obs, min_severity=Severity.WARNING)
        assert "fault" in text
        assert "evicted" not in text


@pytest.fixture(scope="module")
def figure5_obs():
    """The figure-5 pipeline — capture, derive, compose, serve — played
    through an instrumented VOD server (two sessions)."""
    from repro.blob import MemoryBlob
    from repro.core.composition import MultimediaObject
    from repro.edit import MediaEditor
    from repro.engine import CostModel, Player, Recorder
    from repro.engine.vod import ServeOptions, SessionRequest, VodServer
    from repro.media import frames, signals
    from repro.media.objects import audio_object, video_object

    shot1 = video_object(frames.scene(32, 24, 10, "orbit"), "shot1")
    shot2 = video_object(frames.scene(32, 24, 10, "cut"), "shot2")
    tape = Recorder(MemoryBlob()).record(
        [shot1, shot2], interpretation_name="tape1",
    )
    editor = MediaEditor()
    cut1 = editor.cut(shot1, 0, 8, name="cut1")
    cut2 = editor.cut(shot2, 2, 10, name="cut2")
    final = editor.concat(cut1, cut2, name="final")
    movie = MultimediaObject("movie")
    movie.add_temporal(final, at=0, label="picture")
    music = audio_object(signals.sine(330, 0.64, 8000), "music",
                         sample_rate=8000, block_samples=320)
    movie.add_temporal(music, at=0, label="music")

    obs = Observability()
    server = VodServer(bandwidth=8_000_000, obs=obs)
    server.publish("tape1", tape)
    server.serve([SessionRequest(client=c, title="tape1")
                  for c in ("c0", "c1")],
                 ServeOptions(enforce_admission=False))
    with obs.tracer.span("edit.render"):  # same-domain nesting
        Player(CostModel(bandwidth=8_000_000), obs=obs).play(movie)
    return obs


class TestChromeTrace:
    def test_document_is_valid_json(self, figure5_obs):
        document = json.loads(to_chrome_trace(figure5_obs))
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"]

    def test_ts_monotonic_per_track(self, figure5_obs):
        by_track = defaultdict(list)
        for row in trace_events(figure5_obs):
            if row["ph"] in ("X", "i"):
                by_track[row["tid"]].append(row["ts"])
        assert by_track
        for stamps in by_track.values():
            assert stamps == sorted(stamps)

    def test_sessions_nest_playback_spans(self, figure5_obs):
        rows = trace_events(figure5_obs)
        sessions = [r for r in rows
                    if r["ph"] == "X" and r["name"] == "vod.session"]
        assert len(sessions) == 2
        session_ids = {r["args"]["span_id"] for r in sessions}
        plays = [r for r in rows
                 if r["ph"] == "X" and r["name"] == "engine.play"]
        assert plays
        assert any(r["args"].get("parent_id") in session_ids
                   for r in plays)

    def test_containers_precede_contents(self, figure5_obs):
        """An enclosing span's row sorts before every same-domain row it
        contains (cross-domain parents live on other tracks)."""
        rows = [r for r in trace_events(figure5_obs) if r["ph"] == "X"]
        index = {r["args"]["span_id"]: i for i, r in enumerate(rows)}
        checked = 0
        for i, row in enumerate(rows):
            parent = row["args"].get("parent_id")
            if parent in index and rows[index[parent]]["cat"] == row["cat"]:
                assert index[parent] < i
                checked += 1
        assert checked > 0

    def test_derivation_expansion_visible(self, figure5_obs):
        names = {r["name"] for r in trace_events(figure5_obs)}
        assert "engine.expand" in names

    def test_track_metadata_names_every_tid(self, figure5_obs):
        rows = trace_events(figure5_obs)
        named = {r["tid"] for r in rows
                 if r["ph"] == "M" and r["name"] == "thread_name"}
        used = {r["tid"] for r in rows if r["ph"] != "M"}
        assert used <= named

    def test_instant_events_appear_with_severity_category(self):
        obs = Observability()
        obs.events.record(Severity.ERROR, "pager", "fault",
                          at=Rational(1, 2), page=9)
        (meta, row) = trace_events(obs)
        assert meta["ph"] == "M"
        assert row["ph"] == "i"
        assert row["cat"] == "ERROR"
        assert row["ts"] == 500_000.0
        assert row["args"]["page"] == 9


@pytest.fixture(scope="module")
def fleet_obs():
    """A three-shard fleet serving four correlated sessions."""
    from repro.blob import MemoryBlob
    from repro.codecs.jpeg_like import JpegLikeCodec
    from repro.engine import Recorder
    from repro.engine.fleet import Fleet
    from repro.engine.vod import SessionRequest
    from repro.media import frames
    from repro.media.objects import video_object

    def title(name):
        video = video_object(frames.scene(32, 24, 8, "orbit"), name)
        return Recorder(MemoryBlob()).record(
            [video], encoders={name: JpegLikeCodec(quality=40).encode},
        )

    obs = Observability()
    fleet = Fleet(bandwidth=2_000_000, shards=3, obs=obs)
    fleet.publish("feature", title("feature"))
    fleet.publish("short", title("short"))
    fleet.serve([
        SessionRequest(client=f"client-{i}", title=name)
        for i, name in enumerate(["feature", "short", "feature", "short"])
    ])
    return obs


class TestFleetChromeTrace:
    def test_one_track_per_session(self, fleet_obs):
        document = json.loads(to_chrome_trace(fleet_obs))
        labels = [row["args"]["name"] for row in document["traceEvents"]
                  if row["ph"] == "M"]
        trace_tracks = [l for l in labels if l.startswith("trace:")]
        # four sessions, four distinct correlation tracks
        assert len(trace_tracks) == len(set(trace_tracks)) == 4

    def test_session_spans_share_their_trace_track(self, fleet_obs):
        document = json.loads(to_chrome_trace(fleet_obs))
        rows = [r for r in document["traceEvents"] if r["ph"] != "M"]
        by_trace = {}
        for row in rows:
            trace_id = row.get("args", {}).get("trace_id")
            if trace_id is not None:
                by_trace.setdefault(trace_id, set()).add(row["tid"])
        assert len(by_trace) == 4
        for tids in by_trace.values():
            assert len(tids) == 1

    def test_track_assignment_is_deterministic(self, fleet_obs):
        assert to_chrome_trace(fleet_obs) == to_chrome_trace(fleet_obs)
