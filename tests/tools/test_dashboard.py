"""Tests for the deterministic terminal dashboard."""

from repro.core.rational import Rational
from repro.obs.telemetry import TelemetryStore
from repro.tools.dashboard import (
    HEAT_CHARS,
    SPARK_CHARS,
    heat_row,
    render_dashboard,
    sparkline,
)


def counter_snapshot(name, value):
    return {name: {"type": "counter", "series": [{"value": value}]}}


def populated_store():
    store = TelemetryStore()
    for tick, (busy, idle) in enumerate([(0, 0), (40, 1), (90, 2)], start=1):
        store.record_scrape("shard0", Rational(tick),
                            counter_snapshot("shard0.reads", busy))
        store.record_scrape("shard1", Rational(tick),
                            counter_snapshot("shard1.reads", idle))
    store.record_alert("burn", "shard0", "pending", Rational(2), 2.0, 0.5)
    store.record_alert("burn", "shard0", "firing", Rational(3), 3.0, 2.5)
    return store


class TestSparkline:
    def test_scales_against_the_series_maximum(self):
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == SPARK_CHARS[0]
        assert line[-1] == SPARK_CHARS[-1]
        assert line[1] not in (SPARK_CHARS[0], SPARK_CHARS[-1])

    def test_small_positive_values_stay_visible(self):
        # a tiny-but-nonzero point must not round down to the blank
        assert sparkline([0.001, 100.0])[0] == SPARK_CHARS[1]

    def test_keeps_the_newest_points_when_too_long(self):
        # the old spike scrolls off AND stops dominating the scale:
        # the surviving flat window normalizes to its own maximum
        line = sparkline([9000.0] + [1.0] * 60, width=8)
        assert line == SPARK_CHARS[-1] * 8

    def test_empty_and_all_zero_series(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == SPARK_CHARS[0] * 2


class TestHeatRow:
    def test_busiest_shard_glows_hottest(self):
        text = heat_row(populated_store())
        assert f"shard0:{HEAT_CHARS[-1]}" in text
        assert f"shard1:{HEAT_CHARS[-1]}" not in text

    def test_empty_store(self):
        assert "(no scrapes)" in heat_row(TelemetryStore())


class TestRenderDashboard:
    def test_sections_present(self):
        text = render_dashboard(populated_store())
        assert "telemetry dashboard" in text
        assert "series (sparkline per scrape)" in text
        assert "alert timeline" in text
        assert "shard heat" in text
        assert "firing" in text

    def test_plain_render_has_no_escapes_and_is_deterministic(self):
        first = render_dashboard(populated_store())
        assert "\x1b[" not in first
        assert first == render_dashboard(populated_store())

    def test_ansi_colors_alert_states(self):
        text = render_dashboard(populated_store(), ansi=True)
        assert "\x1b[31mfiring\x1b[0m" in text

    def test_empty_store_short_circuits(self):
        text = render_dashboard(TelemetryStore())
        assert "(no scrapes recorded)" in text

    def test_nan_gauge_reading_renders_as_no_signal(self):
        store = TelemetryStore()
        for tick, level in enumerate([2.0, float("nan"), 4.0], start=1):
            store.record_scrape("srv", Rational(tick), {"level": {
                "type": "gauge", "series": [{"value": level}]}})
        # the NaN is stored as no reading and drawn as a blank point
        assert sparkline([2.0, 0.0, 4.0]) in render_dashboard(store)
