"""Tests for temporal predicates over compositions."""

import pytest

from repro.core.composition import MultimediaObject
from repro.core.rational import Rational
from repro.errors import QueryError
from repro.media import frames
from repro.media.objects import video_object
from repro.query.temporal import components_during, components_overlapping


@pytest.fixture
def composition():
    """Figure 4(b)-like timeline: video [0,2), music [0,2), narration [1,2)."""
    clip = video_object(frames.scene(16, 16, 50, "pan"), "clip")   # 2 s
    short = video_object(frames.scene(16, 16, 25, "pan"), "short")  # 1 s
    m = MultimediaObject("m")
    m.add_temporal(clip, at=0, label="video3")
    m.add_temporal(clip, at=0, label="audio1")
    m.add_temporal(short, at=1, label="audio2")
    return m


class TestOverlapping:
    def test_all_overlap_video(self, composition):
        assert components_overlapping(composition, "video3") == [
            "audio1", "audio2",
        ]

    def test_narration_overlaps_both(self, composition):
        assert set(components_overlapping(composition, "audio2")) == {
            "video3", "audio1",
        }

    def test_unknown_label(self, composition):
        with pytest.raises(QueryError):
            components_overlapping(composition, "ghost")


class TestDuring:
    def test_window_start(self, composition):
        assert components_during(composition, 0, Rational(1, 2)) == [
            "audio1", "video3",
        ]

    def test_window_end(self, composition):
        found = components_during(composition, Rational(3, 2), 2)
        assert set(found) == {"audio1", "video3", "audio2"}

    def test_empty_window(self, composition):
        assert components_during(composition, 10, 11) == []
