"""Tests for generic timing operations on streams."""

import pytest

from repro.core import stream_ops
from repro.core.elements import MediaElement
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.core.streams import TimedStream, TimedTuple
from repro.core.time_system import CD_AUDIO_TIME, PAL_TIME
from repro.errors import StreamError


@pytest.fixture
def video():
    return media_type_registry.get("pal-video")


@pytest.fixture
def stream(video):
    return TimedStream.from_elements(
        video, [MediaElement(payload=i, size=10) for i in range(6)]
    )


class TestTranslate:
    def test_offsets_starts(self, stream):
        moved = stream_ops.translate(stream, 100)
        assert [t.start for t in moved] == [100, 101, 102, 103, 104, 105]

    def test_preserves_durations_and_payloads(self, stream):
        moved = stream_ops.translate(stream, 7)
        assert [t.duration for t in moved] == [1] * 6
        assert [t.element.payload for t in moved] == list(range(6))

    def test_negative_offset(self, stream):
        moved = stream_ops.translate(stream, -2)
        assert moved.start == -2

    def test_original_untouched(self, stream):
        stream_ops.translate(stream, 50)
        assert stream.start == 0


class TestScale:
    def test_doubles_timing(self, stream):
        scaled = stream_ops.scale(stream, 2)
        assert [t.start for t in scaled] == [0, 2, 4, 6, 8, 10]
        assert all(t.duration == 2 for t in scaled)

    def test_halving_even_timings(self, stream):
        doubled = stream_ops.scale(stream, 2)
        halved = stream_ops.scale(doubled, Rational(1, 2))
        assert halved.tuples == stream.tuples

    def test_non_integral_result_rejected(self, stream):
        with pytest.raises(StreamError, match="integral"):
            stream_ops.scale(stream, Rational(1, 2))

    def test_non_positive_rejected(self, stream):
        with pytest.raises(StreamError):
            stream_ops.scale(stream, 0)


class TestSelectRange:
    def test_selects_and_rebases(self, stream):
        selected = stream_ops.select_range(stream, 2, 5)
        assert len(selected) == 3
        assert selected.start == 0
        assert [t.element.payload for t in selected] == [2, 3, 4]

    def test_without_rebase(self, stream):
        selected = stream_ops.select_range(stream, 2, 5, rebase=False)
        assert selected.start == 2

    def test_partial_elements_excluded(self, video):
        tuples = [TimedTuple(MediaElement(size=1), 0, 4)]
        long_stream = TimedStream(video, tuples, validate_constraints=False)
        assert len(stream_ops.select_range(long_stream, 0, 2)) == 0

    def test_events_at_range_edge(self, video):
        tuples = [TimedTuple(MediaElement(size=1), 2, 0)]
        events = TimedStream(video, tuples, validate_constraints=False)
        assert len(stream_ops.select_range(events, 0, 3)) == 1
        assert len(stream_ops.select_range(events, 0, 2)) == 0

    def test_reversed_range_rejected(self, stream):
        with pytest.raises(StreamError):
            stream_ops.select_range(stream, 5, 2)


class TestConcat:
    def test_appends_in_time(self, stream):
        joined = stream_ops.concat(stream, stream)
        assert len(joined) == 12
        assert joined.span_ticks == 12
        assert joined.is_continuous()

    def test_rejects_mixed_types(self, stream):
        cd = media_type_registry.get("cd-audio")
        audio = TimedStream.from_elements(cd, [MediaElement(size=4)])
        # "an audio sequence cannot be concatenated to a video sequence"
        with pytest.raises(StreamError, match="concatenate"):
            stream_ops.concat(stream, audio)

    def test_rejects_mixed_time_systems(self, stream, video):
        other = TimedStream.from_elements(
            video, [MediaElement(size=1)], time_system=CD_AUDIO_TIME,
        )
        with pytest.raises(StreamError, match="time systems"):
            stream_ops.concat(stream, other)

    def test_requires_input(self):
        with pytest.raises(StreamError):
            stream_ops.concat()

    def test_rebases_offset_sources(self, stream):
        shifted = stream_ops.translate(stream, 1000)
        joined = stream_ops.concat(stream, shifted)
        assert joined.span_ticks == 12


class TestMerge:
    def test_preserves_starts(self, stream):
        shifted = stream_ops.translate(stream, 3)
        merged = stream_ops.merge(stream, shifted)
        assert len(merged) == 12
        assert merged.start == 0
        assert merged.has_overlaps()

    def test_sorted_by_start(self, stream):
        shifted = stream_ops.translate(stream, 2)
        merged = stream_ops.merge(shifted, stream)
        starts = [t.start for t in merged]
        assert starts == sorted(starts)

    def test_type_mismatch_rejected(self, stream):
        cd = media_type_registry.get("cd-audio")
        audio = TimedStream.from_elements(cd, [MediaElement(size=4)])
        with pytest.raises(StreamError):
            stream_ops.merge(stream, audio)


class TestMapElements:
    def test_transform_preserves_timing(self, stream):
        doubled = stream_ops.map_elements(
            stream, lambda e: MediaElement(payload=e.payload * 2, size=e.size)
        )
        assert [t.element.payload for t in doubled] == [0, 2, 4, 6, 8, 10]
        assert [t.start for t in doubled] == [t.start for t in stream]


class TestGapsAndOverlaps:
    def test_gaps(self, video):
        tuples = [
            TimedTuple(MediaElement(size=1), 0, 2),
            TimedTuple(MediaElement(size=1), 5, 1),
            TimedTuple(MediaElement(size=1), 9, 1),
        ]
        stream = TimedStream(video, tuples, validate_constraints=False)
        assert stream_ops.gaps(stream) == [(2, 5), (6, 9)]

    def test_no_gaps_when_continuous(self, stream):
        assert stream_ops.gaps(stream) == []

    def test_overlaps_chord(self, video):
        tuples = [
            TimedTuple(MediaElement(size=1), 0, 4),
            TimedTuple(MediaElement(size=1), 0, 4),
            TimedTuple(MediaElement(size=1), 2, 4),
            TimedTuple(MediaElement(size=1), 10, 1),
        ]
        stream = TimedStream(video, tuples, validate_constraints=False)
        assert stream_ops.overlaps(stream) == [(0, 1), (0, 2), (1, 2)]

    def test_gap_covered_by_long_element(self, video):
        # A long element bridges what looks like a gap between later ones.
        tuples = [
            TimedTuple(MediaElement(size=1), 0, 10),
            TimedTuple(MediaElement(size=1), 1, 2),
            TimedTuple(MediaElement(size=1), 6, 2),
        ]
        stream = TimedStream(video, tuples, validate_constraints=False)
        assert stream_ops.gaps(stream) == []
