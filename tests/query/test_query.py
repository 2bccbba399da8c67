"""Tests for the §1.2 queries."""

import numpy as np
import pytest

from repro.bench.workloads import multilingual_movie
from repro.codecs.scalable import ScalableVideoCodec
from repro.core.elements import MediaElement
from repro.core.media_types import MediaKind, media_type_registry
from repro.core.media_object import StreamMediaObject
from repro.core.rational import Rational
from repro.core.streams import TimedStream
from repro.errors import QueryError
from repro.media import frames
from repro.media.objects import image_object, video_object
from repro.query import (
    frames_at_fidelity,
    select_duration,
    select_track,
)


@pytest.fixture(scope="module")
def movie_db():
    return multilingual_movie(seconds=0.4)


class TestSelectTrack:
    """'select a specific sound track' (§1.2)."""

    def test_by_language(self, movie_db):
        db, movie = movie_db
        track = select_track(db, "feature", "fr")
        assert track.name == "feature-audio-fr"
        assert track.kind is MediaKind.AUDIO

    def test_by_movie_object(self, movie_db):
        db, movie = movie_db
        assert select_track(db, movie, "de").name == "feature-audio-de"

    def test_missing_language_lists_available(self, movie_db):
        db, movie = movie_db
        with pytest.raises(QueryError) as excinfo:
            select_track(db, "feature", "jp")
        message = str(excinfo.value)
        assert "en" in message and "fr" in message


class TestSelectDuration:
    """'select a specific duration' (§1.2) — non-destructively."""

    def test_returns_derived_object(self, movie_db):
        db, _ = movie_db
        video = db.get_object("feature-video")
        clip = select_duration(video, 0, Rational(1, 5))
        assert clip.is_derived
        assert clip.descriptor["duration"] == Rational(1, 5)
        assert len(clip.stream()) == 5  # 0.2 s at 25 fps

    def test_inexact_bounds_expand_to_ticks(self, movie_db):
        db, _ = movie_db
        video = db.get_object("feature-video")
        clip = select_duration(video, Rational(1, 100), Rational(9, 100))
        # floor(0.25)=0, ceil(2.25)=3 ticks.
        assert len(clip.stream()) == 3

    def test_empty_selection_rejected(self, movie_db):
        db, _ = movie_db
        video = db.get_object("feature-video")
        with pytest.raises(QueryError, match="empty"):
            select_duration(video, Rational(1, 5), Rational(1, 5))

    def test_still_rejected(self, small_frame):
        image = image_object(small_frame, "img")
        with pytest.raises(QueryError, match="not time-based"):
            select_duration(image, 0, 1)


class TestFramesAtFidelity:
    """'retrieve frames at a specific visual fidelity' (§1.2)."""

    @pytest.fixture
    def scalable_video(self):
        codec = ScalableVideoCodec(levels=3, quality=60)
        shot = frames.scene(48, 32, 4, "pan")
        video_type = media_type_registry.get("pal-video")
        elements = []
        for frame in shot:
            data = codec.encode(frame)
            elements.append(MediaElement(payload=data, size=len(data)))
        stream = TimedStream.from_elements(video_type, elements)
        descriptor = video_type.make_media_descriptor(
            frame_rate=25, frame_width=48, frame_height=32, frame_depth=24,
            color_model="RGB", encoding="scalable",
            duration=Rational(4, 25),
        )
        return StreamMediaObject(video_type, descriptor, stream, "sv"), codec

    def test_reduced_fidelity_reads_fewer_bytes(self, scalable_video):
        obj, codec = scalable_video
        low, read_low, total = frames_at_fidelity(obj, 0, codec)
        full, read_full, _ = frames_at_fidelity(obj, 2, codec)
        assert low[0].shape == (8, 12, 3)
        assert full[0].shape == (32, 48, 3)
        assert read_low < read_full <= total

    def test_frame_subset(self, scalable_video):
        obj, codec = scalable_video
        some, _, _ = frames_at_fidelity(obj, 1, codec, frame_indices=[0, 2])
        assert len(some) == 2

    def test_non_scalable_payload_rejected(self, movie_db):
        db, _ = movie_db
        video = db.get_object("feature-video")  # raw ndarray payloads
        with pytest.raises(QueryError, match="scalable"):
            frames_at_fidelity(video, 0)


class TestSelectObjects:
    def test_kind_and_attributes(self, movie_db):
        db, _ = movie_db
        soundtracks = db.objects(kind=MediaKind.AUDIO, role="soundtrack")
        assert len(soundtracks) == 3
