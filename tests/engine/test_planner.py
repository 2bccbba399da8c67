"""The player's one planner: interpretations and compositions of stored
objects are read at their placement rows.

§2.2 interleaves a BLOB's streams "to simplify synchronization of
streams during playback"; Figure 5 composes interpreted objects into
multimedia objects. A composition of an interleaved recording's own
media objects must therefore read as the recording does, and planning
it must read no page.
"""

import dataclasses

import pytest

from repro.blob.blob import MemoryBlob
from repro.core.composition import MultimediaObject
from repro.core.media_object import InterpretedMediaObject
from repro.edit.editor import MediaEditor
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from tests.engine import reference
from tests.engine.test_serve_golden import make_titles


class CountingBlob(MemoryBlob):
    """A BLOB that counts the bytes read from it."""

    bytes_read = 0

    def read(self, offset: int, size: int) -> bytes:
        self.bytes_read += size
        return super().read(offset, size)


def record(blob=None, audio=True, **recorder):
    """25 48x36 frames, with 1 s of 44.1 kHz audio, in one BLOB."""
    objects = [video_object(frames.scene(48, 36, 25, "orbit"), "video")]
    if audio:
        objects.append(audio_object(signals.sine(440, 1.0, 44100), "audio",
                                    sample_rate=44100))
    blob = MemoryBlob() if blob is None else blob
    return Recorder(blob, **recorder).record(objects)


def composed(*placements):
    """A multimedia object of ``(label, object, at)`` components."""
    multimedia = MultimediaObject("composed")
    for label, obj, at in placements:
        multimedia.add_temporal(obj, at=at, label=label)
    return multimedia


def rows(reads):
    return [(r.label, r.offset, r.size, r.deadline) for r in reads]


@pytest.fixture
def player():
    return Player(CostModel(bandwidth=200_000))


class TestInterpretationPlan:
    @pytest.mark.parametrize("recorder", [
        {}, {"interleave": False}, {"sector_size": 2324},
    ], ids=["interleaved", "sequential", "sector-padded"])
    def test_reads_equal_the_reference(self, player, recorder):
        movie = record(**recorder)
        assert rows(player.plan_interpretation(movie)) == rows(
            reference.plan_interpretation(movie))

    def test_serve_golden_catalog_equals_the_reference(self, player):
        for title in make_titles().values():
            assert rows(player.plan_interpretation(title)) == rows(
                reference.plan_interpretation(title))

    def test_planning_reads_no_blob_byte(self, player):
        blob = CountingBlob()
        player.plan_interpretation(record(blob))
        assert blob.bytes_read == 0


class TestComposedStoredObjects:
    def test_interleaved_components_keep_their_placement(self, player):
        """Composed at 0, an interleaved recording's media objects plan
        the recording's own offsets and sizes and play seek-free (49
        seeks when every leaf took synthetic offsets)."""
        movie = record()
        multimedia = composed(*((obj.name, obj, 0)
                                for obj in movie.media_objects()))
        reads = player.plan_multimedia(multimedia)
        assert rows(reads) == rows(player.plan_interpretation(movie))
        report = player.play(multimedia)
        assert report.seeks == 0
        assert dataclasses.replace(report, plan_diagnostics=[]) == player.play(
            movie)

    def test_planning_a_composition_reads_no_blob_byte(self, player):
        blob = CountingBlob()
        movie = record(blob)
        player.plan_multimedia(composed(*((obj.name, obj, 0)
                                          for obj in movie.media_objects())))
        assert blob.bytes_read == 0

    def test_shifted_component_moves_its_deadlines(self, player):
        movie = record()
        audio = InterpretedMediaObject(movie, "audio")
        reads = player.plan_multimedia(composed(("late", audio, 2)))
        expected = reference.plan_interpretation(movie.restrict(["audio"]))
        assert [(r.offset, r.size, r.deadline) for r in reads] == [
            (r.offset, r.size, r.deadline + 2) for r in expected]
        assert [r.label for r in reads] == [
            r.label.replace("audio", "late") for r in expected]

    def test_every_switch_between_blobs_is_a_seek(self, player):
        """Two video recordings side by side alternate between BLOBs:
        each of the 49 switches is a seek, also the 24 where the second
        BLOB's frame ends at the offset of the first BLOB's next frame."""
        first, second = record(audio=False), record(audio=False)
        report = player.play(composed(
            ("a", InterpretedMediaObject(first, "video"), 0),
            ("b", InterpretedMediaObject(second, "video"), 0),
        ))
        assert report.element_count == 50
        assert report.seeks == 49

    def test_back_to_back_blobs_seek_once(self, player):
        """Played one after the other, two interleaved recordings read
        each BLOB contiguously and seek once, at the switch."""
        first, second = record(), record()
        report = player.play(composed(
            *((f"a/{obj.name}", obj, 0) for obj in first.media_objects()),
            *((f"b/{obj.name}", obj, 1) for obj in second.media_objects()),
        ))
        assert report.element_count == 100
        assert report.seeks == 1

    def test_derived_leaves_read_after_every_blob(self, player):
        """A derived leaf keeps its synthetic run, placed past the last
        BLOB's range: it never reads as contiguous with stored bytes."""
        movie = record()
        video = InterpretedMediaObject(movie, "video")
        reversed_video = MediaEditor().reverse(
            video_object(frames.scene(16, 16, 5, "pan"), "clip"))
        reads = player.plan_multimedia(composed(
            ("stored", video, 0), ("derived", reversed_video, 0)))
        derived = [r for r in reads if r.label.startswith("derived[")]
        assert len(derived) == 5
        assert min(r.offset for r in derived) == len(movie.blob) + 1
