"""MediaIndex lookups held to the placement tables they were built from."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.pcm import PcmCodec
from repro.engine.recorder import Recorder
from repro.errors import StorageError
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from tests.storage.index_builder import index_for_sequence


@pytest.fixture
def recorded():
    video = video_object(frames.scene(24, 16, 12, "orbit"), "v")
    audio = audio_object(signals.sine(440, 0.48, 8000), "a",
                         sample_rate=8000, block_samples=320)
    return Recorder(MemoryBlob()).record(
        [video, audio], encoders={"a": PcmCodec(16, 1).encode},
    )


class TestIndexForSequence:
    def test_placement_matches_table(self, recorded):
        sequence = recorded.sequence("v")
        index = index_for_sequence(sequence)
        for entry in sequence:
            offset, size = index.placement(entry.element_number)
            assert (offset, size) == (entry.blob_offset, entry.size)

    def test_time_lookup_matches_table(self, recorded):
        sequence = recorded.sequence("v")
        index = index_for_sequence(sequence)
        for tick in range(12):
            expected = sequence.entries_at_tick(tick)[0]
            assert index.sample_at_time(tick) == expected.element_number

    def test_interleaving_yields_one_chunk_per_element(self, recorded):
        # Video elements are separated by audio blocks in the BLOB, so
        # every element is its own chunk.
        index = index_for_sequence(recorded.sequence("v"))
        assert index.chunk_offsets.chunk_count == 12

    def test_sequential_layout_collapses_chunks(self):
        video = video_object(frames.scene(24, 16, 6, "pan"), "solo")
        interpretation = Recorder(MemoryBlob()).record([video])
        index = index_for_sequence(interpretation.sequence("solo"))
        # Contiguous placement: one chunk covers everything; the stts is
        # one run (constant duration); stsz is constant (raw frames).
        assert index.chunk_offsets.chunk_count == 1
        assert index.time_to_sample.entry_count() == 1
        assert index.sample_sizes.is_constant

    def test_audio_track_indexed(self, recorded):
        sequence = recorded.sequence("a")
        index = index_for_sequence(sequence)
        assert index.sample_count == len(sequence)
        assert index.sample_at_time(320) == 1

    def test_non_continuous_rejected(self):
        from repro.core.interpretation import (
            InterpretedSequence, PlacementEntry,
        )
        from repro.core.media_types import media_type_registry

        video_type = media_type_registry.get("pal-video")
        descriptor = video_type.make_media_descriptor(
            frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
            color_model="RGB",
        )
        gapped = InterpretedSequence("g", video_type, descriptor, [
            PlacementEntry(0, 0, 1, 10, 0),
            PlacementEntry(1, 5, 1, 10, 10),
        ])
        with pytest.raises(StorageError, match="continuous"):
            index_for_sequence(gapped)

    def test_empty_rejected(self):
        from repro.core.interpretation import InterpretedSequence
        from repro.core.media_types import media_type_registry

        video_type = media_type_registry.get("pal-video")
        descriptor = video_type.make_media_descriptor(
            frame_rate=25, frame_width=8, frame_height=8, frame_depth=24,
            color_model="RGB",
        )
        empty = InterpretedSequence("e", video_type, descriptor, [])
        with pytest.raises(StorageError, match="empty"):
            index_for_sequence(empty)
