"""Tests for physical layout: interleaving, padding, and the read cost
the player charges each layout."""

import pytest

from repro.bench.workloads import played_price
from repro.blob.blob import MemoryBlob
from repro.core.interpretation import Interpretation
from repro.core.media_types import media_type_registry
from repro.core.time_system import CD_AUDIO_TIME, PAL_TIME
from repro.engine.player import Player
from repro.errors import StorageError
from repro.storage.layout import (
    CD_SECTOR_SIZE,
    StorageWriter,
    TrackSpec,
    write_interleaved,
    write_sequential,
)


@pytest.fixture
def tracks():
    """A video track and an audio track covering the same second."""
    video = TrackSpec("video", PAL_TIME)
    for i in range(5):
        video.add(bytes([0x10 + i]) * 100, i, 1)
    audio = TrackSpec("audio", CD_AUDIO_TIME)
    for i in range(5):
        audio.add(bytes([0x80 + i]) * 50, i * 1764, 1764)
    return [video, audio]


class TestTrackSpec:
    def test_start_seconds(self, tracks):
        video, audio = tracks
        assert video.start_seconds(1) == audio.start_seconds(1)

    def test_total_bytes(self, tracks):
        assert tracks[0].total_bytes() == 500


class TestStorageWriter:
    def test_no_padding_without_sectors(self):
        writer = StorageWriter(MemoryBlob())
        writer.write_element(b"abc")
        writer.write_element(b"defg")
        assert writer.padding_bytes == 0
        assert len(writer.blob) == 7

    def test_sector_alignment(self):
        blob = MemoryBlob()
        writer = StorageWriter(blob, sector_size=16)
        writer.write_element(b"abc")       # offset 0
        offset = writer.write_element(b"x")  # padded to 16
        assert offset == 16
        assert writer.padding_bytes == 13

    def test_no_pad_on_exact_boundary(self):
        blob = MemoryBlob()
        writer = StorageWriter(blob, sector_size=4)
        writer.write_element(b"abcd")
        offset = writer.write_element(b"e")
        assert offset == 4
        assert writer.padding_bytes == 0

    def test_cd_sector_constant(self):
        assert CD_SECTOR_SIZE == 2324

    def test_bad_sector_size(self):
        with pytest.raises(StorageError):
            StorageWriter(MemoryBlob(), sector_size=0)


class TestInterleaved:
    def test_figure2_order(self, tracks):
        """Audio elements follow the associated video frame."""
        blob = MemoryBlob()
        placements = write_interleaved(blob, tracks)
        video_offsets = [e.blob_offset for e in placements["video"]]
        audio_offsets = [e.blob_offset for e in placements["audio"]]
        # Pairwise: video frame i sits just before audio block i.
        for v, a in zip(video_offsets, audio_offsets):
            assert a == v + 100

    def test_placements_in_element_order(self, tracks):
        placements = write_interleaved(MemoryBlob(), tracks)
        numbers = [e.element_number for e in placements["audio"]]
        assert numbers == sorted(numbers)

    def test_blob_holds_everything(self, tracks):
        blob = MemoryBlob()
        write_interleaved(blob, tracks)
        assert len(blob) == 5 * 150

    def test_data_integrity(self, tracks):
        blob = MemoryBlob()
        placements = write_interleaved(blob, tracks)
        entry = placements["audio"][3]
        assert blob.read(entry.blob_offset, entry.size) == bytes([0x83]) * 50

    def test_padding(self, tracks):
        blob = MemoryBlob()
        placements = write_interleaved(blob, tracks, sector_size=256)
        for rows in placements.values():
            for entry in rows:
                assert entry.blob_offset % 256 == 0

    def test_duplicate_names_rejected(self, tracks):
        dup = [tracks[0], TrackSpec("video", PAL_TIME)]
        with pytest.raises(StorageError):
            write_interleaved(MemoryBlob(), dup)

    def test_empty_track_list_rejected(self):
        with pytest.raises(StorageError):
            write_interleaved(MemoryBlob(), [])


class TestSequential:
    def test_tracks_contiguous(self, tracks):
        placements = write_sequential(MemoryBlob(), tracks)
        video_offsets = [e.blob_offset for e in placements["video"]]
        assert video_offsets == [0, 100, 200, 300, 400]
        audio_offsets = [e.blob_offset for e in placements["audio"]]
        assert audio_offsets == [500, 550, 600, 650, 700]


#: Media descriptors for the fixture's tracks, by media type.
DESCRIPTORS = {
    "pal-video": {"frame_rate": 25, "frame_width": 10, "frame_height": 10,
                  "frame_depth": 8, "color_model": "GRAY"},
    "cd-audio": {"sample_rate": 44100, "sample_size": 16, "channels": 2,
                 "encoding": "PCM"},
}


def layout(writer, tracks) -> Interpretation:
    """The fixture's tracks written by ``writer`` into a fresh BLOB, as
    the interpretation a player plays."""
    blob = MemoryBlob()
    placements = writer(blob, tracks)
    interpretation = Interpretation(blob, writer.__name__)
    for track, name in zip(tracks, DESCRIPTORS):
        media_type = media_type_registry.get(name)
        interpretation.add(
            track.name, media_type,
            media_type.make_media_descriptor(**DESCRIPTORS[name]),
            placements[track.name], time_system=track.time_system,
        )
    return interpretation


class TestReadCost:
    """The layouts priced by the player: seeks and ``page_read`` seconds
    of one synchronized play."""

    def test_interleaved_cheaper_for_synchronized_playback(self, tracks):
        """The paper's rationale for interleaving, quantified: two tracks
        of n elements laid out one after the other seek at every one of
        the 2n - 1 switches between them."""
        seeks, seconds = played_price(layout(write_interleaved, tracks))
        sequential_seeks, sequential_seconds = played_price(
            layout(write_sequential, tracks))
        assert (seeks, sequential_seeks) == (0, 9)
        assert seconds < sequential_seconds

    def test_interleaved_is_seek_free(self, tracks):
        interleaved = layout(write_interleaved, tracks)
        reads = Player().plan_interpretation(interleaved)
        assert [r.label for r in reads[:2]] == ["video[0]", "audio[0]"]
        assert all(a.offset + a.size == b.offset
                   for a, b in zip(reads, reads[1:]))
        assert Player().play(interleaved).seeks == 0
