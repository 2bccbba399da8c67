"""Disk-backed storage integration and full-scale placement tables."""

import pytest

from repro.blob.blob import PagedBlob
from repro.blob.pages import FilePager, PageStore
from repro.blob.store import BlobStore
from repro.codecs.pcm import PcmCodec
from repro.core.interpretation import Interpretation, PlacementEntry
from repro.core.media_types import media_type_registry
from repro.core.rational import Rational
from repro.core.time_system import CD_AUDIO_TIME
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from repro.storage.container import read_container, write_container
from tests.storage.index_builder import index_for_sequence


class TestDiskBackedCapture:
    def test_capture_to_file_pager_and_back(self, tmp_path):
        """Capture into a file-backed paged BLOB, survive a reopen."""
        store_path = tmp_path / "store.dat"
        pager = FilePager(store_path, page_size=1024)
        blob = PagedBlob(PageStore(pager))

        video = video_object(frames.scene(24, 16, 5, "pan"), "v")
        interpretation = Recorder(blob).record([video])
        expected = interpretation.read_element("v", 3)
        pager.close()

        # Reopen the pager; the same page chain reads the same bytes.
        with FilePager(store_path, page_size=1024) as reopened:
            fresh = PagedBlob(PageStore(reopened), pages=blob.pages,
                              length=len(blob))
            recovered = Interpretation(fresh, "reopened")
            sequence = interpretation.sequence("v")
            recovered.add("v", sequence.media_type,
                          sequence.media_descriptor, sequence.entries)
            assert recovered.read_element("v", 3) == expected

    def test_container_on_disk_plays(self, tmp_path):
        video = video_object(frames.scene(24, 16, 8, "orbit"), "v")
        audio = audio_object(signals.sine(440, 0.32, 8000), "a",
                             sample_rate=8000, block_samples=320)
        path = tmp_path / "movie.rmf"
        with BlobStore.file_backed(tmp_path / "media.dat") as store:
            blob = store.create("tape1")
            interpretation = Recorder(blob).record(
                [video, audio], encoders={"a": PcmCodec(16, 1).encode},
            )
            write_container(interpretation, path)

        restored = read_container(path)
        report = Player(CostModel(bandwidth=10_000_000)).play(restored)
        assert report.element_count == 16
        assert report.underruns == 0


class TestSectorPaddedRecording:
    def test_recorder_honors_sector_size(self):
        from repro.blob.blob import MemoryBlob

        video = video_object(frames.scene(24, 16, 4, "pan"), "v")
        recorder = Recorder(MemoryBlob(), sector_size=512)
        interpretation = recorder.record([video])
        for entry in interpretation.sequence("v"):
            assert entry.blob_offset % 512 == 0
        # Padding bytes exist but are never referenced.
        assert interpretation.coverage() < 1.0
        interpretation.validate()


class TestFullScalePlacement:
    """The paper's actual 10-minute geometry, placement tables only.

    15,000 video frames + 15,000 audio blocks = 30,000 rows, no real
    encoding — exactly what a database catalog holds for the Figure 2
    movie. Lookup must stay fast at this size.
    """

    @pytest.fixture(scope="class")
    def movie(self):
        video_type = media_type_registry.get("pal-video")
        audio_type = media_type_registry.get("block-audio")
        frame_count = 15_000  # 10 min at 25 fps
        video_rows = []
        audio_rows = []
        offset = 0
        for i in range(frame_count):
            video_size = 18_000 + (i * 197) % 6_000  # ~0.5 bpp, bursty
            video_rows.append(PlacementEntry(i, i, 1, video_size, offset))
            offset += video_size
            audio_rows.append(PlacementEntry(
                i, i * 1764, 1764, 7056, offset,
            ))
            offset += 7056
        from repro.blob.blob import Blob

        class PhantomBlob(Blob):
            """Length-only blob: placement validation without 400 MB."""

            def __init__(self, length):
                self._length = length

            def __len__(self):
                return self._length

            def read(self, offset, size):
                self._check_span(offset, size)
                return b"\x00" * size

            def append(self, data):
                raise NotImplementedError

        interpretation = Interpretation(PhantomBlob(offset), "figure2-full")
        video_descriptor = video_type.make_media_descriptor(
            frame_rate=25, frame_width=640, frame_height=480,
            frame_depth=24, color_model="RGB", encoding="YUV 8:2:2, JPEG",
            quality_factor="VHS quality",
            duration=Rational(600),
        )
        audio_descriptor = audio_type.make_media_descriptor(
            sample_rate=44100, sample_size=16, channels=2, encoding="PCM",
            quality_factor="CD quality", duration=Rational(600),
        )
        interpretation.add("video1", video_type, video_descriptor, video_rows)
        interpretation.add("audio1", audio_type, audio_descriptor, audio_rows,
                           time_system=CD_AUDIO_TIME)
        return interpretation

    def test_scale(self, movie):
        movie.validate()
        assert len(movie.sequence("video1")) == 15_000
        assert movie.coverage() == 1.0

    def test_blob_size_matches_paper(self, movie):
        # ~0.5 MB/s video + 172 KiB/s audio over 600 s => ~400 MB.
        total = len(movie.blob)
        assert 300 * 2**20 < total < 500 * 2**20

    def test_lookup_at_scale(self, movie):
        video = movie.sequence("video1")
        # The element at 5 minutes.
        entries = video.entries_at_tick(7_500)
        assert entries[0].element_number == 7_500
        audio = movie.sequence("audio1")
        assert audio.entries_at_tick(7_500 * 1764)[0].element_number == 7_500

    def test_index_at_scale(self, movie):
        index = index_for_sequence(movie.sequence("video1"))
        assert index.sample_count == 15_000
        offset, size = index.placement_at_time(7_500)
        expected = movie.sequence("video1").entry(7_500)
        assert (offset, size) == (expected.blob_offset, expected.size)

    def test_paper_data_rates_recoverable(self, movie):
        video = movie.sequence("video1")
        rate = video.total_size() / 600
        assert 0.4 * 2**20 < rate < 0.6 * 2**20  # "roughly 0.5 Mbyte/sec"
        audio = movie.sequence("audio1")
        assert audio.total_size() / 600 == 7056 * 25  # 176,400 B/s exact
