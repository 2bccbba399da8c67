"""Tests for lazy stream iteration over an interpretation."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.mpeg_like import MpegLikeCodec
from repro.core.interpretation import Interpretation, PlacementEntry
from repro.core.media_types import media_type_registry
from repro.media import frames


class CountingBlob(MemoryBlob):
    """A blob that counts reads, to verify laziness."""

    def __init__(self, data=b""):
        super().__init__(data)
        self.reads = 0

    def read(self, offset, size):
        self.reads += 1
        return super().read(offset, size)


@pytest.fixture
def mpeg_interpretation():
    """An IBBP-coded sequence stored in decode order with kind descriptors."""
    codec = MpegLikeCodec(quality=40, gop_pattern="IBBP")
    shot = frames.scene(32, 24, 8, "orbit")
    encoded = codec.encode_sequence(shot)
    video_type = media_type_registry.get("pal-video")
    blob = CountingBlob()
    entries = []
    for frame in encoded:
        offset = blob.append(frame.data)
        descriptor = video_type.make_element_descriptor(frame_kind=frame.kind)
        entries.append(PlacementEntry(
            element_number=frame.display_index,
            start=frame.display_index, duration=1,
            size=frame.size, blob_offset=offset,
            element_descriptor=descriptor,
        ))
    interpretation = Interpretation(blob, "gop")
    descriptor = video_type.make_media_descriptor(
        frame_rate=25, frame_width=32, frame_height=24, frame_depth=24,
        color_model="RGB", encoding="mpeg-like",
    )
    interpretation.add("video", video_type, descriptor, entries)
    return interpretation, blob


class TestLazyIteration:
    def test_reads_happen_on_demand(self, mpeg_interpretation):
        interpretation, blob = mpeg_interpretation
        blob.reads = 0
        iterator = interpretation.iter_stream("video")
        assert blob.reads == 0  # nothing read yet
        next(iterator)
        assert blob.reads == 1
        next(iterator)
        assert blob.reads == 2

    def test_yields_time_order_with_entries(self, mpeg_interpretation):
        interpretation, _ = mpeg_interpretation
        pairs = list(interpretation.iter_stream("video"))
        assert len(pairs) == 8
        starts = [t.start for t, _ in pairs]
        assert starts == sorted(starts)
        for timed, entry in pairs:
            assert timed.element.size == entry.size

    def test_decode_hook(self, mpeg_interpretation):
        interpretation, _ = mpeg_interpretation
        lengths = [
            t.element.payload
            for t, _ in interpretation.iter_stream(
                "video", decode=lambda raw, entry: len(raw),
            )
        ]
        assert all(isinstance(v, int) and v > 0 for v in lengths)
