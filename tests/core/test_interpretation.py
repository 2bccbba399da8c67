"""Tests for BLOB interpretation (Definition 5)."""

import pytest

from repro.blob.blob import MemoryBlob
from repro.core.interpretation import (
    Interpretation,
    InterpretedSequence,
    PlacementEntry,
)
from repro.core.media_types import media_type_registry
from repro.core.time_system import CD_AUDIO_TIME
from repro.errors import InterpretationError


@pytest.fixture
def video_type():
    return media_type_registry.get("pal-video")


@pytest.fixture
def audio_type():
    return media_type_registry.get("block-audio")


@pytest.fixture
def video_descriptor(video_type):
    return video_type.make_media_descriptor(
        frame_rate=25, frame_width=8, frame_height=8,
        frame_depth=24, color_model="RGB",
    )


@pytest.fixture
def audio_descriptor(audio_type):
    return audio_type.make_media_descriptor(
        sample_rate=44100, sample_size=16, channels=2, encoding="PCM",
    )


@pytest.fixture
def blob_and_interpretation(video_type, audio_type, video_descriptor,
                            audio_descriptor):
    """An interleaved two-sequence BLOB like Figure 2 (tiny)."""
    blob = MemoryBlob()
    video_entries = []
    audio_entries = []
    for i in range(4):
        frame = bytes([i]) * (10 + i)  # variable-size frames
        offset = blob.append(frame)
        video_entries.append(PlacementEntry(
            element_number=i, start=i, duration=1,
            size=len(frame), blob_offset=offset,
        ))
        samples = bytes([0x80 + i]) * 8
        offset = blob.append(samples)
        audio_entries.append(PlacementEntry(
            element_number=i, start=i * 1764, duration=1764,
            size=8, blob_offset=offset,
        ))
    interp = Interpretation(blob, "movie")
    interp.add("video1", video_type, video_descriptor, video_entries)
    interp.add("audio1", audio_type, audio_descriptor, audio_entries,
               time_system=CD_AUDIO_TIME)
    return blob, interp


class TestPlacementEntry:
    def test_end(self):
        assert PlacementEntry(0, 5, 3, 10, 0).end == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(InterpretationError):
            PlacementEntry(-1, 0, 1, 10, 0)
        with pytest.raises(InterpretationError):
            PlacementEntry(0, 0, -1, 10, 0)
        with pytest.raises(InterpretationError):
            PlacementEntry(0, 0, 1, -10, 0)


class TestInterpretedSequence:
    def test_duplicate_element_numbers_rejected(self, video_type,
                                                video_descriptor):
        entries = [
            PlacementEntry(0, 0, 1, 10, 0),
            PlacementEntry(0, 1, 1, 10, 10),
        ]
        with pytest.raises(InterpretationError, match="duplicate"):
            InterpretedSequence("v", video_type, video_descriptor, entries)

    def test_start_order_must_follow_element_order(self, video_type,
                                                   video_descriptor):
        entries = [
            PlacementEntry(0, 5, 1, 10, 0),
            PlacementEntry(1, 3, 1, 10, 10),
        ]
        with pytest.raises(InterpretationError, match="before"):
            InterpretedSequence("v", video_type, video_descriptor, entries)

    def test_entries_sorted_by_element_number(self, video_type,
                                              video_descriptor):
        entries = [
            PlacementEntry(1, 1, 1, 10, 10),
            PlacementEntry(0, 0, 1, 10, 0),
        ]
        seq = InterpretedSequence("v", video_type, video_descriptor, entries)
        assert [e.element_number for e in seq] == [0, 1]

    def test_entry_lookup(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        entry = interp.sequence("video1").entry(2)
        assert entry.size == 12
        with pytest.raises(InterpretationError):
            interp.sequence("video1").entry(99)

    def test_entry_lookup_across_gaps(self, video_type, video_descriptor):
        """Element numbers need not be dense: every present number finds
        its own row, every missing one raises."""
        numbers = [0, 1, 4, 5, 9, 30, 31, 100]
        seq = InterpretedSequence("v", video_type, video_descriptor,
                                  [PlacementEntry(n, i, 1, 10 + n, 10 * i)
                                   for i, n in enumerate(numbers)])
        for number in range(-2, 104):
            if number in numbers:
                entry = seq.entry(number)
                assert (entry.element_number, entry.size) == (number, 10 + number)
            else:
                with pytest.raises(InterpretationError, match="no element"):
                    seq.entry(number)

    def test_entries_at_tick(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        audio = interp.sequence("audio1")
        assert audio.entries_at_tick(1764)[0].element_number == 1
        assert audio.entries_at_tick(1763)[0].element_number == 0
        assert audio.entries_at_tick(99999) == []


class TestTableColumns:
    """The paper's §4.1 logical tables."""

    def test_variable_size_video_table(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        assert interp.sequence("video1").table_columns() == (
            "elementNumber", "elementSize", "blobPlacement",
        )

    def test_constant_size_audio_table(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        assert interp.sequence("audio1").table_columns() == (
            "elementNumber", "blobPlacement",
        )

    def test_non_continuous_needs_full_table(self, video_type,
                                             video_descriptor):
        entries = [
            PlacementEntry(0, 0, 1, 10, 0),
            PlacementEntry(1, 5, 1, 10, 10),  # gap
        ]
        seq = InterpretedSequence("v", video_type, video_descriptor, entries)
        assert seq.table_columns() == (
            "elementNumber", "startTime", "duration",
            "elementDescriptor", "elementSize", "blobPlacement",
        )

    def test_table_rows_match_columns(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        seq = interp.sequence("audio1")
        rows = seq.table()
        # Audio element 0 follows the first (10-byte) video frame in the
        # interleaved BLOB — placement 10, exactly Figure 2's layout.
        assert rows[0] == (0, 10)
        assert len(rows) == 4


class TestMaterialization:
    def test_payloads_read_from_blob(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        stream = interp.materialize("video1")
        assert stream.tuples[2].element.payload == bytes([2]) * 12

    def test_lazy_materialization_skips_reads(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        stream = interp.materialize("video1", read_payloads=False)
        assert stream.tuples[0].element.payload is None
        assert stream.tuples[0].element.size == 10

    def test_decode_hook(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        stream = interp.materialize(
            "video1", decode=lambda raw, entry: len(raw)
        )
        assert [t.element.payload for t in stream] == [10, 11, 12, 13]

    def test_read_element(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        assert interp.read_element("video1", 1) == bytes([1]) * 11

    def test_interleaving_is_transparent(self, blob_and_interpretation):
        # Elements of the two sequences alternate in the BLOB, but each
        # materialized stream is clean — interpretation "encapsulat[es]
        # information about ... BLOB placement".
        _, interp = blob_and_interpretation
        audio = interp.materialize("audio1")
        assert audio.is_uniform()
        assert [t.element.payload[0] for t in audio] == [0x80, 0x81, 0x82, 0x83]

    def test_media_objects(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        objects = interp.media_objects()
        assert [o.name for o in objects] == ["audio1", "video1"]
        assert len(objects[1].stream()) == 4


class TestViews:
    def test_restrict_to_audio(self, blob_and_interpretation):
        # "an alternative view of the BLOB (e.g., only the audio
        # sequence is visible)"
        _, interp = blob_and_interpretation
        view = interp.restrict(["audio1"])
        assert view.names() == ["audio1"]
        assert "video1" not in view
        assert len(view.materialize("audio1")) == 4

    def test_restrict_shares_blob(self, blob_and_interpretation):
        blob, interp = blob_and_interpretation
        view = interp.restrict(["video1"])
        assert view.blob is blob

    def test_duplicate_sequence_rejected(self, blob_and_interpretation,
                                         video_type, video_descriptor):
        _, interp = blob_and_interpretation
        with pytest.raises(InterpretationError, match="already maps"):
            interp.add("video1", video_type, video_descriptor, [])


class TestValidation:
    def test_valid(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        interp.validate()

    def test_placement_beyond_blob_rejected(self, video_type,
                                            video_descriptor):
        blob = MemoryBlob(b"short")
        interp = Interpretation(blob)
        interp.add("v", video_type, video_descriptor, [
            PlacementEntry(0, 0, 1, 100, 0),
        ])
        with pytest.raises(InterpretationError, match="beyond BLOB"):
            interp.validate()

    def test_unknown_sequence(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        with pytest.raises(InterpretationError, match="no sequence"):
            interp.sequence("nope")

    def test_coverage_full(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        assert interp.coverage() == 1.0

    def test_coverage_with_padding(self, video_type, video_descriptor):
        blob = MemoryBlob(b"\x00" * 100)
        interp = Interpretation(blob)
        interp.add("v", video_type, video_descriptor, [
            PlacementEntry(0, 0, 1, 50, 0),
        ])
        assert interp.coverage() == 0.5

    def test_describe_mentions_sequences(self, blob_and_interpretation):
        _, interp = blob_and_interpretation
        text = interp.describe()
        assert "video1" in text and "audio1" in text
