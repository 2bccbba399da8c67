"""Tests for MIDI event encoding."""

import pytest

from repro.codecs.midi import (
    MidiEvent,
    NOTE_OFF,
    NOTE_ON,
    PROGRAM_CHANGE,
    encode_events,
)
from repro.errors import CodecError
from tests.codecs.reference import decode_events


class TestMidiEvent:
    def test_note_on(self):
        event = MidiEvent.note_on(10, 60, 100, channel=3)
        assert event.status == NOTE_ON
        assert event.channel == 3
        assert event.is_note_on
        assert not event.is_note_off

    def test_note_on_velocity_zero_is_off(self):
        event = MidiEvent(0, NOTE_ON, 0, 60, 0)
        assert event.is_note_off
        assert not event.is_note_on

    def test_note_off(self):
        assert MidiEvent.note_off(5, 60).is_note_off

    def test_validation(self):
        with pytest.raises(CodecError):
            MidiEvent(-1, NOTE_ON, 0, 60, 64)
        with pytest.raises(CodecError):
            MidiEvent(0, 0x42, 0, 60, 64)
        with pytest.raises(CodecError):
            MidiEvent(0, NOTE_ON, 16, 60, 64)
        with pytest.raises(CodecError):
            MidiEvent(0, NOTE_ON, 0, 200, 64)

    def test_encoded_size(self):
        assert MidiEvent.note_on(0, 60).encoded_size() == 4
        assert MidiEvent.program_change(0, 5).encoded_size() == 3


class TestWireFormat:
    def test_roundtrip(self):
        events = [
            MidiEvent.program_change(0, 12, channel=1),
            MidiEvent.note_on(0, 60, 90),
            MidiEvent.note_on(480, 64, 90),
            MidiEvent.note_off(960, 60),
            MidiEvent.note_off(960, 64),
        ]
        assert decode_events(encode_events(events)) == events

    def test_empty(self):
        assert decode_events(encode_events([])) == []

    def test_delta_times_compact(self):
        close = [MidiEvent.note_on(i, 60) for i in range(0, 50, 10)]
        encoded = encode_events(close)
        # 1 delta byte + 3 event bytes each.
        assert len(encoded) == 5 * 4

    def test_large_delta(self):
        events = [MidiEvent.note_on(0, 60), MidiEvent.note_on(1_000_000, 61)]
        assert decode_events(encode_events(events)) == events

    def test_out_of_order_rejected(self):
        events = [MidiEvent.note_on(10, 60), MidiEvent.note_on(5, 61)]
        with pytest.raises(CodecError, match="out of order"):
            encode_events(events)

    def test_truncation_detected(self):
        encoded = encode_events([MidiEvent.note_on(0, 60)])
        with pytest.raises(CodecError):
            decode_events(encoded[:-1])

    def test_simultaneous_events_allowed(self):
        chord = [MidiEvent.note_on(0, p) for p in (60, 64, 67)]
        assert decode_events(encode_events(chord)) == chord
