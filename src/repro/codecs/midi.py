"""MIDI event encoding: the event-based stream substrate.

"An example is MIDI where elements are musical events of the form 'Start
Note X' and 'Stop Note Y'" (§3.3). Events are duration-less, so MIDI
streams are the paper's event-based category.

The wire format follows Standard MIDI File track data: variable-length
delta times between events, then a status byte (note-on ``0x9c``,
note-off ``0x8c``, program change ``0xCc`` with ``c`` the channel) and
its data bytes. Running status is not used — one status byte per event —
to keep the decoder obvious.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codecs.varint import write_uvarint
from repro.errors import CodecError

NOTE_OFF = 0x80
NOTE_ON = 0x90
PROGRAM_CHANGE = 0xC0


@dataclass(frozen=True, slots=True)
class MidiEvent:
    """One MIDI event: the media element of an event-based stream.

    ``tick`` is the event's discrete start time (its ``s_i``); its
    duration is always zero.
    """

    tick: int
    status: int
    channel: int
    data1: int
    data2: int = 0

    def __post_init__(self) -> None:
        if self.tick < 0:
            raise CodecError("event tick must be non-negative")
        if self.status not in (NOTE_OFF, NOTE_ON, PROGRAM_CHANGE):
            raise CodecError(f"unsupported status 0x{self.status:02X}")
        if not 0 <= self.channel < 16:
            raise CodecError(f"channel must be 0..15, got {self.channel}")
        for value in (self.data1, self.data2):
            if not 0 <= value < 128:
                raise CodecError(f"data byte out of range: {value}")

    @classmethod
    def note_on(cls, tick: int, pitch: int, velocity: int = 64,
                channel: int = 0) -> "MidiEvent":
        return cls(tick, NOTE_ON, channel, pitch, velocity)

    @classmethod
    def note_off(cls, tick: int, pitch: int, channel: int = 0) -> "MidiEvent":
        return cls(tick, NOTE_OFF, channel, pitch, 0)

    @classmethod
    def program_change(cls, tick: int, program: int, channel: int = 0) -> "MidiEvent":
        return cls(tick, PROGRAM_CHANGE, channel, program)

    @property
    def is_note_on(self) -> bool:
        """True for a note-on with nonzero velocity (velocity 0 = off)."""
        return self.status == NOTE_ON and self.data2 > 0

    @property
    def is_note_off(self) -> bool:
        return self.status == NOTE_OFF or (self.status == NOTE_ON and self.data2 == 0)

    def encoded_size(self) -> int:
        """Size of this event in the wire format (with its delta time)."""
        return len(encode_events([self]))


def encode_events(events: list[MidiEvent]) -> bytes:
    """Encode time-ordered events with delta-time prefixes."""
    out = bytearray()
    previous_tick = 0
    for event in events:
        if event.tick < previous_tick:
            raise CodecError(
                f"events out of order: tick {event.tick} after {previous_tick}"
            )
        write_uvarint(out, event.tick - previous_tick)
        previous_tick = event.tick
        out.append(event.status | event.channel)
        out.append(event.data1)
        if event.status != PROGRAM_CHANGE:
            out.append(event.data2)
    return bytes(out)
