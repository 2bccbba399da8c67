"""Unsigned LEB128 varints, for the MIDI delta-time encoder.

The coefficient coders of :mod:`repro.codecs.jpeg_like` write and parse
their signed varints inline.
"""

from __future__ import annotations

from repro.errors import CodecError


def write_uvarint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read an unsigned varint at ``offset``; return (value, new_offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("varint stream exhausted")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")
