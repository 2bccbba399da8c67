"""Unsigned LEB128 varints, for the MIDI delta-time encoder.

The coefficient coders of :mod:`repro.codecs.jpeg_like` write and parse
their signed varints inline. Nothing in the library reads an unsigned
varint back; the reader is a test oracle (``tests/codecs/reference.py``).
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

