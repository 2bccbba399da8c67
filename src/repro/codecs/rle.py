"""Byte-level run-length encoding.

The simplest compression substrate: used on its own for synthetic flat
imagery and as a building block elsewhere. The format is a sequence of
``(count, byte)`` pairs with ``count`` in 1..255 — decodable without any
side information, and never worse than 2x expansion.
"""

from __future__ import annotations

from repro.errors import CodecError


def rle_encode(data: bytes) -> bytes:
    """Encode ``data`` as ``(count, byte)`` pairs."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        byte = data[i]
        run = 1
        while run < 255 and i + run < n and data[i + run] == byte:
            run += 1
        out.append(run)
        out.append(byte)
        i += run
    return bytes(out)


def rle_decode(data: bytes) -> bytes:
    """Invert :func:`rle_encode`."""
    if len(data) % 2:
        raise CodecError(f"RLE data has odd length {len(data)}")
    out = bytearray()
    for i in range(0, len(data), 2):
        count = data[i]
        if count == 0:
            raise CodecError(f"zero run length at offset {i}")
        out.extend(data[i + 1:i + 2] * count)
    return bytes(out)
