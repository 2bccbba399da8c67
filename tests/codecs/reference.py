"""Reference coders: the slow, obviously-correct oracles for the codec kernels.

The library builds Huffman code lengths with a two-queue merge, assigns
canonical codes and packs them with array kernels, decodes through a
window table, and writes and parses the coefficient varints without a
call per value. These are what it replaced: the heap-built code
lengths, the dict of canonical codes, the string-joining and per-bit
Huffman coders and the per-call varint coders. Property tests hold the
library to them byte for byte.

Three inverses live here too, because the library only ever writes
their formats: the unsigned varint reader, the MIDI event decoder and
the CMYK recombination. Tests hold ``write_uvarint``, ``encode_events``
and ``rgb_to_cmyk`` to them.

One fix against the originals: the sign fold is ``v << 1`` for ``v >= 0``
and ``(-v << 1) - 1`` below zero. The C idiom ``(v << 1) ^ (v >> 63)``
is wrong for Python ints of 2**63 and above (2**63 came back as
``-(2**63 + 1)``).
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np

from repro.codecs import dct
from repro.codecs.huffman import MAX_CODE_LENGTH
from repro.codecs.midi import PROGRAM_CHANGE, MidiEvent
from repro.codecs.varint import write_uvarint
from repro.errors import CodecError

EOB = 255


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


def decode_events(data: bytes) -> list[MidiEvent]:
    """Invert :func:`repro.codecs.midi.encode_events`."""
    events = []
    offset = 0
    tick = 0
    while offset < len(data):
        delta, offset = read_uvarint(data, offset)
        tick += delta
        if offset >= len(data):
            raise CodecError("truncated event after delta time")
        status_byte = data[offset]
        offset += 1
        status = status_byte & 0xF0
        channel = status_byte & 0x0F
        if status == PROGRAM_CHANGE:
            if offset + 1 > len(data):
                raise CodecError("truncated program change")
            data1, data2 = data[offset], 0
            offset += 1
        else:
            if offset + 2 > len(data):
                raise CodecError("truncated note event")
            data1, data2 = data[offset], data[offset + 1]
            offset += 2
        events.append(MidiEvent(tick, status, channel, data1, data2))
    return events


def cmyk_to_rgb(cmyk: np.ndarray) -> np.ndarray:
    """Recombine CMYK plates into uint8 RGB."""
    if cmyk.ndim != 3 or cmyk.shape[-1] != 4:
        raise CodecError(f"expected (h, w, 4) CMYK, got {cmyk.shape}")
    c, m, y, k = (cmyk[..., i] for i in range(4))
    r = (1.0 - np.minimum(1.0, c * (1.0 - k) + k)) * 255.0
    g = (1.0 - np.minimum(1.0, m * (1.0 - k) + k)) * 255.0
    b = (1.0 - np.minimum(1.0, y * (1.0 - k) + k)) * 255.0
    return np.clip(np.rint(np.stack([r, g, b], axis=-1)), 0, 255).astype(np.uint8)


def zigzag_int(value: int) -> int:
    """Fold a signed int to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag_int(value: int) -> int:
    """Invert :func:`zigzag_int`."""
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


def write_svarint(out: bytearray, value: int) -> None:
    """Append a signed (zigzag-folded) varint."""
    write_uvarint(out, zigzag_int(value))


def read_svarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read a signed (zigzag-folded) varint."""
    value, offset = read_uvarint(data, offset)
    return unzigzag_int(value), offset


def code_lengths(data: bytes) -> list[int]:
    """Per-symbol code lengths from a heap-built Huffman tree.

    A distribution whose longest code exceeds ``MAX_CODE_LENGTH`` is
    flattened (every frequency halved, at least 1) and built again.
    """
    counts = Counter(data)
    if not counts:
        return [0] * 256
    if len(counts) == 1:
        lengths = [0] * 256
        lengths[next(iter(counts))] = 1
        return lengths

    frequencies = dict(counts)
    while True:
        lengths = huffman_lengths(frequencies)
        if max(lengths.values()) <= MAX_CODE_LENGTH:
            break
        # Flatten the distribution and retry; guaranteed to terminate
        # because in the limit all frequencies are equal (length <= 8).
        frequencies = {
            s: max(1, f // 2) for s, f in frequencies.items()
        }
        if all(f == 1 for f in frequencies.values()):
            lengths = huffman_lengths(frequencies)
            break

    result = [0] * 256
    for symbol, length in lengths.items():
        result[symbol] = length
    return result


def huffman_lengths(frequencies: dict[int, int]) -> dict[int, int]:
    """Standard Huffman tree construction returning code lengths.

    A leaf's id is its symbol and a merged node's is 256 plus its merge
    number; equal frequencies pop the smaller id first.
    """
    heap = [(freq, symbol) for symbol, freq in frequencies.items()]
    heapq.heapify(heap)
    merges: list[tuple[int, int]] = []
    while len(heap) > 1:
        fa, a = heapq.heappop(heap)
        fb, b = heapq.heappop(heap)
        heapq.heappush(heap, (fa + fb, 256 + len(merges)))
        merges.append((a, b))
    # From the root (the last merge) down, each child is one level deeper.
    depths: dict[int, int] = {}
    for node in range(len(merges) - 1, -1, -1):
        depth = depths.get(256 + node, 0) + 1
        for child in merges[node]:
            depths[child] = depth
    return {node: depth for node, depth in depths.items() if node < 256}


def canonical_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """Canonical ``symbol -> (code, length)`` assignment from lengths.

    Codes are assigned in (length, symbol) order, the canonical rule that
    lets the decoder reconstruct the table from lengths alone.
    """
    ordered = sorted(
        (length, symbol) for symbol, length in enumerate(lengths) if length
    )
    codes: dict[int, tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for length, symbol in ordered:
        code <<= (length - previous_length)
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


def join_encode(lengths: list[int], data: bytes) -> bytes:
    """Canonical Huffman encode through one joined ``0``/``1`` string."""
    strings: list[str | None] = [None] * 256
    for symbol, (code, length) in canonical_codes(lengths).items():
        strings[symbol] = format(code, f"0{length}b")
    try:
        bits = "".join(map(strings.__getitem__, data))
    except TypeError:
        symbol = next(byte for byte in data if strings[byte] is None)
        raise CodecError(f"symbol {symbol} not in codebook") from None
    bits += "0" * (-len(bits) % 8)
    payload = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    return len(data).to_bytes(4, "big") + payload


def huffman_encode(lengths: list[int], data: bytes) -> bytes:
    """Canonical Huffman encode, framed with the symbol count."""
    codes = canonical_codes(lengths)
    accumulator = 0
    bit_count = 0
    for byte in data:
        if byte not in codes:
            raise CodecError(f"symbol {byte} not in codebook")
        code, length = codes[byte]
        accumulator = (accumulator << length) | code
        bit_count += length
    accumulator <<= -bit_count % 8
    payload = accumulator.to_bytes((bit_count + 7) // 8, "big")
    return len(data).to_bytes(4, "big") + payload


def huffman_decode(lengths: list[int], data: bytes) -> bytes:
    """Canonical Huffman decode, one bit and one dict lookup at a time."""
    if len(data) < 4:
        raise CodecError("huffman frame too short")
    count = int.from_bytes(data[:4], "big")
    payload = data[4:]
    table = {(length, code): symbol
             for symbol, (code, length) in canonical_codes(lengths).items()}
    max_length = max(lengths)
    total_bits = len(payload) * 8
    bit_position = 0
    out = bytearray()
    for _ in range(count):
        code = 0
        length = 0
        while True:
            if bit_position >= total_bits:
                raise CodecError("bit stream exhausted")
            bit = (payload[bit_position >> 3] >> (7 - (bit_position & 7))) & 1
            bit_position += 1
            code = (code << 1) | bit
            length += 1
            symbol = table.get((length, code))
            if symbol is not None:
                out.append(symbol)
                break
            if length > max_length:
                raise CodecError("invalid huffman bit stream")
    return bytes(out)


def encode_plane_coefficients(quantized: np.ndarray) -> bytes:
    """DC delta, then (run, level) pairs and an end-of-block byte per block."""
    out = bytearray()
    previous_dc = 0
    for vector in dct.zigzag_scan(quantized).tolist():
        write_svarint(out, vector[0] - previous_dc)
        previous_dc = vector[0]
        previous = 0
        for position in range(1, 64):
            if vector[position]:
                out.append(position - previous - 1)
                previous = position
                write_svarint(out, vector[position])
        out.append(EOB)
    return bytes(out)


def decode_plane_coefficients(data: bytes, block_count: int) -> np.ndarray:
    """Invert :func:`encode_plane_coefficients`, one varint call at a time."""
    vectors = np.zeros((block_count, 64), dtype=np.int16)
    offset = 0
    previous_dc = 0
    for index in range(block_count):
        delta, offset = read_svarint(data, offset)
        previous_dc += delta
        vectors[index, 0] = _int16(previous_dc)
        position = 0
        while True:
            if offset >= len(data):
                raise CodecError("coefficient stream exhausted mid-block")
            run = data[offset]
            offset += 1
            if run == EOB:
                break
            position += run + 1
            if position > 63:
                raise CodecError(f"AC position {position} out of range")
            level, offset = read_svarint(data, offset)
            vectors[index, position] = _int16(level)
    return dct.zigzag_unscan(vectors)


def _int16(value: int) -> int:
    if not -32768 <= value <= 32767:
        raise CodecError("coefficient outside the int16 range")
    return value
