"""Canonical Huffman coding over byte symbols.

The entropy-coding substrate for the JPEG-like and MPEG-like codecs. The
code is *canonical*: only the per-symbol code lengths need to be stored
(256 bytes of header), and both encoder and decoder rebuild identical
codebooks from them.

Code lengths are capped at 15 bits by flattening the frequency
distribution when needed (the classic JPEG-style length limit), so the
header stays one byte per symbol.
"""

from __future__ import annotations

import heapq
from collections import Counter
from functools import cached_property

import numpy as np

from repro.errors import CodecError

MAX_CODE_LENGTH = 15
#: Bit offsets within a byte, for the windows that start in it.
_BIT_OFFSETS = np.arange(8)


def code_lengths(data: bytes) -> list[int]:
    """Per-symbol (0..255) code lengths for ``data``.

    Symbols absent from ``data`` get length 0. A single-symbol input gets
    length 1 (a zero-length code cannot be emitted).
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
        lengths = _huffman_lengths(frequencies)
        if max(lengths.values()) <= MAX_CODE_LENGTH:
            break
        # Flatten the distribution and retry; guaranteed to terminate
        # because in the limit all frequencies are equal (length <= 8).
        frequencies = {
            s: max(1, f // 2) for s, f in frequencies.items()
        }
        if all(f == 1 for f in frequencies.values()):
            lengths = _huffman_lengths(frequencies)
            break

    result = [0] * 256
    for symbol, length in lengths.items():
        result[symbol] = length
    return result


def _huffman_lengths(frequencies: dict[int, int]) -> dict[int, int]:
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


class HuffmanCodec:
    """Encode/decode byte strings with a canonical Huffman code.

    Each side builds its own table on first use: the encoder a bit
    string per symbol, the decoder a table over every ``width``-bit
    window, ``width`` being the longest code length.
    """

    def __init__(self, lengths: list[int]):
        if len(lengths) != 256:
            raise CodecError(f"need 256 code lengths, got {len(lengths)}")
        if min(lengths) < 0 or max(lengths) > MAX_CODE_LENGTH:
            raise CodecError(f"code lengths must be in 0..{MAX_CODE_LENGTH}")
        # Kraft: prefix-free codes of these lengths exist iff the sum of
        # 2**-l is at most 1; in units of 2**-MAX_CODE_LENGTH:
        full = 1 << MAX_CODE_LENGTH
        if sum(map(full.__rshift__, filter(None, lengths))) > full:
            raise CodecError("code lengths over-subscribe the code space")
        self.lengths = list(lengths)

    @classmethod
    def for_data(cls, data: bytes) -> "HuffmanCodec":
        return cls(code_lengths(data))

    @cached_property
    def _bit_strings(self) -> list[str | None]:
        strings: list[str | None] = [None] * 256
        for symbol, (code, length) in canonical_codes(self.lengths).items():
            strings[symbol] = format(code, f"0{length}b")
        return strings

    def encode(self, data: bytes) -> bytes:
        """Encode; the result is framed with the original length.

        The codes are joined as one string of ``0``/``1`` and converted
        to bytes in one call.
        """
        strings = self._bit_strings
        try:
            bits = "".join(map(strings.__getitem__, data))
        except TypeError:
            symbol = next(byte for byte in data if strings[byte] is None)
            raise CodecError(f"symbol {symbol} not in codebook") from None
        bits += "0" * (-len(bits) % 8)
        payload = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
        return len(data).to_bytes(4, "big") + payload

    @cached_property
    def _window_tables(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(width, length_of, symbol_of)`` over every ``width``-bit window.

        In canonical order, each code of length ``l`` owns the next
        ``2**(width - l)`` windows; windows past the last code start
        none and get length 0.
        """
        codes = canonical_codes(self.lengths)
        width = max(self.lengths)
        lengths = [length for _, length in codes.values()]
        spans = [1 << (width - length) for length in lengths]
        length_of = np.zeros(1 << width, dtype=np.intp)
        symbol_of = np.zeros(1 << width, dtype=np.uint8)
        length_of[:sum(spans)] = np.repeat(lengths, spans)
        symbol_of[:sum(spans)] = np.repeat(list(codes), spans)
        return width, length_of, symbol_of

    def decode(self, data: bytes) -> bytes:
        """Invert :meth:`encode` with one table lookup per symbol.

        NumPy forms the window that starts at every bit position and
        looks up the code it starts; a walk from bit 0 then hops four
        codes at a time, and three gathers fill in the starts between
        hops. Positions past the end lead to one sink, windows that
        start no code to another.
        """
        if len(data) < 4:
            raise CodecError("huffman frame too short")
        count = int.from_bytes(data[:4], "big")
        if not count:
            return b""
        total = (len(data) - 4) * 8
        if count > total:  # every code is at least one bit long
            raise CodecError("bit stream exhausted")
        width, length_of, symbol_of = self._window_tables
        padded = np.frombuffer(data[4:] + b"\0\0", dtype=np.uint8).astype(np.intp)
        words = (padded[:-2] << 16) | (padded[1:-1] << 8) | padded[2:]
        windows = ((words[:, None] >> (24 - width - _BIT_OFFSETS))
                   & ((1 << width) - 1)).ravel()
        lengths = length_of[windows]
        exhausted = total + width
        invalid = exhausted + 1
        step = np.full(invalid + 1, exhausted, dtype=np.intp)
        step[:total] = np.where(lengths, np.arange(total) + lengths, invalid)
        step[invalid] = invalid
        two = step[step]  # composed, the sinks stay absorbing
        hop = memoryview(two[two])
        position = 0
        hops = [0] + [position := hop[position] for _ in range(count // 4)]
        first = np.fromiter(hops, dtype=np.intp, count=len(hops))
        second = step[first]
        third = step[second]
        path = np.stack((first, second, third, step[third]), axis=1).ravel()
        position = path[count]  # where the walk stands after count codes
        if position == invalid:
            raise CodecError("invalid huffman bit stream")
        if position > total:
            raise CodecError("bit stream exhausted")
        return symbol_of[windows[path[:count]]].tobytes()

    def header(self) -> bytes:
        """The 256-byte code-length header."""
        return bytes(self.lengths)

    @classmethod
    def from_header(cls, header: bytes) -> "HuffmanCodec":
        if len(header) != 256:
            raise CodecError(f"huffman header must be 256 bytes, got {len(header)}")
        return cls(list(header))


#: Mode bytes for the one-shot container: raw passthrough or Huffman
#: with an RLE-compacted code-length header.
_MODE_RAW = 0
_MODE_HUFFMAN = 1


def huffman_compress(data: bytes) -> bytes:
    """One-shot container: whichever of raw / Huffman-coded is smaller.

    The Huffman form stores the 256 code lengths RLE-compressed (sparse
    alphabets shrink to a few dozen bytes), so small payloads — all-zero
    P-frame residuals, for instance — don't pay a fixed 256-byte tax.
    """
    from repro.codecs.rle import rle_encode

    codec = HuffmanCodec.for_data(data)
    header = rle_encode(codec.header())
    framed = (
        bytes([_MODE_HUFFMAN])
        + len(header).to_bytes(2, "big")
        + header
        + codec.encode(data)
    )
    raw = bytes([_MODE_RAW]) + data
    return raw if len(raw) <= len(framed) else framed


def huffman_decompress(data: bytes) -> bytes:
    """Invert :func:`huffman_compress`."""
    from repro.codecs.rle import rle_decode

    if not data:
        raise CodecError("empty huffman container")
    mode = data[0]
    if mode == _MODE_RAW:
        return data[1:]
    if mode != _MODE_HUFFMAN:
        raise CodecError(f"unknown huffman container mode {mode}")
    if len(data) < 3:
        raise CodecError("huffman container too short")
    header_length = int.from_bytes(data[1:3], "big")
    header_end = 3 + header_length
    if header_end > len(data):
        raise CodecError("huffman container header truncated")
    header = rle_decode(data[3:header_end])
    codec = HuffmanCodec.from_header(header)
    return codec.decode(data[header_end:])
