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
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    symbols = np.flatnonzero(counts)
    lengths = [0] * 256
    if len(symbols) < 2:
        for symbol in symbols.tolist():
            lengths[symbol] = 1
        return lengths
    frequencies = counts[symbols]
    while True:
        depths = _huffman_lengths(frequencies)
        if max(depths) <= MAX_CODE_LENGTH:
            break
        # Flatten the distribution and retry; guaranteed to terminate
        # because in the limit all frequencies are equal (length <= 8).
        frequencies = np.maximum(frequencies >> 1, 1)
    for symbol, length in zip(symbols.tolist(), depths):
        lengths[symbol] = length
    return lengths


def _huffman_lengths(frequencies: np.ndarray) -> list[int]:
    """Huffman code lengths of leaves given in ascending symbol order.

    The leaves sorted by (frequency, symbol) and the merged nodes in the
    order they are made form two queues, each sorted by frequency: a
    merge sums two nodes no smaller than the previous merge's two. Taking
    the leaf on a tie pops nodes in the (frequency, id) order of a heap
    in which a leaf's id is its symbol and a merged node's is 256 plus
    its merge number.
    """
    order = np.argsort(frequencies, kind="stable")
    leaves = frequencies[order].tolist()
    count = len(leaves)
    # Node ids: the leaves 0..count-1 in queue order, then the merges.
    # A sentinel larger than any sum ends each queue.
    sentinel = sum(leaves) + 1
    leaves.append(sentinel)
    sums = [sentinel] * count
    parent = [0] * (2 * count - 1)
    leaf = merged = 0
    for node in range(count, 2 * count - 1):
        if leaves[leaf] <= sums[merged]:
            first = leaves[leaf]
            parent[leaf] = node
            leaf += 1
        else:
            first = sums[merged]
            parent[count + merged] = node
            merged += 1
        if leaves[leaf] <= sums[merged]:
            second = leaves[leaf]
            parent[leaf] = node
            leaf += 1
        else:
            second = sums[merged]
            parent[count + merged] = node
            merged += 1
        sums[node - count] = first + second
    # A parent's id exceeds its children's, so from the root down each
    # node's depth is its parent's plus one.
    depth = [0] * (2 * count - 1)
    for node in range(2 * count - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = [0] * count
    for position, symbol in enumerate(order.tolist()):
        lengths[symbol] = depth[position]
    return lengths


class HuffmanCodec:
    """Encode/decode byte strings with a canonical Huffman code.

    Both sides read the canonical order of the codes as arrays, built on
    first use: the encoder a left-aligned code per symbol, the decoder a
    table over every ``width``-bit window, ``width`` being the longest
    code length.
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
    def _canonical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(symbols, lengths, starts)`` of the codes in canonical order.

        Codes are assigned in (length, symbol) order, the rule that lets
        the decoder rebuild them from lengths alone. A code of length
        ``l`` owns ``2**(15 - l)`` units of the code space; its start is
        the units owned before it, and its code the top ``l`` of those
        15 bits.
        """
        lengths = np.array(self.lengths)
        order = np.argsort(lengths, kind="stable")
        symbols = order[len(lengths) - np.count_nonzero(lengths):]
        ordered = lengths[symbols]
        units = 1 << (MAX_CODE_LENGTH - ordered)
        return symbols, ordered, np.cumsum(units) - units

    @cached_property
    def _encoder_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``(length_of, aligned_of)``: per symbol, its code length and
        its code shifted to fill 15 bits (both 0 for an absent one)."""
        symbols, _, starts = self._canonical
        aligned_of = np.zeros(256, dtype=np.int64)
        aligned_of[symbols] = starts
        return np.array(self.lengths, dtype=np.int64), aligned_of

    def encode(self, data: bytes) -> bytes:
        """Encode; the result is framed with the original length.

        A code is at most 15 bits long, so at its bit offset it lies in
        the 24 bits from the byte it starts in. Codes starting in one
        byte fill disjoint bits of that window, so one weighted
        ``bincount`` sums each byte's window, and each output byte joins
        the top, middle and low bytes of three consecutive windows.
        """
        length_of, aligned_of = self._encoder_tables
        symbols = np.frombuffer(data, dtype=np.uint8)
        lengths = length_of[symbols]
        if not lengths.all():
            symbol = symbols[np.argmin(lengths)]
            raise CodecError(f"symbol {symbol} not in codebook")
        ends = np.cumsum(lengths)
        size = (int(ends[-1]) + 7) >> 3 if len(ends) else 0
        starts = ends - lengths
        words = aligned_of[symbols] << (9 - (starts & 7))
        windows = np.bincount(starts >> 3, weights=words,
                              minlength=size).astype(np.int64)
        payload = windows >> 16
        payload[1:] |= (windows[:-1] >> 8) & 0xFF
        payload[2:] |= windows[:-2] & 0xFF
        return len(data).to_bytes(4, "big") + payload.astype(np.uint8).tobytes()

    @cached_property
    def _window_tables(self) -> tuple[int, np.ndarray, np.ndarray]:
        """``(width, length_of, symbol_of)`` over every ``width``-bit window.

        In canonical order, each code of length ``l`` owns the next
        ``2**(width - l)`` windows; windows past the last code start
        none and get length 0.
        """
        symbols, lengths, _ = self._canonical
        width = max(self.lengths)
        spans = 1 << (width - lengths)
        owned = int(spans.sum())
        length_of = np.zeros(1 << width, dtype=np.intp)
        symbol_of = np.zeros(1 << width, dtype=np.uint8)
        length_of[:owned] = np.repeat(lengths, spans)
        symbol_of[:owned] = np.repeat(symbols, spans)
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
