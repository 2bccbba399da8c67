"""JPEG-like intra-frame image/video compression.

A real (simplified) implementation of the pipeline the paper's Figure 2
describes — "The YUV frames are then JPEG compressed using a quality
factor resulting in about 0.5 bits per pixel (this will give VHS
quality)":

1. RGB -> YUV (BT.601), chroma subsampled (default 4:2:2, the paper's
   "YUV 8:2:2");
2. per plane: 8x8 blocks, level-shifted, orthonormal DCT;
3. quantization with Annex-K tables scaled by an IJG-style quality
   factor (this is the hidden parameter a descriptive quality factor
   maps to — see :mod:`repro.core.quality`);
4. DC delta coding + AC (run, level) coding in zigzag order;
5. canonical Huffman entropy coding.

Because frames are compressed independently, encoded sizes vary frame to
frame — exactly the property that forces Figure 2's explicit placement
table ("the encoded video frames are variable sized ... the mapping from
element number to BLOB placement is not a simple multiplication").

Frame format (big-endian)::

    magic 'RJ1\\0' | width u16 | height u16 | quality u8 | scheme u8
    then per plane (Y, U, V): payload length u32 | huffman blob
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs import dct
from repro.codecs.base import Codec, read_header, read_part
from repro.codecs.color import (
    SUBSAMPLING,
    rgb_to_yuv,
    subsample_yuv,
    upsample_yuv,
    yuv_to_rgb,
)
from repro.codecs.huffman import huffman_compress, huffman_decompress
from repro.errors import CodecError

_MAGIC = b"RJ1\x00"
_HEADER = struct.Struct(">4sHHBB")
_SCHEMES = sorted(SUBSAMPLING)

#: End-of-block marker in the (run, level) token stream. Runs are at most
#: 62, so 255 is unambiguous where a run byte is expected.
_EOB = 255


def encode_plane_coefficients(quantized: np.ndarray) -> bytes:
    """Serialize quantized ``(n, 8, 8)`` blocks as a symbol byte stream.

    Per block: signed varint of the DC delta (vs the previous block's
    DC), then (run, level) pairs over the 63 AC coefficients in zigzag
    order, terminated by an end-of-block byte. A signed varint is the
    LEB128 varint of the folded value: ``v`` maps to ``2v`` and ``-v``
    to ``2v - 1``.
    """
    vectors = dct.zigzag_scan(quantized).astype(np.int64)
    dc = vectors[:, 0].copy()
    vectors[1:, 0] -= dc[:-1]
    # Every DC delta and every nonzero AC level, in stream order; each is
    # followed by one byte: the next level's run, or an end-of-block byte
    # before the next block's DC delta and at the end.
    present = vectors != 0
    present[:, 0] = True
    flat = np.flatnonzero(present)
    position = flat & 63
    values = vectors.ravel()[flat]
    values = np.where(values < 0, (-values << 1) - 1, values << 1)
    following = np.append(position[1:], 0)
    suffixes = np.where(following == 0, _EOB, following - position - 1)

    groups = 1
    if len(values):
        top = int(values.max())
        while top >> (7 * groups):
            groups += 1
    if groups == 1:
        # Every varint is one byte. The table below writes the same
        # bytes, but its mask and gather cost more than this interleave.
        out = np.empty(2 * len(values), dtype=np.uint8)
        out[0::2] = values
        out[1::2] = suffixes
        return out.tobytes()
    # One row per value: its 7-bit groups, low first, then its suffix;
    # a group is written when it or a later one is nonzero, and carries
    # the continuation bit when a later one is written.
    digits = values[:, None] >> (7 * np.arange(groups))
    more = digits[:, 1:] > 0
    table = np.empty((len(values), groups + 1), dtype=np.int64)
    table[:, :groups] = digits & 0x7F
    table[:, :groups - 1] |= more << 7
    table[:, groups] = suffixes
    keep = np.ones(table.shape, dtype=bool)
    keep[:, 1:groups] = more
    return table[keep].astype(np.uint8).tobytes()


def decode_plane_coefficients(data: bytes, block_count: int) -> np.ndarray:
    """Invert :func:`encode_plane_coefficients`.

    A plane whose values all fit one-byte varints (every DC delta and
    level within -64..63) is decoded by array operations; any other
    plane is parsed one varint at a time.
    """
    if 2 * block_count > len(data):  # a block takes a DC byte and an EOB
        raise CodecError("coefficient stream exhausted mid-block")
    decoded = _decode_one_byte_values(data, block_count)
    return _parse_varints(data, block_count) if decoded is None else decoded


def _decode_one_byte_values(data: bytes, block_count: int) -> np.ndarray | None:
    """The plane, when every byte at an even offset is below 0x80.

    Every varint is then one byte: values sit at even offsets and runs
    and end-of-block bytes at odd ones, and the ``block_count``-th
    end-of-block byte ends the plane. None when that does not hold, and
    for a plane the parse rejects (too few blocks, a position past 63,
    a DC outside int16), so that the parse decides it.
    """
    if not block_count or not data[0::2].isascii():
        return None
    stream = np.frombuffer(data, dtype=np.uint8)
    marks = stream[1::2]
    ends = np.flatnonzero(marks == _EOB)[:block_count]
    if len(ends) < block_count:
        return None
    count = int(ends[-1]) + 1
    values = stream[0:2 * count:2].astype(np.intp)
    levels = (values >> 1) ^ -(values & 1)  # unfold the sign
    firsts = np.empty(block_count, dtype=np.intp)  # each block's DC
    firsts[0] = 0
    firsts[1:] = ends[:-1] + 1
    levels[firsts] = np.cumsum(levels[firsts])
    # A value's zigzag position: one past each run since its block's DC.
    steps = marks[:count] + np.intp(1)
    travelled = np.cumsum(steps) - steps
    sizes = ends - firsts + 1
    positions = travelled - np.repeat(travelled[firsts], sizes)
    if positions.max() > 63 or levels.min() < -32768 or levels.max() > 32767:
        return None
    vectors = np.zeros(block_count * 64, dtype=np.int16)
    bases = np.repeat(np.arange(0, 64 * block_count, 64), sizes)
    vectors[bases + dct.ZIGZAG[positions]] = levels
    return vectors.reshape(block_count, 8, 8)


def _parse_varints(data: bytes, block_count: int) -> np.ndarray:
    """Decode ``data`` one varint at a time."""
    vectors = np.zeros(block_count * 64, dtype=np.int16)
    coefficients = memoryview(vectors)
    offset = 0
    dc = 0
    try:
        for base in range(0, block_count * 64, 64):
            index = base
            while True:  # one varint per coefficient, the DC delta first
                value = data[offset]
                offset += 1
                if value > 0x7F:
                    value &= 0x7F
                    shift = 7
                    while True:
                        byte = data[offset]
                        offset += 1
                        value |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift > 63:
                            raise CodecError("varint too long")
                level = -(value >> 1) - 1 if value & 1 else value >> 1
                if index == base:
                    dc += level
                    level = dc
                coefficients[index] = level
                run = data[offset]
                offset += 1
                if run == _EOB:
                    break
                index += run + 1
                if index - base > 63:
                    raise CodecError(f"AC position {index - base} out of range")
    except IndexError:
        raise CodecError("coefficient stream exhausted mid-block") from None
    except ValueError:  # the memoryview takes int16 values only
        raise CodecError("coefficient outside the int16 range") from None
    return dct.zigzag_unscan(vectors.reshape(block_count, 64))


def _encode_plane(plane: np.ndarray, table: np.ndarray) -> bytes:
    blocks, shape = dct.to_blocks(plane - 128.0)
    coefficients = dct.forward_dct(blocks)
    quantized = dct.quantize(coefficients, table)
    symbols = encode_plane_coefficients(quantized)
    return huffman_compress(symbols)


def _decode_plane(data: bytes, shape: tuple[int, int],
                  table: np.ndarray) -> np.ndarray:
    h, w = shape
    rows = (h + dct.BLOCK - 1) // dct.BLOCK
    cols = (w + dct.BLOCK - 1) // dct.BLOCK
    symbols = huffman_decompress(data)
    quantized = decode_plane_coefficients(symbols, rows * cols)
    coefficients = dct.dequantize(quantized, table)
    blocks = dct.inverse_dct(coefficients)
    return dct.from_blocks(blocks, shape) + 128.0


class JpegLikeCodec(Codec):
    """Intra-frame codec over uint8 RGB frames.

    Parameters
    ----------
    quality:
        1..100 IJG-style quality (the hidden parameter behind the
        descriptive quality factors of :mod:`repro.core.quality`).
    subsampling:
        Chroma scheme; the paper's example uses ``"4:2:2"``.
    """

    name = "jpeg-like"

    def __init__(self, quality: int = 50, subsampling: str = "4:2:2"):
        if subsampling not in SUBSAMPLING:
            raise CodecError(f"unknown subsampling {subsampling!r}")
        self.quality = quality
        self.subsampling = subsampling
        self._luma_table = dct.scale_quant_table(dct.LUMA_QUANT, quality)
        self._chroma_table = dct.scale_quant_table(dct.CHROMA_QUANT, quality)

    @property
    def is_lossy(self) -> bool:
        return True

    def encode(self, payload: np.ndarray) -> bytes:
        """Encode one ``(h, w, 3)`` uint8 RGB frame."""
        y, u, v = subsample_yuv(*rgb_to_yuv(payload), self.subsampling)
        h, w = payload.shape[:2]
        scheme_code = _SCHEMES.index(self.subsampling)
        parts = [_HEADER.pack(_MAGIC, w, h, self.quality, scheme_code)]
        for plane, table in ((y, self._luma_table),
                             (u, self._chroma_table),
                             (v, self._chroma_table)):
            blob = _encode_plane(plane, table)
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    def decode(self, data: bytes) -> np.ndarray:
        """Decode back to a uint8 RGB frame."""
        w, h, quality, scheme_code = read_header(_HEADER, _MAGIC, data)
        if scheme_code >= len(_SCHEMES):
            raise CodecError(f"bad subsampling code {scheme_code}")
        scheme = _SCHEMES[scheme_code]
        fy, fx = SUBSAMPLING[scheme]
        luma_table = dct.scale_quant_table(dct.LUMA_QUANT, quality)
        chroma_table = dct.scale_quant_table(dct.CHROMA_QUANT, quality)
        chroma_shape = ((h + fy - 1) // fy, (w + fx - 1) // fx)
        offset = _HEADER.size
        planes = []
        for shape, table in (((h, w), luma_table),
                             (chroma_shape, chroma_table),
                             (chroma_shape, chroma_table)):
            part, offset = read_part(data, offset)
            planes.append(_decode_plane(part, shape, table))
        y, u, v = upsample_yuv(*planes, scheme)
        return yuv_to_rgb(y, u, v)

    def bits_per_pixel(self, frame: np.ndarray) -> float:
        """Measured encoded bits per pixel for ``frame``."""
        encoded = self.encode(frame)
        h, w = frame.shape[:2]
        return len(encoded) * 8 / (h * w)


def psnr(original: np.ndarray, decoded: np.ndarray) -> float:
    """Peak signal-to-noise ratio (dB) between two uint8 images."""
    diff = original.astype(np.float64) - decoded.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
