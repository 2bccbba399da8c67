"""Scalable (layered) video coding.

"Certain representations for time-based media, in particular proposals
for digital video [Lippman], allow presentation at different levels of
detail. ... bandwidth can be saved and processing reduced if the video
sequence is 'scaled' to a lower resolution by ignoring parts of the
storage unit." (§2.2)

This codec encodes a frame as a resolution pyramid: a small base layer
plus residual enhancement layers, each doubling resolution. A decoder
reads only the layers up to its target level and ignores the rest of the
storage unit — the fidelity-selection query of §1.2 ("retrieve frames at
a specific visual fidelity") exercises exactly this.

Layer 0 is the base (smallest); layer ``levels - 1`` restores full
resolution.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs import dct
from repro.codecs.base import Codec, read_header, read_part
from repro.codecs.huffman import huffman_compress, huffman_decompress
from repro.codecs.jpeg_like import (
    JpegLikeCodec,
    decode_plane_coefficients,
    encode_plane_coefficients,
)
from repro.errors import CodecError

_HEADER = struct.Struct(">4sHHB")
_MAGIC = b"RS1\x00"


def _downsample2(frame: np.ndarray) -> np.ndarray:
    """Halve resolution by 2x2 box averaging (pads odd edges)."""
    h, w = frame.shape[:2]
    pad_y, pad_x = h % 2, w % 2
    if pad_y or pad_x:
        frame = np.pad(frame, ((0, pad_y), (0, pad_x), (0, 0)), mode="edge")
    h2, w2 = frame.shape[:2]
    view = frame.reshape(h2 // 2, 2, w2 // 2, 2, 3).astype(np.float32)
    return view.mean(axis=(1, 3))


def _upsample2(frame: np.ndarray, height: int, width: int) -> np.ndarray:
    """Double resolution by pixel replication, cropped to (height, width)."""
    up = np.repeat(np.repeat(frame, 2, axis=0), 2, axis=1)
    return up[:height, :width]


class ScalableVideoCodec(Codec):
    """Layered-resolution intra codec over uint8 RGB frames.

    Parameters
    ----------
    levels:
        Number of layers (>= 1). Level ``k`` has resolution
        ``full / 2**(levels - 1 - k)``.
    quality:
        IJG-style quality for the base layer and residuals.
    """

    name = "scalable"

    def __init__(self, levels: int = 3, quality: int = 75):
        if levels < 1:
            raise CodecError("levels must be >= 1")
        self.levels = levels
        self.quality = quality
        self._intra = JpegLikeCodec(quality=quality, subsampling="4:2:0")
        self._residual_table = dct.scale_quant_table(dct.LUMA_QUANT, quality)

    @property
    def is_lossy(self) -> bool:
        return True

    # -- encoding ---------------------------------------------------------------

    def encode(self, payload: np.ndarray) -> bytes:
        """Encode a frame as base + enhancement layers."""
        h, w = payload.shape[:2]
        # Build the pyramid top-down: full, half, quarter, ...
        pyramid = [payload.astype(np.float32)]
        for _ in range(self.levels - 1):
            pyramid.append(_downsample2(pyramid[-1].astype(np.uint8)))
        pyramid.reverse()  # pyramid[0] is now the base

        parts = [_HEADER.pack(_MAGIC, w, h, self.levels)]
        base = np.clip(np.rint(pyramid[0]), 0, 255).astype(np.uint8)
        base_blob = self._intra.encode(base)
        parts.append(struct.pack(">I", len(base_blob)))
        parts.append(base_blob)

        reconstruction = self._intra.decode(base_blob).astype(np.float32)
        for level in range(1, self.levels):
            target = pyramid[level]
            th, tw = target.shape[:2]
            predicted = _upsample2(reconstruction, th, tw)
            residual = target - predicted
            blob = self._encode_residual(residual)
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
            reconstruction = np.clip(
                predicted + self._decode_residual(blob, (th, tw)), 0, 255
            )
        return b"".join(parts)

    def _encode_residual(self, residual: np.ndarray) -> bytes:
        parts = []
        for channel in range(3):
            blocks, _ = dct.to_blocks(residual[..., channel])
            quantized = dct.quantize_deadzone(dct.forward_dct(blocks), self._residual_table)
            blob = huffman_compress(encode_plane_coefficients(quantized))
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    def _decode_residual(self, data: bytes, shape: tuple[int, int]) -> np.ndarray:
        h, w = shape
        rows = (h + dct.BLOCK - 1) // dct.BLOCK
        cols = (w + dct.BLOCK - 1) // dct.BLOCK
        offset = 0
        channels = []
        for _ in range(3):
            part, offset = read_part(data, offset)
            symbols = huffman_decompress(part)
            quantized = decode_plane_coefficients(symbols, rows * cols)
            blocks = dct.inverse_dct(dct.dequantize(quantized, self._residual_table))
            channels.append(dct.from_blocks(blocks, (h, w)))
        return np.stack(channels, axis=-1)

    # -- decoding ---------------------------------------------------------------

    def decode(self, data: bytes) -> np.ndarray:
        """Decode at full resolution."""
        return self.decode_at_level(data, None)

    def decode_at_level(self, data: bytes, level: int | None) -> np.ndarray:
        """Decode reading only layers ``0..level`` (None = all).

        Lower levels return lower-resolution frames and *read fewer
        bytes* — the storage-unit-skipping behaviour the paper describes.
        """
        w, h, levels = read_header(_HEADER, _MAGIC, data)
        if level is None:
            level = levels - 1
        if not 0 <= level < levels:
            raise CodecError(f"level must be in [0, {levels}), got {level}")

        shapes = self.layer_shapes((h, w), levels)
        base, offset = read_part(data, _HEADER.size)
        reconstruction = self._intra.decode(base).astype(np.float32)
        if reconstruction.shape[:2] != shapes[0]:
            raise CodecError("base layer shape disagrees with the header")
        for current in range(1, level + 1):
            part, offset = read_part(data, offset)
            th, tw = shapes[current]
            predicted = _upsample2(reconstruction, th, tw)
            residual = self._decode_residual(part, (th, tw))
            reconstruction = np.clip(predicted + residual, 0, 255)
        return np.clip(np.rint(reconstruction), 0, 255).astype(np.uint8)

    def bytes_at_level(self, data: bytes, level: int | None = None) -> int:
        """Bytes a decoder must read to reach ``level`` (bandwidth saved)."""
        levels = read_header(_HEADER, _MAGIC, data)[2]
        if level is None:
            level = levels - 1
        offset = _HEADER.size
        for _ in range(level + 1):
            offset = read_part(data, offset)[1]
        return offset

    @staticmethod
    def layer_shapes(full: tuple[int, int], levels: int) -> list[tuple[int, int]]:
        """Per-level shapes, base first. Halving uses ceil (pad-by-edge)."""
        shapes = [full]
        for _ in range(levels - 1):
            h, w = shapes[-1]
            shapes.append(((h + 1) // 2, (w + 1) // 2))
        shapes.reverse()
        return shapes
