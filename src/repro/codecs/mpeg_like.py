"""MPEG-like inter-frame video compression with out-of-order placement.

"Some compression techniques, such as MPEG, exploit similarities between
consecutive elements. 'Key' elements are identified from which
intermediate elements can be constructed by interpolation. Because key
elements are needed at an early stage during decoding, they may be placed
in storage units prior to the intermediate elements. For example, with a
sequence of four elements where the first and last are 'keys,' the
placement order could be 1, 4, 2, 3." (§2.2)

This codec reproduces that structure faithfully without motion
estimation:

* **I frames** — intra-coded with the JPEG-like pipeline;
* **P frames** — the residual against the previous reference's
  reconstruction, DCT-quantized and entropy coded;
* **B frames** — the residual against the *average* of the previous and
  next references ("constructed by interpolation"), which forces the
  next reference to be decoded first — hence decode order differs from
  display order, exactly the paper's 1, 4, 2, 3 example for a GOP
  pattern ``IBBP``-style group.

The group-of-pictures pattern is configurable (e.g. ``"IBBP"``,
``"IPPP"``); ``encode_sequence`` returns frames in *decode order*, each
tagged with both orders, and ``decode_sequence`` restores display order.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs import dct
from repro.codecs.base import EncodedFrame, read_header, read_part
from repro.codecs.color import (
    rgb_to_yuv,
    subsample_yuv,
    upsample_yuv,
    yuv_to_rgb,
)
from repro.codecs.huffman import huffman_compress, huffman_decompress
from repro.codecs.jpeg_like import (
    JpegLikeCodec,
    decode_plane_coefficients,
    encode_plane_coefficients,
)
from repro.errors import CodecError

_RESIDUAL_HEADER = struct.Struct(">4sHHB")
_RESIDUAL_MAGIC = b"RM1\x00"


def decode_order(pattern: list[str]) -> list[int]:
    """Map a display-order frame-kind pattern to decode (storage) order.

    Every B frame needs the *next* reference (I or P) decoded first, so
    references are pulled ahead of the B frames they bracket:

    >>> decode_order(["I", "B", "B", "P"])
    [0, 3, 1, 2]
    """
    order: list[int] = []
    pending_b: list[int] = []
    for index, kind in enumerate(pattern):
        if kind == "B":
            pending_b.append(index)
        elif kind in ("I", "P"):
            order.append(index)
            order.extend(pending_b)
            pending_b = []
        else:
            raise CodecError(f"unknown frame kind {kind!r}")
    if pending_b:
        # Trailing B frames have no following reference; decode them
        # against the last reference alone (they are demoted to P-like
        # prediction but keep their storage position after it).
        order.extend(pending_b)
    return order


class MpegLikeCodec:
    """Inter-frame codec over sequences of uint8 RGB frames.

    Parameters
    ----------
    quality:
        IJG-style quality for both intra frames and residuals.
    gop_pattern:
        Frame-kind pattern repeated over the sequence; must start with
        ``"I"``. ``"IBBP"`` reproduces the paper's 1, 4, 2, 3 placement.
    subsampling:
        Chroma scheme for intra frames.
    """

    name = "mpeg-like"

    def __init__(self, quality: int = 50, gop_pattern: str = "IBBP",
                 subsampling: str = "4:2:0"):
        if not gop_pattern or gop_pattern[0] != "I":
            raise CodecError("GOP pattern must start with an I frame")
        if any(kind not in "IPB" for kind in gop_pattern):
            raise CodecError(f"bad GOP pattern {gop_pattern!r}")
        self.quality = quality
        self.gop_pattern = gop_pattern
        self.subsampling = subsampling
        self._intra = JpegLikeCodec(quality=quality, subsampling=subsampling)
        self._residual_table = dct.scale_quant_table(dct.LUMA_QUANT, quality)

    # -- residual coding -----------------------------------------------------------
    #
    # Residuals are coded in the same color space as intra frames —
    # subsampled YUV — with a deadzone quantizer, so P/B frames pay for
    # genuinely new content, not for re-coding chroma the intra path
    # already threw away.

    def _planes(self, frame: np.ndarray) -> tuple[np.ndarray, ...]:
        return subsample_yuv(*rgb_to_yuv(frame), self.subsampling)

    def _plane_tables(self):
        chroma = dct.scale_quant_table(dct.CHROMA_QUANT, self.quality)
        return (self._residual_table, chroma, chroma)

    def _encode_predicted(self, frame: np.ndarray,
                          prediction: np.ndarray) -> bytes:
        """Code ``frame`` as a YUV residual against ``prediction``."""
        h, w = frame.shape[:2]
        frame_planes = self._planes(frame)
        predicted_planes = self._planes(prediction)
        parts = [_RESIDUAL_HEADER.pack(_RESIDUAL_MAGIC, w, h, self.quality)]
        for plane, predicted, table in zip(frame_planes, predicted_planes,
                                           self._plane_tables()):
            blocks, _ = dct.to_blocks(plane - predicted)
            quantized = dct.quantize_deadzone(dct.forward_dct(blocks), table)
            blob = huffman_compress(encode_plane_coefficients(quantized))
            parts.append(struct.pack(">I", len(blob)))
            parts.append(blob)
        return b"".join(parts)

    def _decode_predicted(self, data: bytes,
                          prediction: np.ndarray) -> np.ndarray:
        """Invert :meth:`_encode_predicted` given the same prediction."""
        quality = read_header(_RESIDUAL_HEADER, _RESIDUAL_MAGIC, data)[2]
        luma_table = dct.scale_quant_table(dct.LUMA_QUANT, quality)
        chroma_table = dct.scale_quant_table(dct.CHROMA_QUANT, quality)
        predicted_planes = self._planes(prediction)
        offset = _RESIDUAL_HEADER.size
        planes = []
        for predicted, table in zip(predicted_planes,
                                    (luma_table, chroma_table, chroma_table)):
            ph, pw = predicted.shape
            rows = (ph + dct.BLOCK - 1) // dct.BLOCK
            cols = (pw + dct.BLOCK - 1) // dct.BLOCK
            part, offset = read_part(data, offset)
            symbols = huffman_decompress(part)
            quantized = decode_plane_coefficients(symbols, rows * cols)
            blocks = dct.inverse_dct(dct.dequantize(quantized, table))
            planes.append(predicted + dct.from_blocks(blocks, (ph, pw)))
        y, u, v = upsample_yuv(*planes, self.subsampling)
        return yuv_to_rgb(y, u, v)

    # -- sequence coding ------------------------------------------------------------

    def _pattern_for(self, count: int) -> list[str]:
        pattern = []
        while len(pattern) < count:
            pattern.extend(self.gop_pattern)
        return pattern[:count]

    def encode_sequence(self, frames: list[np.ndarray]) -> list[EncodedFrame]:
        """Encode ``frames``; the result list is in decode (storage) order."""
        if not frames:
            return []
        pattern = self._pattern_for(len(frames))
        order = decode_order(pattern)

        # References must be reconstructed the way the decoder will see
        # them, so encoding follows decode order too.
        reconstructed: dict[int, np.ndarray] = {}
        encoded: dict[int, EncodedFrame] = {}
        last_reference: int | None = None
        references: list[int] = [
            i for i, kind in enumerate(pattern) if kind in "IP"
        ]

        for decode_index, display_index in enumerate(order):
            kind = pattern[display_index]
            frame = frames[display_index]
            if kind == "I":
                data = self._intra.encode(frame)
                reconstructed[display_index] = self._intra.decode(data)
            else:
                if kind == "P":
                    previous = self._previous_reference(
                        references, display_index, reconstructed
                    )
                    prediction = reconstructed[previous]
                else:  # B frame: interpolate bracketing references
                    prediction = self._interpolate(references, display_index,
                                                   reconstructed)
                data = self._encode_predicted(frame, prediction)
                reconstructed[display_index] = self._decode_predicted(
                    data, prediction
                )
            encoded[display_index] = EncodedFrame(
                data=data, kind=kind,
                display_index=display_index, decode_index=decode_index,
            )
        return [encoded[i] for i in order]

    def _previous_reference(self, references: list[int], index: int,
                            reconstructed: dict[int, np.ndarray]) -> int:
        candidates = [r for r in references if r < index and r in reconstructed]
        if not candidates:
            raise CodecError(f"no decoded reference before frame {index}")
        return max(candidates)

    def _interpolate(self, references: list[int], index: int,
                     reconstructed: dict[int, np.ndarray]) -> np.ndarray:
        previous = self._previous_reference(references, index, reconstructed)
        following = [r for r in references if r > index and r in reconstructed]
        if following:
            nxt = min(following)
            if reconstructed[nxt].shape != reconstructed[previous].shape:
                raise CodecError(f"the references of frame {index} differ in shape")
            average = (
                reconstructed[previous].astype(np.float32)
                + reconstructed[nxt].astype(np.float32)
            ) / 2.0
            return np.clip(np.rint(average), 0, 255).astype(np.uint8)
        # Trailing B with no later reference: predict from previous only.
        return reconstructed[previous]

    def decode_sequence(self, encoded: list[EncodedFrame]) -> list[np.ndarray]:
        """Decode frames given in decode order; returns display order."""
        reconstructed: dict[int, np.ndarray] = {}
        references: list[int] = [
            f.display_index for f in encoded if f.kind in "IP"
        ]
        for frame in encoded:
            if frame.kind == "I":
                reconstructed[frame.display_index] = self._intra.decode(frame.data)
            else:
                if frame.kind == "P":
                    prediction = reconstructed[
                        self._previous_reference(references, frame.display_index,
                                                 reconstructed)
                    ]
                else:
                    prediction = self._interpolate(references, frame.display_index,
                                                   reconstructed)
                reconstructed[frame.display_index] = self._decode_predicted(
                    frame.data, prediction
                )
        return [reconstructed[i] for i in sorted(reconstructed)]

    def placement_order(self, frame_count: int) -> list[int]:
        """Display indices in storage order (the paper's "1, 4, 2, 3")."""
        return decode_order(self._pattern_for(frame_count))
