"""DVI-like asymmetric codec presets: PLV and RTV.

§2.1: "DVI is based on two digital video formats: Production-Level Video
(PLV) and Real-Time Video (RTV). PLV uses a proprietary compression
algorithm allowing VHS quality video to be produced ... The RTV format
results in data rates similar to those of PLV, however the video quality
is poorer and the frame rate may be reduced. Applications can playback
both the RTV and PLV formats, and record in the RTV format."

The asymmetry is the point: PLV encoding is expensive offline work, RTV
is what a live capture path can afford. Here both are presets over the
JPEG-like codec:

* **PLV** — full resolution, 4:2:0, quality 60 (the "VHS quality from
  ~1 Mbit/sec" regime);
* **RTV** — half resolution (encoded small, upsampled on decode),
  4:2:0, quality 35, optional frame-rate reduction at the sequence
  level.

Both decode through the same :meth:`DviLikeCodec.decode`, reproducing
"applications can playback both ... formats".
"""

from __future__ import annotations

import struct

import numpy as np

from repro.codecs.base import Codec, read_header
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.errors import CodecError

_WRAPPER = struct.Struct(">4sBHH")
_MAGIC = b"RD1\x00"
_FORMAT_PLV = 1
_FORMAT_RTV = 2


class DviLikeCodec(Codec):
    """Two-format codec: encode as PLV or RTV, decode either."""

    name = "dvi-like"

    def __init__(self, video_format: str = "RTV"):
        if video_format not in ("PLV", "RTV"):
            raise CodecError(
                f"format must be 'PLV' or 'RTV', got {video_format!r}"
            )
        self.video_format = video_format
        self._plv = JpegLikeCodec(quality=60, subsampling="4:2:0")
        self._rtv = JpegLikeCodec(quality=35, subsampling="4:2:0")

    @property
    def is_lossy(self) -> bool:
        return True

    # -- encoding ----------------------------------------------------------------

    def encode(self, payload: np.ndarray) -> bytes:
        if self.video_format == "PLV":
            return self.encode_plv(payload)
        return self.encode_rtv(payload)

    def encode_plv(self, frame: np.ndarray) -> bytes:
        """Production-level encode: full resolution, higher quality."""
        h, w = frame.shape[:2]
        inner = self._plv.encode(frame)
        return _WRAPPER.pack(_MAGIC, _FORMAT_PLV, w, h) + inner

    def encode_rtv(self, frame: np.ndarray) -> bytes:
        """Real-time encode: half resolution, lower quality.

        The decoder upsamples back to the original geometry, so RTV and
        PLV material intercut freely (same frame dimensions after
        decode).
        """
        h, w = frame.shape[:2]
        small = frame[::2, ::2]
        inner = self._rtv.encode(np.ascontiguousarray(small))
        return _WRAPPER.pack(_MAGIC, _FORMAT_RTV, w, h) + inner

    # -- decoding ----------------------------------------------------------------

    def decode(self, data: bytes) -> np.ndarray:
        """Decode either format to the original geometry."""
        format_code, w, h = read_header(_WRAPPER, _MAGIC, data)
        inner = data[_WRAPPER.size:]
        if format_code == _FORMAT_PLV:
            return self._plv.decode(inner)
        if format_code == _FORMAT_RTV:
            small = self._rtv.decode(inner)
            up = np.repeat(np.repeat(small, 2, axis=0), 2, axis=1)
            return up[:h, :w]
        raise CodecError(f"unknown DVI-like format code {format_code}")

    @staticmethod
    def format_of(data: bytes) -> str:
        """Which format a frame was encoded in (for descriptors)."""
        format_code = read_header(_WRAPPER, _MAGIC, data)[0]
        return "PLV" if format_code == _FORMAT_PLV else "RTV"

    def reduce_frame_rate(self, frames: list[np.ndarray],
                          keep_every: int = 2) -> list[np.ndarray]:
        """RTV's "frame rate may be reduced": keep every n-th frame."""
        if keep_every < 1:
            raise CodecError("keep_every must be >= 1")
        return frames[::keep_every]
