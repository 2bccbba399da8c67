"""Tests for the JPEG-like intra-frame codec."""

import numpy as np
import pytest

from repro.codecs.jpeg_like import (
    JpegLikeCodec,
    decode_plane_coefficients,
    encode_plane_coefficients,
    psnr,
)
from repro.errors import CodecError
from repro.media import frames
from tests.media.sources import color_bars


@pytest.fixture
def frame():
    return frames.gradient_frame(96, 64)


class TestCoefficientCoding:
    def test_roundtrip(self, rng):
        quantized = rng.integers(-30, 30, (12, 8, 8)).astype(np.int16)
        quantized[:, 4:, 4:] = 0  # sparsity like real quantization
        encoded = encode_plane_coefficients(quantized)
        decoded = decode_plane_coefficients(encoded, 12)
        assert np.array_equal(decoded, quantized)

    def test_all_zero_blocks_tiny(self):
        quantized = np.zeros((100, 8, 8), dtype=np.int16)
        encoded = encode_plane_coefficients(quantized)
        # one DC varint + one EOB byte per block
        assert len(encoded) == 200

    def test_dc_delta_coding(self):
        quantized = np.zeros((3, 8, 8), dtype=np.int16)
        quantized[:, 0, 0] = [1000, 1001, 1002]
        encoded = encode_plane_coefficients(quantized)
        decoded = decode_plane_coefficients(encoded, 3)
        assert decoded[:, 0, 0].tolist() == [1000, 1001, 1002]
        # deltas of 1 need 1 byte; absolute values would need 2.
        assert len(encoded) < 3 * 4

    def test_truncated_stream_rejected(self):
        quantized = np.zeros((2, 8, 8), dtype=np.int16)
        encoded = encode_plane_coefficients(quantized)
        with pytest.raises(CodecError):
            decode_plane_coefficients(encoded[:-1], 2)


class TestCoefficientErrors:
    """How the coefficient parser treats a malformed symbol stream."""

    def test_stream_ending_mid_block(self):
        encoded = encode_plane_coefficients(np.zeros((2, 8, 8), dtype=np.int16))
        with pytest.raises(CodecError,
                           match="coefficient stream exhausted mid-block"):
            decode_plane_coefficients(encoded[:-1], 2)

    def test_ac_position_past_63_rejected(self):
        # DC 0, a level at position 63 (run 62), then one more run.
        stream = bytes([0, 62, 2, 0, 2, 255])
        with pytest.raises(CodecError, match="AC position 64 out of range"):
            decode_plane_coefficients(stream, 1)
        assert decode_plane_coefficients(stream[:3] + b"\xff", 1)[0, 7, 7] == 1

    def test_dc_running_past_int16_rejected(self):
        # One-byte DC deltas of +63 (folded 126): 520 blocks reach 32,760,
        # the 521st 32,823.
        stream = bytes([126, 255]) * 521
        with pytest.raises(CodecError,
                           match="coefficient outside the int16 range"):
            decode_plane_coefficients(stream, 521)
        assert decode_plane_coefficients(stream, 520)[-1, 0, 0] == 32_760

    def test_varint_longer_than_ten_bytes(self):
        with pytest.raises(CodecError, match="varint too long"):
            decode_plane_coefficients(b"\x80" * 10 + b"\x01\xff", 1)

    def test_bytes_after_last_block_ignored(self, rng):
        quantized = rng.integers(-300, 300, (3, 8, 8)).astype(np.int16)
        encoded = encode_plane_coefficients(quantized)
        decoded = decode_plane_coefficients(encoded + b"\x05\x80 tail", 3)
        assert np.array_equal(decoded, quantized)


class TestCodec:
    def test_roundtrip_shape_dtype(self, frame):
        codec = JpegLikeCodec(quality=75)
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == frame.shape
        assert decoded.dtype == np.uint8

    def test_quality_controls_fidelity(self, frame):
        low = JpegLikeCodec(quality=10)
        high = JpegLikeCodec(quality=90)
        assert psnr(frame, high.decode(high.encode(frame))) > \
            psnr(frame, low.decode(low.encode(frame)))

    def test_quality_controls_size(self, frame):
        low = JpegLikeCodec(quality=10)
        high = JpegLikeCodec(quality=90)
        assert len(low.encode(frame)) < len(high.encode(frame))

    def test_reasonable_fidelity_at_mid_quality(self, frame):
        codec = JpegLikeCodec(quality=50)
        assert psnr(frame, codec.decode(codec.encode(frame))) > 30.0

    def test_compresses_smooth_content(self, frame):
        codec = JpegLikeCodec(quality=35)
        raw = frame.nbytes
        assert len(codec.encode(frame)) < raw / 10

    def test_variable_sizes_across_frames(self):
        # "the encoded video frames are variable sized" (Figure 2).
        codec = JpegLikeCodec(quality=50)
        shot = frames.scene(64, 48, 6, "texture")
        sizes = {len(codec.encode(f)) for f in shot}
        assert len(sizes) > 1

    def test_odd_dimensions(self):
        frame = frames.gradient_frame(61, 37)
        codec = JpegLikeCodec(quality=60)
        assert codec.decode(codec.encode(frame)).shape == (37, 61, 3)

    def test_subsampling_schemes(self, frame):
        for scheme in ("4:4:4", "4:2:2", "4:2:0"):
            codec = JpegLikeCodec(quality=60, subsampling=scheme)
            decoded = codec.decode(codec.encode(frame))
            assert decoded.shape == frame.shape

    def test_444_beats_420_on_chroma_detail(self):
        bars = color_bars(64, 48)
        full = JpegLikeCodec(quality=90, subsampling="4:4:4")
        sub = JpegLikeCodec(quality=90, subsampling="4:2:0")
        assert psnr(bars, full.decode(full.encode(bars))) >= \
            psnr(bars, sub.decode(sub.encode(bars)))

    def test_unknown_subsampling(self):
        with pytest.raises(CodecError):
            JpegLikeCodec(subsampling="4:9:9")

    def test_bad_magic(self, frame):
        codec = JpegLikeCodec()
        data = bytearray(codec.encode(frame))
        data[0] = 0xFF
        with pytest.raises(CodecError, match="magic"):
            codec.decode(bytes(data))

    def test_short_frame(self):
        with pytest.raises(CodecError):
            JpegLikeCodec().decode(b"RJ")

    def test_is_lossy(self):
        assert JpegLikeCodec().is_lossy

    def test_bits_per_pixel(self, frame):
        codec = JpegLikeCodec(quality=35)
        bpp = codec.bits_per_pixel(frame)
        assert 0 < bpp < 24

    def test_decoder_independent_of_encoder_instance(self, frame):
        # All parameters travel in the frame header.
        encoded = JpegLikeCodec(quality=30, subsampling="4:2:0").encode(frame)
        decoded = JpegLikeCodec(quality=90, subsampling="4:4:4").decode(encoded)
        assert decoded.shape == frame.shape
        assert psnr(frame, decoded) > 25.0


class TestPsnr:
    def test_identical_is_infinite(self, frame):
        assert psnr(frame, frame) == float("inf")

    def test_known_value(self):
        a = np.zeros((4, 4, 3), dtype=np.uint8)
        b = np.full((4, 4, 3), 255, dtype=np.uint8)
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-9)
