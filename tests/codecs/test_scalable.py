"""Tests for the scalable (layered) video codec."""

import numpy as np
import pytest

from repro.codecs.jpeg_like import psnr
from repro.codecs.scalable import ScalableVideoCodec
from repro.errors import CodecError
from repro.media import frames


@pytest.fixture
def frame():
    return frames.gradient_frame(80, 56)


@pytest.fixture
def codec():
    return ScalableVideoCodec(levels=3, quality=70)


class TestLayerGeometry:
    def test_layer_shapes(self):
        shapes = ScalableVideoCodec.layer_shapes((120, 160), 3)
        assert shapes == [(30, 40), (60, 80), (120, 160)]

    def test_odd_dimensions_ceil(self):
        shapes = ScalableVideoCodec.layer_shapes((37, 51), 2)
        assert shapes == [(19, 26), (37, 51)]

    def test_levels_validation(self):
        with pytest.raises(CodecError):
            ScalableVideoCodec(levels=0)


class TestDecodeAtLevel:
    def test_full_resolution_roundtrip(self, codec, frame):
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == frame.shape
        assert psnr(frame, decoded) > 28.0

    def test_each_level_has_expected_shape(self, codec, frame):
        data = codec.encode(frame)
        assert codec.decode_at_level(data, 0).shape == (14, 20, 3)
        assert codec.decode_at_level(data, 1).shape == (28, 40, 3)
        assert codec.decode_at_level(data, 2).shape == (56, 80, 3)

    def test_level_out_of_range(self, codec, frame):
        data = codec.encode(frame)
        with pytest.raises(CodecError):
            codec.decode_at_level(data, 3)
        with pytest.raises(CodecError):
            codec.decode_at_level(data, -1)

    def test_single_level_degenerates_to_intra(self, frame):
        codec = ScalableVideoCodec(levels=1, quality=70)
        decoded = codec.decode(codec.encode(frame))
        assert decoded.shape == frame.shape

    def test_bad_magic(self, codec, frame):
        data = bytearray(codec.encode(frame))
        data[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            codec.decode(bytes(data))


class TestBandwidthSaving:
    """§2.2: 'bandwidth can be saved ... by ignoring parts of the
    storage unit'."""

    def test_bytes_at_level_monotone(self, codec, frame):
        data = codec.encode(frame)
        reads = [codec.bytes_at_level(data, level) for level in range(3)]
        assert reads[0] < reads[1] < reads[2]
        assert reads[2] == len(data)

    def test_base_layer_much_smaller(self, codec, frame):
        data = codec.encode(frame)
        assert codec.bytes_at_level(data, 0) < len(data) / 2

    def test_base_layer_content_recognizable(self, codec, frame):
        data = codec.encode(frame)
        base = codec.decode_at_level(data, 0)
        # The base layer should approximate a downsampled original.
        small = frame[::4, ::4][:14, :20]
        assert psnr(small, base) > 18.0

    def test_quality_improves_with_level(self, codec, frame):
        data = codec.encode(frame)
        upsampled = []
        for level in range(3):
            decoded = codec.decode_at_level(data, level)
            factor = 2 ** (2 - level)
            up = np.repeat(np.repeat(decoded, factor, axis=0), factor, axis=1)
            upsampled.append(psnr(frame, up[:56, :80]))
        assert upsampled[2] > upsampled[0]


def test_base_layer_of_another_size_rejected():
    codec = ScalableVideoCodec(levels=2, quality=60)
    data = codec.encode(frames.texture_frame(48, 36, seed=1))
    other = codec.encode(frames.texture_frame(32, 24, seed=1))
    header = 9  # magic, width, height and levels
    base_end = header + 4 + int.from_bytes(data[header:header + 4], "big")
    other_end = header + 4 + int.from_bytes(other[header:header + 4], "big")
    spliced = data[:header] + other[header:other_end] + data[base_end:]
    with pytest.raises(CodecError, match="base layer shape"):
        codec.decode(spliced)
