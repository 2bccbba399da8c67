"""Tests for color conversion and subsampling."""

import numpy as np
import pytest

from repro.codecs.color import (
    SUBSAMPLING,
    bits_per_pixel,
    rgb_to_cmyk,
    rgb_to_yuv,
    subsample,
    subsample_yuv,
    upsample,
    upsample_yuv,
    yuv_to_rgb,
)
from repro.errors import CodecError
from tests.codecs.reference import cmyk_to_rgb


@pytest.fixture
def image(rng):
    return rng.integers(0, 256, (33, 47, 3), dtype=np.uint8)


class TestYuv:
    def test_roundtrip_exact_within_rounding(self, image):
        back = yuv_to_rgb(*rgb_to_yuv(image))
        assert np.abs(back.astype(int) - image.astype(int)).max() <= 1

    def test_gray_has_neutral_chroma(self):
        gray = np.full((8, 8, 3), 128, dtype=np.uint8)
        y, u, v = rgb_to_yuv(gray)
        assert np.allclose(y, 128)
        assert np.allclose(u, 128)
        assert np.allclose(v, 128)

    def test_luma_weights(self):
        # Pure green contributes most luma; pure blue least (BT.601).
        green = np.zeros((1, 1, 3), dtype=np.uint8)
        green[..., 1] = 255
        blue = np.zeros((1, 1, 3), dtype=np.uint8)
        blue[..., 2] = 255
        y_green, *_ = rgb_to_yuv(green)
        y_blue, *_ = rgb_to_yuv(blue)
        assert y_green[0, 0] > y_blue[0, 0]

    def test_shape_validation(self):
        with pytest.raises(CodecError):
            rgb_to_yuv(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(CodecError):
            rgb_to_yuv(np.zeros((4, 4, 3), dtype=np.float32))


class TestSubsampling:
    def test_schemes(self):
        assert SUBSAMPLING["4:4:4"] == (1, 1)
        assert SUBSAMPLING["4:2:2"] == (1, 2)
        assert SUBSAMPLING["4:2:0"] == (2, 2)

    def test_422_halves_width(self, image):
        y, u, v = subsample_yuv(*rgb_to_yuv(image), "4:2:2")
        assert y.shape == (33, 47)
        assert u.shape == (33, 24)  # ceil(47/2)

    def test_420_halves_both(self, image):
        _, u, _ = subsample_yuv(*rgb_to_yuv(image), "4:2:0")
        assert u.shape == (17, 24)

    def test_upsample_restores_shape(self, image):
        planes = subsample_yuv(*rgb_to_yuv(image), "4:2:0")
        y, u, v = upsample_yuv(*planes, "4:2:0")
        assert u.shape == y.shape == (33, 47)

    def test_subsample_is_box_average(self):
        plane = np.array([[0.0, 2.0], [4.0, 6.0]])
        assert subsample(plane, 2, 2)[0, 0] == 3.0

    def test_unknown_scheme(self, image):
        with pytest.raises(CodecError, match="unknown subsampling"):
            subsample_yuv(*rgb_to_yuv(image), "5:5:5")

    def test_constant_plane_survives_roundtrip(self):
        plane = np.full((10, 10), 42.0)
        down = subsample(plane, 2, 2)
        up = upsample(down, 2, 2, 10, 10)
        assert np.allclose(up, 42.0)

    def test_bits_per_pixel_matches_paper(self):
        # "There are now 12 bits per pixel" for YUV with 2-bpp chroma —
        # the paper's 8:2:2 arithmetic corresponds to 4:2:0-style totals.
        assert bits_per_pixel("4:2:0") == 12.0
        assert bits_per_pixel("4:4:4") == 24.0
        assert bits_per_pixel("4:2:2") == 16.0


class TestCmyk:
    def test_roundtrip(self, image):
        back = cmyk_to_rgb(rgb_to_cmyk(image))
        assert np.abs(back.astype(int) - image.astype(int)).max() <= 1

    def test_black_generation_moves_ink_to_k(self):
        gray = np.full((2, 2, 3), 100, dtype=np.uint8)
        full_k = rgb_to_cmyk(gray, black_generation=1.0)
        no_k = rgb_to_cmyk(gray, black_generation=0.0)
        assert full_k[..., 3].max() > no_k[..., 3].max()
        assert np.allclose(no_k[..., 3], 0.0)

    def test_white_has_no_ink(self):
        white = np.full((1, 1, 3), 255, dtype=np.uint8)
        assert np.allclose(rgb_to_cmyk(white), 0.0)

    def test_black_is_pure_k(self):
        black = np.zeros((1, 1, 3), dtype=np.uint8)
        cmyk = rgb_to_cmyk(black)
        assert cmyk[0, 0, 3] == 1.0

    def test_parameter_range(self, image):
        with pytest.raises(CodecError):
            rgb_to_cmyk(image, black_generation=1.5)

    def test_shape_validation(self):
        with pytest.raises(CodecError):
            cmyk_to_rgb(np.zeros((4, 4, 3), dtype=np.float32))
