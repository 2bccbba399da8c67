"""Tests for color separation (Table 1)."""

import numpy as np
import pytest

from repro.codecs.color import rgb_to_cmyk
from repro.core.derivation import derivation_registry
from repro.edit.separation import PLATES, plate, separate
from repro.errors import DerivationError
from repro.media import frames
from repro.media.objects import image_object
from tests.codecs.reference import cmyk_to_rgb


def roundtrip_error(image: np.ndarray, black_generation: float = 1.0) -> float:
    """Mean absolute RGB error after separate + recombine."""
    recombined = cmyk_to_rgb(rgb_to_cmyk(image, black_generation))
    return float(np.mean(np.abs(
        recombined.astype(np.int32) - image.astype(np.int32)
    )))


class TestSeparate:
    def test_four_plates(self, small_frame):
        cmyk = separate(small_frame)
        assert cmyk.shape == small_frame.shape[:2] + (4,)

    def test_plate_extraction(self, small_frame):
        cmyk = separate(small_frame)
        for name in PLATES:
            plane = plate(cmyk, name)
            assert plane.shape == small_frame.shape[:2]
            assert plane.min() >= 0.0 and plane.max() <= 1.0

    def test_unknown_plate(self, small_frame):
        with pytest.raises(DerivationError):
            plate(separate(small_frame), "orange")

    def test_roundtrip_error_small(self, small_frame):
        assert roundtrip_error(small_frame) < 1.0

    def test_black_generation_parameter(self, small_frame):
        """'the mapping from RGB into the CMYK color model is not
        unique, additional information must be provided as parameters'"""
        full = separate(small_frame, black_generation=1.0)
        none = separate(small_frame, black_generation=0.0)
        assert not np.allclose(full, none)
        # Both recombine to (approximately) the same RGB.
        assert roundtrip_error(small_frame, 1.0) < 1.0
        assert roundtrip_error(small_frame, 0.0) < 1.0


class TestSeparationDerivation:
    def test_image_to_cmyk_image(self, small_frame):
        source = image_object(small_frame, "img")
        derivation = derivation_registry.get("color-separation")
        derived = derivation([source], {"black_generation": 0.8})
        assert derived.descriptor["color_model"] == "CMYK"
        expanded = derived.expand()
        assert expanded.value().shape == small_frame.shape[:2] + (4,)
        assert expanded.descriptor["color_model"] == "CMYK"

    def test_rejects_non_rgb(self, small_frame):
        source = image_object(separate(small_frame), "cmyk-img",
                              color_model="CMYK")
        derivation = derivation_registry.get("color-separation")
        derived = derivation([source], {})
        with pytest.raises(DerivationError, match="RGB"):
            derived.expand()
