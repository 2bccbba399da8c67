"""Tests for synthetic video frame generation."""

import numpy as np
import pytest

from repro.errors import MediaModelError
from repro.media import frames
from tests.media.sources import color_bars


class TestGenerators:
    def test_gradient_shape_dtype(self):
        frame = frames.gradient_frame(64, 48)
        assert frame.shape == (48, 64, 3)
        assert frame.dtype == np.uint8

    def test_gradient_phase_changes_content(self):
        assert not np.array_equal(
            frames.gradient_frame(32, 32, phase=0.0),
            frames.gradient_frame(32, 32, phase=0.3),
        )

    def test_color_bars_have_eight_colors(self):
        bars = color_bars(80, 16)
        distinct = {tuple(c) for c in bars[0]}
        assert len(distinct) == 8

    def test_texture_seeded(self):
        assert np.array_equal(
            frames.texture_frame(32, 32, seed=1),
            frames.texture_frame(32, 32, seed=1),
        )
        assert not np.array_equal(
            frames.texture_frame(32, 32, seed=1),
            frames.texture_frame(32, 32, seed=2),
        )

    def test_moving_box_moves(self):
        a = frames.moving_box_frame(64, 48, t=0.0)
        b = frames.moving_box_frame(64, 48, t=0.5)
        assert not np.array_equal(a, b)

    def test_moving_box_stays_in_frame(self):
        for t in np.linspace(0, 1, 17):
            frame = frames.moving_box_frame(32, 32, t=float(t))
            assert frame.shape == (32, 32, 3)

    def test_too_small_rejected(self):
        with pytest.raises(MediaModelError):
            frames.gradient_frame(4, 4)


class TestScenes:
    @pytest.mark.parametrize("kind", ["orbit", "pan", "texture", "cut"])
    def test_scene_kinds(self, kind):
        shot = frames.scene(32, 24, 5, kind)
        assert len(shot) == 5
        assert all(f.shape == (24, 32, 3) for f in shot)

    def test_scene_coherence(self):
        # Consecutive frames differ less than distant ones (the property
        # inter-frame codecs exploit).
        shot = frames.scene(64, 48, 10, "orbit")
        near = np.abs(shot[1].astype(int) - shot[0].astype(int)).mean()
        # Frame 5 is on the opposite side of the orbit (frame 9 has come
        # almost back around, so it is near frame 0 again).
        far = np.abs(shot[5].astype(int) - shot[0].astype(int)).mean()
        assert near < far

    def test_unknown_kind(self):
        with pytest.raises(MediaModelError):
            frames.scene(32, 32, 2, "explosion")

    def test_zero_frames(self):
        assert frames.scene(32, 32, 0, "pan") == []
