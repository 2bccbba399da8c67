"""Synthetic video frame generation.

Deterministic frame generators standing in for cameras: gradients with
moving objects (enough temporal coherence that inter-frame codecs win),
SMPTE-ish color bars, and seeded texture. All functions return
``(height, width, 3)`` uint8 RGB arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MediaModelError


def gradient_frame(width: int = 160, height: int = 120,
                   phase: float = 0.0) -> np.ndarray:
    """A smooth two-axis gradient, rotated by ``phase`` for animation."""
    _check_size(width, height)
    x = np.linspace(0.0, 1.0, width)
    y = np.linspace(0.0, 1.0, height)
    base = np.add.outer(y, x) / 2.0
    r = (np.sin(2 * np.pi * (base + phase)) + 1.0) / 2.0
    g = base
    b = 1.0 - base
    frame = np.stack([r, g, b], axis=-1)
    return (frame * 255).astype(np.uint8)


def texture_frame(width: int = 160, height: int = 120, seed: int = 0,
                  smoothness: int = 4) -> np.ndarray:
    """Seeded smooth texture: low-resolution noise upsampled.

    ``smoothness`` is the upsampling factor; larger is smoother (and
    compresses better).
    """
    _check_size(width, height)
    if smoothness < 1:
        raise MediaModelError("smoothness must be >= 1")
    rng = np.random.default_rng(seed)
    small = rng.integers(
        0, 256,
        ((height + smoothness - 1) // smoothness,
         (width + smoothness - 1) // smoothness, 3),
    ).astype(np.float32)
    up = np.repeat(np.repeat(small, smoothness, axis=0), smoothness, axis=1)
    return up[:height, :width].astype(np.uint8)


def moving_box_frame(width: int = 160, height: int = 120, t: float = 0.0,
                     box: int = 24, background: np.ndarray | None = None,
                     color: tuple[int, int, int] = (255, 64, 64)) -> np.ndarray:
    """A colored box orbiting over a background; ``t`` in [0, 1) is phase.

    Consecutive phases produce consecutive "shots" with small differences
    — the workload for P/B-frame coding gains.
    """
    _check_size(width, height)
    frame = (
        background.copy() if background is not None
        else gradient_frame(width, height)
    )
    cx = int((width - box) * (0.5 + 0.4 * np.cos(2 * np.pi * t)))
    cy = int((height - box) * (0.5 + 0.4 * np.sin(2 * np.pi * t)))
    frame[cy:cy + box, cx:cx + box] = np.array(color, dtype=np.uint8)
    return frame


def scene(width: int, height: int, frame_count: int, kind: str = "orbit",
          seed: int = 0) -> list[np.ndarray]:
    """A coherent sequence of frames — one "shot" of synthetic footage.

    Kinds: ``"orbit"`` (box over a gradient), ``"pan"`` (gradient phase
    drift), ``"texture"`` (static texture with an orbiting box),
    ``"cut"`` (texture, different seed space — for scene-change tests).
    """
    if frame_count < 0:
        raise MediaModelError("frame_count must be non-negative")
    if kind == "orbit":
        background = gradient_frame(width, height)
        return [
            moving_box_frame(width, height, t=i / max(frame_count, 1),
                             background=background)
            for i in range(frame_count)
        ]
    if kind == "pan":
        return [
            gradient_frame(width, height, phase=i * 0.02)
            for i in range(frame_count)
        ]
    if kind == "texture":
        background = texture_frame(width, height, seed=seed)
        return [
            moving_box_frame(width, height, t=i / max(frame_count, 1),
                             background=background, color=(64, 64, 255))
            for i in range(frame_count)
        ]
    if kind == "cut":
        background = texture_frame(width, height, seed=seed + 1000,
                                   smoothness=8)
        return [
            moving_box_frame(width, height, t=0.5 + i / max(frame_count, 1),
                             background=background, color=(64, 255, 64))
            for i in range(frame_count)
        ]
    raise MediaModelError(f"unknown scene kind {kind!r}")


def _check_size(width: int, height: int) -> None:
    if width < 8 or height < 8:
        raise MediaModelError(
            f"frames must be at least 8x8, got {width}x{height}"
        )
