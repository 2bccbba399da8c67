"""Color model conversion and chroma subsampling.

The paper's Figure 2 pipeline converts RGB frames to YUV, subsamples the
chrominance planes, and compresses ("The RGB values are then converted to
YUV, Y is given 8 bits per pixel, U and V are subsampled"). Color
separation (Table 1) converts RGB to CMYK for printing.

Conventions: images are ``numpy`` arrays, ``(height, width, 3)`` uint8
for RGB, and plane tuples ``(y, u, v)`` of float32 arrays for YUV.
The RGB<->YUV matrices follow BT.601; U and V are centered on 128.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CodecError

# BT.601 luma coefficients.
_KR, _KG, _KB = 0.299, 0.587, 0.114


def rgb_to_yuv(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert ``(h, w, 3)`` uint8 RGB to float32 (y, u, v) planes.

    Y is in [0, 255]; U and V are centered on 128.
    """
    _check_rgb(rgb)
    r = rgb[..., 0].astype(np.float32)
    g = rgb[..., 1].astype(np.float32)
    b = rgb[..., 2].astype(np.float32)
    y = _KR * r + _KG * g + _KB * b
    u = (b - y) * (0.5 / (1.0 - _KB)) + 128.0
    v = (r - y) * (0.5 / (1.0 - _KR)) + 128.0
    return y, u, v


def yuv_to_rgb(y: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Invert :func:`rgb_to_yuv`, clipping to uint8 range."""
    u = u - 128.0
    v = v - 128.0
    r = y + v * ((1.0 - _KR) / 0.5)
    b = y + u * ((1.0 - _KB) / 0.5)
    g = (y - _KR * r - _KB * b) / _KG
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def subsample(plane: np.ndarray, factor_y: int, factor_x: int) -> np.ndarray:
    """Box-average downsampling by integer factors (pads edges by repeat)."""
    if factor_y < 1 or factor_x < 1:
        raise CodecError("subsampling factors must be >= 1")
    if factor_y == 1 and factor_x == 1:
        return plane.copy()
    h, w = plane.shape
    pad_y = (-h) % factor_y
    pad_x = (-w) % factor_x
    if pad_y or pad_x:
        plane = np.pad(plane, ((0, pad_y), (0, pad_x)), mode="edge")
    h2, w2 = plane.shape
    view = plane.reshape(h2 // factor_y, factor_y, w2 // factor_x, factor_x)
    return view.mean(axis=(1, 3))


def upsample(plane: np.ndarray, factor_y: int, factor_x: int,
             height: int, width: int) -> np.ndarray:
    """Nearest-neighbour upsampling to exactly ``(height, width)``."""
    up = np.repeat(np.repeat(plane, factor_y, axis=0), factor_x, axis=1)
    return up[:height, :width]


#: Chroma subsampling schemes as (vertical, horizontal) factors, in the
#: J:a:b notation used by the paper ("YUV 8:2:2").
SUBSAMPLING = {
    "4:4:4": (1, 1),
    "4:2:2": (1, 2),
    "4:2:0": (2, 2),
    "4:1:1": (1, 4),
}


def subsample_yuv(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, scheme: str = "4:2:2",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subsample the chroma planes according to ``scheme``."""
    try:
        fy, fx = SUBSAMPLING[scheme]
    except KeyError:
        raise CodecError(
            f"unknown subsampling {scheme!r}; known: {sorted(SUBSAMPLING)}"
        ) from None
    return y, subsample(u, fy, fx), subsample(v, fy, fx)


def upsample_yuv(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, scheme: str = "4:2:2",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restore subsampled chroma planes to luma resolution."""
    fy, fx = SUBSAMPLING[scheme]
    h, w = y.shape
    return y, upsample(u, fy, fx, h, w), upsample(v, fy, fx, h, w)


def bits_per_pixel(scheme: str, bits: int = 8) -> float:
    """Average bits per pixel of a YUV image under ``scheme``.

    The paper's "YUV 8:2:2" example: Y at 8 bpp plus two chroma planes at
    2 bpp each = 12 bpp.
    """
    fy, fx = SUBSAMPLING[scheme]
    return bits * (1 + 2 / (fy * fx))


# -- CMYK separation (Table 1, "color separation") ---------------------------


def rgb_to_cmyk(rgb: np.ndarray, black_generation: float = 1.0) -> np.ndarray:
    """Separate ``(h, w, 3)`` uint8 RGB into ``(h, w, 4)`` float32 CMYK.

    ``black_generation`` scales how much common ink is moved to the K
    plate (the paper notes the RGB->CMYK mapping "is not unique" and is
    governed by separation parameters). Values are in [0, 1].
    """
    _check_rgb(rgb)
    if not 0.0 <= black_generation <= 1.0:
        raise CodecError("black_generation must be in [0, 1]")
    scaled = rgb.astype(np.float32) / 255.0
    c = 1.0 - scaled[..., 0]
    m = 1.0 - scaled[..., 1]
    y = 1.0 - scaled[..., 2]
    k = np.minimum(np.minimum(c, m), y) * black_generation
    denom = np.where(k < 1.0, 1.0 - k, 1.0)
    c = (c - k) / denom
    m = (m - k) / denom
    y = (y - k) / denom
    return np.stack([c, m, y, k], axis=-1).astype(np.float32)


def _check_rgb(rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[-1] != 3:
        raise CodecError(f"expected (h, w, 3) RGB, got shape {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise CodecError(f"expected uint8 RGB, got dtype {rgb.dtype}")
