"""Spatial composition, rendered.

Definition 7's spatial side: "positioning objects in a 2D or 3D space.
An example would be placing an image within a page of text or placing
graphical objects in a scene." The compositor makes that executable: it
rasterizes a multimedia object's components at a given presentation time
into one output frame, honoring (x, y) placement, z stacking order, and
integer scaling.

Components contribute a frame when they are visual and presented at the
requested time: still images always, video objects via the element their
stream presents at that instant.
"""

from __future__ import annotations

import numpy as np

from repro.core.composition import (
    CompositionRelationship,
    MultimediaObject,
)
from repro.core.media_types import MediaKind
from repro.core.rational import Rational, as_rational
from repro.errors import CompositionError


def _frame_of(relationship: CompositionRelationship, at) -> np.ndarray | None:
    """The component's pixel content at presentation time ``at``."""
    component = relationship.component
    if isinstance(component, MultimediaObject):
        raise CompositionError(
            "nested multimedia objects must be flattened before "
            "spatial rendering"
        )
    if component.kind is MediaKind.IMAGE:
        return component.value()
    if component.kind is MediaKind.VIDEO:
        stream = component.stream()
        offset = (relationship.start_offset
                  if relationship.is_temporal else Rational(0))
        local = as_rational(at) - offset
        if local < 0:
            return None
        matches = stream.at_time(local)
        if not matches:
            return None
        frame = matches[0].element.payload
        if not isinstance(frame, np.ndarray):
            raise CompositionError(
                f"component {relationship.label!r} holds non-pixel payloads"
            )
        return frame
    return None


def _scaled(frame: np.ndarray, scale: Rational) -> np.ndarray:
    if scale == 1:
        return frame
    if scale.denominator == 1:
        factor = int(scale)
        return np.repeat(np.repeat(frame, factor, axis=0), factor, axis=1)
    inverse = 1 / scale
    if inverse.denominator == 1:
        step = int(inverse)
        return frame[::step, ::step]
    raise CompositionError(
        f"only integer scales and their reciprocals are supported, got {scale}"
    )


def compose_frame(
    multimedia: MultimediaObject,
    at,
    width: int,
    height: int,
    background: tuple[int, int, int] = (0, 0, 0),
) -> np.ndarray:
    """Rasterize the spatially composed components at time ``at``.

    Components with a spatial placement are drawn back-to-front by z
    order; components without one are skipped (they are audio, or purely
    temporal). Pixels falling outside the canvas are clipped.
    """
    canvas = np.empty((height, width, 3), dtype=np.uint8)
    canvas[:] = np.array(background, dtype=np.uint8)
    spatial = sorted(
        (r for r in multimedia if r.is_spatial),
        key=lambda r: r.placement.z,
    )
    for relationship in spatial:
        frame = _frame_of(relationship, at)
        if frame is None:
            continue
        frame = _scaled(frame, relationship.placement.scale)
        x = int(relationship.placement.x)
        y = int(relationship.placement.y)
        fh, fw = frame.shape[:2]
        x0, y0 = max(0, x), max(0, y)
        x1, y1 = min(width, x + fw), min(height, y + fh)
        if x1 <= x0 or y1 <= y0:
            continue
        canvas[y0:y1, x0:x1] = frame[y0 - y:y1 - y, x0 - x:x1 - x]
    return canvas
