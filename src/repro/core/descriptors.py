"""Media and element descriptors (Definition 1 support).

A *media descriptor* carries the encoding attributes of a media object as
a whole ("the minimum a database system should know about media
objects"): its kind, duration, quality factor, frame geometry or sample
format, data-rate statistics for resource allocation, and so on.

An *element descriptor* carries per-element attributes. Homogeneous
streams have a single constant element descriptor (subsumed by the media
descriptor); heterogeneous streams carry one per element — e.g. ADPCM
blocks with varying predictor state, or mixed-parameter compressed video
frames.

Descriptors are immutable mappings validated against their
:class:`~repro.core.media_types.MediaType` specification.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Iterator, Mapping

from repro.errors import DescriptorError


class _FrozenAttributes(Mapping[str, Any]):
    """Immutable attribute mapping shared by both descriptor classes."""

    __slots__ = ("_attrs",)

    def __init__(self, attributes: Mapping[str, Any] | None = None, **kwargs: Any):
        merged: dict[str, Any] = {}
        if attributes:
            merged.update(attributes)
        merged.update(kwargs)
        for key in merged:
            if not isinstance(key, str) or not key:
                raise DescriptorError(f"attribute names must be non-empty strings: {key!r}")
        self._attrs = MappingProxyType(dict(sorted(merged.items())))

    def __getitem__(self, key: str) -> Any:
        try:
            return self._attrs[key]
        except KeyError:
            raise DescriptorError(
                f"{type(self).__name__} has no attribute {key!r}; "
                f"present: {', '.join(self._attrs) or '(none)'}"
            ) from None

    def __contains__(self, key: object) -> bool:
        # Mapping.__contains__ would probe __getitem__ and expect
        # KeyError; our __getitem__ raises DescriptorError, so membership
        # is answered directly.
        return key in self._attrs

    def __iter__(self) -> Iterator[str]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _FrozenAttributes):
            return dict(self._attrs) == dict(other._attrs)
        if isinstance(other, Mapping):
            return dict(self._attrs) == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, tuple(self._attrs.items())))

    def get(self, key: str, default: Any = None) -> Any:
        return self._attrs.get(key, default)

    def with_updates(self, **kwargs: Any):
        """Return a copy with the given attributes replaced or added."""
        merged = dict(self._attrs)
        merged.update(kwargs)
        return type(self)(merged)

    def without(self, *keys: str):
        """Return a copy with the given attributes removed (if present)."""
        remaining = {k: v for k, v in self._attrs.items() if k not in keys}
        return type(self)(remaining)

    def as_dict(self) -> dict[str, Any]:
        return dict(self._attrs)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self._attrs.items())
        return f"{type(self).__name__}({body})"


class MediaDescriptor(_FrozenAttributes):
    """Attributes describing a media object as a whole.

    Conventional attribute names used throughout the library (media types
    declare which are required):

    ``kind``
        The media kind name (``"audio"``, ``"video"``, ...).
    ``category``
        The stream category (``"homogeneous, constant frequency"``...).
    ``quality_factor``
        Descriptive quality (``"VHS quality"``, ``"CD quality"``).
    ``duration``
        Total duration in rational seconds.
    ``offset_ticks``
        Ticks a temporal translation moved every element start by (§4.2);
        absent for an untranslated object.
    ``frame_rate`` / ``sample_rate``
        Element frequency of the underlying time system.
    ``frame_width`` / ``frame_height`` / ``frame_depth`` / ``color_model``
        Video geometry.
    ``sample_size`` / ``channels``
        Audio format.
    ``encoding``
        Encoding chain description (``"YUV 8:2:2, JPEG"``, ``"PCM"``).
    ``average_data_rate`` / ``peak_data_rate``
        Bytes per second, "information that helps allocate resources for
        playback" (§4.1).
    """

    __slots__ = ()

    def describe(self) -> str:
        """Multi-line rendering in the style of the paper's Figure 2 text."""
        lines = [f"{k} = {v}" for k, v in self.items()]
        return "{ " + "\n  ".join(lines) + " }"


class ElementDescriptor(_FrozenAttributes):
    """Attributes describing an individual media element.

    Used by heterogeneous streams where elements differ, e.g. image size
    and compression parameters per frame, or ADPCM predictor/step state
    per audio block. Homogeneous streams use a single shared instance (or
    none, when the media descriptor subsumes it).
    """

    __slots__ = ()
