"""Media elements: the atoms of timed streams.

"The term 'media element' includes such things as video frames, audio
samples and musical notes" (§2.2). The model does not prescribe element
payloads — an element may be raw pixel data, an encoded frame, a note, or
a reference into a BLOB — so :class:`MediaElement` is a small wrapper
pairing a payload with an optional element descriptor and a size.

Size matters to the model (it drives data-rate categories and BLOB
placement), so it is explicit rather than inferred from the payload,
which may be ``None`` for elements that live only in a BLOB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.descriptors import ElementDescriptor
from repro.errors import StreamError


@dataclass(frozen=True, slots=True)
class MediaElement:
    """One media element: payload + size + optional per-element descriptor.

    Parameters
    ----------
    payload:
        The element's value. May be raw data (``bytes``, an array), a
        domain object (a :class:`~repro.media.music.Note`), or ``None``
        when the element's data lives in a BLOB and is reached through an
        interpretation.
    size:
        Element size in bytes. Drives the constant-data-rate and uniform
        stream categories and BLOB placement arithmetic.
    descriptor:
        Per-element descriptor for heterogeneous streams; ``None`` for
        homogeneous streams.
    """

    payload: Any = None
    size: int = 0
    descriptor: ElementDescriptor | None = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise StreamError(f"element size must be non-negative, got {self.size}")

    def __repr__(self) -> str:
        desc = f", descriptor={self.descriptor!r}" if self.descriptor else ""
        payload = "…" if self.payload is not None else "None"
        return f"MediaElement(payload={payload}, size={self.size}{desc})"
