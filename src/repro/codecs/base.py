"""Codec interfaces.

A codec maps an element payload to bytes and back. The data model never
calls codecs directly — interpretations hand a codec's ``decode`` to
:meth:`~repro.core.interpretation.Interpretation.materialize`, and
recording paths call ``encode`` before appending to a BLOB — so the
interface is deliberately tiny.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.errors import CodecError


class Codec(ABC):
    """Encode element payloads to bytes and back.

    Attributes
    ----------
    name:
        Registry key, also recorded in media descriptors' ``encoding``
        attribute so an interpretation can name its decoder.
    """

    name: str = "identity"

    @abstractmethod
    def encode(self, payload: Any) -> bytes:
        """Serialize one element payload."""

    @abstractmethod
    def decode(self, data: bytes) -> Any:
        """Invert :meth:`encode` (up to loss for lossy codecs)."""

    @property
    def is_lossy(self) -> bool:
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True, slots=True)
class EncodedFrame:
    """An encoded video frame with ordering metadata.

    Inter-frame codecs place key frames "in storage units prior to the
    intermediate elements" (§2.2), so each encoded frame carries both its
    display position and its decode (storage) position.
    """

    data: bytes
    kind: str = "I"
    display_index: int = 0
    decode_index: int = 0

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def is_key(self) -> bool:
        return self.kind == "I"


def read_header(layout: struct.Struct, magic: bytes, data: bytes) -> tuple:
    """The fields after ``magic`` of the ``layout`` header opening ``data``."""
    if len(data) < layout.size:
        raise CodecError("frame too short for header")
    fields = layout.unpack_from(data)
    if fields[0] != magic:
        raise CodecError(f"bad magic {fields[0]!r}")
    return fields[1:]


def read_part(data: bytes, offset: int) -> tuple[bytes, int]:
    """The u32-length-prefixed part at ``offset``, and the offset past it."""
    end = offset + 4 + int.from_bytes(data[offset:offset + 4], "big")
    if end > len(data):
        raise CodecError("frame truncated inside a part")
    return data[offset + 4:end], end
