"""Physical layout: interleaving, padding, sequential placement.

§2.2's complications, produced for real:

* **interleaving** — "in order to simplify synchronization of streams
  during playback, their elements may be interleaved in a single storage
  unit". :func:`write_interleaved` merges tracks by presentation time
  (Figure 2: "audio samples following the associated video frame").
* **padding** — "storage units may be padded with unused data to match
  storage transfer rates to media data rates. This is commonly used in
  CD-I". The writer can align every element to a sector boundary.
* **sequential** — one track after another, for the layout ablation
  (interleaved vs separate under synchronized playback).

Writers return the per-track :class:`~repro.core.interpretation.PlacementEntry`
lists, so building the Definition 5 interpretation is one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blob.blob import Blob
from repro.core.descriptors import ElementDescriptor
from repro.core.interpretation import PlacementEntry
from repro.core.rational import Rational
from repro.core.time_system import DiscreteTimeSystem
from repro.errors import StorageError

#: CD-ROM Mode 2 sector payload size, the CD-I unit.
CD_SECTOR_SIZE = 2324


@dataclass(frozen=True, slots=True)
class ElementData:
    """One element ready to be placed: bytes + timing + descriptor."""

    data: bytes
    start: int
    duration: int
    descriptor: ElementDescriptor | None = None


@dataclass
class TrackSpec:
    """A named sequence of encoded elements in one time system."""

    name: str
    time_system: DiscreteTimeSystem
    elements: list[ElementData] = field(default_factory=list)

    def add(self, data: bytes, start: int, duration: int,
            descriptor: ElementDescriptor | None = None) -> "TrackSpec":
        self.elements.append(ElementData(data, start, duration, descriptor))
        return self

    def start_seconds(self, index: int) -> Rational:
        return self.time_system.to_continuous(self.elements[index].start)

    def total_bytes(self) -> int:
        return sum(len(e.data) for e in self.elements)


class StorageWriter:
    """Append-only writer over a BLOB with optional sector alignment."""

    def __init__(self, blob: Blob, sector_size: int | None = None):
        if sector_size is not None and sector_size <= 0:
            raise StorageError(f"sector size must be positive, got {sector_size}")
        self.blob = blob
        self.sector_size = sector_size
        self.padding_bytes = 0

    def pad_to_sector(self) -> int:
        """Pad to the next sector boundary; returns bytes written."""
        if not self.sector_size:
            return 0
        remainder = len(self.blob) % self.sector_size
        if remainder == 0:
            return 0
        pad = self.sector_size - remainder
        self.blob.append(b"\x00" * pad)
        self.padding_bytes += pad
        return pad

    def write_element(self, data: bytes) -> int:
        """Place one element (sector-aligned when configured)."""
        self.pad_to_sector()
        return self.blob.append(data)


def write_interleaved(
    blob: Blob,
    tracks: list[TrackSpec],
    sector_size: int | None = None,
) -> dict[str, list[PlacementEntry]]:
    """Write all tracks into one BLOB, interleaved by presentation time.

    Elements across tracks are merged on their continuous start times;
    ties go to the earlier track in ``tracks`` (video first in Figure 2,
    so "audio samples following the associated video frame"). Element
    order within each track is preserved.

    Returns per-track placement rows ready for
    :meth:`Interpretation.add`.
    """
    _check_tracks(tracks)
    writer = StorageWriter(blob, sector_size)
    # (start_seconds, track_priority, element_index) defines the merge.
    schedule = sorted(
        (track.start_seconds(i), priority, i)
        for priority, track in enumerate(tracks)
        for i in range(len(track.elements))
    )
    placements: dict[str, list[PlacementEntry]] = {t.name: [] for t in tracks}
    for _, priority, index in schedule:
        track = tracks[priority]
        element = track.elements[index]
        offset = writer.write_element(element.data)
        placements[track.name].append(PlacementEntry(
            element_number=index,
            start=element.start,
            duration=element.duration,
            size=len(element.data),
            blob_offset=offset,
            element_descriptor=element.descriptor,
        ))
    for rows in placements.values():
        rows.sort(key=lambda e: e.element_number)
    return placements


def write_sequential(
    blob: Blob,
    tracks: list[TrackSpec],
    sector_size: int | None = None,
) -> dict[str, list[PlacementEntry]]:
    """Write each track contiguously, one after another."""
    _check_tracks(tracks)
    writer = StorageWriter(blob, sector_size)
    placements: dict[str, list[PlacementEntry]] = {}
    for track in tracks:
        rows = []
        for index, element in enumerate(track.elements):
            offset = writer.write_element(element.data)
            rows.append(PlacementEntry(
                element_number=index,
                start=element.start,
                duration=element.duration,
                size=len(element.data),
                blob_offset=offset,
                element_descriptor=element.descriptor,
            ))
        placements[track.name] = rows
    return placements


def _check_tracks(tracks: list[TrackSpec]) -> None:
    if not tracks:
        raise StorageError("need at least one track")
    names = [t.name for t in tracks]
    if len(set(names)) != len(names):
        raise StorageError(f"duplicate track names in {names}")
