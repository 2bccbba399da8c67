"""Derive a :class:`~repro.storage.indexes.MediaIndex` from a placement table.

The placement table is the logical view of an interpretation (§4.1);
this builds the physical index structures from it, so that tests can
hold the index's lookups to the table they were derived from on real
recordings: run-length durations, sample sizes, and chunks discovered
from BLOB adjacency (elements placed back-to-back share a chunk, so
interleaving breaks chunks exactly where another stream's elements
intervene).
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.storage.indexes import (
    ChunkOffsetTable,
    MediaIndex,
    SampleSizeTable,
    SampleToChunkTable,
    TimeToSampleTable,
)


def index_for_sequence(sequence) -> MediaIndex:
    """Build a :class:`MediaIndex` from an interpreted sequence."""
    entries = list(sequence.entries)
    if not entries:
        raise StorageError(f"sequence {sequence.name!r} is empty")
    # stts lays samples back-to-back from time zero; only continuous,
    # zero-based sequences fit that shape (gapped/overlapping media keep
    # the explicit table).
    if entries[0].start != 0 or any(
        b.start != a.end for a, b in zip(entries, entries[1:])
    ):
        raise StorageError(
            f"sequence {sequence.name!r} is not continuous from 0; "
            "MediaIndex covers continuous streams only"
        )
    time_to_sample = TimeToSampleTable.from_durations(
        [e.duration for e in entries]
    )
    sample_sizes = SampleSizeTable.from_sizes([e.size for e in entries])

    # Chunk discovery: a new chunk starts wherever placement is not
    # contiguous with the previous element.
    chunk_offsets: list[int] = []
    chunk_counts: list[int] = []
    expected_offset: int | None = None
    for entry in entries:
        if entry.blob_offset != expected_offset:
            chunk_offsets.append(entry.blob_offset)
            chunk_counts.append(1)
        else:
            chunk_counts[-1] += 1
        expected_offset = entry.blob_offset + entry.size

    stsc_entries: list[tuple[int, int]] = []
    for chunk_number, count in enumerate(chunk_counts):
        if not stsc_entries or stsc_entries[-1][1] != count:
            stsc_entries.append((chunk_number, count))
    return MediaIndex(
        time_to_sample=time_to_sample,
        sample_sizes=sample_sizes,
        sample_to_chunk=SampleToChunkTable(stsc_entries, len(chunk_offsets)),
        chunk_offsets=ChunkOffsetTable(chunk_offsets),
    )
