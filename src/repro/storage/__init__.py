"""Storage layer: layout, interleaving, padding, indexes, container.

Definition 5's placement tables are "a logical view of the interpretation
mapping — existing storage systems for time-based media use multiple
index structures, allowing rapid lookup of the element occurring at a
specific time and the clustering of elements for performance reasons.
(For example, QuickTime uses up to seven indexes for a single timed
stream.)"

This package provides those seven index structures
(:mod:`repro.storage.indexes`), the physical layout policies that
produce interleaved and padded BLOBs (:mod:`repro.storage.layout`,
which also holds the interleaving), and a serializable container format
bundling a BLOB with its interpretation (:mod:`repro.storage.container`).
"""

from repro.storage.indexes import (
    ChunkOffsetTable,
    CompositionOffsetTable,
    EditListTable,
    MediaIndex,
    SampleSizeTable,
    SampleToChunkTable,
    SyncSampleTable,
    TimeToSampleTable,
)
from repro.storage.layout import (
    CD_SECTOR_SIZE,
    StorageWriter,
    TrackSpec,
    write_interleaved,
    write_sequential,
)
from repro.storage.container import read_container, write_container

__all__ = [
    "ChunkOffsetTable",
    "CompositionOffsetTable",
    "EditListTable",
    "MediaIndex",
    "SampleSizeTable",
    "SampleToChunkTable",
    "SyncSampleTable",
    "TimeToSampleTable",
    "CD_SECTOR_SIZE",
    "StorageWriter",
    "TrackSpec",
    "write_interleaved",
    "write_sequential",
    "read_container",
    "write_container",
]
