"""QuickTime-style index structures for timed streams.

"Existing storage systems for time-based media use multiple index
structures, allowing rapid lookup of the element occurring at a specific
time and the clustering of elements for performance reasons. (For
example, QuickTime uses up to seven indexes for a single timed stream.)"
(§4.1)

The seven, mirroring QuickTime's stts/stsz/stsc/stco/stss/ctts/elst
atoms:

1. :class:`TimeToSampleTable` — run-length (count, duration) pairs;
2. :class:`SampleSizeTable` — constant size or per-sample sizes;
3. :class:`SampleToChunkTable` — runs of samples-per-chunk;
4. :class:`ChunkOffsetTable` — chunk byte offsets in the BLOB;
5. :class:`SyncSampleTable` — key (I-frame) sample numbers;
6. :class:`CompositionOffsetTable` — decode-to-display offsets
   (out-of-order elements);
7. :class:`EditListTable` — segments mapping movie time to media time.

:class:`MediaIndex` composes them into the two lookups interpretation
needs: *element at time* and *element placement*. "The indexes used to
implement interpretation should not be visible to applications" — they
live here, below :class:`~repro.core.interpretation.Interpretation`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.errors import StorageError


class TimeToSampleTable:
    """Run-length encoded per-sample durations (QuickTime ``stts``)."""

    def __init__(self, runs: list[tuple[int, int]]):
        """``runs`` is a list of (sample_count, duration_ticks) pairs."""
        self.runs = []
        for count, duration in runs:
            if count <= 0 or duration < 0:
                raise StorageError(f"bad stts run ({count}, {duration})")
            # Merge adjacent equal-duration runs for compactness.
            if self.runs and self.runs[-1][1] == duration:
                self.runs[-1] = (self.runs[-1][0] + count, duration)
            else:
                self.runs.append((count, duration))
        self._cumulative_samples = []
        self._cumulative_ticks = []
        samples = ticks = 0
        for count, duration in self.runs:
            samples += count
            ticks += count * duration
            self._cumulative_samples.append(samples)
            self._cumulative_ticks.append(ticks)

    @classmethod
    def from_durations(cls, durations: list[int]) -> "TimeToSampleTable":
        runs = [(1, d) for d in durations]
        return cls(runs)

    @property
    def sample_count(self) -> int:
        return self._cumulative_samples[-1] if self.runs else 0

    @property
    def total_ticks(self) -> int:
        return self._cumulative_ticks[-1] if self.runs else 0

    def duration_of(self, sample: int) -> int:
        self._check_sample(sample)
        run = bisect.bisect_right(self._cumulative_samples, sample)
        return self.runs[run][1]

    def time_of(self, sample: int) -> int:
        """Start tick of ``sample`` (samples are laid out back to back)."""
        self._check_sample(sample)
        run = bisect.bisect_right(self._cumulative_samples, sample)
        prior_samples = self._cumulative_samples[run - 1] if run else 0
        prior_ticks = self._cumulative_ticks[run - 1] if run else 0
        return prior_ticks + (sample - prior_samples) * self.runs[run][1]

    def sample_at(self, tick: int) -> int:
        """Sample number covering ``tick``.

        Raises :class:`StorageError` for ticks outside the stream.
        """
        if tick < 0 or tick >= self.total_ticks:
            raise StorageError(
                f"tick {tick} outside stream of {self.total_ticks} ticks"
            )
        run = bisect.bisect_right(self._cumulative_ticks, tick)
        prior_samples = self._cumulative_samples[run - 1] if run else 0
        prior_ticks = self._cumulative_ticks[run - 1] if run else 0
        duration = self.runs[run][1]
        if duration == 0:
            return prior_samples
        return prior_samples + (tick - prior_ticks) // duration

    def entry_count(self) -> int:
        """Stored entries — the compaction the run-length form buys."""
        return len(self.runs)

    def _check_sample(self, sample: int) -> None:
        if not 0 <= sample < self.sample_count:
            raise StorageError(
                f"sample {sample} out of range [0, {self.sample_count})"
            )


class SampleSizeTable:
    """Per-sample byte sizes, or one constant size (QuickTime ``stsz``)."""

    def __init__(self, sizes: list[int] | None = None,
                 constant_size: int | None = None, count: int = 0):
        if (sizes is None) == (constant_size is None):
            raise StorageError("pass exactly one of sizes / constant_size")
        if constant_size is not None:
            if constant_size < 0 or count < 0:
                raise StorageError("bad constant-size table")
            self.constant_size = constant_size
            self.sizes = None
            self._count = count
        else:
            if any(s < 0 for s in sizes):
                raise StorageError("sizes must be non-negative")
            self.constant_size = None
            self.sizes = list(sizes)
            self._count = len(self.sizes)

    @classmethod
    def from_sizes(cls, sizes: list[int]) -> "SampleSizeTable":
        """Build, collapsing to constant form when possible."""
        distinct = set(sizes)
        if len(distinct) == 1:
            return cls(constant_size=next(iter(distinct)), count=len(sizes))
        return cls(sizes=sizes)

    @property
    def sample_count(self) -> int:
        return self._count

    @property
    def is_constant(self) -> bool:
        return self.constant_size is not None

    def size_of(self, sample: int) -> int:
        if not 0 <= sample < self._count:
            raise StorageError(f"sample {sample} out of range [0, {self._count})")
        if self.constant_size is not None:
            return self.constant_size
        return self.sizes[sample]

    def total_bytes(self) -> int:
        if self.constant_size is not None:
            return self.constant_size * self._count
        return sum(self.sizes)


class SampleToChunkTable:
    """Runs of samples-per-chunk (QuickTime ``stsc``).

    Entries are ``(first_chunk, samples_per_chunk)`` with ``first_chunk``
    zero-based and strictly increasing; each entry applies until the next.
    """

    def __init__(self, entries: list[tuple[int, int]], chunk_count: int):
        if not entries or entries[0][0] != 0:
            raise StorageError("stsc must start at chunk 0")
        for (a, sa), (b, sb) in zip(entries, entries[1:]):
            if b <= a:
                raise StorageError("stsc first_chunk must increase")
        for _, per in entries:
            if per <= 0:
                raise StorageError("samples per chunk must be positive")
        if chunk_count < entries[-1][0] + 1:
            raise StorageError("chunk_count smaller than last stsc entry")
        self.entries = list(entries)
        self.chunk_count = chunk_count
        # Cumulative samples before each chunk, for O(log n) lookups.
        self._first_sample_of_chunk = []
        sample = 0
        entry_index = 0
        for chunk in range(chunk_count):
            if (entry_index + 1 < len(self.entries)
                    and self.entries[entry_index + 1][0] == chunk):
                entry_index += 1
            self._first_sample_of_chunk.append(sample)
            sample += self.entries[entry_index][1]
        self._total_samples = sample

    @classmethod
    def uniform(cls, samples_per_chunk: int, chunk_count: int) -> "SampleToChunkTable":
        return cls([(0, samples_per_chunk)], chunk_count)

    @property
    def sample_count(self) -> int:
        return self._total_samples

    def samples_in_chunk(self, chunk: int) -> int:
        self._check_chunk(chunk)
        if chunk + 1 < self.chunk_count:
            return self._first_sample_of_chunk[chunk + 1] - self._first_sample_of_chunk[chunk]
        return self._total_samples - self._first_sample_of_chunk[chunk]

    def chunk_of(self, sample: int) -> tuple[int, int]:
        """(chunk, index_within_chunk) of ``sample``."""
        if not 0 <= sample < self._total_samples:
            raise StorageError(
                f"sample {sample} out of range [0, {self._total_samples})"
            )
        chunk = bisect.bisect_right(self._first_sample_of_chunk, sample) - 1
        return chunk, sample - self._first_sample_of_chunk[chunk]

    def first_sample_of(self, chunk: int) -> int:
        self._check_chunk(chunk)
        return self._first_sample_of_chunk[chunk]

    def _check_chunk(self, chunk: int) -> None:
        if not 0 <= chunk < self.chunk_count:
            raise StorageError(
                f"chunk {chunk} out of range [0, {self.chunk_count})"
            )


class ChunkOffsetTable:
    """Byte offset of each chunk in the BLOB (QuickTime ``stco``)."""

    def __init__(self, offsets: list[int]):
        if any(o < 0 for o in offsets):
            raise StorageError("chunk offsets must be non-negative")
        self.offsets = list(offsets)

    @property
    def chunk_count(self) -> int:
        return len(self.offsets)

    def offset_of(self, chunk: int) -> int:
        if not 0 <= chunk < len(self.offsets):
            raise StorageError(
                f"chunk {chunk} out of range [0, {len(self.offsets)})"
            )
        return self.offsets[chunk]


class SyncSampleTable:
    """Key (sync) sample numbers (QuickTime ``stss``).

    Random access must start decoding at a key element; intermediate
    (P/B) elements depend on it.
    """

    def __init__(self, sync_samples: list[int]):
        ordered = sorted(set(sync_samples))
        if ordered and ordered[0] < 0:
            raise StorageError("sync samples must be non-negative")
        self.sync_samples = ordered

    def is_sync(self, sample: int) -> bool:
        index = bisect.bisect_left(self.sync_samples, sample)
        return index < len(self.sync_samples) and self.sync_samples[index] == sample

    def sync_before(self, sample: int) -> int:
        """Latest sync sample at or before ``sample`` (for seeking)."""
        index = bisect.bisect_right(self.sync_samples, sample)
        if index == 0:
            raise StorageError(f"no sync sample at or before {sample}")
        return self.sync_samples[index - 1]

    def decode_span(self, sample: int) -> tuple[int, int]:
        """Samples ``[sync, sample]`` that a seek to ``sample`` must decode."""
        sync = self.sync_before(sample)
        return sync, sample


class CompositionOffsetTable:
    """Decode-order to display-order mapping (QuickTime ``ctts``-like).

    Stored as the display index of each sample in decode (storage)
    order; exposes both directions. This is the paper's "placement order
    could be 1, 4, 2, 3" made queryable.
    """

    def __init__(self, display_of_decode: list[int]):
        count = len(display_of_decode)
        if sorted(display_of_decode) != list(range(count)):
            raise StorageError(
                "composition table must be a permutation of 0..n-1"
            )
        self.display_of_decode = list(display_of_decode)
        self._decode_of_display = [0] * count
        for decode_index, display_index in enumerate(display_of_decode):
            self._decode_of_display[display_index] = decode_index

    @property
    def sample_count(self) -> int:
        return len(self.display_of_decode)

    def display_index(self, decode_index: int) -> int:
        self._check(decode_index)
        return self.display_of_decode[decode_index]

    def decode_index(self, display_index: int) -> int:
        self._check(display_index)
        return self._decode_of_display[display_index]

    def is_identity(self) -> bool:
        return all(i == d for i, d in enumerate(self.display_of_decode))

    def max_reorder_distance(self) -> int:
        """Largest |decode - display| gap — bounds the reorder buffer."""
        return max(
            (abs(i - d) for i, d in enumerate(self.display_of_decode)),
            default=0,
        )

    def _check(self, index: int) -> None:
        if not 0 <= index < len(self.display_of_decode):
            raise StorageError(
                f"index {index} out of range [0, {len(self.display_of_decode)})"
            )


@dataclass(frozen=True, slots=True)
class EditSegment:
    """One edit-list segment: ``duration`` ticks of movie time taken from
    media time starting at ``media_start`` (-1 = empty/black segment)."""

    duration: int
    media_start: int

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise StorageError("edit segment duration must be positive")
        if self.media_start < -1:
            raise StorageError("media_start must be >= -1")


class EditListTable:
    """Movie-time to media-time mapping (QuickTime ``elst``)."""

    def __init__(self, segments: list[EditSegment]):
        self.segments = list(segments)
        self._cumulative = []
        total = 0
        for segment in self.segments:
            total += segment.duration
            self._cumulative.append(total)

    @classmethod
    def identity(cls, total_ticks: int) -> "EditListTable":
        return cls([EditSegment(total_ticks, 0)] if total_ticks else [])

    @property
    def total_ticks(self) -> int:
        return self._cumulative[-1] if self.segments else 0

    def media_time(self, movie_tick: int) -> int | None:
        """Media tick for ``movie_tick`` (None inside an empty segment)."""
        if movie_tick < 0 or movie_tick >= self.total_ticks:
            raise StorageError(
                f"movie tick {movie_tick} outside edit list of "
                f"{self.total_ticks} ticks"
            )
        index = bisect.bisect_right(self._cumulative, movie_tick)
        segment = self.segments[index]
        prior = self._cumulative[index - 1] if index else 0
        if segment.media_start < 0:
            return None
        return segment.media_start + (movie_tick - prior)


class MediaIndex:
    """The composite index an interpretation uses internally.

    Answers the two questions of §4.1 in O(log n): *which element occurs
    at time t* and *where is element n in the BLOB*.
    """

    def __init__(
        self,
        time_to_sample: TimeToSampleTable,
        sample_sizes: SampleSizeTable,
        sample_to_chunk: SampleToChunkTable,
        chunk_offsets: ChunkOffsetTable,
        sync_samples: SyncSampleTable | None = None,
        composition: CompositionOffsetTable | None = None,
        edit_list: EditListTable | None = None,
    ):
        count = time_to_sample.sample_count
        for table, label in ((sample_sizes, "stsz"), (sample_to_chunk, "stsc")):
            if table.sample_count != count:
                raise StorageError(
                    f"{label} covers {table.sample_count} samples, "
                    f"stts covers {count}"
                )
        if sample_to_chunk.chunk_count != chunk_offsets.chunk_count:
            raise StorageError("stsc and stco disagree on chunk count")
        if composition is not None and composition.sample_count != count:
            raise StorageError("ctts covers a different sample count")
        self.time_to_sample = time_to_sample
        self.sample_sizes = sample_sizes
        self.sample_to_chunk = sample_to_chunk
        self.chunk_offsets = chunk_offsets
        self.sync_samples = sync_samples
        self.composition = composition
        self.edit_list = edit_list or EditListTable.identity(
            time_to_sample.total_ticks
        )

    @property
    def sample_count(self) -> int:
        return self.time_to_sample.sample_count

    def placement(self, sample: int) -> tuple[int, int]:
        """(blob_offset, size) of ``sample`` — in *decode/storage* order.

        The chunk's base offset plus the sizes of the samples preceding
        it within the chunk.
        """
        chunk, within = self.sample_to_chunk.chunk_of(sample)
        offset = self.chunk_offsets.offset_of(chunk)
        first = self.sample_to_chunk.first_sample_of(chunk)
        for prior in range(first, first + within):
            offset += self.sample_sizes.size_of(prior)
        return offset, self.sample_sizes.size_of(sample)

    def sample_at_time(self, movie_tick: int) -> int | None:
        """Display sample at ``movie_tick`` (through the edit list)."""
        media_tick = self.edit_list.media_time(movie_tick)
        if media_tick is None:
            return None
        return self.time_to_sample.sample_at(media_tick)

    def placement_at_time(self, movie_tick: int) -> tuple[int, int] | None:
        """BLOB placement of the element presented at ``movie_tick``.

        Composition reordering is applied: the display sample's bytes sit
        at its *decode* position.
        """
        display = self.sample_at_time(movie_tick)
        if display is None:
            return None
        if self.composition is not None:
            return self.placement(self.composition.decode_index(display))
        return self.placement(display)

    def seek_decode_work(self, movie_tick: int) -> int:
        """Elements that must be decoded to present ``movie_tick``.

        1 for all-key streams; up to the sync distance for inter-coded
        streams. Drives the random-access ablation.
        """
        display = self.sample_at_time(movie_tick)
        if display is None:
            return 0
        if self.sync_samples is None:
            return 1
        sync, target = self.sync_samples.decode_span(display)
        return target - sync + 1
