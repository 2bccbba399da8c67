"""E9 — ablation: multi-index lookup vs linear scan; layout comparison.

"Existing storage systems for time-based media use multiple index
structures, allowing rapid lookup of the element occurring at a specific
time" (§4.1, citing QuickTime's seven indexes). The ablation compares a
MediaIndex (run-length stts + chunked placement) against a naive linear
scan of the placement table, across stream sizes — and re-measures the
interleaved-vs-sequential layout trade-off at scale.
"""

import numpy as np
import pytest

from repro.bench.workloads import played_price
from repro.blob import MemoryBlob
from repro.core.interpretation import Interpretation
from repro.core.media_types import media_type_registry
from repro.storage.indexes import (
    ChunkOffsetTable,
    MediaIndex,
    SampleSizeTable,
    SampleToChunkTable,
    TimeToSampleTable,
)
from repro.storage.layout import (
    TrackSpec,
    write_interleaved,
    write_sequential,
)
from repro.core.time_system import CD_AUDIO_TIME, PAL_TIME


def build_index(count: int, rng) -> tuple[MediaIndex, list[tuple]]:
    """A variable-size constant-frequency stream + its raw table."""
    sizes = rng.integers(500, 1500, count).tolist()
    samples_per_chunk = 8
    chunk_count = (count + samples_per_chunk - 1) // samples_per_chunk
    offsets = []
    position = 0
    for chunk in range(chunk_count):
        offsets.append(position)
        begin = chunk * samples_per_chunk
        position += sum(sizes[begin:begin + samples_per_chunk])
    index = MediaIndex(
        time_to_sample=TimeToSampleTable([(count, 1)]),
        sample_sizes=SampleSizeTable.from_sizes(sizes),
        sample_to_chunk=SampleToChunkTable.uniform(samples_per_chunk,
                                                   chunk_count),
        chunk_offsets=ChunkOffsetTable(offsets),
    )
    # The naive flat table: (start, duration, size, offset).
    table = []
    position = 0
    for i, size in enumerate(sizes):
        table.append((i, 1, size, position))
        position += size
    return index, table


def linear_scan(table, tick):
    for start, duration, size, offset in table:
        if start <= tick < start + duration:
            return offset, size
    return None


@pytest.mark.parametrize("count", [1_000, 10_000, 50_000])
def test_indexed_lookup(benchmark, count):
    rng = np.random.default_rng(count)
    index, _ = build_index(count, rng)
    ticks = rng.integers(0, count, 200).tolist()

    def indexed():
        return [index.placement_at_time(t) for t in ticks]

    results = benchmark(indexed)
    assert all(r is not None for r in results)


@pytest.mark.parametrize("count", [1_000, 10_000])
def test_linear_scan_lookup(benchmark, count):
    rng = np.random.default_rng(count)
    _, table = build_index(count, rng)
    ticks = rng.integers(0, count, 200).tolist()

    def scan():
        return [linear_scan(table, t) for t in ticks]

    results = benchmark(scan)
    assert all(r is not None for r in results)


def test_lookup_ablation_table(report, benchmark):
    """Time-of-lookup series by stream length (the figure-like sweep)."""
    import time

    warm_index, _ = build_index(1_000, np.random.default_rng(0))
    benchmark(lambda: warm_index.placement_at_time(500))

    rows = []
    for count in (1_000, 10_000, 50_000):
        rng = np.random.default_rng(count)
        index, table = build_index(count, rng)
        ticks = rng.integers(0, count, 100).tolist()

        begin = time.perf_counter()
        for t in ticks:
            index.placement_at_time(t)
        indexed = (time.perf_counter() - begin) / len(ticks)

        begin = time.perf_counter()
        for t in ticks:
            linear_scan(table, t)
        scanned = (time.perf_counter() - begin) / len(ticks)

        rows.append((
            f"{count:,}",
            f"{indexed * 1e6:.1f} us",
            f"{scanned * 1e6:.1f} us",
            f"{scanned / indexed:.0f}x",
        ))
    report.table(
        "ablation-indexes",
        ("elements", "MediaIndex lookup", "linear scan", "speedup"),
        rows,
        title="§4.1 — element-at-time lookup: indexes vs scanning",
    )
    # Indexes must win by a growing margin.
    speedups = [float(r[3].rstrip("x")) for r in rows]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 10


#: Media types and descriptors of the layout ablation's two tracks.
LAYOUT_TYPES = {
    "video": ("pal-video", {"frame_rate": 25, "frame_width": 48,
                            "frame_height": 36, "frame_depth": 24,
                            "color_model": "RGB"}),
    "audio": ("cd-audio", {"sample_rate": 44100, "sample_size": 16,
                           "channels": 2, "encoding": "PCM"}),
}


def layout_interpretation(writer, tracks) -> Interpretation:
    """``tracks`` written by ``writer`` into a fresh BLOB, as the
    interpretation the player plays."""
    blob = MemoryBlob()
    placements = writer(blob, tracks)
    interpretation = Interpretation(blob, writer.__name__)
    for track in tracks:
        type_name, attributes = LAYOUT_TYPES[track.name]
        media_type = media_type_registry.get(type_name)
        interpretation.add(
            track.name, media_type,
            media_type.make_media_descriptor(**attributes),
            placements[track.name], time_system=track.time_system,
        )
    return interpretation


def test_layout_ablation_table(report, benchmark):
    """Interleaved vs sequential layout, priced by the player for one
    synchronized play, across stream lengths."""
    rows = []
    rng = np.random.default_rng(7)
    benchmark.pedantic(lambda: None, iterations=1, rounds=1)
    for frame_count in (50, 250, 1000):
        video = TrackSpec("video", PAL_TIME)
        audio = TrackSpec("audio", CD_AUDIO_TIME)
        for i in range(frame_count):
            video.add(b"\x00" * int(rng.integers(800, 1600)), i, 1)
            audio.add(b"\x00" * 441, i * 1764, 1764)
        interleaved_seeks, interleaved = played_price(
            layout_interpretation(write_interleaved, [video, audio]))
        sequential_seeks, sequential = played_price(
            layout_interpretation(write_sequential, [video, audio]))
        # Two tracks of n elements: laid out one after the other, every
        # one of the 2n - 1 switches between them is a seek.
        assert interleaved_seeks == 0
        assert sequential_seeks == 2 * frame_count - 1
        rows.append((
            frame_count,
            interleaved_seeks,
            f"{interleaved:.3f} s",
            sequential_seeks,
            f"{sequential:.3f} s",
            f"{sequential / interleaved:.2f}x",
        ))
    report.table(
        "ablation-layout",
        ("frames", "interleaved seeks", "interleaved page_read",
         "sequential seeks", "sequential page_read", "penalty"),
        rows,
        title="§2.2 — interleaving vs per-stream layout under "
              "synchronized playback (player, default CostModel)",
    )
    for row in rows:
        assert float(row[5].rstrip("x")) > 1.0
