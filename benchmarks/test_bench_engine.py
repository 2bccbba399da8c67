"""E7 — timing behaviour: jitter vs buffering, out-of-order decode cost.

Two of the paper's engine-level claims, measured:

* §5: playback "jitter ... can be removed by the application just prior
  to presentation" — a prefetch-depth sweep shows underruns/jitter
  falling as buffering grows, at the cost of startup delay.
* §2.2: out-of-order key elements mean random access must decode back to
  the previous key; the sync-sample index bounds that work.
"""

import pytest

from repro.bench.workloads import figure2_capture, played_price
from repro.codecs.mpeg_like import MpegLikeCodec
from repro.engine import CostModel, Player
from repro.media import frames
from repro.storage.indexes import SyncSampleTable


@pytest.fixture(scope="module")
def starved_capture():
    """A capture whose required rate exceeds the simulated bandwidth."""
    return figure2_capture(width=160, height=120, seconds=2.0)


def test_jitter_vs_prefetch_depth(report, benchmark, starved_capture):
    interpretation = starved_capture.interpretation
    # Bandwidth at ~85% of required rate: jitter is inevitable without
    # buffering.
    required = float(
        interpretation.sequence("video1").media_descriptor["average_data_rate"]
        + interpretation.sequence("audio1").media_descriptor["average_data_rate"]
    )
    cost = CostModel(bandwidth=int(required * 1.02), seek_time="1/200")

    rows = []
    results = {}
    for depth in (1, 2, 4, 8, 16, 32):
        play = Player(cost, prefetch_depth=depth).play(interpretation)
        results[depth] = play
        rows.append((
            depth,
            f"{float(play.startup_delay) * 1000:.0f} ms",
            play.underruns,
            f"{play.underrun_fraction:.0%}",
            f"{float(play.jitter) * 1000:.1f} ms",
        ))
    report.table(
        "engine-jitter",
        ("prefetch depth", "startup delay", "underruns", "fraction",
         "jitter"),
        rows,
        title="§5 — jitter removed by buffering (bandwidth at ~102% of "
              "required rate)",
    )

    # Shape: underruns fall monotonically-ish with depth and reach zero;
    # startup delay grows.
    assert results[32].underruns <= results[1].underruns
    assert results[32].startup_delay > results[1].startup_delay
    assert results[32].underruns == 0

    benchmark(lambda: Player(cost, prefetch_depth=8).play(interpretation))


def test_seek_decode_work(report, benchmark):
    """Frames a seek must decode, per GOP pattern (the price of
    out-of-order/inter coding)."""
    rows = []
    for pattern in ("IPPP", "IBBP", "IPPPPPPP"):
        codec = MpegLikeCodec(quality=40, gop_pattern=pattern)
        shot = frames.scene(48, 32, 16, "orbit")
        encoded = codec.encode_sequence(shot)
        sync = SyncSampleTable(
            [f.display_index for f in encoded if f.is_key]
        )
        work = [
            sync.decode_span(display)[1] - sync.decode_span(display)[0] + 1
            for display in range(16)
        ]
        rows.append((
            pattern,
            len(sync.sync_samples),
            f"{sum(work) / len(work):.2f}",
            max(work),
        ))
    report.table(
        "engine-seek",
        ("GOP pattern", "key frames / 16", "mean decode work", "worst"),
        rows,
        title="§2.2 — random access cost under inter-frame coding",
    )
    # All-intra would be 1.0 everywhere; longer GOPs cost more.
    assert rows[2][3] > rows[0][3] or rows[2][2] > rows[0][2]

    codec = MpegLikeCodec(quality=40, gop_pattern="IBBP")
    shot = frames.scene(48, 32, 8, "orbit")
    encoded = codec.encode_sequence(shot)
    benchmark(lambda: codec.decode_sequence(encoded))


def test_interleaving_keeps_sync(report, benchmark, starved_capture):
    """Interleaved layout plays both streams without seeks; the same
    material laid out sequentially seeks at every switch between them."""
    from repro.blob import MemoryBlob
    from repro.core.interpretation import Interpretation
    from repro.storage.layout import TrackSpec, write_sequential

    interpretation = starved_capture.interpretation
    tracks = []
    # Track priority must match the recorded layout (video frames first,
    # "audio samples following the associated video frame").
    for name in ("video1", "audio1"):
        sequence = interpretation.sequence(name)
        track = TrackSpec(name, sequence.time_system)
        for entry in sequence:
            track.add(b"\x00" * entry.size, entry.start, entry.duration)
        tracks.append(track)
    blob = MemoryBlob()
    sequential = Interpretation(blob, "sequential")
    for name, rows in write_sequential(blob, tracks).items():
        source = interpretation.sequence(name)
        sequential.add(name, source.media_type, source.media_descriptor,
                       rows, time_system=source.time_system)

    seeks, seconds = benchmark(lambda: played_price(interpretation))
    sequential_seeks, sequential_seconds = played_price(sequential)
    report.add(
        "engine-interleave",
        "[engine-interleave] synchronized play at the default CostModel: "
        f"interleaved {seeks} seeks, {seconds:.3f} s of page reads vs "
        f"sequential {sequential_seeks} seeks, {sequential_seconds:.3f} s "
        f"({sequential_seconds / seconds:.2f}x) — why §2.2 interleaves",
    )
    # Two tracks of n elements: laid out one after the other, every one
    # of the 2n - 1 switches between them is a seek.
    elements = len(interpretation.sequence("video1"))
    assert len(interpretation.sequence("audio1")) == elements
    assert seeks == 0
    assert sequential_seeks == 2 * elements - 1
    assert seconds < sequential_seconds
