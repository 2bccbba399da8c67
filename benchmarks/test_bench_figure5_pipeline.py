"""E5 — Figure 5: successive interpretation, derivation and composition.

The full stack as one benchmark: capture raw material -> record into a
BLOB (interpretation built during the write) -> derive the edited picture
-> compose the multimedia object -> simulate playback. Regenerates the
figure as a layer table with the object counts and byte volumes at each
level.
"""

import pytest

from repro.bench.reporting import format_bytes
from repro.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.pcm import PcmCodec
from repro.core.composition import MultimediaObject
from repro.core.rational import Rational
from repro.edit import MediaEditor
from repro.engine import CostModel, Player, Recorder
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object


def build_stack(width=96, height=72, frame_count=40):
    shot1 = video_object(frames.scene(width, height, frame_count, "orbit"),
                         "shot1")
    shot2 = video_object(frames.scene(width, height, frame_count, "cut"),
                         "shot2")
    # Picture length: (frame_count - 4) + 8 + (frame_count - 4) frames.
    seconds = 2 * frame_count / 25
    music = audio_object(signals.sine(330, seconds, 8000), "music",
                         sample_rate=8000, block_samples=320)

    blob = MemoryBlob()
    interpretation = Recorder(blob).record(
        [shot1, shot2],
        encoders={
            "shot1": JpegLikeCodec(quality=40).encode,
            "shot2": JpegLikeCodec(quality=40).encode,
        },
        interpretation_name="tape1",
    )

    editor = MediaEditor()
    cut1 = editor.cut(shot1, 0, frame_count - 4, name="cut1")
    fade = editor.transition(shot1, shot2, 8, a_start=frame_count - 8,
                             b_start=0, name="fade")
    cut2 = editor.cut(shot2, 4, frame_count, name="cut2")
    final = editor.concat(cut1, fade, cut2, name="final")

    movie = MultimediaObject("movie")
    movie.add_temporal(final, at=0, label="picture")
    movie.add_temporal(music, at=0, label="music")
    return blob, interpretation, editor, final, movie


def test_figure5_layers(report, benchmark):
    blob, interpretation, editor, final, movie = benchmark.pedantic(
        build_stack, iterations=1, rounds=1,
    )
    expanded = final.expand()

    rows = [
        ("BLOB", "uninterpreted bytes", "1 BLOB",
         format_bytes(len(blob))),
        ("interpretation", "placement tables", "2 sequences",
         f"{sum(len(interpretation.sequence(n)) for n in interpretation.names())} rows"),
        ("media objects (non-derived)", "shot1, shot2, music", "3 objects",
         "reached via interpretation / capture"),
        ("media objects (derived)", "cut1, fade, cut2, final", "4 objects",
         format_bytes(editor.total_derivation_bytes(final))),
        ("multimedia object", "temporal composition", "2 components",
         f"duration {movie.duration().to_timestamp()}"),
        ("(expanded picture)", "materialized on demand", "1 object",
         format_bytes(expanded.stream().total_size())),
    ]
    report.table(
        "figure5",
        ("layer", "contents", "count", "volume"),
        rows,
        title="Figure 5 — successive interpretation, derivation, composition",
    )

    assert interpretation.coverage() == 1.0
    assert final.is_derived
    assert movie.duration() == Rational(80, 25)


def test_figure5_playback(report, benchmark):
    _, interpretation, _, _, movie = build_stack()
    player = Player(CostModel(bandwidth=40_000_000), prefetch_depth=4)
    play = benchmark(lambda: player.play(movie))
    report.add(
        "figure5-playback",
        f"[figure5-playback] composed playback: {play.summary()}",
    )
    assert play.underruns == 0


def test_figure5_capture_throughput(benchmark):
    """Throughput of the capture+record step alone (frames/second of
    encoding into the interpreted BLOB)."""
    video = video_object(frames.scene(96, 72, 10, "orbit"), "v")
    codec = JpegLikeCodec(quality=40)

    def record_once():
        return Recorder(MemoryBlob()).record(
            [video], encoders={"v": codec.encode},
        )

    interpretation = benchmark(record_once)
    assert len(interpretation.sequence("v")) == 10
