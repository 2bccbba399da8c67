"""Workload builders reconstructing the paper's worked examples.

Every builder is deterministic (seeded) and parameterized by scale, so
benchmarks can run the paper's geometry symbolically (640x480, 10
minutes) while actually encoding a laptop-scale segment that exercises
identical code paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.pcm import PcmCodec
from repro.core.elements import MediaElement
from repro.core.interpretation import Interpretation
from repro.core.media_types import media_type_registry
from repro.core.quality import VIDEO_QUALITY
from repro.core.rational import Rational
from repro.core.streams import TimedStream, TimedTuple
from repro.core.composition import MultimediaObject
from repro.edit.editor import MediaEditor
from repro.engine.player import Player
from repro.engine.recorder import Recorder
from repro.media import frames, signals
from repro.media.music import demo_score
from repro.media.objects import audio_object, video_object
from repro.obs import Observability, profile_stages


# -- Figure 1: one stream per category ----------------------------------------


def figure1_streams() -> dict[str, TimedStream]:
    """One synthetic timed stream per Figure 1 category.

    Keys are the paper's category labels; each stream genuinely belongs
    to (at least) its labelled category, mirroring the figure's rows:
    homogeneous, heterogeneous, continuous, non-continuous, event-based,
    constant frequency, constant data rate, uniform.
    """
    cd = media_type_registry.get("cd-audio")
    adpcm = media_type_registry.get("adpcm-audio")
    video = media_type_registry.get("pal-video")
    result: dict[str, TimedStream] = {}

    # homogeneous + uniform: CD audio, every element a 4-byte sample pair.
    result["homogeneous"] = TimedStream.from_elements(
        cd, [MediaElement(size=4) for _ in range(12)]
    )

    # heterogeneous: ADPCM blocks with varying predictor state.
    adpcm_tuples = []
    tick = 0
    rng = np.random.default_rng(7)
    for i in range(6):
        descriptor = adpcm.make_element_descriptor(
            predictor=int(rng.integers(-2000, 2000)),
            step_index=int(rng.integers(0, 89)),
        )
        block = 505
        adpcm_tuples.append(TimedTuple(
            MediaElement(size=259, descriptor=descriptor), tick, block
        ))
        tick += block
    result["heterogeneous"] = TimedStream(adpcm, adpcm_tuples)

    # continuous: compressed video — variable sizes, constant frequency.
    sizes = [900, 1100, 950, 1200, 1000, 1050]
    result["continuous"] = TimedStream.from_elements(
        video, [MediaElement(size=s) for s in sizes]
    )

    # non-continuous: music with a rest (gap) and a chord (overlap).
    result["non-continuous"] = demo_score().to_stream()

    # event-based: MIDI events, all durations zero.
    result["event-based"] = demo_score().to_event_stream()

    # constant frequency: same as continuous (variable size, fixed rate).
    result["constant frequency"] = result["continuous"]

    # constant data rate: sizes proportional to (equal) durations.
    result["constant data rate"] = TimedStream.from_elements(
        video, [MediaElement(size=1000) for _ in range(6)]
    )

    # uniform: raw (uncompressed) video — fixed size and duration.
    result["uniform"] = TimedStream.from_elements(
        video, [MediaElement(size=1536) for _ in range(6)]
    )
    return result


# -- Figure 2: interpretation of a BLOB ----------------------------------------


@dataclass
class Figure2Arithmetic:
    """The paper's §4.1 data-rate arithmetic, symbolically."""

    width: int
    height: int
    fps: int
    rgb_bits: int
    yuv_bits: float
    jpeg_bits_per_pixel: float
    audio_rate: int
    audio_sample_bits: int
    audio_channels: int
    duration_seconds: int

    @property
    def raw_video_rate(self) -> float:
        """Bytes/second before compression (the paper's ~22 MB/s)."""
        return self.width * self.height * self.rgb_bits / 8 * self.fps

    @property
    def yuv_video_rate(self) -> float:
        """Bytes/second after YUV subsampling (12 bpp in the paper)."""
        return self.width * self.height * self.yuv_bits / 8 * self.fps

    @property
    def compressed_video_rate(self) -> float:
        """Bytes/second after JPEG at the target bpp (~0.5 MB/s)."""
        return self.width * self.height * self.jpeg_bits_per_pixel / 8 * self.fps

    @property
    def audio_data_rate(self) -> int:
        """Bytes/second of PCM audio (the paper's 172 kbyte/sec)."""
        return self.audio_rate * self.audio_sample_bits // 8 * self.audio_channels

    @property
    def samples_per_frame(self) -> int:
        """Audio sample pairs interleaved after each video frame (1764)."""
        return self.audio_rate // self.fps

    @property
    def total_bytes(self) -> float:
        return (self.compressed_video_rate + self.audio_data_rate) * self.duration_seconds


def figure2_paper_arithmetic() -> Figure2Arithmetic:
    """The exact parameters of the paper's §4.1 example."""
    return Figure2Arithmetic(
        width=640, height=480, fps=25, rgb_bits=24, yuv_bits=12.0,
        jpeg_bits_per_pixel=0.5, audio_rate=44100, audio_sample_bits=16,
        audio_channels=2, duration_seconds=600,
    )


@dataclass
class Figure2Capture:
    """A real captured-and-interpreted Figure 2 workload."""

    interpretation: Interpretation
    video_codec: JpegLikeCodec
    frame_count: int
    width: int
    height: int
    measured_video_bpp: float
    measured_video_rate: float
    measured_audio_rate: float


def figure2_capture(width: int = 160, height: int = 120,
                    seconds: float = 1.0, fps: int = 25,
                    quality: str = "VHS quality",
                    sample_rate: int = 44100,
                    content: str = "orbit") -> Figure2Capture:
    """Actually perform the Figure 2 pipeline at reduced scale.

    PAL-geometry video is synthesized, converted RGB->YUV 4:2:2, JPEG
    compressed at the descriptive quality factor's hidden parameters, and
    interleaved with stereo PCM audio (samples following the associated
    frame) into one BLOB, whose interpretation is built during the write.
    """
    frame_count = int(round(seconds * fps))
    footage = frames.scene(width, height, frame_count, content)
    video = video_object(footage, "video1", quality_factor=quality)

    stereo = signals.to_stereo(
        signals.mix(
            signals.sine(440, seconds, sample_rate) * 0.6,
            signals.sine(660, seconds, sample_rate) * 0.3,
        )
    )
    samples_per_frame = sample_rate // fps
    audio = audio_object(
        stereo, "audio1", sample_rate=sample_rate,
        block_samples=samples_per_frame, quality_factor="CD quality",
    )

    params = VIDEO_QUALITY.codec_params(quality)
    codec = JpegLikeCodec(quality=params["jpeg_quality"], subsampling="4:2:2")
    pcm = PcmCodec(16, 2)

    blob = MemoryBlob()
    recorder = Recorder(blob, interleave=True)
    interpretation = recorder.record(
        [video, audio],
        encoders={"video1": codec.encode, "audio1": pcm.encode},
        interpretation_name="figure2",
        encoding_labels={"video1": "YUV 8:2:2, JPEG", "audio1": "PCM"},
    )

    video_sequence = interpretation.sequence("video1")
    audio_sequence = interpretation.sequence("audio1")
    video_bytes = video_sequence.total_size()
    pixels = width * height * frame_count
    audio_bytes = audio_sequence.total_size()
    return Figure2Capture(
        interpretation=interpretation,
        video_codec=codec,
        frame_count=frame_count,
        width=width,
        height=height,
        measured_video_bpp=video_bytes * 8 / pixels,
        measured_video_rate=video_bytes / seconds,
        measured_audio_rate=audio_bytes / seconds,
    )


def played_price(interpretation: Interpretation) -> tuple[int, float]:
    """Seeks and ``page_read`` seconds of one play of ``interpretation``
    at the player's default cost model: the price E7 and E9 rank
    layouts by (§2.2's interleaving)."""
    obs = Observability()
    report = Player(obs=obs).play(interpretation)
    return report.seeks, profile_stages(obs).stage("page_read").total_seconds


# -- Figure 4: the composed multimedia object ------------------------------------


@dataclass
class Figure4Production:
    """All objects of the Figure 4 instance diagram."""

    video1: object
    video2: object
    audio1: object
    audio2: object
    cut1: object
    cut2: object
    fade: object
    video3: object
    multimedia: MultimediaObject
    editor: MediaEditor


def figure4_production(width: int = 120, height: int = 90,
                       fps: int = 25, scale: float = 0.2) -> Figure4Production:
    """Rebuild the paper's Figure 4 example at ``scale`` of its timing.

    The paper's timeline: video3 = cut(video1) + 10 s fade + cut(video2)
    spanning 0:00-2:10; audio1 (music) spans the whole presentation,
    audio2 (narration) starts at 1:00. ``scale`` shrinks all durations
    (0.2 -> 26 s total) so real frames are encodable in benchmarks; the
    structure and relative proportions are exact.
    """
    # Paper timings (seconds), scaled.
    fade_seconds = 10 * scale
    cut1_seconds = 60 * scale   # video before the fade: 0:00-1:00
    cut2_seconds = 60 * scale   # video after the fade: 1:10-2:10
    fade_ticks = max(2, int(round(fade_seconds * fps)))
    cut1_ticks = int(round(cut1_seconds * fps))
    cut2_ticks = int(round(cut2_seconds * fps))

    # "The two video sequences result from a single capture operation" —
    # two shots; cut1 takes the head of shot 1, the fade bridges the
    # shots, cut2 takes the tail of shot 2.
    shot1 = frames.scene(width, height, cut1_ticks + fade_ticks, "orbit")
    shot2 = frames.scene(width, height, cut2_ticks + fade_ticks, "cut")
    video1 = video_object(shot1, "video1")
    video2 = video_object(shot2, "video2")

    total_seconds = cut1_seconds + fade_seconds + cut2_seconds
    music = signals.mix(
        signals.sine(220, total_seconds, 8000) * 0.4,
        signals.sine(330, total_seconds, 8000) * 0.2,
    )
    narration_seconds = total_seconds - cut1_seconds
    narration = signals.chirp(200, 400, narration_seconds, 8000) * 0.5
    audio1 = audio_object(music, "audio1", sample_rate=8000, block_samples=320)
    audio2 = audio_object(narration, "audio2", sample_rate=8000, block_samples=320)

    editor = MediaEditor()
    cut1 = editor.cut(video1, 0, cut1_ticks, name="videoc1")
    cut2 = editor.cut(video2, fade_ticks, fade_ticks + cut2_ticks, name="videoc2")
    fade = editor.transition(
        video1, video2, fade_ticks, kind="fade",
        a_start=cut1_ticks, b_start=0, name="videoF",
    )
    video3 = editor.concat(cut1, fade, cut2, name="video3")

    multimedia = MultimediaObject("m")
    multimedia.add_temporal(video3, at=0, label="video3")
    multimedia.add_temporal(audio1, at=0, label="audio1")
    multimedia.add_temporal(audio2, at=Rational.from_float(cut1_seconds),
                            label="audio2")

    return Figure4Production(
        video1=video1, video2=video2, audio1=audio1, audio2=audio2,
        cut1=cut1, cut2=cut2, fade=fade, video3=video3,
        multimedia=multimedia, editor=editor,
    )


# -- §1.2: the multilingual movie ---------------------------------------------------


def multilingual_movie(db=None, seconds: float = 2.0, fps: int = 25,
                       width: int = 120, height: int = 90):
    """A movie with audio tracks in several languages, cataloged.

    Returns ``(db, movie)`` where the movie's audio components carry
    ``language`` attributes — the workload for the §1.2 track-selection
    query.
    """
    from repro.query.database import MediaDatabase

    db = db or MediaDatabase("movies")
    frame_count = int(round(seconds * fps))
    video = video_object(
        frames.scene(width, height, frame_count, "pan"), "feature-video"
    )
    db.add_object(video, title="The Timed Stream", role="picture")

    movie = MultimediaObject("feature")
    movie.add_temporal(video, at=0, label="picture")
    for language, base in (("en", 440), ("fr", 330), ("de", 550)):
        track = audio_object(
            signals.sine(base, seconds, 8000) * 0.5,
            f"feature-audio-{language}", sample_rate=8000, block_samples=320,
        )
        db.add_object(track, title="The Timed Stream", role="soundtrack",
                      language=language)
        movie.add_temporal(track, at=0, label=f"audio-{language}")
    db.add_multimedia(movie)
    return db, movie
