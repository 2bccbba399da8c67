"""End-to-end integration: the full Figure 5 stack.

BLOB -> interpretation -> (derivation) -> composition -> playback,
through the database catalog and a container-file roundtrip.
"""

import pytest

from repro.blob.blob import MemoryBlob
from repro.codecs.jpeg_like import JpegLikeCodec
from repro.codecs.pcm import PcmCodec
from repro.core.composition import MultimediaObject
from repro.core.rational import Rational
from repro.edit import MediaEditor
from repro.engine.player import CostModel, Player
from repro.engine.recorder import Recorder
from repro.media import frames, signals
from repro.media.objects import audio_object, video_object
from repro.query.database import MediaDatabase
from repro.storage.container import deserialize_container, serialize_container


@pytest.fixture(scope="module")
def stack():
    """Capture raw material, interpret, derive, compose, catalog."""
    db = MediaDatabase("studio")

    # 1. Raw material (the "capture operation").
    shot1 = video_object(frames.scene(48, 32, 20, "orbit"), "shot1")
    shot2 = video_object(frames.scene(48, 32, 20, "cut"), "shot2")
    # Music spans exactly the final video: 36 frames = 1.44 s.
    music = audio_object(
        signals.sine(330, Rational(36, 25).to_seconds(), 8000),
        "music", sample_rate=8000, block_samples=320,
    )

    # 2. Record into one BLOB with interleaving (Figure 2 mechanics).
    blob = MemoryBlob()
    recorder = Recorder(blob)
    interpretation = recorder.record(
        [shot1, shot2],
        encoders={
            "shot1": JpegLikeCodec(quality=40).encode,
            "shot2": JpegLikeCodec(quality=40).encode,
        },
        interpretation_name="tape1",
    )
    db.add_interpretation(interpretation)
    db.add_object(music, role="music")

    # 3. Non-destructive production (Figure 4 mechanics).
    editor = MediaEditor()
    cut1 = editor.cut(shot1, 0, 16, name="cut1")
    fade = editor.transition(shot1, shot2, 4, a_start=16, b_start=0,
                             name="fade")
    cut2 = editor.cut(shot2, 4, 20, name="cut2")
    final = editor.concat(cut1, fade, cut2, name="final")
    db.add_object(final, role="picture")

    # 4. Temporal composition (Definition 7).
    movie = MultimediaObject("movie")
    movie.add_temporal(final, at=0, label="picture")
    movie.add_temporal(music, at=0, label="music")
    db.add_multimedia(movie)
    return db, interpretation, editor, movie, final


class TestStack:
    def test_catalog_contents(self, stack):
        db, *_ = stack
        assert set(db.multimedia()) == {"movie"}
        assert "shot1" in db and "final" in db

    def test_final_video_timing(self, stack):
        db, _, _, movie, final = stack
        stream = final.expand().stream()
        assert len(stream) == 36
        assert movie.duration() == Rational(36, 25)

    def test_playback_of_composition(self, stack):
        *_, movie, _ = stack
        report = Player(CostModel(bandwidth=50_000_000)).play(movie)
        assert report.underruns == 0
        assert report.element_count > 0

    def test_playback_of_interpretation(self, stack):
        _, interpretation, *_ = stack
        report = Player(CostModel(bandwidth=5_000_000)).play(interpretation)
        assert report.element_count == 40
        assert report.seeks == 0  # interleaved by presentation time

    def test_container_roundtrip_preserves_playability(self, stack):
        _, interpretation, *_ = stack
        restored = deserialize_container(serialize_container(interpretation))
        report = Player(CostModel(bandwidth=5_000_000)).play(restored)
        assert report.element_count == 40

    def test_lineage_spans_production(self, stack):
        db, _, editor, _, final = stack
        names = {o.name for o in db.lineage("final")}
        assert {"cut1", "fade", "cut2", "shot1", "shot2"} <= names

    def test_rederiving_after_materialization_discard(self, stack):
        *_, final = stack
        final.materialize()
        assert final.is_materialized
        final.discard_materialization()
        assert not final.is_materialized
        assert len(final.stream()) == 36  # recomputed from the chain

    def test_figure5_layering(self, stack):
        """BLOB -> interpretation -> non-derived -> derived -> multimedia."""
        db, interpretation, editor, movie, final = stack
        # Layer 1: the BLOB is uninterpreted bytes.
        assert len(interpretation.blob) > 0
        # Layer 2: interpretation yields non-derived media objects.
        shot1 = db.get_object("shot1")
        assert not shot1.is_derived
        # Layer 3: derivation yields derived media objects.
        assert final.is_derived
        # Layer 4: temporal composition yields the multimedia object.
        assert {r.label for r in movie} == {"picture", "music"}
