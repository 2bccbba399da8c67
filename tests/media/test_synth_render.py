"""Tests for the type-changing derivations: synthesis and rendering."""

import numpy as np
import pytest

from repro.core.derivation import derivation_registry
from repro.core.media_types import MediaKind
from repro.core.rational import Rational
from repro.errors import DerivationError
from repro.media.animation import Sprite, AnimationScene, demo_scene
from repro.edit.editor import MediaEditor
from repro.media.music import PPQ, Note, Score, demo_score
from repro.media.objects import animation_object, score_object
from repro.media.renderer import render_animation, render_frame
from repro.media.synthesizer import (
    INSTRUMENTS,
    synthesize_note,
    synthesize_score,
)
from repro.obs import Observability
from tests.media.sources import midi_object


class TestSynthesizeNote:
    def test_length(self):
        wave = synthesize_note(440, 0.5, 8000)
        assert len(wave) == 4000

    def test_amplitude_scales_with_velocity(self):
        soft = synthesize_note(440, 0.2, 8000, velocity=30)
        loud = synthesize_note(440, 0.2, 8000, velocity=120)
        assert np.abs(loud).max() > np.abs(soft).max()

    def test_frequency_present(self):
        wave = synthesize_note(500, 0.5, 8000, instrument="sine")
        spectrum = np.abs(np.fft.rfft(wave))
        peak_hz = np.argmax(spectrum) * 8000 / len(wave)
        assert abs(peak_hz - 500) < 10

    def test_harmonics_differ_by_instrument(self):
        sine = synthesize_note(220, 0.3, 8000, instrument="sine")
        organ = synthesize_note(220, 0.3, 8000, instrument="organ")
        assert not np.allclose(sine, organ)

    def test_unknown_instrument(self):
        with pytest.raises(DerivationError, match="instrument"):
            synthesize_note(440, 0.1, 8000, instrument="kazoo")

    def test_zero_duration(self):
        assert len(synthesize_note(440, 0.0, 8000)) == 0

    def test_instruments_table(self):
        assert set(INSTRUMENTS) >= {"sine", "organ", "piano", "square"}


class TestSynthesizeScore:
    def test_duration_matches_score(self):
        score = demo_score()
        signal = synthesize_score(score, sample_rate=8000)
        expected = score.duration_seconds() * 8000
        assert abs(len(signal) - expected) <= 2

    def test_tempo_override_shortens(self):
        score = demo_score()
        normal = synthesize_score(score, 8000)
        fast = synthesize_score(score, 8000, tempo_bpm=240)
        assert len(fast) < len(normal)

    def test_bounded_output(self):
        signal = synthesize_score(demo_score(), 8000)
        assert np.abs(signal).max() <= 1.0

    def test_notes_audible_at_their_times(self):
        score = Score(tempo_bpm=120)
        score.add(Note(69, 0, 960))          # beat 1
        score.add(Note(69, 1920, 960))       # beat 3
        signal = synthesize_score(score, 8000)
        # Energy during notes, silence during the rest (beat 2).
        assert np.abs(signal[:3000]).max() > 0.05
        assert np.abs(signal[4300:4700]).max() < 0.02
        assert np.abs(signal[8200:8800]).max() > 0.05


class TestMidiSynthesisDerivation:
    def test_type_change(self):
        """Table 1: music (MIDI) -> audio."""
        source = score_object(demo_score(), "m")
        derived = derivation_registry.get("midi-synthesis")(
            [source], {"sample_rate": 8000}
        )
        assert derived.media_type.kind is MediaKind.AUDIO
        expanded = derived.expand()
        assert expanded.kind is MediaKind.AUDIO
        assert len(expanded.stream()) > 0

    def test_works_from_event_stream(self):
        """Without the symbolic score attached, events are re-paired."""
        source = midi_object(demo_score(), "m")
        del source.score
        derived = derivation_registry.get("midi-synthesis")(
            [source], {"sample_rate": 8000}
        )
        expanded = derived.expand()
        assert expanded.stream().total_size() > 0

    def test_rejects_audio_input(self, tone):
        from repro.media.objects import audio_object

        source = audio_object(tone, "a", sample_rate=8000)
        with pytest.raises(DerivationError):
            derivation_registry.get("midi-synthesis")([source], {})


class TestTimingDerivedMusic:
    """§4.2's timing derivations apply "to all time-based media": a
    translated or scaled music object drops its ``score`` shortcut, so
    synthesis reads the timing of the derived stream itself."""

    @staticmethod
    def samples(music):
        editor = MediaEditor()
        audio = editor.synthesize(music, sample_rate=8000).expand()
        return np.concatenate([t.element.payload for t in audio.stream()])

    @pytest.mark.parametrize("build", [score_object, midi_object],
                             ids=["score", "midi"])
    def test_translated_music_sounds_later(self, build):
        """Translated by a quarter note (0.5 s at 120 bpm), the music
        synthesizes as the original delayed by 4,000 samples at 8 kHz."""
        original = self.samples(build(demo_score(), "tune"))
        moved = self.samples(MediaEditor().translate(
            build(demo_score(), "tune"), PPQ))
        assert len(moved) == len(original) + 4_000
        assert np.abs(moved[:4_000]).max() == 0
        assert np.array_equal(moved[4_000:], original)

    @pytest.mark.parametrize("build", [score_object, midi_object],
                             ids=["score", "midi"])
    def test_translated_music_declares_the_span_it_renders(self, build):
        """The score spans 5/2 s; translated by a quarter note it renders
        3 s (its stream ends one sample later, at 132,301 / 44,100 s), so
        its synthesis declares 3 s, not the source's 5/2 s."""
        editor = MediaEditor()
        original = editor.synthesize(build(demo_score(), "tune"))
        assert original.descriptor.get("duration") == Rational(5, 2)
        moved = editor.synthesize(editor.translate(
            build(demo_score(), "tune"), PPQ))
        assert moved.descriptor.get("duration") == Rational(3)
        stream = moved.expand().stream()
        end = stream.tuples[-1].start + stream.tuples[-1].duration
        assert stream.time_system.to_continuous(end) == Rational(132_301, 44_100)

    def test_declaring_the_span_expands_nothing(self):
        """The synthesis reads its span from descriptors (§4.2): over a
        score translated by a quarter note, then scaled by 2, it declares
        6 s (4,800 ticks plus the 960-tick lead-in, doubled, at 1,920
        ticks a second) without expanding either timing derivation."""
        obs = Observability()
        editor = MediaEditor()
        moved = editor.translate(score_object(demo_score(), "tune"), PPQ)
        slowed = editor.scale(moved, 2)
        for derived in (moved, slowed):
            derived.instrument(obs)
        audio = editor.synthesize(slowed, sample_rate=8000)
        assert obs.metrics.counter("core.derivation.expansions").total() == 0
        assert audio.descriptor.get("duration") == Rational(6)
        assert len(self.samples(slowed)) == 6 * 8000 + 1

    def test_scaled_music_keeps_its_tempo(self):
        """A 90-bpm MIDI object scaled by 1 sounds as the object itself:
        at 90 bpm, not the 120-bpm default (26,668 samples, not 20,001)."""
        score = demo_score()
        score.tempo_bpm = 90
        original = self.samples(midi_object(score, "slow"))
        scaled = self.samples(MediaEditor().scale(midi_object(score, "slow"), 1))
        assert len(scaled) == 26_668
        assert np.array_equal(scaled, original)


class TestRenderer:
    def test_render_frame_background(self):
        scene = AnimationScene(32, 24, background=(1, 2, 3))
        frame = render_frame(scene, 0)
        assert frame.shape == (24, 32, 3)
        assert tuple(frame[0, 0]) == (1, 2, 3)

    def test_render_frame_sprite_visible(self):
        scene = AnimationScene(32, 24)
        scene.add_sprite(Sprite("b", 8, 8, (255, 0, 0)))
        scene.appear("b", 0, 4, 4)
        frame = render_frame(scene, 0)
        assert tuple(frame[8, 8]) == (255, 0, 0)

    def test_sprite_clipped_at_edges(self):
        scene = AnimationScene(32, 24)
        scene.add_sprite(Sprite("b", 16, 16, (255, 0, 0)))
        scene.appear("b", 0, 24, 16)  # extends past both edges
        frame = render_frame(scene, 0)
        assert frame.shape == (24, 32, 3)

    def test_render_animation_frame_count(self):
        shot = render_animation(demo_scene(), frame_count=10)
        assert len(shot) == 10

    def test_render_animation_default_span(self):
        scene = demo_scene()
        shot = render_animation(scene)
        assert len(shot) == scene.span_ticks() + 1

    def test_motion_visible(self):
        shot = render_animation(demo_scene(), frame_count=30)
        assert not np.array_equal(shot[0], shot[20])


class TestAnimationRenderDerivation:
    def test_type_change(self):
        source = animation_object(demo_scene(), "anim")
        derived = derivation_registry.get("animation-render")(
            [source], {"frame_count": 5}
        )
        assert derived.media_type.kind is MediaKind.VIDEO
        expanded = derived.expand()
        assert len(expanded.stream()) == 5

    def test_missing_scene_rejected(self):
        source = animation_object(demo_scene(), "anim")
        del source.scene
        derived = derivation_registry.get("animation-render")(
            [source], {"frame_count": 2}
        )
        with pytest.raises(DerivationError, match="scene"):
            derived.expand()
