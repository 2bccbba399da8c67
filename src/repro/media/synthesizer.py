"""MIDI/score synthesis: the paper's type-changing derivation.

"Consider, for example, the synthesis of an audio object from a MIDI
object ... Here the type changes from music to audio." (§4.2) —
Table 1's "MIDI synthesis" row, with parameters "tempo, MIDI channel
mappings and instrument parameters".

The synthesizer is additive: each note becomes a waveform at its
equal-temperament frequency shaped by an ADSR envelope; simple instrument
presets differ in harmonic content. The derivation is registered as
``"midi-synthesis"`` in the global derivation registry.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.derivation import (
    Derivation,
    DerivationCategory,
    derivation_registry,
)
from repro.core.media_types import MediaKind
from repro.core.rational import Rational
from repro.errors import DerivationError
from repro.media.music import PPQ, Note, Score
from repro.media.signals import adsr_envelope

#: Instrument presets: relative amplitudes of the first harmonics.
INSTRUMENTS = {
    "sine": (1.0,),
    "organ": (1.0, 0.5, 0.25, 0.125),
    "piano": (1.0, 0.4, 0.2, 0.1, 0.05),
    "square": (1.0, 0.0, 0.33, 0.0, 0.2),
}


def synthesize_note(frequency: float, duration_seconds: float,
                    sample_rate: int = 44100, velocity: int = 80,
                    instrument: str = "piano") -> np.ndarray:
    """Render one note to a mono float signal."""
    try:
        harmonics = INSTRUMENTS[instrument]
    except KeyError:
        raise DerivationError(
            f"unknown instrument {instrument!r}; known: {sorted(INSTRUMENTS)}"
        ) from None
    n = int(round(duration_seconds * sample_rate))
    if n == 0:
        return np.zeros(0)
    t = np.arange(n) / sample_rate
    wave = np.zeros(n)
    for k, amplitude in enumerate(harmonics, start=1):
        if amplitude:
            wave += amplitude * np.sin(2 * np.pi * frequency * k * t)
    wave /= sum(a for a in harmonics if a)
    return wave * adsr_envelope(n) * (velocity / 127.0)


def synthesize_score(score: Score, sample_rate: int = 44100,
                     tempo_bpm: int | None = None,
                     instrument: str = "piano") -> np.ndarray:
    """Render a whole score to a mono float signal in [-1, 1]."""
    tempo = tempo_bpm or score.tempo_bpm
    seconds_per_tick = 60.0 / (tempo * PPQ)
    total_seconds = score.span_ticks() * seconds_per_tick
    total = np.zeros(int(round(total_seconds * sample_rate)) + 1)
    for note in score.notes:
        rendered = synthesize_note(
            note.frequency, note.duration * seconds_per_tick,
            sample_rate, note.velocity, instrument,
        )
        begin = int(round(note.start * seconds_per_tick * sample_rate))
        end = min(begin + len(rendered), len(total))
        total[begin:end] += rendered[:end - begin]
    peak_level = np.abs(total).max()
    if peak_level > 1.0:
        total /= peak_level
    return total


def _expand_midi_synthesis(inputs, params):
    from repro.media.objects import audio_object

    source = inputs[0]
    score = getattr(source, "score", None)
    if score is None:
        # Rebuild the score from the stream. A timing derivation (§4.2)
        # moves the timed tuples, not the ticks their payloads carry, so
        # each note's timing comes from its tuple.
        tuples = source.stream().tuples
        tempo = source.descriptor.get("tempo_bpm", 120)
        if tuples and isinstance(tuples[0].element.payload, Note):
            score = Score([replace(t.element.payload, start=t.start,
                                   duration=t.duration) for t in tuples], tempo)
        else:
            score = Score.from_midi_events(
                [replace(t.element.payload, tick=t.start) for t in tuples],
                tempo)
    sample_rate = params.get("sample_rate", 44100)
    signal = synthesize_score(
        score,
        sample_rate=sample_rate,
        tempo_bpm=params.get("tempo_bpm"),
        instrument=params.get("instrument", "piano"),
    )
    return audio_object(
        signal, f"{source.name}-audio", sample_rate=sample_rate,
        quality_factor="CD quality",
    )


def _describe_midi_synthesis(inputs, params):
    from repro.core.media_types import media_type_registry

    source = inputs[0]
    media_type = media_type_registry.get("block-audio")
    sample_rate = params.get("sample_rate", 44100)
    # The span synthesize_score renders, from tick 0 to the last note's
    # end: the source's duration plus the ticks a translation moved it
    # by, at the source's tempo, rescaled to the synthesis tempo.
    source_tempo = source.descriptor.get("tempo_bpm", 120)
    tempo = params.get("tempo_bpm") or source_tempo
    lead_in = (Rational(source.descriptor.get("offset_ticks", 0)) * 60
               / (source_tempo * PPQ))
    duration = ((source.descriptor.get("duration", Rational(0)) + lead_in)
                * Rational(source_tempo) / Rational(tempo))
    descriptor = media_type.make_media_descriptor(
        sample_rate=sample_rate,
        sample_size=16,
        channels=1,
        encoding="PCM",
        quality_factor="CD quality",
        duration=duration,
    )
    return media_type, descriptor


MIDI_SYNTHESIS = derivation_registry.register(Derivation(
    name="midi-synthesis",
    category=DerivationCategory.CHANGE_OF_TYPE,
    input_kinds=(MediaKind.MUSIC,),
    result_kind=MediaKind.AUDIO,
    expand=_expand_midi_synthesis,
    describe=_describe_midi_synthesis,
    optional_params=("sample_rate", "tempo_bpm", "instrument"),
    doc="Table 1: music (MIDI) -> audio; parameters are tempo and "
        "instrument mapping.",
))
