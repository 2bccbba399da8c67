"""Discrete time systems (Definition 2 of the paper).

A discrete time system ``D_f`` maps integers (*discrete time values*) to
real numbers (*continuous time values*, in seconds)::

    D_f : i -> (1/f) * i

where ``f`` is the *frequency* of the system. The paper's examples are
``D29.97`` for North American (NTSC) video, ``D25`` for European (PAL)
video, ``D24`` for film and ``D44100`` for CD audio.

Frequencies are exact rationals; NTSC is 30000/1001, not 29.97, and the
distinction matters: over one hour the difference is 3.6 frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.rational import Rational, as_rational
from repro.errors import TimeSystemError


def to_ticks(seconds, frequency) -> int:
    """``seconds`` as whole ticks of ``frequency`` (an int or an exact
    rational), the inverse of ``D_f``; a time off its grid raises
    :class:`~repro.errors.TimeSystemError`."""
    seconds = as_rational(seconds)
    ticks, rest = divmod(seconds.numerator * frequency.numerator,
                         seconds.denominator * frequency.denominator)
    if rest:
        raise TimeSystemError(
            f"{seconds} s is not a whole tick at {frequency} per second; "
            "use floor()/round() for inexact conversion")
    return ticks


@dataclass(frozen=True, slots=True)
class DiscreteTimeSystem:
    """A mapping ``i -> i / frequency`` from ticks to seconds.

    Parameters
    ----------
    frequency:
        Ticks per second; a positive exact rational.
    name:
        Optional human-readable label (e.g. ``"NTSC"``).
    """

    frequency: Rational
    name: str = ""

    def __post_init__(self) -> None:
        freq = as_rational(self.frequency)
        if freq <= 0:
            raise TimeSystemError(f"frequency must be positive, got {freq}")
        object.__setattr__(self, "frequency", freq)

    # -- Definition 2 ---------------------------------------------------------

    @property
    def period(self) -> Rational:
        """Seconds per tick: ``1 / frequency``."""
        return Rational(1) / self.frequency

    def to_continuous(self, ticks: int) -> Rational:
        """Map a discrete time value to continuous seconds (``D_f(i)``)."""
        return Rational(ticks) / self.frequency

    def to_discrete(self, seconds) -> int:
        """Map continuous seconds to the discrete value, which must be exact.

        Raises
        ------
        TimeSystemError
            If ``seconds`` does not fall exactly on a tick; use
            :meth:`floor` or :meth:`round` for inexact conversion.
        """
        return to_ticks(seconds, self.frequency)

    def floor(self, seconds) -> int:
        """Largest discrete time value not after ``seconds``."""
        return math.floor(as_rational(seconds) * self.frequency)

    def ceil(self, seconds) -> int:
        """Smallest discrete time value not before ``seconds``."""
        return math.ceil(as_rational(seconds) * self.frequency)

    def round(self, seconds) -> int:
        """Nearest discrete time value to ``seconds`` (ties to even)."""
        return round(as_rational(seconds) * self.frequency)

    # -- conversion between systems -------------------------------------------

    def convert(self, ticks: int, target: "DiscreteTimeSystem") -> Rational:
        """Express ``ticks`` of this system in (possibly fractional) target ticks."""
        return self.to_continuous(ticks) * target.frequency

    def rescale(self, ticks: int, target: "DiscreteTimeSystem") -> int:
        """Convert ``ticks`` to the nearest tick of ``target``."""
        return round(self.convert(ticks, target))

    def is_commensurate(self, other: "DiscreteTimeSystem") -> bool:
        """True if every tick of ``other`` lands on a tick of this system
        or vice versa (their frequency ratio is rational with unit parts).

        Two systems are commensurate when one frequency is an integer
        multiple of the other; synchronized playback of commensurate
        streams never needs resampling.
        """
        ratio = self.frequency / other.frequency
        return ratio.numerator == 1 or ratio.denominator == 1

    def __str__(self) -> str:
        label = self.name or "D"
        if self.frequency.denominator == 1:
            return f"{label}({self.frequency.numerator} Hz)"
        return (
            f"{label}({self.frequency.numerator}/{self.frequency.denominator} Hz)"
        )


#: North American (NTSC) video: 30000/1001 frames per second (the paper's D29.97).
NTSC_TIME = DiscreteTimeSystem(Rational(30000, 1001), "NTSC")

#: European (PAL) video: 25 frames per second (the paper's D25).
PAL_TIME = DiscreteTimeSystem(Rational(25), "PAL")

#: Film: 24 frames per second (the paper's D24).
FILM_TIME = DiscreteTimeSystem(Rational(24), "FILM")

#: CD audio: 44100 samples per second (the paper's D44100).
CD_AUDIO_TIME = DiscreteTimeSystem(Rational(44100), "CD-AUDIO")

#: DAT audio: 48000 samples per second.
DAT_TIME = DiscreteTimeSystem(Rational(48000), "DAT")

#: A convenient high-resolution system for MIDI-style events (960 PPQ at 120 bpm).
MIDI_TIME = DiscreteTimeSystem(Rational(1920), "MIDI")
