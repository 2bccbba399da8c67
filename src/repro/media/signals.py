"""Audio signal generation.

Deterministic, seedable signal generators standing in for microphones and
tapes. All functions return float64 arrays in [-1, 1]; stereo signals
have shape ``(n, 2)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MediaModelError


def _sample_count(duration: float, sample_rate: int) -> int:
    if duration < 0:
        raise MediaModelError(f"duration must be non-negative, got {duration}")
    if sample_rate <= 0:
        raise MediaModelError(f"sample rate must be positive, got {sample_rate}")
    return int(round(duration * sample_rate))


def sine(frequency: float, duration: float, sample_rate: int = 44100,
         amplitude: float = 0.8, phase: float = 0.0) -> np.ndarray:
    """A sine tone."""
    n = _sample_count(duration, sample_rate)
    t = np.arange(n) / sample_rate
    return amplitude * np.sin(2 * np.pi * frequency * t + phase)


def chirp(start_hz: float, end_hz: float, duration: float,
          sample_rate: int = 44100, amplitude: float = 0.8) -> np.ndarray:
    """A linear frequency sweep."""
    n = _sample_count(duration, sample_rate)
    t = np.arange(n) / sample_rate
    sweep = start_hz * t + (end_hz - start_hz) * t * t / (2 * max(duration, 1e-9))
    return amplitude * np.sin(2 * np.pi * sweep)


def noise(duration: float, sample_rate: int = 44100, amplitude: float = 0.5,
          seed: int = 0) -> np.ndarray:
    """Seeded white noise."""
    n = _sample_count(duration, sample_rate)
    rng = np.random.default_rng(seed)
    return amplitude * rng.uniform(-1.0, 1.0, n)


def adsr_envelope(n: int, attack: float = 0.05, decay: float = 0.1,
                  sustain: float = 0.7, release: float = 0.2) -> np.ndarray:
    """An attack/decay/sustain/release envelope over ``n`` samples.

    ``attack``/``decay``/``release`` are fractions of ``n``; ``sustain``
    is the plateau level in [0, 1].
    """
    if n <= 0:
        return np.zeros(0)
    na = max(1, int(n * attack))
    nd = max(1, int(n * decay))
    nr = max(1, int(n * release))
    ns = max(0, n - na - nd - nr)
    env = np.concatenate([
        np.linspace(0.0, 1.0, na, endpoint=False),
        np.linspace(1.0, sustain, nd, endpoint=False),
        np.full(ns, sustain),
        np.linspace(sustain, 0.0, nr),
    ])
    return env[:n] if len(env) >= n else np.pad(env, (0, n - len(env)))


def mix(*signals: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Sum signals of possibly different lengths; optionally renormalize."""
    if not signals:
        raise MediaModelError("mix requires at least one signal")
    length = max(len(s) for s in signals)
    total = np.zeros(length)
    for s in signals:
        total[:len(s)] += s
    if normalize:
        peak = np.abs(total).max()
        if peak > 1.0:
            total /= peak
    return total


def to_stereo(signal: np.ndarray, pan: float = 0.0) -> np.ndarray:
    """Pan a mono signal into stereo; ``pan`` in [-1 (left), 1 (right)]."""
    if signal.ndim == 2:
        return signal
    if not -1.0 <= pan <= 1.0:
        raise MediaModelError(f"pan must be in [-1, 1], got {pan}")
    if pan > 0:
        left, right = signal * (1.0 - pan), signal
    elif pan < 0:
        left, right = signal, signal * (1.0 + pan)
    else:
        left = right = signal
    return np.stack([left, right], axis=-1)


def peak(signal: np.ndarray) -> float:
    """Peak absolute level."""
    if signal.size == 0:
        return 0.0
    return float(np.abs(signal).max())
