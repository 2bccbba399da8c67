"""Tests for audio signal generation."""

import numpy as np
import pytest

from repro.errors import MediaModelError
from repro.media import signals


class TestGenerators:
    def test_sine_length(self):
        assert len(signals.sine(440, 1.0, 8000)) == 8000

    def test_sine_frequency(self):
        # Count zero crossings: a 100 Hz tone over 1 s has ~200.
        tone = signals.sine(100, 1.0, 8000)
        crossings = np.sum(np.diff(np.signbit(tone)))
        assert abs(crossings - 200) <= 2

    def test_sine_amplitude(self):
        tone = signals.sine(440, 0.1, 8000, amplitude=0.5)
        assert 0.45 < np.abs(tone).max() <= 0.5

    def test_chirp_sweeps_up(self):
        sweep = signals.chirp(50, 400, 1.0, 8000)
        first = np.sum(np.diff(np.signbit(sweep[:4000])))
        last = np.sum(np.diff(np.signbit(sweep[4000:])))
        assert last > first

    def test_noise_seeded(self):
        assert np.array_equal(
            signals.noise(0.1, 8000, seed=5), signals.noise(0.1, 8000, seed=5)
        )
        assert not np.array_equal(
            signals.noise(0.1, 8000, seed=5), signals.noise(0.1, 8000, seed=6)
        )

    def test_negative_duration_rejected(self):
        with pytest.raises(MediaModelError):
            signals.sine(440, -1, 8000)

    def test_bad_rate_rejected(self):
        with pytest.raises(MediaModelError):
            signals.sine(440, 1, 0)


class TestEnvelope:
    def test_shape(self):
        env = signals.adsr_envelope(1000)
        assert len(env) == 1000
        assert env[0] == 0.0
        assert env[-1] == pytest.approx(0.0, abs=0.01)
        assert env.max() <= 1.0

    def test_sustain_level(self):
        env = signals.adsr_envelope(1000, sustain=0.5)
        assert np.isclose(env[500], 0.5, atol=0.05)

    def test_empty(self):
        assert len(signals.adsr_envelope(0)) == 0

    def test_tiny(self):
        env = signals.adsr_envelope(3)
        assert len(env) == 3


class TestMixPan:
    def test_mix_sums(self):
        a = signals.sine(100, 0.1, 1000, amplitude=0.2)
        b = signals.sine(200, 0.1, 1000, amplitude=0.2)
        mixed = signals.mix(a, b, normalize=False)
        assert np.allclose(mixed, a + b)

    def test_mix_different_lengths(self):
        mixed = signals.mix(np.ones(10), np.ones(5), normalize=False)
        assert len(mixed) == 10
        assert mixed[7] == 1.0
        assert mixed[3] == 2.0

    def test_mix_normalizes_clipping(self):
        loud = signals.mix(np.ones(10), np.ones(10))
        assert np.abs(loud).max() == pytest.approx(1.0)

    def test_mix_requires_input(self):
        with pytest.raises(MediaModelError):
            signals.mix()

    def test_to_stereo_center(self):
        mono = signals.sine(440, 0.01, 8000)
        stereo = signals.to_stereo(mono)
        assert stereo.shape == (len(mono), 2)
        assert np.array_equal(stereo[:, 0], stereo[:, 1])

    def test_to_stereo_pan_right(self):
        mono = np.ones(10)
        stereo = signals.to_stereo(mono, pan=0.5)
        assert stereo[0, 1] > stereo[0, 0]

    def test_to_stereo_pan_left(self):
        stereo = signals.to_stereo(np.ones(10), pan=-0.5)
        assert stereo[0, 0] > stereo[0, 1]

    def test_stereo_passthrough(self):
        stereo = np.ones((10, 2))
        assert signals.to_stereo(stereo) is stereo

    def test_pan_range(self):
        with pytest.raises(MediaModelError):
            signals.to_stereo(np.ones(4), pan=2.0)


class TestMeters:
    def test_peak(self):
        assert signals.peak(np.array([0.1, -0.7, 0.3])) == pytest.approx(0.7)

    def test_empty(self):
        assert signals.peak(np.array([])) == 0.0
