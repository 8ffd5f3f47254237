import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SR, sawtooth, tone
from spoofsense.audio import AudioBuffer
from spoofsense.config import RunConfig
from spoofsense.errors import EmptyAfterTrim, InputTooShort, NoVoicedRegion
from spoofsense.f0 import (
    F0Config, F0Contour, contour_framing, estimate_f0, trim_contour, voiced_runs,
)
from spoofsense.spectral import KINDS


def voiced(contour):
    return contour.values[contour.values > 0]


@pytest.mark.parametrize("freq", [80, 100, 150, 220, 330, 480])
def test_pure_tone_accuracy(freq):
    c = estimate_f0(tone(freq))
    v = voiced(c)
    assert len(v) > 50
    assert np.all(np.abs(v - freq) <= 2.0)


def test_sawtooth_no_octave_error():
    c = estimate_f0(sawtooth(100))
    v = voiced(c)
    assert len(v) > 50
    assert np.all(np.abs(v - 100) <= 2.0)  # no 50/200 Hz locking


def test_amplitude_invariance_exact():
    buf = tone(140)
    ref = estimate_f0(buf).values
    for alpha in (0.25, 0.5, 2.0):  # powers of two: bit-identical float scaling
        scaled = AudioBuffer(buf.samples * alpha, SR)
        np.testing.assert_array_equal(estimate_f0(scaled).values, ref)


def test_silence_is_unvoiced():
    c = estimate_f0(AudioBuffer(np.zeros(SR), SR))
    assert np.all(c.values == 0.0)


@pytest.mark.parametrize("level", [0.3, 1e-3, -0.5])
def test_dc_is_unvoiced(level):
    """A constant signal is silent once its mean is removed, not voiced at the ceiling."""
    buf = AudioBuffer(np.full(SR, level), SR)
    assert np.all(estimate_f0(buf).values == 0.0)
    with pytest.raises(EmptyAfterTrim):
        KINDS["pse"].compute(buf, RunConfig())
    with pytest.raises(NoVoicedRegion):
        KINDS["jitter-shimmer"].compute(buf, RunConfig())


def test_dc_offset_tone_still_tracked():
    c = estimate_f0(AudioBuffer(tone(150).samples + 0.3, SR))
    assert np.all(c.values > 0)
    assert np.all(np.abs(c.values - 150) <= 1.0)


@pytest.mark.parametrize("freq", [40, 60, 550, 700])
def test_out_of_band_tones_never_leak(freq):
    c = estimate_f0(tone(freq))
    v = voiced(c)
    assert np.all((v >= 75.0) & (v <= 500.0))


def test_hop_and_metadata():
    c = estimate_f0(tone(200), F0Config(hop=0.005))
    # 3 periods of the 75 Hz floor = 640 samples at 16 kHz, hop 80
    assert len(c) == (SR - 640) // 80 + 1
    assert c.hop == 0.005 and c.floor == 75.0 and c.ceil == 500.0


def test_too_short_input():
    with pytest.raises(InputTooShort):
        estimate_f0(AudioBuffer(np.zeros(100), SR))


def test_contour_framing():
    # three periods of the floor per frame, one frame per hop; a contour
    # frames as the config that tracked it
    assert contour_framing(SR, F0Config()) == (640, 80)
    assert contour_framing(SR, estimate_f0(tone(150))) == (640, 80)
    # a hop past any sample index, finite or overflowing to inf in samples
    for hop in (1e300, 1e305):
        with pytest.raises(InputTooShort):
            contour_framing(SR, F0Config(hop=hop))
        with pytest.raises(InputTooShort):
            estimate_f0(tone(150), F0Config(hop=hop))


def test_band_validation():
    with pytest.raises(ValueError):
        F0Config(floor=500, ceil=75)
    with pytest.raises(ValueError):
        estimate_f0(tone(100), F0Config(floor=75, ceil=9000))  # ceil > Nyquist


def test_trim_contour_examples():
    c = F0Contour(values=[0, 0, 120, 130, 0, 140, 0, 0], hop=0.005, floor=75, ceil=500)
    np.testing.assert_array_equal(trim_contour(c).values, [120, 130, 0, 140])
    c2 = F0Contour(values=[120, 130, 140], hop=0.005, floor=75, ceil=500)
    np.testing.assert_array_equal(trim_contour(c2).values, [120, 130, 140])
    with pytest.raises(EmptyAfterTrim):
        trim_contour(F0Contour(values=[0, 0, 0], hop=0.005, floor=75, ceil=500))


def test_voiced_runs():
    assert voiced_runs([0, 1, 1, 0, 2, 0]) == [(1, 3), (4, 5)]
    assert voiced_runs([0, 0]) == []
    assert voiced_runs([3, 3]) == [(0, 2)]


@given(freq=st.floats(min_value=90, max_value=450))
@settings(max_examples=15, deadline=None)
def test_contour_values_in_band_or_zero(freq):
    c = estimate_f0(tone(freq, dur=0.3))
    v = c.values
    assert np.all((v == 0.0) | ((v >= 75.0) & (v <= 500.0)))
