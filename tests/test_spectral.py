import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SR, tone
from spoofsense import spectral
from spoofsense.audio import AudioBuffer
from spoofsense.config import RunConfig
from spoofsense.errors import (
    AlignmentMismatch,
    InputTooShort,
    KindDimsMismatch,
    SpoofsenseError,
)
from spoofsense.f0 import F0Config, F0Contour, estimate_f0
from spoofsense.spectral import (
    KINDS,
    ApConfig,
    FeatureMatrix,
    LOG_EPS,
    StftConfig,
    band_aperiodicity,
    band_edges,
    check_kind_dims,
    delta,
    mel_filterbank,
    mfcc,
    spectral_envelope,
    stft_spectrogram,
)


def test_stft_shape_and_tone_bin():
    m = stft_spectrogram(tone(1000, dur=2.0))
    assert m.kind == "stft"
    assert m.dims == 257
    assert m.num_frames == (2 * SR - 400) // 160 + 1 == 198
    assert m.hop == 0.010
    # 1 kHz on the 400-sample window's 512-point FFT at 16 kHz -> bin 32
    assert np.argmax(m.data.mean(axis=0)) == 32


def test_stft_silence_floor():
    m = stft_spectrogram(AudioBuffer(np.zeros(SR), SR))
    np.testing.assert_array_equal(m.data, np.log(LOG_EPS))


def test_stft_too_short():
    with pytest.raises(InputTooShort):
        stft_spectrogram(AudioBuffer(np.zeros(100), SR))


def test_mfcc_dims_and_framing():
    m = mfcc(tone(220, dur=2.0))
    assert m.kind == "mfcc"
    assert m.dims == 39
    assert m.num_frames == 198


def test_mfcc_frames_by_the_stft_config():
    buf = tone(220, dur=2.0)
    stft = StftConfig(win_seconds=0.04, hop_seconds=0.02)  # 640 samples, 1024-point FFTs
    m = KINDS["mfcc"].compute(buf, RunConfig(stft=stft))
    assert m.hop == 0.02
    assert m.num_frames == (2 * SR - 640) // 320 + 1 == 99
    np.testing.assert_array_equal(m.data, mfcc(buf, stft=stft).data)


def test_mfcc_ignores_the_stft_window():
    """The window applies to the log-STFT only; MFCC frames are always Hann."""
    buf = tone(220, dur=2.0)
    hamming = KINDS["mfcc"].compute(buf, RunConfig(stft=StftConfig(window="hamming")))
    np.testing.assert_array_equal(hamming.data, mfcc(buf).data)


def test_mfcc_constant_input_deltas_zero():
    m = mfcc(AudioBuffer(np.ones(SR), SR))
    np.testing.assert_array_equal(m.data[:, 13:], 0.0)


def test_delta_of_linear_ramp_is_slope():
    ramp = np.arange(50, dtype=float)[:, None] * np.array([1.0, 2.0])
    d = delta(ramp, window=2)
    np.testing.assert_allclose(d[2:-2], np.tile([1.0, 2.0], (46, 1)), atol=1e-12)


def naive_delta(m, w):
    n = len(m)
    out = np.zeros_like(m)
    denom = 2 * sum(k * k for k in range(1, w + 1))
    for t in range(n):
        acc = np.zeros(m.shape[1])
        for k in range(1, w + 1):
            acc += k * (m[min(t + k, n - 1)] - m[max(t - k, 0)])
        out[t] = acc / denom
    return out


@given(
    m=hnp.arrays(
        np.float64,
        st.tuples(st.integers(3, 40), st.integers(1, 8)),
        elements=st.floats(-100, 100),
    ),
    w=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_delta_matches_naive(m, w):
    np.testing.assert_allclose(delta(m, window=w), naive_delta(m, w), atol=1e-9)


def test_mel_filterbank_shape_and_coverage():
    fb = mel_filterbank(26, 512, SR, 0.0, 8000.0)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)  # every filter has support
    # interior bins are covered by at least one triangle
    covered = fb.sum(axis=0)[5:250]
    assert np.all(covered > 0)


def _flat_contour(buf, f0, cfg=None):
    cfg = cfg or F0Config()
    frame_len = int(round(3 * buf.sample_rate / cfg.floor))
    hop = int(round(cfg.hop * buf.sample_rate))
    n = (len(buf) - frame_len) // hop + 1
    return F0Contour(values=np.full(n, float(f0)), hop=cfg.hop, floor=cfg.floor, ceil=cfg.ceil)


def test_envelope_shape_and_peak():
    buf = tone(1000, dur=1.0)
    m = spectral_envelope(buf, _flat_contour(buf, 250.0))
    assert m.kind == "sp"
    assert m.dims == 513
    assert np.all(m.data > 0)
    assert np.argmax(m.data.mean(axis=0)) == 64  # 1 kHz at a 1024-point FFT / 16 kHz


def test_envelope_magnitude_only():
    # time reversal permutes the analysis frames but leaves each frame's
    # magnitude spectrum unchanged (symmetric window), so the envelope set
    # must match exactly
    n = 640 + 40 * 80
    rng = np.random.default_rng(0)
    x = rng.normal(size=n) * 0.1
    buf = AudioBuffer(x, SR)
    rev = AudioBuffer(x[::-1].copy(), SR)
    a = spectral_envelope(buf, _flat_contour(buf, 200.0))
    b = spectral_envelope(rev, _flat_contour(rev, 200.0))
    np.testing.assert_allclose(a.data, b.data[::-1], rtol=1e-10)


def test_envelope_alignment_mismatch():
    buf = tone(200, dur=1.0)
    bad = F0Contour(values=np.full(7, 200.0), hop=0.005, floor=75, ceil=500)
    with pytest.raises(AlignmentMismatch):
        spectral_envelope(buf, bad)


def test_band_edges():
    np.testing.assert_allclose(band_edges(5, 8000.0), [0, 500, 1000, 2000, 4000, 8000])
    np.testing.assert_allclose(band_edges(3, 8000.0), [0, 2000, 4000, 8000])


def test_ap_harmonic_pulse_low_band():
    # periodic pulse train: nearly all energy on the harmonic comb
    x = np.zeros(SR)
    x[::160] = 1.0  # 100 Hz
    buf = AudioBuffer(x, SR)
    m = band_aperiodicity(buf, _flat_contour(buf, 100.0))
    assert m.kind == "ap"
    assert m.dims == 5
    assert np.all((m.data >= 0) & (m.data <= 1))
    assert m.data[:, 0].mean() < 0.05


def test_ap_noise_is_aperiodic():
    rng = np.random.default_rng(1)
    buf = AudioBuffer(rng.normal(size=SR) * 0.1, SR)
    m = band_aperiodicity(buf, _flat_contour(buf, 150.0))
    assert m.data.mean() > 0.9


def test_ap_unvoiced_rows_are_one():
    buf = tone(200, dur=1.0)
    c = _flat_contour(buf, 200.0)
    vals = c.values.copy()
    vals[:10] = 0.0
    c = F0Contour(values=vals, hop=c.hop, floor=c.floor, ceil=c.ceil)
    m = band_aperiodicity(buf, c)
    np.testing.assert_array_equal(m.data[:10], 1.0)
    # the tone sits at 200 Hz, so band 0 [0, 500) is strongly periodic
    assert m.data[10:, 0].mean() < 0.1


def test_ap_scale_invariance():
    buf = tone(200, dur=0.8)
    c = _flat_contour(buf, 200.0)
    a = band_aperiodicity(buf, c).data
    b = band_aperiodicity(AudioBuffer(buf.samples * 4.0, SR), c).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_feature_matrix_validation():
    with pytest.raises(ValueError):
        FeatureMatrix(kind="stft", data=np.zeros(5), hop=0.01)  # 1-D
    with pytest.raises(ValueError):
        FeatureMatrix(kind="stft", data=np.full((2, 3), np.nan), hop=0.01)
    with pytest.raises(ValueError):
        FeatureMatrix(kind="stft", data=np.zeros((2, 3)), hop=np.nan)


def test_kind_dims_rules():
    check_kind_dims("f0", 1)
    check_kind_dims("stft", 257)  # free-dim kinds
    check_kind_dims("mfcc", 36)  # 3 x n_ceps, for n_ceps = 12
    with pytest.raises(KindDimsMismatch):
        check_kind_dims("f0", 2)
    with pytest.raises(KindDimsMismatch):
        check_kind_dims("nope", 3)
    with pytest.raises(KindDimsMismatch):
        check_kind_dims("pse", 2)


# the public function each kind's compute calls, by its name in spectral
KIND_FUNCTIONS = {
    "stft": "stft_spectrogram",
    "mfcc": "mfcc",
    "sp": "spectral_envelope",
    "ap": "band_aperiodicity",
    "f0": "estimate_f0",
    "jitter-shimmer": "utterance_perturbation",
    "pse": "utterance_pse",
}


@pytest.mark.parametrize("kind", list(KINDS))
def test_kind_table(kind, monkeypatch):
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    # compute must look these up in spectral when called, not hold them
    for name in {KIND_FUNCTIONS[kind], "estimate_f0"}:
        monkeypatch.setattr(spectral, name, counted(name, getattr(spectral, name)))
    m = KINDS[kind].compute(tone(150), RunConfig())

    assert calls.count(KIND_FUNCTIONS[kind]) == 1
    # every F0-based kind tracks F0 exactly once, in the table; stft and
    # mfcc not at all
    assert calls.count("estimate_f0") == (kind not in ("stft", "mfcc"))
    assert m.kind == kind
    want = KINDS[kind].dims
    if want is None:
        assert m.dims >= 1
    else:
        assert m.dims == want
    if KINDS[kind].utterance_level:
        assert m.num_frames == 1 and m.hop == 0.0
    else:
        assert m.num_frames > 1


# degenerate input families: (amp, offset, unit tone, unit noise) -> samples
DEGENERATE = {
    "silence": lambda amp, off, tone, noise: np.zeros_like(tone),
    "dc": lambda amp, off, tone, noise: np.full_like(tone, off),
    "dc-offset tone": lambda amp, off, tone, noise: off + amp * tone,
    "clipped tone": lambda amp, off, tone, noise: np.clip(4 * amp * tone, -amp, amp),
    "shorter than a window": lambda amp, off, tone, noise: amp * tone,
    "subnormal": lambda amp, off, tone, noise: 1e-310 * tone,
    "white noise": lambda amp, off, tone, noise: amp * noise,
    "impulse": lambda amp, off, tone, noise: amp * np.eye(1, len(tone), len(tone) // 3)[0],
}


@st.composite
def degenerate_buffers(draw):
    family = draw(st.sampled_from(sorted(DEGENERATE)))
    # 400 samples are one 25 ms stft/mfcc window at 16 kHz
    short = family == "shorter than a window"
    n = draw(st.integers(1, 399) if short else st.integers(400, 6000))
    amp = draw(st.floats(1e-3, 0.5))
    off = draw(st.floats(-0.5, 0.5))
    f0 = draw(st.floats(80.0, 400.0))
    noise = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(n)
    tone = np.sin(2 * np.pi * f0 * np.arange(n) / SR)
    x = DEGENERATE[family](amp, off, tone, noise)
    return AudioBuffer(np.clip(x, -1.0, 1.0), SR)


@given(buf=degenerate_buffers())
@settings(max_examples=60, deadline=None)
def test_degenerate_input_fails_typed(buf):
    # every kind gives finite values without a -0 entry, or a typed error
    for kind in KINDS:
        try:
            m = KINDS[kind].compute(buf, RunConfig())
        except SpoofsenseError:
            continue
        assert np.all(np.isfinite(m.data)), kind
        assert not np.any(np.signbit(m.data) & (m.data == 0.0)), kind
