import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SR, tone, wav_bytes
from spoofsense.audio import (
    AudioBuffer,
    frame_signal,
    read_wav,
    resample,
    window_coeffs,
    write_wav,
)
from spoofsense.errors import CorruptPayload, MalformedRiff, TruncatedData, UnsupportedEncoding


def test_pcm16_roundtrip_exact(tmp_path):
    x = np.array([0, 1, -1, 16384, -16384, 32767, -32768], dtype=np.int16)
    p = tmp_path / "x.wav"
    p.write_bytes(wav_bytes(x))
    buf = read_wav(p)
    assert buf.sample_rate == SR
    np.testing.assert_array_equal(buf.samples * 32768.0, x.astype(np.float64))
    write_wav(tmp_path / "y.wav", buf)
    buf2 = read_wav(tmp_path / "y.wav")
    np.testing.assert_array_equal(buf.samples, buf2.samples)


def test_full_scale_normalization(tmp_path):
    p = tmp_path / "f.wav"
    p.write_bytes(wav_bytes(np.array([-32768, 32767], dtype=np.int16)))
    buf = read_wav(p)
    assert buf.samples[0] == -1.0
    assert buf.samples[1] == 32767 / 32768.0


def test_stereo_averaged_to_mono(tmp_path):
    inter = np.array([100, 300, -200, 400], dtype=np.int16)  # L R L R
    p = tmp_path / "s.wav"
    p.write_bytes(wav_bytes(inter, channels=2))
    buf = read_wav(p)
    np.testing.assert_allclose(buf.samples * 32768.0, [200.0, 100.0])


def test_float32_wav(tmp_path):
    x = np.array([0.25, -0.5, 1.5], dtype=np.float32)  # 1.5 must clip
    p = tmp_path / "f32.wav"
    p.write_bytes(wav_bytes(x, fmt_code=3, bits=32))
    buf = read_wav(p)
    np.testing.assert_allclose(buf.samples, [0.25, -0.5, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channels", [1, 2])
def test_non_finite_float_samples_rejected(tmp_path, bad, channels):
    # finite out-of-range samples clip (test_float32_wav); NaN and inf have no
    # in-range value to clip to, so the file is rejected naming the first one
    x = np.full(8 * channels, 0.25, dtype=np.float32)
    x[3 * channels + channels - 1] = bad
    x[6 * channels] = bad
    p = tmp_path / "f32.wav"
    p.write_bytes(wav_bytes(x, channels=channels, fmt_code=3, bits=32))
    with pytest.raises(CorruptPayload, match="non-finite float sample at index 3$"):
        read_wav(p)


def test_odd_sized_chunk_is_word_aligned(tmp_path):
    junk = b"LIST" + struct.pack("<I", 3) + b"abc\x00"  # 3-byte chunk + pad
    base = wav_bytes(np.array([5, 6], dtype=np.int16))
    data = base[:12] + junk + base[12:]
    data = data[:4] + struct.pack("<I", len(data) - 8) + data[8:]
    p = tmp_path / "odd.wav"
    p.write_bytes(data)
    buf = read_wav(p)
    np.testing.assert_array_equal(buf.samples * 32768.0, [5.0, 6.0])


@pytest.mark.parametrize(
    "mangle, exc",
    [
        (lambda b: b"JUNK" + b[4:], MalformedRiff),
        (lambda b: b[:8] + b"EVAW" + b[12:], MalformedRiff),
        (lambda b: b[:-4], TruncatedData),
        (lambda b: b[:36], MalformedRiff),  # data chunk header gone
    ],
)
def test_malformed_wavs(tmp_path, mangle, exc):
    good = wav_bytes(np.array([1, 2, 3, 4], dtype=np.int16))
    p = tmp_path / "bad.wav"
    p.write_bytes(mangle(good))
    with pytest.raises(exc):
        read_wav(p)


def test_unsupported_encoding(tmp_path):
    p = tmp_path / "alaw.wav"
    p.write_bytes(wav_bytes(np.array([1, 2], dtype=np.int16), fmt_code=6))
    with pytest.raises(UnsupportedEncoding):
        read_wav(p)


def wav_at_rate(rate):
    """A two-sample PCM16 file whose header says rate Hz, which wav_bytes's
    byte rate field could not hold for every rate."""
    wav = bytearray(wav_bytes(np.array([1, 2], dtype=np.int16)))
    struct.pack_into("<I", wav, 24, rate)  # the fmt chunk's sample rate
    return bytes(wav)


@pytest.mark.parametrize("rate", [1000, 16000, 22050, 44100, 44101, 768000])
def test_plausible_rates_read(tmp_path, rate):
    p = tmp_path / "r.wav"
    p.write_bytes(wav_at_rate(rate))
    assert read_wav(p).sample_rate == rate


@pytest.mark.parametrize("rate, exc", [(0, MalformedRiff), (1, UnsupportedEncoding),
                                       (999, UnsupportedEncoding), (768001, UnsupportedEncoding),
                                       (2**32 - 1, UnsupportedEncoding)])
def test_implausible_rates_rejected(tmp_path, rate, exc):
    p = tmp_path / "r.wav"
    p.write_bytes(wav_at_rate(rate))
    with pytest.raises(exc):
        read_wav(p)


def test_three_channels_rejected(tmp_path):
    p = tmp_path / "3ch.wav"
    p.write_bytes(wav_bytes(np.array([1, 2, 3], dtype=np.int16), channels=3))
    with pytest.raises(UnsupportedEncoding):
        read_wav(p)


@given(
    st.lists(st.integers(min_value=-32768, max_value=32767), min_size=1, max_size=400)
)
@settings(max_examples=50, deadline=None)
def test_wav_roundtrip_property(tmp_path_factory, xs):
    d = tmp_path_factory.mktemp("wavs")
    x = np.array(xs, dtype=np.int16)
    buf = AudioBuffer(x / 32768.0, SR)
    write_wav(d / "r.wav", buf)
    back = read_wav(d / "r.wav")
    np.testing.assert_array_equal(back.samples, buf.samples)


def test_resample_identity_is_noop():
    buf = tone(100, dur=0.1)
    assert resample(buf, SR) is buf


def test_resample_preserves_tone():
    sr_in = 48000
    t = np.arange(sr_in) / sr_in
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 440 * t), sr_in)
    out = resample(buf, 16000)
    assert out.sample_rate == 16000
    assert len(out) == 16000
    spec = np.abs(np.fft.rfft(out.samples))
    assert abs(np.argmax(spec) - 440) <= 1
    assert np.max(np.abs(out.samples)) <= 1.0


def test_resample_output_length_formula():
    buf = AudioBuffer(np.zeros(22050), 22050)
    out = resample(buf, 16000)
    assert len(out) == int(np.ceil(22050 * 16000 / 22050))


def test_framing_counts():
    buf = AudioBuffer(np.arange(100, dtype=float), SR)
    fs = frame_signal(buf, 30, 20)
    assert fs.shape == ((100 - 30) // 20 + 1, 30)
    np.testing.assert_array_equal(fs[1], np.arange(20, 50, dtype=float))
    assert frame_signal(AudioBuffer(np.zeros(10), SR), 30, 20).shape == (0, 30)


@given(
    n=st.integers(min_value=1, max_value=2000),
    frame_len=st.integers(min_value=1, max_value=300),
    hop=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=80, deadline=None)
def test_framing_formula_property(n, frame_len, hop):
    fs = frame_signal(AudioBuffer(np.zeros(n), SR), frame_len, hop)
    expect = (n - frame_len) // hop + 1 if n >= frame_len else 0
    assert fs.shape == (expect, frame_len)


def test_windows():
    h = window_coeffs("hann", 8)
    assert h[0] == 0.0 and h[-1] == 0.0
    np.testing.assert_allclose(h, h[::-1])  # symmetric
    np.testing.assert_array_equal(window_coeffs("rect", 5), np.ones(5))
    ham = window_coeffs("hamming", 9)
    assert ham[0] > 0.0 and abs(ham[4] - 1.0) < 1e-12
    with pytest.raises(ValueError):
        window_coeffs("blackman", 8)


# ------------------------------------------ WAVE_FORMAT_EXTENSIBLE, 24-bit


def _riff(fmt, payload):
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def _fmt(code, channels, bits, sub_format=None, sr=SR):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", code, channels, sr, sr * block, block, bits)
    if sub_format is not None:  # cbSize, valid bits, channel mask, GUID
        fmt += struct.pack("<HHI", 22, bits, 0) + sub_format
    return fmt


def _guid(code):
    return struct.pack("<I", code) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _pcm24(values):
    return b"".join(int(v).to_bytes(3, "little", signed=True) for v in values)


def test_extensible_pcm16_matches_plain(tmp_path):
    x = np.array([0, 1, -1, 16384, -16384, 32767, -32768, 7], dtype=np.int16)
    for channels in (1, 2):
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(wav_bytes(x, channels=channels))
        ext.write_bytes(_riff(_fmt(0xFFFE, channels, 16, _guid(1)), x.astype("<i2").tobytes()))
        a, b = read_wav(plain), read_wav(ext)
        assert a.sample_rate == b.sample_rate == SR
        assert np.array_equal(a.samples, b.samples)


def test_pcm24_values(tmp_path):
    v = [0, 1, -1, 2**22, -(2**22), 2**23 - 1, -(2**23), 123456]
    p = tmp_path / "m24.wav"
    p.write_bytes(_riff(_fmt(1, 1, 24), _pcm24(v)))
    assert np.array_equal(read_wav(p).samples, np.array(v) / 2.0**23)

    p = tmp_path / "s24.wav"  # L R L R L R L R, plus a partial trailing frame
    p.write_bytes(_riff(_fmt(0xFFFE, 2, 24, _guid(1)), _pcm24(v) + b"\x01\x02\x03"))
    want = np.array(v, dtype=np.float64).reshape(-1, 2).mean(axis=1) / 2.0**23
    assert np.array_equal(read_wav(p).samples, want)


def test_extensible_float32_nan_rejected(tmp_path):
    p = tmp_path / "f.wav"
    x = np.array([0.25, -0.5, np.nan, 0.0], dtype="<f4")
    p.write_bytes(_riff(_fmt(0xFFFE, 1, 32, _guid(3)), x.tobytes()))
    with pytest.raises(CorruptPayload, match="index 2"):
        read_wav(p)


@pytest.mark.parametrize("sub_format", [
    _guid(6),                        # A-law code in the standard GUID
    struct.pack("<I", 1) + bytes(12),  # PCM code with a foreign GUID tail
])
def test_extensible_unknown_sub_format(tmp_path, sub_format):
    p = tmp_path / "u.wav"
    p.write_bytes(_riff(_fmt(0xFFFE, 1, 16, sub_format), bytes(8)))
    with pytest.raises(UnsupportedEncoding):
        read_wav(p)


@pytest.mark.parametrize("code,bits", [(1, 8), (1, 32), (3, 24), (3, 64)])
def test_other_bit_depths_still_rejected(tmp_path, code, bits):
    p = tmp_path / "b.wav"
    for sub_format in (None, _guid(code)):
        fmt_code = code if sub_format is None else 0xFFFE
        p.write_bytes(_riff(_fmt(fmt_code, 1, bits, sub_format), bytes(24)))
        with pytest.raises(UnsupportedEncoding):
            read_wav(p)


def test_resample_filter_designed_once(monkeypatch):
    import scipy.signal

    from spoofsense import audio

    sr = 44101
    buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 440 * np.arange(sr // 4) / sr), sr)
    g = np.gcd(sr, 16000)
    up, down = 16000 // g, sr // g
    taps = scipy.signal.firwin(2 * 10 * max(up, down) + 1, 0.45 * 8000.0,
                               fs=sr * up, window=("kaiser", 5.0))
    want = np.clip(scipy.signal.resample_poly(buf.samples, up, down, window=taps), -1.0, 1.0)

    calls = []
    firwin = scipy.signal.firwin
    monkeypatch.setattr(scipy.signal, "firwin", lambda *a, **k: calls.append(1) or firwin(*a, **k))
    audio._resample_filter.cache_clear()
    first, second = resample(buf, 16000), resample(buf, 16000)
    assert len(calls) == 1
    assert np.array_equal(first.samples, want) and np.array_equal(second.samples, want)
    audio._resample_filter.cache_clear()
