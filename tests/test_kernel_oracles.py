"""Parity of the DSP kernels with their earlier implementations.

The loop versions below are the original implementations of the F0 peak
pick, band aperiodicity, the spectral envelope and the mel filterbank,
kept verbatim as oracles.  The vectorised code must reproduce them exactly
in float64 (np.array_equal, no tolerance), because every .ssft feature file
is derived from these arrays.

The one exception is the NCCF.  _nccf_2w is the earlier _nccf, verbatim,
with its FFT of next_fast_len(2 W) points; today's FFT is the shortest
alias-free length, next_fast_len(W + kmax + 1), which rounds differently in
the last bits.  So _nccf must match _nccf_2w within 1e-12 absolute, and an
F0 contour built on either must have the same voicing and values within
1e-12 relative.

estimate_f0_whole and spectral_envelope_whole are the whole-utterance
versions of the kernels, verbatim: one (frames x n_fft) array per step
instead of audio.BLOCK_ROWS rows at a time.  Every step treats each frame on
its own, so the blocked kernels must match them exactly, across block
boundaries, silent and constant rows and blocks and the empty-lag-band
error included.  _nccf_ref and _pick_peak_ref are the module's _nccf and
_pick_peak, verbatim, from before they were cut to the live rows and their
in-place steps; estimate_f0_loop and estimate_f0_whole use them, so that a
change to the module's two functions cannot change the oracles along with
it.

_windowed_frames and _contour_frames are the earlier framing of the
envelope and aperiodicity, verbatim: the whole utterance windowed at once,
where the kernels now window a block at a time.  The oracles frame with
them, not with the module's, so that a change to the kernels' framing
cannot change the oracles along with it.  Every test here runs with one
block helper thread, however many cores there are, so that the kernels'
blocks and bands run on two threads.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SR, machine_buf, natural_buf
from spoofsense import audio, f0 as f0_module
from spoofsense.audio import (
    BLOCK_ROWS,
    AudioBuffer,
    frame_signal,
    helper_pool,
    resample,
    window_coeffs,
)
from spoofsense.errors import AlignmentMismatch, InputTooShort
from spoofsense.f0 import (
    SUBHARMONIC_RATIO,
    F0Config,
    F0Contour,
    _nccf,
    _pick_peak,
    contour_framing,
    estimate_f0,
)
from spoofsense.spectral import (
    LOG_EPS,
    ApConfig,
    EnvelopeConfig,
    FeatureMatrix,
    _hz_to_mel,
    _mel_to_hz,
    band_aperiodicity,
    band_edges,
    mel_filterbank,
    spectral_envelope,
)


@pytest.fixture(autouse=True, scope="module")
def one_helper():
    """One block helper thread for every test here, however many cores."""
    saved = audio._helpers
    audio._helpers = helper_pool(1)
    try:
        yield
    finally:
        audio._helpers[1].shutdown()
        audio._helpers = saved


# ---------------------------------------------------------------- oracles


def _windowed_frames(buf, frame_len, hop, window, n_fft):
    """The buffer's frames times the window; n_fft must cover a frame."""
    if n_fft < frame_len:
        raise ValueError("n_fft must cover the analysis window")
    return frame_signal(buf, frame_len, hop) * window_coeffs(window, frame_len)


def _contour_frames(buf, contour, n_fft):
    """Frame exactly as the contour was framed; lengths must agree."""
    frame_len, hop = contour_framing(buf.sample_rate, contour)
    frames = _windowed_frames(buf, frame_len, hop, "hann", n_fft)
    if len(frames) != len(contour):
        raise AlignmentMismatch(
            "contour has %d frames, buffer frames to %d" % (len(contour), len(frames))
        )
    return frames, frame_len, hop


def _nccf_ref(frames, squares, kmin, kmax):
    """Normalized cross-correlation for lags kmin-1 .. kmax+1 (per frame).

    nccf[k] = sum(x[n] x[n+k]) / sqrt(E(x[:W-k]) E(x[k:])), so any exactly
    periodic frame scores 1.0 at its period regardless of amplitude.
    squares is frames**2; it is overwritten with its running sums.  The
    FFT has N = next_fast_len(W + kmax + 1) points: at a lag k <= kmax + 1
    every product x[n] x[n+k] of the frame has n + k < W + kmax + 1 <= N, so
    none wraps and the circular correlation equals the linear one.
    """
    from scipy.fft import next_fast_len  # on first use, so commands that track no F0 never load scipy

    w = frames.shape[1]
    nfft = next_fast_len(w + kmax + 1)
    spec = np.fft.rfft(frames, nfft, axis=1)
    corr = np.fft.irfft(spec.real**2 + spec.imag**2, nfft, axis=1)[:, kmin - 1 : kmax + 2]

    cs = np.cumsum(squares, axis=1, out=squares)
    e_head = cs[:, w - kmax - 2 : w - kmin + 1][:, ::-1]  # E(x[:W-k]), k ascending
    e_tail = cs[:, -1:] - cs[:, kmin - 2 : kmax + 1]      # E(x[k:])
    denom = np.sqrt(e_head * e_tail)
    out = np.divide(corr, denom, out=np.zeros_like(denom), where=denom > 0)
    return np.arange(kmin - 1, kmax + 2), out


def _pick_peak_ref(lags, nccf):
    """Per row: smallest-lag local maximum within SUBHARMONIC_RATIO of the row's best.

    lags and nccf are _nccf_ref's, for lags kmin-1 .. kmax+1.  Returns (lag,
    peak) arrays with the parabolically refined lag of the chosen peak and
    its NCCF value.  An empty [kmin, kmax] band raises ValueError from the
    max over it.
    """
    interior = nccf[:, 1:-1]  # lags kmin .. kmax, inside the padded range
    is_max = (interior >= nccf[:, :-2]) & (interior >= nccf[:, 2:])
    best = np.max(interior, axis=1, keepdims=True)
    cand = is_max & (interior >= SUBHARMONIC_RATIO * best)
    fallback = interior == best
    first = np.where(cand.any(axis=1), cand.argmax(axis=1), fallback.argmax(axis=1))
    rows = np.arange(len(nccf))
    i = first + 1  # back to padded-row indexing
    a, b, c = nccf[rows, i - 1], nccf[rows, i], nccf[rows, i + 1]
    den = a + c - 2.0 * b
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(den == 0.0, 0.0, np.clip((a - c) / (2.0 * den), -0.5, 0.5))
    return lags[i] + delta, b


def _nccf_2w(frames, kmin, kmax):
    """Normalized cross-correlation for lags kmin-1 .. kmax+1 (per frame).

    nccf[k] = sum(x[n] x[n+k]) / sqrt(E(x[:W-k]) E(x[k:])), so any exactly
    periodic frame scores 1.0 at its period regardless of amplitude.
    """
    from scipy.fft import next_fast_len  # on first use, so commands that track no F0 never load scipy

    nf, w = frames.shape
    nfft = next_fast_len(2 * w)
    spec = np.fft.rfft(frames, nfft, axis=1)
    corr = np.fft.irfft(np.abs(spec) ** 2, nfft, axis=1)

    lags = np.arange(kmin - 1, kmax + 2)
    cs = np.cumsum(frames**2, axis=1)
    total = cs[:, -1:]
    e_head = cs[:, w - 1 - lags]
    e_tail = total - cs[:, lags - 1]
    denom = np.sqrt(e_head * e_tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(denom > 0, corr[:, lags] / denom, 0.0)
    return lags, out


def _pick_peak_loop(lags, row, kmin, kmax, ratio):
    """Smallest-lag local maximum within ratio of the global best."""
    band = slice(1, len(lags) - 1)  # interior of the padded lag range
    interior = row[band]
    is_max = (interior >= row[:-2]) & (interior >= row[2:])
    in_band = (lags[band] >= kmin) & (lags[band] <= kmax)
    best = np.max(interior[in_band])
    cand = np.flatnonzero(is_max & in_band & (interior >= ratio * best))
    if len(cand) == 0:
        cand = np.flatnonzero(in_band & (interior == best))
    i = cand[0] + 1  # back to padded-row indexing
    a, b, c = row[i - 1], row[i], row[i + 1]
    den = a + c - 2.0 * b
    delta = 0.0 if den == 0.0 else np.clip((a - c) / (2.0 * den), -0.5, 0.5)
    return lags[i] + delta, b


def estimate_f0_loop(buf, cfg=None):
    cfg = cfg or F0Config()
    sr = buf.sample_rate
    if not (0 < cfg.floor < cfg.ceil <= sr / 2):
        raise ValueError("need 0 < floor < ceil <= Nyquist")
    if len(buf) < 2 * sr / cfg.floor:
        raise InputTooShort(
            "need at least two periods of the floor frequency (%d samples)"
            % int(np.ceil(2 * sr / cfg.floor))
        )

    frame_len = int(round(3 * sr / cfg.floor))
    hop = int(round(cfg.hop * sr))
    series = frame_signal(buf, frame_len, hop)
    if len(series) == 0:
        raise InputTooShort("shorter than one analysis window (%d samples)" % frame_len)

    frames = series - series.mean(axis=1, keepdims=True)
    kmin = int(np.ceil(sr / cfg.ceil))
    kmax = int(np.floor(sr / cfg.floor))
    if kmin < 2:
        raise ValueError("ceil too close to the sample rate")

    lags, nccf = _nccf_ref(frames, frames**2, kmin, kmax)
    energy = np.sum(frames**2, axis=1)

    values = np.zeros(len(series))
    for i in range(len(series)):
        if energy[i] == 0.0:
            continue
        lag, peak = _pick_peak_loop(lags, nccf[i], kmin, kmax, SUBHARMONIC_RATIO)
        if peak < cfg.voicing_threshold:
            continue
        values[i] = np.clip(sr / lag, cfg.floor, cfg.ceil)
    return values


def spectral_envelope_loop(buf, contour, cfg=None):
    cfg = cfg or EnvelopeConfig()
    frames, _, _ = _contour_frames(buf, contour, cfg.n_fft)
    sr = buf.sample_rate
    power = np.abs(np.fft.rfft(frames, cfg.n_fft, axis=1)) ** 2
    logp = np.log(power + LOG_EPS)
    ceps = np.fft.irfft(logp, cfg.n_fft, axis=1)

    out = np.empty_like(logp)
    half = cfg.n_fft // 2
    for i in range(frames.shape[0]):
        f0 = contour.values[i]
        q_sec = cfg.voiced_fraction / f0 if f0 > 0 else cfg.unvoiced_quefrency
        cut = int(np.clip(round(q_sec * sr), 1, half))
        c = ceps[i].copy()
        c[cut : cfg.n_fft - cut + 1] = 0.0
        out[i] = np.fft.rfft(c).real
    return np.exp(out)


def band_aperiodicity_loop(buf, contour, cfg=None):
    cfg = cfg or ApConfig()
    frames, frame_len, _ = _contour_frames(buf, contour, cfg.n_fft)
    sr = buf.sample_rate
    power = np.abs(np.fft.rfft(frames, cfg.n_fft, axis=1)) ** 2
    freqs = np.arange(cfg.n_fft // 2 + 1) * (sr / cfg.n_fft)
    edges = band_edges(cfg.n_bands, sr / 2.0)
    bands = []
    for b in range(cfg.n_bands):
        top = freqs <= edges[b + 1] if b == cfg.n_bands - 1 else freqs < edges[b + 1]
        bands.append((freqs >= edges[b]) & top)
    notch_hw = 2.0 * sr / frame_len  # main-lobe half-width of the hann window

    out = np.ones((frames.shape[0], cfg.n_bands))
    for i in range(frames.shape[0]):
        f0 = contour.values[i]
        if f0 <= 0:
            continue
        p = power[i]
        # k = 0 included: a periodic cycle with nonzero mean puts a line at DC
        harmonics = np.arange(0, int(np.floor((sr / 2.0) / f0)) + 1) * f0
        harmonic_bins = np.zeros(len(freqs), dtype=bool)
        for h in harmonics:
            harmonic_bins |= np.abs(freqs - h) <= notch_hw
        for b, band in enumerate(bands):
            total = np.sum(p[band])
            if total <= 0.0:
                out[i, b] = 1.0
                continue
            noise_bins = band & ~harmonic_bins
            if not np.any(noise_bins):
                out[i, b] = 0.0  # harmonics blanket the band; nothing to measure
                continue
            residual = np.mean(p[noise_bins]) * np.count_nonzero(band)
            out[i, b] = np.clip(residual / total, 0.0, 1.0)
    return out


def estimate_f0_whole(buf, cfg=None):
    """One F0 value per hop; frames with a weak correlation peak are 0."""
    cfg = cfg or F0Config()
    sr = buf.sample_rate
    if not (0 < cfg.floor < cfg.ceil <= sr / 2):
        raise ValueError("need 0 < floor < ceil <= Nyquist")
    frame_len, hop = contour_framing(sr, cfg)
    raw = frame_signal(buf, frame_len, hop)
    if len(raw) == 0:
        raise InputTooShort("shorter than one analysis window (%d samples)" % frame_len)

    frames = raw - raw.mean(axis=1, keepdims=True)
    kmin = int(np.ceil(sr / cfg.ceil))
    kmax = int(np.floor(sr / cfg.floor))
    if kmin < 2:
        raise ValueError("ceil too close to the sample rate")

    squares = frames**2
    energy = np.sum(squares, axis=1)
    lags, nccf = _nccf_ref(frames, squares, kmin, kmax)
    raw_energy = np.sum(frame_signal(AudioBuffer(buf.samples**2, sr), frame_len, hop), axis=1)

    values = np.zeros(len(frames))
    # silent frames stay unvoiced: zero energy, or a constant frame's rounding
    # residue, which is near-constant too and so has an NCCF of 1 at every lag
    live = np.flatnonzero(energy > raw_energy * (frame_len * np.finfo(float).eps) ** 2)
    if len(live):  # all silent: nothing to pick, even from an empty lag band
        lag, peak = _pick_peak_ref(lags, nccf[live])
        values[live] = np.where(
            peak < cfg.voicing_threshold, 0.0, np.clip(sr / lag, cfg.floor, cfg.ceil)
        )
    return F0Contour(values=values, hop=cfg.hop, floor=cfg.floor, ceil=cfg.ceil)


def spectral_envelope_whole(buf, contour, cfg=None):
    """Cepstrally smoothed power-spectrum envelope, one row per contour frame.

    Liftering keeps quefrencies below 0.8 pitch periods (voiced) or 2.5 ms
    (unvoiced), discarding harmonic fine structure but keeping resonances.
    """
    cfg = cfg or EnvelopeConfig()
    frames, _, _ = _contour_frames(buf, contour, cfg.n_fft)
    sr = buf.sample_rate
    power = np.abs(np.fft.rfft(frames, cfg.n_fft, axis=1)) ** 2
    logp = np.log(power + LOG_EPS)
    ceps = np.fft.irfft(logp, cfg.n_fft, axis=1)

    f0 = contour.values[:, None]
    with np.errstate(divide="ignore"):
        q_sec = np.where(f0 > 0, cfg.voiced_fraction / f0, cfg.unvoiced_quefrency)
    # np.round, like round(), takes halves to even
    cut = np.clip(np.round(q_sec * sr), 1, cfg.n_fft // 2)
    q = np.arange(cfg.n_fft)
    ceps[(q >= cut) & (q <= cfg.n_fft - cut)] = 0.0
    out = np.fft.rfft(ceps, axis=1).real
    return FeatureMatrix(kind="sp", data=np.exp(out), hop=contour.hop)


def mel_filterbank_loop(n_mels, n_fft, sample_rate, fmin, fmax):
    pts = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    bins = np.floor((n_fft + 1) * pts / sample_rate).astype(int)
    fb = np.zeros((n_mels, n_fft // 2 + 1))
    for m in range(1, n_mels + 1):
        lo, mid, hi = bins[m - 1], bins[m], bins[m + 1]
        for k in range(lo, mid):
            fb[m - 1, k] = (k - lo) / max(1, mid - lo)
        for k in range(mid, hi):
            fb[m - 1, k] = (hi - k) / max(1, hi - mid)
    return fb


# ----------------------------------------------------------------- inputs


def _with_silence(buf, start=0.4, dur=0.2):
    x = buf.samples.copy()
    a = int(start * buf.sample_rate)
    x[a : a + int(dur * buf.sample_rate)] = 0.0
    return AudioBuffer(x, buf.sample_rate)


# native 16 kHz and resampled voices over F0 82-295 Hz, one with an
# interior 0.2 s silence, plus stationary machine tones
CORPUS = {
    "nat82": natural_buf(82, seed=1, dur=1.3),
    "nat140_22k": resample(natural_buf(140, seed=2, dur=1.0, sr=22050), SR),
    "nat210_gap": _with_silence(natural_buf(210, seed=3, dur=1.2)),
    "nat295_44k": resample(natural_buf(295, seed=4, dur=0.8, sr=44100), SR),
    "mach120": machine_buf(120, dur=0.9),
    "mach260_44k": resample(machine_buf(260, dur=0.7, sr=44100), SR),
}
F0_CONFIGS = [F0Config(), F0Config(floor=60.0, ceil=400.0), F0Config(floor=100.0, ceil=350.0)]


def _assert_kernels_match(buf, contour, ap_cfg=None, env_cfg=None):
    assert np.array_equal(
        band_aperiodicity(buf, contour, ap_cfg).data,
        band_aperiodicity_loop(buf, contour, ap_cfg),
    )
    assert np.array_equal(
        spectral_envelope(buf, contour, env_cfg).data,
        spectral_envelope_loop(buf, contour, env_cfg),
    )


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("f0_cfg", F0_CONFIGS, ids=["default", "60-400", "100-350"])
def test_estimate_f0_matches_loop(name, f0_cfg):
    buf = CORPUS[name]
    got = estimate_f0(buf, f0_cfg).values
    assert np.array_equal(got, estimate_f0_loop(buf, f0_cfg))
    assert np.any(got > 0)


@pytest.mark.parametrize(
    "sr, floor, ceil",
    [
        (16000, 75.0, 500.0),
        (16000, 97.0, 500.0),  # W + kmax + 1 = 660 points, itself a fast length
        (16000, 60.0, 400.0),
        (8000, 100.0, 350.0),  # W + kmax = 320 is a fast length too: one point short aliases
        (22050, 75.0, 500.0),
        (44100, 80.0, 1000.0),
    ],
)
def test_nccf_matches_2w(sr, floor, ceil):
    from scipy.fft import next_fast_len

    w = contour_framing(sr, F0Config(floor=floor, ceil=ceil))[0]
    kmin, kmax = int(np.ceil(sr / ceil)), int(np.floor(sr / floor))
    r = np.random.default_rng([sr, int(floor), int(ceil)])
    t = np.arange(w) / sr
    frames = np.concatenate([
        r.normal(size=(6, w)),  # noise: every lag's wrapped term would show
        np.sin(2 * np.pi * r.uniform(floor, ceil, (6, 1)) * t) + 0.1 * r.normal(size=(6, w)),
        np.zeros((1, w)),  # zero energy: nccf 0
    ])
    frames -= frames.mean(axis=1, keepdims=True)
    lags, got = _nccf(frames, frames**2, kmin, kmax)
    assert np.array_equal(got, _nccf_ref(frames, frames**2, kmin, kmax)[1])
    want_lags, want = _nccf_2w(frames, kmin, kmax)
    assert np.array_equal(lags, want_lags)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.all(got[-1] == 0.0)
    if (sr, floor) == (16000, 97.0):
        # the tight case: one point fewer, and lag kmax + 1 wraps around
        n = w + kmax + 1
        assert (w, kmax, next_fast_len(n)) == (495, 164, 660)
        spec = np.fft.rfft(frames[0], n - 1)
        short = np.fft.irfft(spec.real**2 + spec.imag**2, n - 1)
        assert abs(short[kmax + 1] - np.dot(frames[0, : -kmax - 1], frames[0, kmax + 1 :])) > 1e-3


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("f0_cfg", F0_CONFIGS, ids=["default", "60-400", "100-350"])
def test_estimate_f0_matches_2w_contour(name, f0_cfg, monkeypatch):
    buf = CORPUS[name]
    got = estimate_f0(buf, f0_cfg).values
    monkeypatch.setattr(f0_module, "_nccf", lambda frames, sq, kmin, kmax: _nccf_2w(frames, kmin, kmax))
    want = estimate_f0(buf, f0_cfg).values
    assert np.array_equal(got > 0, want > 0)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert np.any(got > 0)


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("f0_cfg", F0_CONFIGS, ids=["default", "60-400", "100-350"])
def test_ap_and_sp_match_loop(name, f0_cfg):
    buf = CORPUS[name]
    _assert_kernels_match(buf, estimate_f0(buf, f0_cfg))


@pytest.mark.parametrize(
    "ap_cfg, env_cfg",
    [
        (ApConfig(n_bands=1), None),
        (ApConfig(n_bands=8), None),
        (ApConfig(n_fft=2048), EnvelopeConfig(n_fft=2048)),
        (ApConfig(n_bands=8, n_fft=2048), EnvelopeConfig(n_fft=2048, voiced_fraction=0.5)),
    ],
    ids=["1band", "8bands", "nfft2048", "8bands-nfft2048"],
)
def test_ap_and_sp_match_loop_non_default(ap_cfg, env_cfg):
    for name in ("nat82", "nat210_gap", "mach260_44k"):
        buf = CORPUS[name]
        _assert_kernels_match(buf, estimate_f0(buf), ap_cfg, env_cfg)


def test_all_zero_buffer():
    buf = AudioBuffer(np.zeros(SR), SR)
    c = estimate_f0(buf)
    assert np.array_equal(c.values, estimate_f0_loop(buf))
    assert np.all(c.values == 0.0)
    _assert_kernels_match(buf, c)
    # no frame has energy, so no peak is picked, even from an empty lag band
    empty_band = F0Config(floor=485.0, ceil=490.0)
    assert np.array_equal(estimate_f0(buf, empty_band).values, estimate_f0_loop(buf, empty_band))


def test_all_unvoiced_contour():
    buf = CORPUS["nat140_22k"]
    c = F0Contour(np.zeros(len(estimate_f0(buf))), hop=0.005, floor=75.0, ceil=500.0)
    ap = band_aperiodicity(buf, c).data
    assert np.all(ap == 1.0)
    _assert_kernels_match(buf, c)
    unvoiced_cut = int(round(EnvelopeConfig().unvoiced_quefrency * SR))
    voiced = F0Contour(np.full(len(c), 0.8 / (unvoiced_cut / SR)), 0.005, 75.0, 500.0)
    # same cut voiced or not, so the same envelope: the unvoiced lifter is used
    assert np.array_equal(spectral_envelope(buf, c).data, spectral_envelope(buf, voiced).data)


@pytest.mark.parametrize("f0", [12.0, 20.0, 33.0, 49.0])
def test_f0_below_notch_halfwidth(f0):
    """notch_hw is 50 Hz at the default floor; with an F0 below it several
    harmonics lie within the notch of one bin, not just its nearest."""
    buf = CORPUS["mach120"]
    n = len(estimate_f0(buf))
    vals = np.where(np.arange(n) % 3 == 0, 0.0, f0 * (1 + 0.01 * np.sin(np.arange(n))))
    _assert_kernels_match(buf, F0Contour(vals, hop=0.005, floor=75.0, ceil=500.0))


def test_empty_lag_band_raises_like_loop():
    buf = CORPUS["mach120"]
    cfg = F0Config(floor=485.0, ceil=490.0)  # kmin 33 > kmax 32 at 16 kHz
    with pytest.raises(ValueError) as want:
        estimate_f0_loop(buf, cfg)
    with pytest.raises(ValueError) as got:
        estimate_f0(buf, cfg)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "n_mels, n_fft, sr, fmin, fmax",
    [
        (26, 512, 16000, 0.0, 8000.0),
        (40, 1024, 16000, 133.0, 6855.0),
        (13, 255, 16000, 0.0, 8000.0),
        (80, 512, 16000, 0.0, 8000.0),  # filters narrower than a bin
        (26, 512, 16000, 0.0, 8020.0),  # top edge on the last bin + 1
    ],
)
def test_mel_filterbank_matches_loop(n_mels, n_fft, sr, fmin, fmax):
    assert np.array_equal(
        mel_filterbank(n_mels, n_fft, sr, fmin, fmax),
        mel_filterbank_loop(n_mels, n_fft, sr, fmin, fmax),
    )


def test_mel_filterbank_beyond_top_bin():
    # the loop indexed past the last bin; the broadcast version says why
    with pytest.raises(IndexError):
        mel_filterbank_loop(26, 512, 16000, 0.0, 8050.0)
    # a huge fmax overflows the int cast of its bin to a negative number
    for fmax in (8050.0, 1e21, 1e300):
        with pytest.raises(ValueError, match="top bin"):
            mel_filterbank(26, 512, 16000, 0.0, fmax)


@given(
    n_mels=st.integers(1, 60),
    n_fft=st.integers(8, 1100),
    fmin=st.floats(0.0, 3000.0),
    span=st.floats(10.0, 6000.0),
)
@settings(max_examples=60, deadline=None)
def test_mel_filterbank_matches_loop_property(n_mels, n_fft, fmin, span):
    fmax = min(fmin + span, 8000.0)
    assert np.array_equal(
        mel_filterbank(n_mels, n_fft, SR, fmin, fmax),
        mel_filterbank_loop(n_mels, n_fft, SR, fmin, fmax),
    )


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1400, 6000),
    kind=st.sampled_from(["noise", "harmonic", "sparse"]),
    unvoiced_share=st.floats(0.0, 1.0),
    f0_lo=st.floats(15.0, 400.0),
)
@settings(max_examples=25, deadline=None)
def test_kernels_match_loop_property(seed, n, kind, unvoiced_share, f0_lo):
    r = np.random.default_rng(seed)
    if kind == "noise":
        x = r.uniform(-1, 1, n)
    elif kind == "harmonic":
        t = np.arange(n) / SR
        x = 0.4 * np.sin(2 * np.pi * r.uniform(70, 450) * t) + 0.05 * r.normal(size=n)
    else:  # mostly exact zeros: zero-energy and all-zero-band frames
        x = np.where(r.uniform(size=n) < 0.02, r.uniform(-1, 1, n), 0.0)
        x[: n // 2] = 0.0
    buf = AudioBuffer(np.clip(x, -1, 1), SR)
    tracked = estimate_f0(buf)
    assert np.array_equal(tracked.values, estimate_f0_loop(buf))
    _assert_kernels_match(buf, tracked)

    # hand-built contour on the same framing, F0 down to below notch_hw
    vals = r.uniform(f0_lo, f0_lo * 1.5, len(tracked))
    vals[r.uniform(size=len(vals)) < unvoiced_share] = 0.0
    _assert_kernels_match(buf, F0Contour(vals, hop=0.005, floor=75.0, ceil=500.0))


# ------------------------------------------- blocked kernels vs whole arrays


def _framed_buf(n_frames, cfg=None, sr=SR, f0=140.0, seed=0, silent=()):
    """A voice cut to exactly n_frames contour frames of cfg, with the samples
    of each (start, stop) frame range in silent set to zero."""
    cfg = cfg or F0Config()
    frame_len, hop = contour_framing(sr, cfg)
    n = frame_len + (n_frames - 1) * hop
    x = natural_buf(f0, seed=seed, dur=n / sr + 0.01, sr=sr).samples[:n].copy()
    for start, stop in silent:  # every sample of frames start .. stop - 1
        x[start * hop : (stop - 1) * hop + frame_len] = 0.0
    return AudioBuffer(x, sr)


def _assert_blocks_match_whole(buf, cfg=None, env_cfgs=(None,)):
    got = estimate_f0(buf, cfg)
    want = estimate_f0_whole(buf, cfg)
    assert np.array_equal(got.values, want.values)
    for env_cfg in env_cfgs:
        assert np.array_equal(
            spectral_envelope(buf, got, env_cfg).data,
            spectral_envelope_whole(buf, got, env_cfg).data,
        )
    return got


B = BLOCK_ROWS


@pytest.mark.parametrize(
    "n_frames",
    [1, B // 2 - 1, B // 2, B // 2 + 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 1597],
    ids=lambda n: "%d-frames" % n,
)
def test_blocks_match_whole_at_block_edges(n_frames):
    buf = _framed_buf(n_frames)
    c = _assert_blocks_match_whole(buf)
    assert len(c) == n_frames and np.any(c.values > 0)
    assert np.array_equal(band_aperiodicity(buf, c).data, band_aperiodicity_loop(buf, c))


def test_silent_block_between_voiced_ones():
    # frames B .. 2B - 1, the whole second block, hold only zeros
    buf = _framed_buf(3 * B + 10, silent=[(B, 2 * B)])
    c = _assert_blocks_match_whole(buf)
    assert np.all(c.values[B : 2 * B] == 0.0)
    assert np.any(c.values[:B] > 0) and np.any(c.values[2 * B :] > 0)


def test_all_silent_multi_block_buffer():
    frame_len, hop = contour_framing(SR, F0Config())
    buf = AudioBuffer(np.zeros(frame_len + 3 * B * hop), SR)
    c = _assert_blocks_match_whole(buf)
    assert len(c) == 3 * B + 1 and np.all(c.values == 0.0)
    # no frame has energy, so no peak is picked, even from an empty lag band
    empty_band = F0Config(floor=485.0, ceil=490.0)
    assert np.array_equal(estimate_f0(buf, empty_band).values,
                          estimate_f0_whole(buf, empty_band).values)


@pytest.mark.parametrize("cfg", [F0Config(), F0Config(floor=485.0, ceil=490.0)],
                         ids=["default", "empty-lag-band"])
def test_live_frames_only_in_last_partial_block(cfg):
    n = 2 * B + 20
    buf = _framed_buf(n, cfg, silent=[(0, n - 10)])
    if cfg.floor == 485.0:  # kmin 33 > kmax 32 at 16 kHz: raised from the last block
        with pytest.raises(ValueError) as want:
            estimate_f0_whole(buf, cfg)
        with pytest.raises(ValueError) as got:
            estimate_f0(buf, cfg)
        assert str(got.value) == str(want.value)
        return
    c = _assert_blocks_match_whole(buf, cfg)
    assert np.all(c.values[: n - 10] == 0.0) and np.any(c.values[n - 10 :] > 0)


@given(
    sr=st.sampled_from([8000, 16000, 22050, 44100]),
    floor=st.floats(66.0, 150.0),
    span=st.floats(60.0, 500.0),
    hop=st.floats(0.002, 0.012),
    n_frames=st.integers(1, 3 * BLOCK_ROWS + 5),
    f0=st.floats(80.0, 300.0),
    seed=st.integers(0, 2**16),
    gap=st.tuples(st.integers(0, 3 * BLOCK_ROWS), st.integers(0, BLOCK_ROWS + 10)),
)
@settings(max_examples=40, deadline=None)
def test_blocks_match_whole_property(sr, floor, span, hop, n_frames, f0, seed, gap):
    cfg = F0Config(floor=floor, ceil=min(floor + span, sr / 2), hop=hop)
    silent = [(gap[0], gap[0] + gap[1])]
    buf = _framed_buf(n_frames, cfg, sr=sr, f0=min(f0, cfg.ceil), seed=seed, silent=silent)
    frame_len = contour_framing(sr, cfg)[0]
    env_cfgs = [EnvelopeConfig(n_fft=2048)] + ([None] if frame_len <= 1024 else [])
    _assert_blocks_match_whole(buf, cfg, env_cfgs)


def _block_cuts(n):
    """The row cuts of audio.by_row_blocks for n rows."""
    count = -(-n // BLOCK_ROWS)
    return [j * n // count for j in range(count + 1)]


EMPTY_BAND = F0Config(floor=485.0, ceil=490.0)  # kmin 33 > kmax 32 at 16 kHz


@given(
    n_frames=st.integers(1, 3 * BLOCK_ROWS + 5),
    where=st.sampled_from(["first", "last", "every", "block", "none"]),
    block=st.integers(0, 3),
    extra=st.lists(st.integers(0, 3 * BLOCK_ROWS + 4), max_size=5),
    level=st.sampled_from([0.0, 0.25, -1.0, 1e-3]),
    cfg=st.sampled_from(F0_CONFIGS + [EMPTY_BAND]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_silent_and_constant_rows_match_whole(n_frames, where, block, extra, level, cfg, seed):
    """Rows that hold one value (0: silent, else DC) as the first or the last
    row of every block, as every row, as one whole block, or nowhere, plus
    some rows anywhere: the tracker drops them before the NCCF, the whole
    oracle after it, and the contours must be the same bits.  With an empty
    lag band both raise the same error, unless no row is live."""
    frame_len, hop = contour_framing(SR, cfg)
    cuts = _block_cuts(n_frames)
    block %= len(cuts) - 1
    rows = {
        "first": cuts[:-1],
        "last": [c - 1 for c in cuts[1:]],
        "every": range(n_frames),
        "block": range(cuts[block], cuts[block + 1]),
        "none": [],
    }[where]
    x = _framed_buf(n_frames, cfg, f0=140.0, seed=seed).samples.copy()
    for k in [*rows, *(e for e in extra if e < n_frames)]:
        x[k * hop : k * hop + frame_len] = level
    buf = AudioBuffer(x, SR)
    try:
        want = estimate_f0_whole(buf, cfg).values
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            estimate_f0(buf, cfg)
        assert str(got.value) == str(e)
        return
    got = estimate_f0(buf, cfg).values
    assert np.array_equal(got, want)
    if where == "every":
        assert np.all(got == 0.0)


@given(
    rows=st.integers(1, 12),
    width=st.integers(2, 40),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_pick_peak_matches_ref(rows, width, levels, seed):
    """NCCF rows of a few distinct values, so ties and rows with no
    candidate peak are common; width 2 is an empty lag band."""
    nccf = np.random.default_rng(seed).integers(-levels, levels + 1, (rows, width)) / levels
    lags = np.arange(31, 31 + width)
    if width == 2:
        with pytest.raises(ValueError) as want:
            _pick_peak_ref(lags, nccf)
        with pytest.raises(ValueError) as got:
            _pick_peak(lags, nccf)
        assert str(got.value) == str(want.value)
        return
    got, want = _pick_peak(lags, nccf), _pick_peak_ref(lags, nccf)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@given(
    rows=st.lists(st.tuples(st.sampled_from(["head", "tail", "both", "zero", "none"]),
                            st.integers(0, 640)), min_size=1, max_size=8),
    cfg=st.sampled_from(F0_CONFIGS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_nccf_zero_denominators_match_ref(rows, cfg, seed):
    """Frames whose first or last samples are all zeros: at a lag k, the
    energy of x[:W-k] or of x[k:] is 0 once W - k of them are, so some lags
    divide by zero.  The bits must be _nccf_ref's, and no RuntimeWarning may
    escape."""
    kmin, kmax = int(np.ceil(SR / cfg.ceil)), int(np.floor(SR / cfg.floor))
    w = contour_framing(SR, cfg)[0]
    r = np.random.default_rng(seed)
    frames = r.normal(size=(len(rows), w)) * r.choice([1e-3, 1.0], (len(rows), 1))
    for i, (zeros, n) in enumerate(rows):
        # most runs long enough to empty one side at the longest lags: W - k >= W - kmax - 1
        n = w - kmax - 1 + n % (kmax + 2) if n % 4 else n % (w + 1)
        if zeros in ("head", "both", "zero"):
            frames[i, : w if zeros == "zero" else n] = 0.0
        if zeros in ("tail", "both"):
            frames[i, w - n :] = 0.0
    want = _nccf_ref(frames, frames**2, kmin, kmax)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _nccf(frames, frames**2, kmin, kmax)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("n_fft", [1023, 1024, 2048])
@pytest.mark.parametrize("unvoiced_cut", ["one", "half"])
def test_envelope_lifter_ties_match_whole(n_fft, unvoiced_cut):
    """Rows whose lifter cut is 1 or n_fft // 2, exactly or clipped to it,
    where the mask's comparisons q >= cut and q <= n_fft - cut tie."""
    half = n_fft // 2
    cfg = EnvelopeConfig(n_fft=n_fft, unvoiced_quefrency=(1 if unvoiced_cut == "one" else half) / SR)
    buf = natural_buf(130, seed=3, dur=2.0)
    n = len(estimate_f0(buf))
    # cut = round(0.8 SR / f0): f0s for cuts 1, 1 (0.5, to even: 0), half, half (clipped), 40
    f0s = [0.0, 0.8 * SR, 1.6 * SR, 0.8 * SR / half, 0.4 * SR / half, 320.0]
    c = F0Contour(np.resize(f0s, n), hop=0.005, floor=75.0, ceil=500.0)
    with np.errstate(divide="ignore"):
        q_sec = np.where(c.values > 0, cfg.voiced_fraction / c.values, cfg.unvoiced_quefrency)
    assert set(np.clip(np.round(q_sec * SR), 1, half)) == {1, half, 40}
    got = spectral_envelope(buf, c, cfg).data
    assert np.array_equal(got, spectral_envelope_whole(buf, c, cfg).data)
    assert np.array_equal(got, spectral_envelope_loop(buf, c, cfg))
    assert n > 2 * BLOCK_ROWS


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_blocked_kernels_memory_bound():
    """On an 8 s voice the whole-array kernels peak at ~55 MB of temporaries;
    block by block, with two blocks in flight, estimate_f0 needs ~7 MB and
    the envelope ~12 MB (the windowed frames and the result)."""
    buf = natural_buf(110, seed=5, dur=8.0)
    c = estimate_f0(buf)
    assert _peak_mb(estimate_f0, buf) < 8.0
    assert _peak_mb(spectral_envelope, buf, c) < 30.0


def test_blocked_kernels_memory_per_helper():
    """Each helper thread keeps one more block in flight, ~3 MB of F0
    buffers: with three helpers, as on a 4-core machine, estimate_f0 needs
    ~13 MB and the envelope ~17 MB on the same 8 s voice."""
    buf = natural_buf(110, seed=5, dur=8.0)
    c = estimate_f0(buf)
    saved = audio._helpers
    audio._helpers = helper_pool(3)
    try:
        assert _peak_mb(estimate_f0, buf) < 16.0
        assert _peak_mb(spectral_envelope, buf, c) < 30.0
    finally:
        audio._helpers[1].shutdown()
        audio._helpers = saved


# ------------------------------------------------- aperiodicity mask edge


def _notch_hw(floor, sr=SR):
    return 2.0 * sr / contour_framing(sr, F0Config(floor=floor))[0]


@pytest.mark.parametrize("floor", [75.0, 60.0, 90.0], ids=lambda f: "floor%g" % f)
@pytest.mark.parametrize(
    "scale", [1 - 1e-5, 1 - 1e-7, 1.0, 1 + 1e-7, 1 + 1e-5], ids=lambda s: "%.7f" % s
)
def test_ap_mask_rule_edge(floor, scale):
    """F0 at and around 2 notch_hw, where the nearest-harmonic-only rule
    starts: the masks must match the scan over all harmonics."""
    buf = CORPUS["nat82"]
    n = len(estimate_f0(buf, F0Config(floor=floor)))
    f0 = 2.0 * _notch_hw(floor) * scale
    vals = np.where(np.arange(n) % 4 == 0, 0.0, f0)
    c = F0Contour(vals, hop=0.005, floor=floor, ceil=500.0)
    assert np.array_equal(band_aperiodicity(buf, c).data, band_aperiodicity_loop(buf, c))


@pytest.mark.parametrize(
    "floor, f0",
    [
        (75.0, 100.0),           # exactly 2 notch_hw (50 Hz): +-1 tested; top is 80
        (75.0, 8000.0 / 79.7),   # above 2 notch_hw: bins with nearest = top + 1
        (75.0, 8000.0 / 100.7),  # below: bin 511 has nearest top + 1, top 40 Hz off
        (60.0, 8000.0 / 100.7),  # notch_hw 40 Hz: bin 511 is 40.4 Hz off top
        (90.0, 8000.0 / 66.6),
    ],
)
def test_ap_mask_rule_at_100hz_and_above_top(floor, f0):
    buf = CORPUS["nat82"]
    n = len(estimate_f0(buf, F0Config(floor=floor)))
    c = F0Contour(np.full(n, f0), hop=0.005, floor=floor, ceil=500.0)
    freqs = np.arange(ApConfig().n_fft // 2 + 1) * (SR / ApConfig().n_fft)
    above_top = np.round(freqs / f0) > np.floor(8000.0 / f0)
    assert np.any(above_top) == (f0 != 100.0)
    assert np.array_equal(band_aperiodicity(buf, c).data, band_aperiodicity_loop(buf, c))
