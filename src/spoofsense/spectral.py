"""Frame-level spectral features: log-STFT, 39-dim MFCC, spectral envelope,
and band aperiodicity; and KINDS, the one table of all seven feature kinds.

The envelope and aperiodicity are contour-guided: their framing is derived
from the F0 contour's hop and floor so that frame i of the feature matrix
describes the same stretch of signal as contour value i.  Their row blocks
and bands run on the calling thread and audio's helper threads, so their
steps avoid numpy calls that hold the GIL: the envelope's lifter mask
compares a float64 quefrency index with the float64 cut, where an int64
index would be cast inside the comparison, under the GIL.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .audio import FIRST_USE, by_row_blocks, frame_signal, run_tasks, window_coeffs
from .entropy import utterance_pse
from .errors import AlignmentMismatch, InputTooShort, KindDimsMismatch
from .f0 import contour_framing, estimate_f0
from .perturbation import utterance_perturbation

LOG_EPS = 1e-10

# dims: what every file of the kind carries, None = variable (set by config);
# utterance_level: one row per utterance, else frame-level and mean-pooled;
# compute(buf, cfg) -> FeatureMatrix, with cfg a RunConfig.  Each compute
# looks its functions up by module-level name when called, so that wrapping
# those names (as a tracer does) also wraps the calls made here.  The five
# F0-based kinds track F0 here, once each, and derive the kind from that contour.
Kind = namedtuple("Kind", "dims utterance_level compute")
KINDS = {
    "stft": Kind(None, False, lambda buf, cfg: stft_spectrogram(buf, cfg.stft)),
    "mfcc": Kind(39, False, lambda buf, cfg: mfcc(buf, cfg.mfcc, cfg.stft)),
    "sp": Kind(None, False, lambda buf, cfg: spectral_envelope(
        buf, estimate_f0(buf, cfg.f0), cfg.envelope)),
    "ap": Kind(None, False, lambda buf, cfg: band_aperiodicity(
        buf, estimate_f0(buf, cfg.f0), cfg.ap)),
    "f0": Kind(1, False, lambda buf, cfg: _contour_matrix(estimate_f0(buf, cfg.f0))),
    "jitter-shimmer": Kind(2, True, lambda buf, cfg: _perturbation_row(
        utterance_perturbation(buf, estimate_f0(buf, cfg.f0)))),
    "pse": Kind(1, True, lambda buf, cfg: FeatureMatrix(
        kind="pse", data=np.array([[utterance_pse(estimate_f0(buf, cfg.f0))]]), hop=0.0)),
}


def check_kind_dims(kind, dims):
    if kind not in KINDS:
        raise KindDimsMismatch("unknown feature kind %r" % kind)
    want = KINDS[kind].dims
    if want is not None and dims != want:
        raise KindDimsMismatch("kind %r requires dims %d, got %d" % (kind, want, dims))
    if want is None and dims < 1:
        raise KindDimsMismatch("kind %r requires dims >= 1, got %d" % (kind, dims))


@dataclass(frozen=True)
class FeatureMatrix:
    kind: str
    data: np.ndarray  # (num_frames, dims)
    hop: float        # seconds between frames (0.0 for utterance-level rows)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("feature data must be 2-D (frames x dims)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature data contains non-finite entries")
        if not (np.isfinite(self.hop) and self.hop >= 0):
            raise ValueError("hop must be a finite nonnegative number of seconds")
        check_kind_dims(self.kind, arr.shape[1])
        object.__setattr__(self, "data", arr)

    @property
    def num_frames(self):
        return self.data.shape[0]

    @property
    def dims(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 512
    win_seconds: float = 0.025
    hop_seconds: float = 0.010
    window: str = "hann"

    def __post_init__(self):
        if self.n_fft < 2:
            raise ValueError("n_fft must be >= 2")
        if self.win_seconds <= 0 or self.hop_seconds <= 0:
            raise ValueError("window and hop must be positive durations")
        if self.window not in ("hann", "hamming", "rect"):
            raise ValueError("unknown window %r" % self.window)


@dataclass(frozen=True)
class MfccConfig:
    n_mels: int = 26
    n_ceps: int = 13
    fmin: float = 0.0
    fmax: float = 8000.0
    delta_window: int = 2

    def __post_init__(self):
        if self.n_mels < 1 or self.n_ceps < 1:
            raise ValueError("n_mels and n_ceps must be >= 1")
        if self.n_ceps > self.n_mels:
            raise ValueError("n_ceps cannot exceed n_mels")
        if not 0 <= self.fmin < self.fmax:
            raise ValueError("need 0 <= fmin < fmax")
        if self.delta_window < 1:
            raise ValueError("delta_window must be >= 1")


@dataclass(frozen=True)
class EnvelopeConfig:
    n_fft: int = 1024
    # keep quefrencies below this fraction of the pitch period when voiced
    voiced_fraction: float = 0.8
    unvoiced_quefrency: float = 0.0025  # seconds

    def __post_init__(self):
        if self.n_fft < 2:
            raise ValueError("n_fft must be >= 2")
        if not 0 < self.voiced_fraction <= 1:
            raise ValueError("voiced_fraction must be in (0, 1]")
        if self.unvoiced_quefrency <= 0:
            raise ValueError("unvoiced_quefrency must be positive")


@dataclass(frozen=True)
class ApConfig:
    n_bands: int = 5
    n_fft: int = 1024

    def __post_init__(self):
        if self.n_bands < 1:
            raise ValueError("n_bands must be >= 1")
        if self.n_fft < 2:
            raise ValueError("n_fft must be >= 2")


def _frames(buf, frame_len, hop, n_fft):
    """The buffer's frames, unwindowed; n_fft must cover a frame."""
    if n_fft < frame_len:
        raise ValueError("n_fft must cover the analysis window")
    return frame_signal(buf, frame_len, hop)


def _stft_frames(buf, cfg, window):
    """Windowed frames of an stft config: win_seconds every hop_seconds."""
    win_len = int(round(cfg.win_seconds * buf.sample_rate))
    hop = int(round(cfg.hop_seconds * buf.sample_rate))
    frames = _frames(buf, win_len, hop, cfg.n_fft) * window_coeffs(window, win_len)
    if len(frames) == 0:
        raise InputTooShort("need at least %d samples" % win_len)
    return frames


def _power(frames, n_fft):
    """|rfft|^2 of each frame, zero-padded to n_fft points."""
    return np.abs(np.fft.rfft(frames, n_fft, axis=1)) ** 2


def stft_spectrogram(buf, cfg=None):
    """log(|X| + eps) of the one-sided FFT per frame; dims n_fft/2+1."""
    cfg = cfg or StftConfig()
    frames = _stft_frames(buf, cfg, cfg.window)
    mag = np.abs(np.fft.rfft(frames, cfg.n_fft, axis=1))
    return FeatureMatrix(kind="stft", data=np.log(mag + LOG_EPS), hop=cfg.hop_seconds)


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels, n_fft, sample_rate, fmin, fmax):
    """Triangular filters on the HTK mel scale, anchored to FFT bin indices."""
    pts = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2))
    bins = np.floor((n_fft + 1) * pts / sample_rate)
    # checked as floats: the int cast turns a huge fmax's bin negative
    if bins[-1] > n_fft // 2 + 1:
        raise ValueError("fmax %g lies beyond the %d-point FFT's top bin" % (fmax, n_fft))
    bins = bins.astype(int)
    k = np.arange(n_fft // 2 + 1)
    lo, mid, hi = bins[:-2, None], bins[1:-1, None], bins[2:, None]
    rise = (k - lo) / np.maximum(1, mid - lo)
    fall = (hi - k) / np.maximum(1, hi - mid)
    return np.where((k >= lo) & (k < mid), rise, np.where((k >= mid) & (k < hi), fall, 0.0))


def delta(m, window=2):
    """Regression slope over +-window frames, edges replicated."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] == 0:
        return m.copy()
    pad = np.pad(m, ((window, window), (0, 0)), mode="edge")
    num = np.zeros_like(m)
    for n in range(1, window + 1):
        num += n * (pad[window + n : window + n + m.shape[0]] - pad[window - n : window - n + m.shape[0]])
    return num / (2.0 * sum(n * n for n in range(1, window + 1)))


def mfcc(buf, cfg=None, stft=None):
    """13 cepstra (DCT-II of log mel energies) + deltas + delta-deltas = 39,
    framed by the stft config as the log-STFT is, but always Hann-windowed."""
    with FIRST_USE:  # on first use, so commands that compute no MFCC never load scipy
        from scipy.fft import dct

    cfg = cfg or MfccConfig()
    stft = stft or StftConfig()
    frames = _stft_frames(buf, stft, "hann")
    power = _power(frames, stft.n_fft)
    fb = mel_filterbank(cfg.n_mels, stft.n_fft, buf.sample_rate, cfg.fmin, cfg.fmax)
    logmel = np.log(power @ fb.T + LOG_EPS)
    static = dct(logmel, type=2, norm="ortho", axis=1)[:, : cfg.n_ceps]
    d1 = delta(static, cfg.delta_window)
    d2 = delta(d1, cfg.delta_window)
    return FeatureMatrix(kind="mfcc", data=np.hstack([static, d1, d2]), hop=stft.hop_seconds)


def _contour_frames(buf, contour, n_fft):
    """(frames, Hann window): the read-only view of the buffer framed exactly
    as the contour was, lengths must agree, and the window for it.  The
    kernels window their frames a block at a time, so that no windowed copy
    of the whole utterance is made."""
    frame_len, hop = contour_framing(buf.sample_rate, contour)
    frames = _frames(buf, frame_len, hop, n_fft)
    if len(frames) != len(contour):
        raise AlignmentMismatch(
            "contour has %d frames, buffer frames to %d" % (len(contour), len(frames))
        )
    return frames, window_coeffs("hann", frame_len)


def spectral_envelope(buf, contour, cfg=None):
    """Cepstrally smoothed power-spectrum envelope, one row per contour frame.

    Liftering keeps quefrencies below 0.8 pitch periods (voiced) or 2.5 ms
    (unvoiced), discarding harmonic fine structure but keeping resonances.
    """
    cfg = cfg or EnvelopeConfig()
    frames, window = _contour_frames(buf, contour, cfg.n_fft)
    sr = buf.sample_rate
    f0 = contour.values[:, None]
    with np.errstate(divide="ignore"):
        q_sec = np.where(f0 > 0, cfg.voiced_fraction / f0, cfg.unvoiced_quefrency)
    # np.round, like round(), takes halves to even
    cut = np.clip(np.round(q_sec * sr), 1, cfg.n_fft // 2)
    # float64 like cut, so that the mask's comparisons cast nothing
    q = np.arange(cfg.n_fft, dtype=np.float64)

    def envelope(frames, cut):
        logp = np.log(_power(frames * window, cfg.n_fft) + LOG_EPS)
        ceps = np.fft.irfft(logp, cfg.n_fft, axis=1)
        ceps[(q >= cut) & (q <= cfg.n_fft - cut)] = 0.0
        return np.exp(np.fft.rfft(ceps, axis=1).real)

    return FeatureMatrix(kind="sp", data=by_row_blocks(envelope, frames, cut), hop=contour.hop)


def band_edges(n_bands, nyquist):
    """Octave-spaced edges ending at Nyquist, e.g. 0,500,1k,2k,4k,8k."""
    return np.concatenate(([0.0], nyquist / 2.0 ** np.arange(n_bands - 1, -1, -1)))


def band_aperiodicity(buf, contour, cfg=None):
    """Per-band ratio of non-harmonic to total energy, in [0, 1].

    Bins within two analysis-bin widths of any F0 harmonic are treated as
    harmonic; the noise level of the remaining bins is extrapolated across
    the whole band to estimate the aperiodic share.  Unvoiced frames are
    1.0 everywhere by convention.
    """
    cfg = cfg or ApConfig()
    frames, window = _contour_frames(buf, contour, cfg.n_fft)
    sr = buf.sample_rate
    power = by_row_blocks(lambda frames: _power(frames * window, cfg.n_fft), frames)
    freqs = np.arange(cfg.n_fft // 2 + 1) * (sr / cfg.n_fft)
    edges = band_edges(cfg.n_bands, sr / 2.0)
    # bands are contiguous bin ranges [lo, hi); only the last one is closed
    lo = np.searchsorted(freqs, edges[:-1], side="left")
    hi = np.searchsorted(freqs, edges[1:], side="left")
    hi[-1] = np.searchsorted(freqs, edges[-1], side="right")
    notch_hw = 2.0 * sr / len(window)  # main-lobe half-width of the hann window

    out = np.ones((frames.shape[0], cfg.n_bands))
    voiced = np.flatnonzero(contour.values > 0)
    f0 = contour.values[voiced, None]
    top = np.floor((sr / 2.0) / f0)  # highest harmonic number below Nyquist
    # The harmonic nearest a bin, round(f / f0), lies within about f0 / 2 of
    # it, so harmonic nearest +-1 is at least about f0 / 2 away, and every
    # other one over f0 farther; when nearest is top + 1, f / f0 >= top + 1/2
    # and top too is at least f0 / 2 away.  So on a row with
    # f0 > 2 notch_hw (1 + 1e-6) only the nearest harmonic, if it is at most
    # top, can mark a bin; the 1e-6 margin is far above the rounding of f / f0
    # and of f - k f0.  Only the other rows test nearest +-1 as well, which
    # marks the same bins as a scan over all harmonics, rounding ties of
    # f / f0 included.  k = 0 counts: a periodic cycle with nonzero mean puts
    # a line at DC.
    close = np.flatnonzero(f0[:, 0] <= 2.0 * notch_hw * (1 + 1e-6))

    def band(b):  # writes column b of out
        p = power[voiced, lo[b] : hi[b]]
        total = p.sum(axis=1)
        f = freqs[lo[b] : hi[b]]
        nearest = np.round(f / f0)
        harmonic = (nearest <= top) & (np.abs(f - nearest * f0) <= notch_hw)
        for d in (-1, 1):
            k = nearest[close] + d
            harmonic[close] |= (
                (k >= 0) & (k <= top[close]) & (np.abs(f - k * f0[close]) <= notch_hw)
            )
        noise = ~harmonic
        count = noise.sum(axis=1)
        # no noise bins: harmonics blanket the band, nothing to measure, ap 0
        res = np.zeros(len(voiced))
        measured = (count > 0) & (total > 0.0)
        # rows grouped by noise-bin count, so that each row's noise bins are
        # summed as one contiguous run, in the pairwise order np.mean uses
        for n in np.unique(count[measured]):
            rows = np.flatnonzero(measured & (count == n))
            noise_sum = p[rows][noise[rows]].reshape(len(rows), n).sum(axis=1)
            residual = noise_sum / n * (hi[b] - lo[b])
            res[rows] = np.clip(residual / total[rows], 0.0, 1.0)
        res[total <= 0.0] = 1.0
        out[voiced, b] = res

    # each band a task, widest first (the 4-8 kHz band holds 257 of the
    # 513 bins at the defaults), so that the last ones handed out are short
    run_tasks(band, sorted(range(cfg.n_bands), key=lambda b: lo[b] - hi[b]))
    return FeatureMatrix(kind="ap", data=out, hop=contour.hop)


def _contour_matrix(contour):
    return FeatureMatrix(kind="f0", data=contour.values[:, None], hop=contour.hop)


def _perturbation_row(p):
    return FeatureMatrix(
        kind="jitter-shimmer", data=np.array([[p.jitter_local, p.shimmer_local]]), hop=0.0
    )
