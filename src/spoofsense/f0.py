"""Fundamental-frequency contour estimation.

Normalized cross-correlation (autocorrelation with energy-matched
denominators) over 3-periods-of-floor windows, followed by parabolic peak
interpolation.  Unvoiced frames are encoded as 0.0 in the contour.

The correlation of a w-sample frame is taken through an FFT of
next_fast_len(w + kmax + 1) points, the shortest length at which the
circular correlation has no wrapped term at any lag read (864 points for
the 640-sample frames of the 16 kHz defaults).  Frames are tracked in
blocks of at most audio.BLOCK_ROWS, so that no whole-utterance spectra and
correlations are built, and audio.by_row_blocks shares the blocks between
the calling thread and a ThreadPoolExecutor of one helper thread per extra
core.  Each block's frames, their energy residue included, are treated on
their own, so the contour is the same bits as from one whole-utterance
array on one thread.

The FFTs and most ufunc loops release the GIL, but the row cumsum of the
energies, the interpreter and each numpy call's own overhead hold it, and
while one thread holds it the other waits.  So blocks are few (a block
makes about 60 numpy calls whatever its size; see audio.BLOCK_ROWS), and
each makes as few calls as it can: it takes its frame means with
np.add.reduce rather than through ndarray.mean's Python wrapper, squares
with np.square, forms the power spectrum in place, and correlates and
picks peaks on its live rows only.
Where a call that holds the GIL has a GIL-free equivalent with the same
bits, the block makes that one: the NCCF divides plainly and then zeros
the lags without energy, rather than dividing with where=, and irfft
transforms the power spectrum in the rfft's own complex array rather than
copying a real one into a new complex array.
"""

from dataclasses import dataclass

import numpy as np

from .audio import FIRST_USE, by_row_blocks, frame_signal
from .errors import EmptyAfterTrim, InputTooShort

# a shorter-lag peak this close to the global best wins; guards against
# locking onto 2x/3x the true period on slightly irregular voicing
SUBHARMONIC_RATIO = 0.85


@dataclass(frozen=True)
class F0Config:
    floor: float = 75.0
    ceil: float = 500.0
    hop: float = 0.005
    voicing_threshold: float = 0.3

    def __post_init__(self):
        if not 0 < self.floor < self.ceil:
            raise ValueError("need 0 < floor < ceil")
        if self.hop <= 0:
            raise ValueError("hop must be positive")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ValueError("voicing_threshold must be in [0, 1]")


@dataclass(frozen=True)
class F0Contour:
    values: np.ndarray  # Hz, 0.0 = unvoiced
    hop: float          # seconds
    floor: float
    ceil: float

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __len__(self):
        return len(self.values)


def contour_framing(sample_rate, c):
    """(frame_len, hop) in samples of a contour with c's floor and hop (c an
    F0Config or F0Contour): frames three periods of the floor long, one per hop."""
    frame_len, hop = 3 * sample_rate / c.floor, c.hop * sample_rate
    if max(frame_len, hop) > np.iinfo(np.intp).max:  # beyond any sample index
        raise InputTooShort("no signal holds frames of %g Hz floor every %g s" % (c.floor, c.hop))
    return int(round(frame_len)), int(round(hop))


def _nccf(frames, squares, kmin, kmax):
    """Normalized cross-correlation for lags kmin-1 .. kmax+1 (per frame).

    nccf[k] = sum(x[n] x[n+k]) / sqrt(E(x[:W-k]) E(x[k:])), so any exactly
    periodic frame scores 1.0 at its period regardless of amplitude.
    squares is frames**2; it is overwritten with its running sums.  The
    FFT has N = next_fast_len(W + kmax + 1) points: at a lag k <= kmax + 1
    every product x[n] x[n+k] of the frame has n + k < W + kmax + 1 <= N, so
    none wraps and the circular correlation equals the linear one.
    """
    with FIRST_USE:  # on first use, so commands that track no F0 never load scipy
        from scipy.fft import next_fast_len

    w = frames.shape[1]
    nfft = next_fast_len(w + kmax + 1)
    spec = np.fft.rfft(frames, nfft, axis=1)
    # the power spectrum in spec itself, so that irfft transforms it without
    # first copying a real array into a new complex one
    power, imag = spec.real, spec.imag
    np.square(power, out=power)
    power += np.square(imag, out=imag)
    imag[...] = 0.0
    corr = np.fft.irfft(spec, nfft, axis=1)[:, kmin - 1 : kmax + 2]

    cs = np.cumsum(squares, axis=1, out=squares)
    e_head = cs[:, w - kmax - 2 : w - kmin + 1][:, ::-1]  # E(x[:W-k]), k ascending
    e_tail = cs[:, -1:] - cs[:, kmin - 2 : kmax + 1]      # E(x[k:])
    denom = np.sqrt(e_head * e_tail)
    # the bits of a divide with where=, which scaled worse on two threads
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(corr, denom)
    np.copyto(out, 0.0, where=~(denom > 0))  # no energy on one side: 0
    return np.arange(kmin - 1, kmax + 2), out


def _pick_peak(lags, nccf):
    """Per row: smallest-lag local maximum within SUBHARMONIC_RATIO of the row's best.

    lags and nccf are _nccf's, for lags kmin-1 .. kmax+1.  Returns (lag,
    peak) arrays with the parabolically refined lag of the chosen peak and
    its NCCF value.  An empty [kmin, kmax] band raises ValueError from the
    max over it.
    """
    interior = nccf[:, 1:-1]  # lags kmin .. kmax, inside the padded range
    best = np.maximum.reduce(interior, axis=1, keepdims=True)  # an empty band raises here
    is_max = interior >= nccf[:, :-2]
    is_max &= interior >= nccf[:, 2:]
    is_max &= interior >= SUBHARMONIC_RATIO * best
    rows = np.arange(len(nccf))
    first = is_max.argmax(axis=1)
    # no candidate: the first lag at the best, which argmax picks too
    first = np.where(is_max[rows, first], first, interior.argmax(axis=1))
    i = first + 1  # back to padded-row indexing
    a, b, c = nccf[rows, i - 1], nccf[rows, i], nccf[rows, i + 1]
    den = a + c - 2.0 * b
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(den == 0.0, 0.0, np.clip((a - c) / (2.0 * den), -0.5, 0.5))
    return lags[i] + delta, b


def estimate_f0(buf, cfg=None):
    """One F0 value per hop; frames with a weak correlation peak are 0."""
    cfg = cfg or F0Config()
    sr = buf.sample_rate
    if not (0 < cfg.floor < cfg.ceil <= sr / 2):
        raise ValueError("need 0 < floor < ceil <= Nyquist")
    frame_len, hop = contour_framing(sr, cfg)
    raw = frame_signal(buf, frame_len, hop)
    if len(raw) == 0:
        raise InputTooShort("shorter than one analysis window (%d samples)" % frame_len)

    kmin = int(np.ceil(sr / cfg.ceil))
    kmax = int(np.floor(sr / cfg.floor))
    if kmin < 2:
        raise ValueError("ceil too close to the sample rate")
    rounding = (frame_len * np.finfo(float).eps) ** 2

    def track(raw):
        # np.add.reduce and the division by the width are ndarray.mean's own
        # operations, without its Python wrapper
        residue = np.add.reduce(np.square(raw), axis=1) * rounding
        frames = raw - np.add.reduce(raw, axis=1, keepdims=True) / frame_len
        squares = np.square(frames)
        energy = np.add.reduce(squares, axis=1)
        values = np.zeros(len(frames))
        # silent frames stay unvoiced: zero energy, or a constant frame's rounding
        # residue, which is near-constant too and so has an NCCF of 1 at every lag
        live = np.flatnonzero(energy > residue)
        if len(live) == 0:  # all silent: nothing to pick, even from an empty lag band
            return values
        if len(live) < len(frames):  # each row on its own: only the live ones
            frames, squares = frames[live], squares[live]
        lag, peak = _pick_peak(*_nccf(frames, squares, kmin, kmax))
        values[live] = np.where(
            peak < cfg.voicing_threshold, 0.0, np.clip(sr / lag, cfg.floor, cfg.ceil)
        )
        return values

    values = by_row_blocks(track, raw)
    return F0Contour(values=values, hop=cfg.hop, floor=cfg.floor, ceil=cfg.ceil)


def trim_contour(c):
    """Drop leading/trailing unvoiced frames; interior zeros stay."""
    nz = np.flatnonzero(c.values)
    if len(nz) == 0:
        raise EmptyAfterTrim("contour has no voiced frames")
    vals = c.values[nz[0] : nz[-1] + 1]
    return F0Contour(values=vals, hop=c.hop, floor=c.floor, ceil=c.ceil)


def voiced_runs(values):
    """Maximal runs of consecutive nonzero entries, as (start, stop) pairs."""
    v = np.asarray(values) != 0
    edges = np.diff(np.concatenate(([0], v.astype(int), [0])))
    starts = np.flatnonzero(edges == 1)
    stops = np.flatnonzero(edges == -1)
    return list(zip(starts, stops))
