"""Cycle-to-cycle jitter and shimmer.

Cycle boundaries are waveform peaks picked under guidance of the F0
contour: within each voiced region the next peak is searched in a
0.7..1.3 period window after the previous one.  This approximates the
waveform-matching pulse marking of the usual voice-quality tools without
reproducing it bit-for-bit.

The "local" variants are implemented: mean absolute difference of
consecutive periods (amplitudes) over the mean period (amplitude).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoVoicedRegion, TooFewCycles, ZeroAmplitude
from .f0 import contour_framing, voiced_runs


@dataclass(frozen=True)
class CycleSequence:
    periods: np.ndarray     # seconds per glottal cycle
    amplitudes: np.ndarray  # peak |x| per cycle, parallel to periods

    def __post_init__(self):
        object.__setattr__(self, "periods", np.asarray(self.periods, dtype=np.float64))
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=np.float64))
        if len(self.periods) != len(self.amplitudes):
            raise ValueError("periods and amplitudes must be parallel")

    def __len__(self):
        return len(self.periods)


@dataclass(frozen=True)
class PerturbationFeatures:
    jitter_local: float
    shimmer_local: float
    num_cycles: int


def _frame_of(sample, frame_len, hop, lo, hi):
    # the contour value for a sample is taken from the analysis frame whose
    # center is nearest, clamped into the voiced run
    j = int(round((sample - frame_len / 2) / hop))
    return min(max(j, lo), hi)


def _is_peak(x, q):
    # strict on the left so runs of zeros or window-edge picks never count
    return 0 < q < len(x) - 1 and x[q] > x[q - 1] and x[q] >= x[q + 1]


def _region_cycles(x, sr, contour, run):
    """Peak-picked cycles inside one maximal voiced run of the contour."""
    frame_len, hop = contour_framing(sr, contour)
    lo, hi = run[0], run[1] - 1
    stop = min(len(x), hi * hop + frame_len)

    # first boundary: earliest window holding a genuine waveform peak
    # (voiced frames can start before the periodic part of the signal does)
    t0 = int(round(sr / contour.values[lo]))
    s, p = lo * hop, None
    while s + t0 <= stop:
        q = s + int(np.argmax(x[s : s + t0]))
        if _is_peak(x, q):
            p = q
            break
        s += t0
    if p is None:
        return None

    peaks = [p]
    while True:
        t = sr / contour.values[_frame_of(p, frame_len, hop, lo, hi)]
        a = p + int(np.floor(0.7 * t))
        b = min(stop, p + int(np.ceil(1.3 * t)) + 1)
        if a >= b:
            break
        q = a + int(np.argmax(x[a:b]))
        # the 0.1 floor drops silence-boundary picks (a leading zero of a
        # gap passes the peak test) without touching real shimmer swings
        if not _is_peak(x, q) or x[q] < 0.1 * x[p]:
            break
        peaks.append(q)
        p = q

    if len(peaks) < 2:
        return None
    peaks = np.asarray(peaks)
    periods = np.diff(peaks) / sr
    # peak |x| per cycle [peaks[i], peaks[i+1]); the peaks strictly increase
    amps = np.maximum.reduceat(np.abs(x[peaks[0] : peaks[-1]]), peaks[:-1] - peaks[0])
    return CycleSequence(periods=periods, amplitudes=amps)


def region_cycles(buf, contour):
    """Per-voiced-region cycle sequences (a run without two cycle peaks is skipped)."""
    runs = voiced_runs(contour.values)
    if not runs:
        raise NoVoicedRegion("contour has no voiced frames")
    seqs = []
    for run in runs:
        s = _region_cycles(buf.samples, buf.sample_rate, contour, run)
        if s is not None:
            seqs.append(s)
    if not seqs:
        raise NoVoicedRegion("%d voiced run%s, none with two cycle peaks"
                             % (len(runs), "s" * (len(runs) > 1)))
    return seqs


def jitter_local(c):
    if len(c) < 2:
        raise TooFewCycles("jitter needs at least 2 cycles")
    return float(np.mean(np.abs(np.diff(c.periods))) / np.mean(c.periods))


def shimmer_local(c):
    if len(c) < 2:
        raise TooFewCycles("shimmer needs at least 2 cycles")
    mean_a = np.mean(c.amplitudes)
    if mean_a == 0.0:
        raise ZeroAmplitude("all cycle amplitudes are zero")
    return float(np.mean(np.abs(np.diff(c.amplitudes))) / mean_a)


def utterance_perturbation(buf, contour):
    """Utterance-wise jitter/shimmer over buf's F0 contour: per-region values
    averaged with region cycle counts as weights."""
    seqs = [s for s in region_cycles(buf, contour) if len(s) >= 2]
    if not seqs:
        raise TooFewCycles("no voiced region has 2+ cycles")
    n = np.array([len(s) for s in seqs], dtype=np.float64)
    jit = np.array([jitter_local(s) for s in seqs])
    shim = np.array([shimmer_local(s) for s in seqs])
    w = n / n.sum()
    return PerturbationFeatures(
        jitter_local=float(np.dot(w, jit)),
        shimmer_local=float(np.dot(w, shim)),
        num_cycles=int(n.sum()),
    )
