"""Cycle-to-cycle jitter and shimmer.

Cycle boundaries are waveform peaks picked under guidance of the F0
contour: within each voiced region the next peak is searched in a
0.7..1.3 period window after the previous one.  This approximates the
waveform-matching pulse marking of the usual voice-quality tools without
reproducing it bit-for-bit.

The "local" variants are implemented: mean absolute difference of
consecutive periods (amplitudes) over the mean period (amplitude).

The tracker walks one cycle at a time in Python.  Per cycle, only the
argmax over its window and the three samples the peak test reads are numpy
calls; the window bounds, the frame of each mark and the peak tests run on
Python ints and floats, and the cycle amplitudes come from one
np.maximum.reduceat per run.
"""

import math
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


def _peak_value(x, q):
    """x[q] as a float if q is a waveform peak, else None.  Strict on the left
    so runs of zeros or window-edge picks never count."""
    if 0 < q < len(x) - 1:
        before, here, after = x[q - 1 : q + 2].tolist()
        if here > before and here >= after:
            return here
    return None


def _region_cycles(x, sr, contour, run):
    """Peak-picked cycles inside one maximal voiced run of the contour.

    Python ints and floats, the run's contour values from one tolist(), go
    through the same IEEE operations as numpy scalars would, so they mark
    the same cycles."""
    frame_len, hop = contour_framing(sr, contour)
    lo, hi = int(run[0]), int(run[1]) - 1
    stop = min(len(x), hi * hop + frame_len)
    f0 = contour.values[lo : hi + 1].tolist()

    # first boundary: earliest window holding a genuine waveform peak
    # (voiced frames can start before the periodic part of the signal does)
    t0 = round(sr / f0[0])
    s, p = lo * hop, None
    while s + t0 <= stop:
        q = s + int(x[s : s + t0].argmax())
        xp = _peak_value(x, q)
        if xp is not None:
            p = q
            break
        s += t0
    if p is None:
        return None

    peaks = [p]
    while True:
        # the contour value for a sample is taken from the analysis frame
        # whose center is nearest, clamped into the voiced run
        j = min(max(round((p - frame_len / 2) / hop), lo), hi)
        t = sr / f0[j - lo]
        a = p + math.floor(0.7 * t)
        b = min(stop, p + math.ceil(1.3 * t) + 1)
        if a >= b:
            break
        q = a + int(x[a:b].argmax())
        xq = _peak_value(x, q)
        # the 0.1 floor drops silence-boundary picks (a leading zero of a
        # gap passes the peak test) without touching real shimmer swings
        if xq is None or xq < 0.1 * xp:
            break
        peaks.append(q)
        p, xp = q, xq

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
