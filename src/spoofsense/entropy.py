"""Power spectral entropy (PSE) of the F0 contour.

The pipeline: one-sided power spectral density of the trimmed contour,
normalized to a probability distribution over frequency bins, then Shannon
entropy in nats.  A flat spectrum (erratic contour) maximizes it; a contour
whose variation is concentrated at few frequencies scores near zero.
"""

import csv

import numpy as np

from .errors import AllZeroPsd, SequenceTooShort
from .f0 import trim_contour

# PSD bins this far (relatively) below the peak are rounding residue of the
# FFT, not signal: the DFT of a constant leaves ~1e-16-relative junk in the
# nonzero bins, which would otherwise leak into the entropy sum.
RELATIVE_FLOOR = 1e-28


def power_spectral_density(seq, detrend=False):
    """One-sided PSD: values[i] = |X(w_i)|^2 / N for bins 0..floor(N/2)."""
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise SequenceTooShort("PSD needs a 1-D sequence of length >= 2")
    if detrend:
        x = x - x.mean()
    p = np.abs(np.fft.rfft(x)) ** 2 / len(x)
    peak = p.max()
    if peak > 0.0:
        p[p < peak * RELATIVE_FLOOR] = 0.0
    return p


def normalize_psd(psd):
    total = psd.sum()
    if total <= 0.0:
        raise AllZeroPsd("PSD is identically zero")
    return psd / total


def power_spectral_entropy(seq, detrend=False):
    """-sum p_i ln p_i over the normalized PSD; 0 ln 0 = 0."""
    p = normalize_psd(power_spectral_density(seq, detrend=detrend))
    nz = p[p > 0.0]
    # 0.0 - sum, not -sum: one bin holding all the power has entropy +0, not -0
    return float(0.0 - np.sum(nz * np.log(nz)))


def utterance_pse(contour, detrend=False):
    """PSE of an utterance's F0 contour, trimmed of its unvoiced ends."""
    return power_spectral_entropy(trim_contour(contour).values, detrend=detrend)


HIST_BINS = 50  # bins of each label's pse-report histogram


def write_pse_report(values, labels, fh):
    """CSV of each utt_id of labels (utt_id -> role) with its PSE in values,
    or "error" if it has none, then each role's histogram over all values' range."""
    w = csv.writer(fh)
    w.writerow(["utt_id", "label", "pse"])
    for utt in sorted(labels):
        pse = "%.12g" % values[utt] if utt in values else "error"
        w.writerow([utt, labels[utt], pse])
    if not values:
        return
    vals = np.array(list(values.values()), dtype=np.float64)
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        hi = lo + 1.0  # all values identical; give the histogram some width
    edges = np.linspace(lo, hi, HIST_BINS + 1)
    by_label = {}
    for utt, v in values.items():
        by_label.setdefault(labels[utt], []).append(v)
    for label in sorted(by_label):
        for i, n in enumerate(np.histogram(by_label[label], bins=edges)[0]):
            w.writerow(["#histogram", label, "%.12g" % edges[i], "%.12g" % edges[i + 1], int(n)])
