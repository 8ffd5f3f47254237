"""Power spectral entropy (PSE) of the F0 contour.

The pipeline: one-sided power spectral density of the trimmed contour,
normalized to a probability distribution over frequency bins, then Shannon
entropy in nats.  A flat spectrum (erratic contour) maximizes it; a contour
whose variation is concentrated at few frequencies scores near zero.
"""

import csv
from dataclasses import dataclass, field

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


@dataclass
class PseSummary:
    per_utt: dict = field(default_factory=dict)    # utt_id -> PSE
    errors: dict = field(default_factory=dict)     # utt_id -> message
    labels: dict = field(default_factory=dict)     # utt_id -> label, every row
    hist_edges: np.ndarray = None
    hist_counts: dict = field(default_factory=dict)  # label -> counts


def summarize_pse(values_by_utt, labels_by_utt, errors, n_bins=50):
    """Histogram finite PSE values per class label over their common range."""
    s = PseSummary(per_utt=dict(values_by_utt), errors=dict(errors), labels=dict(labels_by_utt))
    vals = np.array([v for v in values_by_utt.values()], dtype=np.float64)
    if len(vals) == 0:
        return s
    lo, hi = float(vals.min()), float(vals.max())
    if hi <= lo:
        hi = lo + 1.0  # all values identical; give the histogram some width
    s.hist_edges = np.linspace(lo, hi, n_bins + 1)
    by_label = {}
    for utt, v in values_by_utt.items():
        by_label.setdefault(labels_by_utt[utt], []).append(v)
    for label, v in by_label.items():
        s.hist_counts[label] = np.histogram(v, bins=s.hist_edges)[0]
    return s


def write_pse_report(s, fh):
    """Per-utterance PSE ("error" for failed rows), then per-label histograms, as CSV."""
    w = csv.writer(fh)
    w.writerow(["utt_id", "label", "pse"])
    for utt in sorted(s.labels):
        pse = "%.12g" % s.per_utt[utt] if utt in s.per_utt else "error"
        w.writerow([utt, s.labels[utt], pse])
    if s.hist_edges is not None:
        for label in sorted(s.hist_counts):
            for i, n in enumerate(s.hist_counts[label]):
                lo, hi = s.hist_edges[i], s.hist_edges[i + 1]
                w.writerow(["#histogram", label, "%.12g" % lo, "%.12g" % hi, int(n)])
