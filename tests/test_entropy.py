import csv
import io
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import machine_buf, natural_buf
from spoofsense import entropy
from spoofsense.entropy import (
    normalize_psd,
    power_spectral_density,
    power_spectral_entropy,
    utterance_pse,
    write_pse_report,
)
from spoofsense.errors import AllZeroPsd, SequenceTooShort
from spoofsense.f0 import estimate_f0


def naive_pse(x):
    """Direct transcription: one-sided PSD, normalize, Shannon entropy in nats."""
    x = np.asarray(x, dtype=np.float64)
    spec = np.fft.rfft(x)
    p = np.abs(spec) ** 2 / len(x)
    probs = p / p.sum()
    nz = probs[probs > 0]
    return float(-(nz * np.log(nz)).sum())


seqs = hnp.arrays(
    np.float64,
    st.integers(8, 512),
    elements=st.floats(-1e3, 1e3, allow_nan=False),
).filter(lambda a: np.abs(a - a[0]).max() > 1e-9)


@given(x=seqs)
@settings(max_examples=150, deadline=None)
def test_matches_naive_transcription(x):
    assert abs(power_spectral_entropy(x) - naive_pse(x)) < 1e-9


def binary_entropy(e):
    return -sum(p * np.log(p) for p in (e, 1.0 - e) if p > 0.0)


@given(x=seqs, offset=st.floats(-1e3, 1e3))
@settings(max_examples=200, deadline=None)
def test_pse_is_dc_share_entropy_plus_detrended_pse(x, offset):
    """PSE(x) = h_b(eps) + eps * PSE_detrended(x), eps the non-DC share of PSD power."""
    x = x + offset
    p = power_spectral_density(x)
    eps = p[1:].sum() / p.sum()
    want = binary_entropy(eps) + eps * power_spectral_entropy(x, detrend=True)
    assert abs(power_spectral_entropy(x) - want) < 1e-12


def test_constant_sequence_is_exactly_zero():
    for c in (0.5, -3.0, 123.456):
        h = power_spectral_entropy(np.full(64, c))
        assert h == 0.0 and not np.signbit(h)  # +0, which a file writes as 0, not -0


def test_impulse_maxentropy():
    for n in (8, 33, 200):
        x = np.zeros(n)
        x[0] = 1.0
        expect = np.log(n // 2 + 1)
        assert abs(power_spectral_entropy(x) - expect) < 1e-9


def test_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=rng.integers(8, 200))
        alpha = float(rng.uniform(0.01, 100))
        assert abs(power_spectral_entropy(alpha * x) - power_spectral_entropy(x)) < 1e-9


def test_frozen_value():
    x = np.array([1, 2, 3, 4, 3, 2, 1, 0], dtype=float)
    assert abs(power_spectral_entropy(x) - 0.45666108783599274) < 1e-12


def test_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(size=rng.integers(8, 300))
        h = power_spectral_entropy(x)
        assert 0.0 <= h <= np.log(len(x) // 2 + 1) + 1e-12


def test_errors():
    with pytest.raises(SequenceTooShort):
        power_spectral_density(np.array([1.0]))
    with pytest.raises(SequenceTooShort):
        power_spectral_density(np.zeros((3, 3)))
    with pytest.raises(AllZeroPsd):
        normalize_psd(power_spectral_density(np.zeros(16)))


def test_normalize_sums_to_one():
    p = power_spectral_density(np.random.default_rng(0).normal(size=100))
    q = normalize_psd(p)
    assert abs(q.sum() - 1.0) < 1e-12
    assert np.all((q >= 0) & (q <= 1))


def test_utterance_pse_separates_natural_from_machine():
    nat = utterance_pse(estimate_f0(natural_buf(120, seed=11)))
    mach = utterance_pse(estimate_f0(machine_buf(120)))
    assert nat > 10 * max(mach, 1e-12)


# ------------------------------------------------------------ pse-report


def _histograms(values, labels):
    """{label: [(lo text, hi text, count)]} of write_pse_report's #histogram rows."""
    fh = io.StringIO(newline="")
    write_pse_report(values, labels, fh)
    rows = {}
    for row in csv.reader(io.StringIO(fh.getvalue(), newline="")):
        if row[0] == "#histogram":
            rows.setdefault(row[1], []).append((row[2], row[3], int(row[4])))
    return rows


def test_pse_report_histogram(monkeypatch):
    vals = {"a": 0.1, "b": 0.9, "c": 0.9}
    labels = {"a": "bonafide", "b": "spoof", "c": "spoof"}
    with monkeypatch.context() as m:
        m.setattr(entropy, "HIST_BINS", 4)
        h = _histograms(vals, labels)
    assert [len(h[k]) for k in ("bonafide", "spoof")] == [4, 4]
    assert sum(n for _, _, n in h["bonafide"]) == 1
    assert sum(n for _, _, n in h["spoof"]) == 2
    assert h["spoof"][-1][2] == 2  # top-edge value lands in last bin

    # each value is counted in the bin whose edges hold it: 2.3 lies below
    # the edge 2.3000000000000003 that linspace puts next to it, which the
    # report prints as 2.3
    vals = {"a": 0.4, "b": 2.3, "c": 2.9}
    e = np.linspace(0.4, 2.9, entropy.HIST_BINS + 1)
    h = _histograms(vals, {u: "spoof" for u in vals})["spoof"]
    assert [(lo, hi) for lo, hi, _ in h] == [("%.12g" % a, "%.12g" % b) for a, b in zip(e, e[1:])]
    for i, (_, _, n) in enumerate(h):
        # bins are [lo, hi), the last one [lo, hi]
        held = [v for v in vals.values() if e[i] <= v < e[i + 1] or v == e[i + 1] == e[-1]]
        assert n == len(held)


# the summary layer and writer that write_pse_report replaced, verbatim


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


def oracle_write_pse_report(s, fh):
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


def _report_text(write, *args):
    """The CSV text write(*args, fh) writes, or its exception's type and text."""
    fh = io.StringIO(newline="")
    try:
        write(*args, fh)
    except Exception as e:
        return type(e), str(e)
    return fh.getvalue()


# ids and roles as a manifest may hold them: any text but tab and line breaks
_names = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
                 min_size=1, max_size=6)
_pse_values = st.one_of(
    st.floats(0.0, 10.0),
    # 0.4, 2.3 and 2.9, and the neighbours of the edge linspace puts next to 2.3
    st.sampled_from([0.4, 2.3, 2.9, 2.2999999999999998, 2.3000000000000003, 2.3000000000000007]),
    st.floats(allow_nan=False),
)


@st.composite
def pse_inputs(draw):
    """(values, labels): labels maps each utt_id to its role, and values
    holds the utt_ids that got a PSE; a role may have no value at all."""
    roles = st.one_of(st.sampled_from(["bonafide", "spoof"]), _names)
    labels = draw(st.dictionaries(_names, roles, max_size=12))
    with_value = draw(st.sets(st.sampled_from(sorted(labels)))) if labels else set()
    values = {u: draw(_pse_values) for u in sorted(with_value)}
    if values and draw(st.booleans()):  # every value the same
        values = dict.fromkeys(values, next(iter(values.values())))
    return values, labels


@given(case=pse_inputs())
@example(case=({}, {}))
@example(case=({}, {"u1": "bonafide", "u2": "spoof"}))
@example(case=({"u1": 0.3}, {"u1": "spoof"}))
@example(case=({"a": 1.5, "b": 1.5, "c": 1.5}, {"a": "spoof", "b": "bonafide", "c": "spoof"}))
@example(case=({"a": 0.4, "b": 2.3, "c": 2.9}, {"a": "spoof", "b": "spoof", "c": "bonafide"}))
@example(case=({"a": 0.4, "b": 2.3}, {"a": "spoof", "b": "spoof", "c": "bonafide"}))
@example(case=({"ü1": 0.2, "語": 0.9}, {"ü1": "bonafide", "語": "spöof", "ß": "bonafide"}))
# a range that overflows to inf: both sides raise
@example(case=({"0": 1.7976931348623157e308, "00": -9.9792015476736e291},
               {"0": "bonafide", "00": "spoof"}))
@settings(max_examples=300, deadline=None)
def test_pse_report_matches_summary_oracle(case):
    values, labels = case
    errors = {u: "NoVoicedRegion: none" for u in labels if u not in values}

    def oracle(fh):  # the summary inside _report_text too, so its exception is compared
        oracle_write_pse_report(summarize_pse(values, labels, errors), fh)

    with np.errstate(invalid="ignore", over="ignore"):  # an infinite range: both raise
        assert _report_text(write_pse_report, values, labels) == _report_text(oracle)
