import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import machine_buf, natural_buf
from spoofsense.entropy import (
    normalize_psd,
    power_spectral_density,
    power_spectral_entropy,
    summarize_pse,
    utterance_pse,
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


def test_summarize_pse_histogram():
    vals = {"a": 0.1, "b": 0.9, "c": 0.9}
    labels = {"a": "bonafide", "b": "spoof", "c": "spoof"}
    s = summarize_pse(vals, labels, errors={}, n_bins=4)
    assert s.hist_counts["bonafide"].sum() == 1
    assert s.hist_counts["spoof"].sum() == 2
    assert s.hist_counts["spoof"][-1] == 2  # top-edge value lands in last bin

    # each value is counted in the bin whose printed edges hold it: 2.3 lies
    # below the edge 2.3000000000000003 that linspace puts next to it
    vals = {"a": 0.4, "b": 2.3, "c": 2.9}
    s = summarize_pse(vals, {u: "spoof" for u in vals}, errors={}, n_bins=50)
    e = s.hist_edges
    for i, n in enumerate(s.hist_counts["spoof"]):
        # bins are [lo, hi), the last one [lo, hi]
        held = [v for v in vals.values() if e[i] <= v < e[i + 1] or v == e[i + 1] == e[-1]]
        assert n == len(held)
