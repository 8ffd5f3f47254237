import numpy as np
import pytest

from conftest import SR, cos_train, machine_buf, natural_buf, pulse_train, tone
from spoofsense.audio import AudioBuffer
from spoofsense.errors import NoVoicedRegion, TooFewCycles, ZeroAmplitude
from spoofsense.f0 import F0Contour, contour_framing, estimate_f0, voiced_runs
from spoofsense.perturbation import (
    CycleSequence,
    _frame_of,
    _is_peak,
    _region_cycles,
    jitter_local,
    region_cycles,
    shimmer_local,
    utterance_perturbation,
)


def test_jitter_train():
    # alternating 100/110-sample periods: mean |dT| = 10, mean T = 105
    periods = [100 if k % 2 == 0 else 110 for k in range(150)]
    buf = AudioBuffer(cos_train(periods, [1.0] * 150), SR)
    p = utterance_perturbation(buf, estimate_f0(buf))
    assert abs(p.jitter_local - 10 / 105) < 0.005
    assert p.shimmer_local < 0.02


def test_shimmer_train():
    # constant 105-sample gap, amplitudes alternating 0.4/0.6:
    # mean |dA| = 0.2, mean A = 0.5
    amps = [0.4 if k % 2 == 0 else 0.6 for k in range(150)]
    buf = pulse_train([105] * 150, amps)
    p = utterance_perturbation(buf, estimate_f0(buf))
    assert abs(p.shimmer_local - 0.4) < 0.01
    assert p.jitter_local < 0.01


def test_stationary_tone_is_clean():
    buf = tone(150)
    p = utterance_perturbation(buf, estimate_f0(buf))
    assert p.jitter_local < 0.01
    assert p.shimmer_local < 0.01


def test_cycle_marks_on_pure_tone():
    buf = tone(100, dur=0.5)
    regions = region_cycles(buf, estimate_f0(buf))
    assert len(regions) == 1
    cyc = regions[0]
    assert len(cyc) == 49
    np.testing.assert_allclose(cyc.periods, 0.01, atol=1e-12)
    assert np.all(cyc.amplitudes > 0.4)


def test_silence_gap_splits_regions():
    x = np.concatenate(
        [
            np.sin(2 * np.pi * 200 * np.arange(4800) / SR),
            np.zeros(1600),
            np.sin(2 * np.pi * 200 * np.arange(4800) / SR),
        ]
    )
    buf = AudioBuffer(x, SR)
    regions = region_cycles(buf, estimate_f0(buf))
    assert len(regions) == 2
    for cyc in regions:
        np.testing.assert_allclose(cyc.periods, 0.005, atol=1e-4)


def test_region_weighted_average():
    # two voiced regions with different cycle counts: the utterance value
    # is the cycle-count-weighted mean of the per-region values
    periods_a = [100 if k % 2 == 0 else 110 for k in range(80)]
    x = np.concatenate(
        [cos_train(periods_a, [1.0] * 80), np.zeros(2400), cos_train([107] * 40, [1.0] * 40)]
    )
    buf = AudioBuffer(x, SR)
    regions = region_cycles(buf, estimate_f0(buf))
    assert len(regions) == 2
    vals = [jitter_local(c) for c in regions]
    counts = [len(c) for c in regions]
    expect = np.average(vals, weights=counts)
    p = utterance_perturbation(buf, estimate_f0(buf))
    assert abs(p.jitter_local - expect) < 1e-12
    assert p.num_cycles == sum(counts)


def test_silence_has_no_voiced_region():
    buf = AudioBuffer(np.zeros(SR), SR)
    with pytest.raises(NoVoicedRegion):
        region_cycles(buf, estimate_f0(buf))
    with pytest.raises(NoVoicedRegion):
        utterance_perturbation(buf, estimate_f0(buf))


@pytest.mark.parametrize("gaps", [0, 2], ids=["one-run", "three-runs"])
def test_no_cycles_message_counts_the_runs(gaps):
    """A contour voiced over a flat signal marks no peak: the error says how
    many voiced runs there were, not that they were short."""
    flat = AudioBuffer(np.zeros(int(1.2 * SR)), SR)
    vals = np.full(len(estimate_f0(flat)), 130.0)
    n = len(vals)
    vals[[n // 3, 2 * n // 3][:gaps]] = 0.0
    contour = F0Contour(vals, hop=0.005, floor=75.0, ceil=500.0)
    assert len(voiced_runs(contour.values)) == gaps + 1
    want = "1 voiced run, none" if gaps == 0 else "3 voiced runs, none"
    with pytest.raises(NoVoicedRegion, match=want + " with two cycle peaks"):
        region_cycles(flat, contour)


def test_cycle_sequence_measures():
    c = CycleSequence(periods=np.array([0.01, 0.011]), amplitudes=np.array([0.5, 0.4]))
    assert abs(jitter_local(c) - 0.001 / 0.0105) < 1e-15
    assert abs(shimmer_local(c) - 0.1 / 0.45) < 1e-15
    single = CycleSequence(periods=np.array([0.01]), amplitudes=np.array([0.5]))
    with pytest.raises(TooFewCycles):
        jitter_local(single)
    dead = CycleSequence(periods=np.array([0.01, 0.01]), amplitudes=np.array([0.0, 0.0]))
    with pytest.raises(ZeroAmplitude):
        shimmer_local(dead)


def _region_cycles_loop(x, sr, contour, run):
    """The earlier _region_cycles, comments dropped: one np.max per cycle amplitude."""
    frame_len, hop = contour_framing(sr, contour)
    lo, hi = run[0], run[1] - 1
    stop = min(len(x), hi * hop + frame_len)

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
        if not _is_peak(x, q) or x[q] < 0.1 * x[p]:
            break
        peaks.append(q)
        p = q

    if len(peaks) < 2:
        return None
    peaks = np.asarray(peaks)
    periods = np.diff(peaks) / sr
    amps = np.array([np.max(np.abs(x[u:v])) for u, v in zip(peaks[:-1], peaks[1:])])
    return CycleSequence(periods=periods, amplitudes=amps)


def _gapped(buf, start, dur):
    x = buf.samples.copy()
    a = int(start * SR)
    x[a : a + int(dur * SR)] = 0.0
    return AudioBuffer(x, SR)


@pytest.mark.parametrize(
    "buf",
    [
        natural_buf(82, seed=11),
        natural_buf(140, seed=12, dur=0.9),
        _gapped(natural_buf(210, seed=13), 0.5, 0.15),
        natural_buf(295, seed=14, dur=0.8),
        machine_buf(120, dur=0.7),
        pulse_train([105] * 60, [0.4 if k % 2 else 0.6 for k in range(60)]),
        AudioBuffer(cos_train([100 if k % 2 else 110 for k in range(80)], [1.0] * 80), SR),
    ],
    ids=["nat82", "nat140", "nat210-gap", "nat295", "mach120", "pulses", "cos-jitter"],
)
def test_region_cycles_match_loop(buf):
    """Cycle amplitudes in one reduceat are the per-cycle maxima, bit for bit."""
    contour = estimate_f0(buf)
    marked = 0
    for run in voiced_runs(contour.values):
        got = _region_cycles(buf.samples, SR, contour, run)
        want = _region_cycles_loop(buf.samples, SR, contour, run)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got.periods, want.periods)
            assert np.array_equal(got.amplitudes, want.amplitudes)
            marked += len(got)
    assert marked >= 10
