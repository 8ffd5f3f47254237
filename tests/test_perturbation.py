import numpy as np
import pytest

from conftest import SR, cos_train, machine_buf, natural_buf, pulse_train, tone
from spoofsense.audio import AudioBuffer, resample
from spoofsense.errors import NoVoicedRegion, TooFewCycles, ZeroAmplitude
from spoofsense.f0 import F0Contour, contour_framing, estimate_f0, voiced_runs
from spoofsense.perturbation import (
    CycleSequence,
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


def _frame_of(sample, frame_len, hop, lo, hi):
    # the contour value for a sample is taken from the analysis frame whose
    # center is nearest, clamped into the voiced run
    j = int(round((sample - frame_len / 2) / hop))
    return min(max(j, lo), hi)


def _is_peak(x, q):
    # strict on the left so runs of zeros or window-edge picks never count
    return 0 < q < len(x) - 1 and x[q] > x[q - 1] and x[q] >= x[q + 1]


def _region_cycles_loop(x, sr, contour, run):
    """The earlier _region_cycles, comments dropped: one np.max per cycle
    amplitude, numpy scalars per cycle.  _frame_of and _is_peak above are
    the module's earlier helpers, verbatim, so that a change to the tracker
    cannot change its oracle."""
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


def _resonant_pulses(f0, seed, dur=1.0, formant=500.0, bw=100.0):
    """Impulses every sr/f0 samples through a two-pole resonator, peak 0.5,
    plus 1e-3 white noise; the first impulse comes after one to two periods
    of noise alone."""
    from scipy.signal import lfilter

    r = np.random.default_rng(seed)
    n, period = int(dur * SR), SR / f0
    e = np.zeros(n)
    e[(r.uniform(period, 2 * period) + np.arange(0, n - 2 * period, period)).astype(int)] = 1.0
    rad, th = np.exp(-np.pi * bw / SR), 2 * np.pi * formant / SR
    x = lfilter([1.0], [1.0, -2 * rad * np.cos(th), rad * rad], e)
    return 0.5 * x / np.max(np.abs(x)) + 1e-3 * r.normal(size=n)


def _pulse_runs():
    """130 Hz resonant pulse trains, one voiced run each, split by 0.2 s of
    silence.  In the runs of seeds 4, 17 and 31 a window ends on a pulse's
    rising edge within the first few cycles, and the tracker, which ends a
    run at its first miss, ends it there."""
    gap = np.zeros(int(0.2 * SR))
    parts = [p for seed in (0, 1, 4, 17, 31) for p in (_resonant_pulses(130, seed), gap)]
    return AudioBuffer(np.concatenate(parts), SR)


def _rising_last_window():
    """A 100 Hz sine whose voiced run ends at sample stop = 0 mod 160, where
    the sine rises: the last peak is at stop - 120, and the window after it,
    [stop - 8, stop), ends on the rise to the next one."""
    frame_len, hop = contour_framing(SR, F0Contour([], 0.005, 75.0, 500.0))
    n_frames = 41  # hi = 40: stop = 40 * 80 + 640 = 3840 = 24 periods
    x = 0.5 * np.sin(2 * np.pi * 100 * np.arange(SR // 2) / SR)
    vals = np.zeros(80)
    vals[:n_frames] = 100.0
    stop = (n_frames - 1) * hop + frame_len
    assert x[stop - 1] < x[stop]  # rising at the run's end
    return AudioBuffer(x, SR), F0Contour(vals, 0.005, 75.0, 500.0)


def _below_floor():
    """105 Hz pulses with pulse 30 at 0.04, below 0.1 of its predecessor's 0.6."""
    amps = [0.6] * 60
    amps[30] = 0.04
    return pulse_train([152] * 60, amps)


def _window_edges():
    """Pulses 109 and 205 samples apart in turn, under a contour of period
    157 samples: each lands on the first (p + floor(0.7 * 157)) or the last
    (p + ceil(1.3 * 157)) sample of its search window."""
    buf = pulse_train([109, 205] * 20, [0.5] * 40)
    frame_len, hop = contour_framing(SR, F0Contour([], 0.005, 75.0, 500.0))
    n_frames = (len(buf.samples) - frame_len) // hop + 1
    return buf, F0Contour(np.full(n_frames, SR / 157), 0.005, 75.0, 500.0)


CYCLE_CASES = {
    "nat82": natural_buf(82, seed=11),
    "nat140": natural_buf(140, seed=12, dur=0.9),
    "nat210-gap": _gapped(natural_buf(210, seed=13), 0.5, 0.15),
    "nat295": natural_buf(295, seed=14, dur=0.8),
    "mach120": machine_buf(120, dur=0.7),
    "pulses": pulse_train([105] * 60, [0.4 if k % 2 else 0.6 for k in range(60)]),
    "cos-jitter": AudioBuffer(cos_train([100 if k % 2 else 110 for k in range(80)], [1.0] * 80), SR),
    "nat150-44k": resample(natural_buf(150, seed=15, dur=1.0, sr=44100), SR),
    "resonant130": _pulse_runs(),
    "rising-end": _rising_last_window(),
    "below-floor": _below_floor(),
    "window-edges": _window_edges(),
}


def _case(name):
    """(buffer, contour) of a case: its own contour, or the tracked one."""
    case = CYCLE_CASES[name]
    return case if isinstance(case, tuple) else (case, estimate_f0(case))


@pytest.mark.parametrize("name", sorted(CYCLE_CASES))
def test_region_cycles_match_loop(name):
    """Cycle amplitudes in one reduceat are the per-cycle maxima, and the
    per-cycle arithmetic on Python scalars marks the same cycles, bit for bit."""
    buf, contour = _case(name)
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


def test_cycle_cases_end_where_described():
    """The tracker's early ends that the cases above are there to cover."""
    def counts(name):
        buf, contour = _case(name)
        seqs = [_region_cycles(buf.samples, SR, contour, r) for r in voiced_runs(contour.values)]
        return [0 if s is None else len(s) for s in seqs]

    pulse_runs = counts("resonant130")
    assert len(pulse_runs) == 5 and max(pulse_runs) >= 120 and sorted(pulse_runs)[2] <= 3
    assert counts("rising-end") == [23]  # marks 40 .. 3720; none in [3832, 3840)
    assert counts("below-floor") == [29]  # pulses 0 .. 29; pulse 30 is below the floor
    buf, contour = _case("window-edges")
    (run,) = voiced_runs(contour.values)
    periods = _region_cycles(buf.samples, SR, contour, run).periods * SR
    assert np.array_equal(np.round(periods), [109, 205] * 19 + [109])
