"""Release gate: one test per numbered acceptance criterion.

Each test prints a single [PASS]/[FAIL] scorecard line (past pytest's
capture) and then asserts, so `pytest tests/test_acceptance.py -q -s`
doubles as a human-readable checklist.  Tolerances and runtime caps are
pinned here on purpose; loosening them is a release decision, not a fix.
"""

import itertools
import time

import numpy as np
from scipy.stats import ks_2samp

from conftest import SR, cos_train, machine_buf, natural_buf, pulse_train, sawtooth, tone, write_manifest
from spoofsense.audio import AudioBuffer, read_wav, write_wav
from spoofsense.cli import main as cli_main
from spoofsense.entropy import power_spectral_entropy
from spoofsense.errors import BadMagic, EmptyCategory, MalformedRiff, TruncatedData, TruncatedPayload
from spoofsense.f0 import estimate_f0
from spoofsense.metrics import CostModel, ScoreSet, eer, min_tdcf
from spoofsense.mlp import MlpModel, TrainConfig, init_model, loss_and_grad, score, train
from spoofsense.perturbation import utterance_perturbation
from spoofsense.spectral import FeatureMatrix, mfcc
from spoofsense.store import read_feature, write_feature
from spoofsense.trials import Manifest, ManifestRow, build_pairs

COST = CostModel(
    p_target=0.9405, p_nontarget=0.0095, p_spoof=0.05,
    c_miss_asv=1.0, c_fa_asv=10.0, c_miss_cm=1.0, c_fa_cm=10.0,
    p_miss_asv=0.05, p_fa_asv=0.01, p_miss_spoof_asv=0.45,
)


def verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion %d: %s" % (num, detail)


# --- criterion 1: entropy pipeline vs a direct transcription ---------------

def naive_pse(x, dft_cache):
    """Literal definition: explicit one-sided DFT matrix, normalize, entropy."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if n not in dft_cache:
        k = np.arange(n // 2 + 1)[:, None]
        t = np.arange(n)[None, :]
        dft_cache[n] = np.exp(-2j * np.pi * k * t / n)
    psd = np.abs(dft_cache[n] @ x) ** 2 / n
    p = psd / psd.sum()
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def test_criterion_01_pse_matches_naive_oracle(capsys):
    rng = np.random.default_rng(101)
    pool = np.unique(np.concatenate([[8, 512], rng.integers(8, 513, size=38)]))
    cache = {}
    elapsed = 0.0  # the pipeline's own time; the naive oracle's is not its cost
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice(pool))
        x = rng.normal(scale=10.0 ** rng.uniform(-2, 2), size=n)
        t0 = time.perf_counter()
        h = power_spectral_entropy(x)
        elapsed += time.perf_counter() - t0
        worst = max(worst, abs(h - naive_pse(x, cache)))
    cache.clear()
    ok = worst < 1e-9 and elapsed < 5.0
    verdict(capsys, 1, ok,
            "1000 sequences len 8-512, max |pipeline - naive| %.2e, %.2f s" % (worst, elapsed))


# --- criterion 2: entropy analytic anchors ----------------------------------

def test_criterion_02_pse_anchors(capsys):
    problems = []
    for c in (1.0, -2.5, 3e-7):
        for n in (8, 33, 200, 512):
            v = power_spectral_entropy(np.full(n, c))
            if v != 0.0:
                problems.append("constant %g len %d gave %g" % (c, n, v))
    for n in (8, 64, 257, 512):
        x = np.zeros(n)
        x[n // 3] = 0.7
        want = np.log(n // 2 + 1)
        if abs(power_spectral_entropy(x) - want) > 1e-9:
            problems.append("impulse len %d off ln(%d)" % (n, n // 2 + 1))
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(8, 513)))
        alpha = 10.0 ** rng.uniform(-5, 5)
        worst = max(worst, abs(power_spectral_entropy(alpha * x) - power_spectral_entropy(x)))
    if worst > 1e-9:
        problems.append("scale drift %.2e" % worst)
    verdict(capsys, 2, not problems,
            problems[0] if problems else
            "constants exact 0, impulses hit ln(N//2+1), scale drift %.1e over 100 draws" % worst)


# --- criterion 3: entropy separates natural-like from machine-like contours -

def _natural_contour(rng, n=240, hop=0.005):
    t = np.arange(n) * hop
    walk = np.cumsum(rng.normal(size=n))
    walk /= max(1.0, np.abs(walk).max())
    f0 = rng.uniform(110, 240) * (
        1.0
        + 0.03 * np.sin(2 * np.pi * rng.uniform(4.5, 6.5) * t + rng.uniform(0, 2 * np.pi))
        + 0.02 * walk
    )
    return f0 + rng.normal(0.0, 0.3, size=n)


def _machine_contour(rng, k, n=240, hop=0.005):
    t = np.arange(n) * hop
    base = rng.uniform(110, 240)
    if k % 3 == 0:
        return np.full(n, base)
    if k % 3 == 1:
        return base + rng.uniform(-2.0, 2.0) * t
    return base + rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * rng.uniform(0.5, 2.0) * t)


def test_criterion_03_pse_separation(capsys):
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    nat = np.array([power_spectral_entropy(_natural_contour(rng)) for _ in range(200)])
    mach = np.array([power_spectral_entropy(_machine_contour(rng, k)) for k in range(200)])
    stat, p = ks_2samp(nat, mach)
    elapsed = time.perf_counter() - t0
    ok = p < 0.01 and np.median(nat) > np.median(mach) and elapsed < 30.0
    verdict(capsys, 3, ok,
            "KS D=%.3f p=%.2e, medians %.2e vs %.2e, %.2f s"
            % (stat, p, np.median(nat), np.median(mach), elapsed))


# --- criterion 4: F0 accuracy and band discipline ----------------------------

def test_criterion_04_f0_accuracy(capsys):
    problems = []
    for f in np.linspace(80, 480, 20):
        c = estimate_f0(tone(float(f), dur=0.6))
        v = c.values[c.values > 0]
        if len(v) == 0:
            problems.append("%.0f Hz: no voiced frames" % f)
            continue
        frac = np.mean(np.abs(v - f) <= 2.0)
        if frac < 0.95:
            problems.append("%.0f Hz: only %.0f%% within 2 Hz" % (f, 100 * frac))
    saw = estimate_f0(sawtooth(100))
    sv = saw.values[saw.values > 0]
    if len(sv) == 0 or np.max(np.abs(sv - 100)) > 2.0:
        problems.append("sawtooth octave error (range %.0f..%.0f)" % (sv.min(), sv.max()))
    for f in (40, 60, 550, 700):
        c = estimate_f0(tone(f))
        v = c.values
        if not np.all((v == 0.0) | ((v >= 75.0) & (v <= 500.0))):
            problems.append("%d Hz tone leaked out of band" % f)
    verdict(capsys, 4, not problems,
            problems[0] if problems else
            "20 tones >=95% frames within 2 Hz, sawtooth clean, out-of-band stays in 75-500")


# --- criterion 5: jitter/shimmer ground truth --------------------------------

def test_criterion_05_jitter_shimmer(capsys):
    periods = [100 if k % 2 == 0 else 110 for k in range(150)]
    jit_buf = AudioBuffer(cos_train(periods, [1.0] * 150), SR)
    jit = utterance_perturbation(jit_buf, estimate_f0(jit_buf))
    amps = [0.4 if k % 2 == 0 else 0.6 for k in range(150)]
    shim_buf = pulse_train([105] * 150, amps)
    shim = utterance_perturbation(shim_buf, estimate_f0(shim_buf))
    flat_buf = tone(150)
    flat = utterance_perturbation(flat_buf, estimate_f0(flat_buf))
    ok = (
        abs(jit.jitter_local - 0.10) <= 0.02
        and abs(shim.shimmer_local - 0.4) <= 0.05
        and flat.jitter_local < 0.01
        and flat.shimmer_local < 0.01
    )
    verdict(capsys, 5, ok,
            "jitter %.4f (want 0.10+-0.02), shimmer %.4f (want 0.40+-0.05), "
            "stationary %.2e/%.2e" % (jit.jitter_local, shim.shimmer_local,
                                      flat.jitter_local, flat.shimmer_local))


# --- criterion 6: MFCC contract ----------------------------------------------

def test_criterion_06_mfcc_contract(capsys):
    m = mfcc(tone(220, dur=2.0))
    const = mfcc(AudioBuffer(np.full(2 * SR, 0.3), SR))
    delta_mag = float(np.abs(const.data[:, 13:]).max())
    ok = m.dims == 39 and m.num_frames == 198 and delta_mag < 1e-10
    verdict(capsys, 6, ok,
            "dims %d, frames %d for 2 s, max |delta| on constant input %.1e"
            % (m.dims, m.num_frames, delta_mag))


# --- criterion 7: EER / min t-DCF vs naive sweeps ---------------------------

def _naive_rates(pos, neg):
    cands = np.append(np.unique(np.concatenate([pos, neg])), np.inf)
    far = (neg[None, :] >= cands[:, None]).mean(axis=1)
    frr = (pos[None, :] < cands[:, None]).mean(axis=1)
    return cands, far, frr


def naive_eer(pos, neg):
    cands, far, frr = _naive_rates(pos, neg)
    best = None
    for i in range(len(cands)):
        gap = abs(far[i] - frr[i])
        if best is None or gap < best[0]:
            best = (gap, (far[i] + frr[i]) / 2.0, cands[i])
    return best[1], best[2]


def naive_min_tdcf(pos, neg, c1, c2):
    cands, far, frr = _naive_rates(pos, neg)
    best = None
    for i in range(len(cands)):
        cost = (c1 * frr[i] + c2 * far[i]) / min(c1, c2)
        if best is None or cost < best[0]:
            best = (cost, cands[i])
    return best


def test_criterion_07_metric_oracles(capsys):
    problems = []
    c1, c2 = COST.coefficients()
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(1000):
        n_pos, n_neg = rng.integers(1, 201, size=2)
        pos = rng.normal(0.5, 1.0, size=n_pos)
        neg = rng.normal(-0.5, 1.0, size=n_neg)
        if i % 2 == 0:  # force ties
            pos, neg = np.round(pos, 1), np.round(neg, 1)
        s = ScoreSet(np.concatenate([pos, neg]),
                     np.concatenate([np.ones(n_pos, bool), np.zeros(n_neg, bool)]))
        e = eer(s)
        ne, nt = naive_eer(pos, neg)
        d = min_tdcf(s, COST)
        nd, ndt = naive_min_tdcf(pos, neg, c1, c2)
        worst = max(worst, abs(e.eer - ne), abs(d.min_tdcf_norm - nd))
        if abs(e.eer - ne) > 1e-12 or e.threshold != nt:
            problems.append("set %d: eer %.15g vs naive %.15g" % (i, e.eer, ne))
            break
        if abs(d.min_tdcf_norm - nd) > 1e-12 or d.threshold != ndt:
            problems.append("set %d: tdcf %.15g vs naive %.15g" % (i, d.min_tdcf_norm, nd))
            break

    hand = ScoreSet([3, 4, 5, 1, 2, 3.5], [True] * 3 + [False] * 3)
    if eer(hand).eer != 1 / 3:
        problems.append("hand example gave %.15g, want exactly 1/3" % eer(hand).eer)

    base_pos = np.round(rng.normal(0.5, 1.0, 80), 2)
    base_neg = np.round(rng.normal(-0.5, 1.0, 100), 2)
    base = ScoreSet(np.concatenate([base_pos, base_neg]),
                    np.concatenate([np.ones(80, bool), np.zeros(100, bool)]))
    e0, d0 = eer(base).eer, min_tdcf(base, COST).min_tdcf_norm
    for _ in range(100):
        a, b, c = rng.uniform(0.5, 2), rng.uniform(0.1, 3), rng.uniform(0.1, 1)
        f = lambda v: a * np.exp(b * np.clip(v, -10, 10) / 10.0) + c * v
        mapped = ScoreSet(f(base.scores), base.labels)
        if eer(mapped).eer != e0 or min_tdcf(mapped, COST).min_tdcf_norm != d0:
            problems.append("monotone map a=%.3g b=%.3g c=%.3g changed the metric" % (a, b, c))
            break
    verdict(capsys, 7, not problems,
            problems[0] if problems else
            "1000 random sets within %.1e of naive, hand example exact, 100 maps invariant" % worst)


# --- criterion 8: Gaussian EER sanity ---------------------------------------

def test_criterion_08_gaussian_eer(capsys):
    rng = np.random.default_rng(808)
    t0 = time.perf_counter()
    s = ScoreSet(np.concatenate([rng.normal(1, 1, 5000), rng.normal(-1, 1, 5000)]),
                 np.concatenate([np.ones(5000, bool), np.zeros(5000, bool)]))
    e = eer(s).eer
    elapsed = time.perf_counter() - t0
    ok = abs(e - 0.158655) < 0.02 and elapsed < 5.0
    verdict(capsys, 8, ok, "EER %.4f vs analytic 0.1587, %.2f s" % (e, elapsed))


# --- criterion 9: MLP gradients, convergence, determinism --------------------

def _flat(m):
    return np.concatenate([a.ravel() for a in list(m.weights) + list(m.biases)])


def _with_params(m, vec):
    ws, bs, pos = [], [], 0
    for w in m.weights:
        ws.append(vec[pos:pos + w.size].reshape(w.shape).copy())
        pos += w.size
    for b in m.biases:
        bs.append(vec[pos:pos + b.size].reshape(b.shape).copy())
        pos += b.size
    return MlpModel(dims=m.dims, weights=ws, biases=bs, activation=m.activation, seed=m.seed)


def _min_abs_preact(m, x):
    """Closest any pre-activation comes to zero (a relu kink) on this batch."""
    a = np.asarray(x, dtype=np.float64)
    nearest = np.inf
    for w, b in zip(m.weights, m.biases):
        z = a @ w + b
        nearest = min(nearest, float(np.abs(z).min()))
        a = np.maximum(z, 0.0) if m.activation == "relu" else np.tanh(z)
    return nearest


def test_criterion_09_mlp(capsys):
    problems = []
    rng = np.random.default_rng(909)
    worst = 0.0
    for k in range(50):
        dims = (int(rng.integers(2, 6)), int(rng.integers(2, 7)), int(rng.integers(2, 6)), 2)
        l2 = 0.01 if k % 3 == 0 else 0.0
        while True:
            m = init_model(dims, activation="relu" if k % 2 else "tanh",
                           seed=int(rng.integers(0, 2**31)))
            p = _flat(m)
            n_bias = sum(b.size for b in m.biases)
            p[-n_bias:] = rng.normal(scale=0.3, size=n_bias)  # off the zero init
            m = _with_params(m, p)
            x = rng.normal(size=(int(rng.integers(3, 7)), dims[0]))
            # a pre-activation within h of a relu kink makes the central
            # difference straddle the corner; that measures the kink, not
            # the backprop, so redraw instead
            if _min_abs_preact(m, x) > 1e-4:
                break
        y = rng.integers(0, 2, size=x.shape[0])
        _, gw, gb = loss_and_grad(m, x, y, l2)
        analytic = np.concatenate([g.ravel() for g in list(gw) + list(gb)])
        p0 = _flat(m)
        fd = np.empty_like(p0)
        h = 1e-6
        for i in range(len(p0)):
            up, dn = p0.copy(), p0.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (loss_and_grad(_with_params(m, up), x, y, l2)[0]
                     - loss_and_grad(_with_params(m, dn), x, y, l2)[0]) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(
            np.linalg.norm(analytic) + np.linalg.norm(fd), 1e-12
        )
        worst = max(worst, float(rel))
    if worst >= 1e-5:
        problems.append("worst finite-difference relative error %.2e" % worst)

    rng = np.random.default_rng(910)
    x = np.vstack([rng.normal(2.0, 0.5, size=(60, 2)), rng.normal(-2.0, 0.5, size=(60, 2))])
    y = np.array([0] * 60 + [1] * 60)
    cfg = TrainConfig(learning_rate=0.1, epochs=200, batch_size=16, seed=3)
    m0 = init_model((2, 8, 6, 2), activation="tanh", seed=1)
    m1, hist1 = train(m0, x, y, cfg)
    preds = np.where(score(m1, x) > 0, 0, 1)
    acc = float(np.mean(preds == y))
    if acc < 0.99:
        problems.append("toy accuracy %.3f after %d epochs" % (acc, cfg.epochs))
    m2, hist2 = train(m0, x, y, cfg)
    if hist1 != hist2 or not all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights)):
        problems.append("retrain with the same seed is not bit-identical")
    verdict(capsys, 9, not problems,
            problems[0] if problems else
            "50 nets max FD error %.1e, toy accuracy %.3f, reruns bit-exact" % (worst, acc))


# --- criterion 10: trial pairing vs exhaustive enumeration -------------------

def _pair_rule(a, b, cat):
    roles = {a.role, b.role}
    if cat == "R":
        return roles == {"target-real"} and a.speaker_id == b.speaker_id
    if cat == "RI":
        return roles == {"target-real"} and a.speaker_id != b.speaker_id
    if cat == "IAB":
        return (roles == {"impersonation"} and a.speaker_id == b.speaker_id
                and a.mimicked_target_id != b.mimicked_target_id)
    if cat == "TI":
        t, i = (a, b) if a.role == "target-real" else (b, a)
        return (roles == {"target-real", "impersonation"}
                and i.mimicked_target_id == t.speaker_id)
    if cat == "IRAB":
        return roles == {"impersonator-real"} and a.speaker_id != b.speaker_id
    if cat == "IRT":
        return roles == {"impersonator-real", "target-real"}
    raise ValueError(cat)


def _random_manifest(seed):
    rng = np.random.default_rng(seed)
    rows = []
    for t in range(rng.integers(1, 7)):
        for u in range(rng.integers(1, 4)):
            rows.append(ManifestRow("T%du%d" % (t, u), "T%d" % t, "target-real", "x.wav"))
    n_targets = 1 + max(int(r.speaker_id[1:]) for r in rows)
    for i in range(rng.integers(0, 5)):
        for u in range(rng.integers(0, 3)):
            rows.append(ManifestRow("I%dr%d" % (i, u), "I%d" % i, "impersonator-real", "x.wav"))
        for u in range(rng.integers(0, 4)):
            rows.append(ManifestRow("I%dm%d" % (i, u), "I%d" % i, "impersonation", "x.wav",
                                    mimicked_target_id="T%d" % rng.integers(0, n_targets)))
    return Manifest(rows=rows)


def test_criterion_10_trial_combinatorics(capsys):
    problems = []
    total = 0
    for seed in range(50):
        m = _random_manifest(seed)
        for cat in ("R", "RI", "IAB", "TI", "IRAB", "IRT"):
            expect = set()
            for a, b in itertools.combinations(sorted(m.rows, key=lambda r: r.utt_id), 2):
                if _pair_rule(a, b, cat):
                    expect.add((a.utt_id, b.utt_id))
            try:
                ts = build_pairs(m, cat)
                got = {(p.utt_a, p.utt_b) for p in ts}
                labels_ok = all(
                    p.label == ("positive" if cat in ("R", "IAB") else "negative")
                    for p in ts
                )
            except EmptyCategory:
                got, labels_ok = set(), True
            if got != expect or not labels_ok:
                problems.append("seed %d category %s: %d pairs vs %d expected"
                                % (seed, cat, len(got), len(expect)))
        total += sum(1 for a, b in itertools.combinations(m.rows, 2)
                     for cat in ("R", "RI", "IAB", "TI", "IRAB", "IRT")
                     if _pair_rule(a, b, cat))
    verdict(capsys, 10, not problems,
            problems[0] if problems else
            "50 manifests, all six categories match the enumerator (%d pairs total)" % total)


# --- criterion 11: round-trips, error taxonomy, CLI determinism --------------

def test_criterion_11_roundtrips_and_determinism(capsys, tmp_path):
    problems = []
    rng = np.random.default_rng(1111)

    # WAV: PCM16-grid samples come back identical
    q = rng.integers(-32768, 32768, size=1500)
    buf = AudioBuffer(q / 32768.0, SR)
    write_wav(tmp_path / "rt.wav", buf)
    back = read_wav(tmp_path / "rt.wav")
    if not (np.array_equal(back.samples, buf.samples) and back.sample_rate == SR):
        problems.append("WAV round-trip not lossless on the PCM16 grid")

    # feature file: float32-grid values come back identical
    data = rng.normal(size=(17, 39)).astype(np.float32).astype(np.float64)
    write_feature(tmp_path / "rt.ssft", FeatureMatrix("mfcc", data, 0.01))
    m = read_feature(tmp_path / "rt.ssft")
    if not (np.array_equal(m.data, data) and m.kind == "mfcc" and m.hop == 0.01):
        problems.append("feature round-trip not lossless on the float32 grid")

    # malformed inputs raise the documented errors
    (tmp_path / "junk.wav").write_bytes(b"JUNK" + b"\x00" * 40)
    raw = (tmp_path / "rt.wav").read_bytes()
    (tmp_path / "cut.wav").write_bytes(raw[:-6])
    sraw = (tmp_path / "rt.ssft").read_bytes()
    (tmp_path / "bad.ssft").write_bytes(b"XXXXX" + sraw[5:])
    (tmp_path / "cut.ssft").write_bytes(sraw[:-3])
    for path, exc in (("junk.wav", MalformedRiff), ("cut.wav", TruncatedData)):
        try:
            read_wav(tmp_path / path)
            problems.append("%s did not raise %s" % (path, exc.__name__))
        except exc:
            pass
    for path, exc in (("bad.ssft", BadMagic), ("cut.ssft", TruncatedPayload)):
        try:
            read_feature(tmp_path / path)
            problems.append("%s did not raise %s" % (path, exc.__name__))
        except exc:
            pass

    # CLI byte-determinism: same seed, different --jobs, repeated runs
    rows = []
    for i in range(2):
        u = "nat%d" % i
        write_wav(tmp_path / ("%s.wav" % u), natural_buf(120 + 30 * i, seed=i, dur=0.85))
        rows.append((u, "s%d" % i, "bonafide", "-", "-", str(tmp_path / ("%s.wav" % u))))
    for i in range(2):
        u = "mach%d" % i
        write_wav(tmp_path / ("%s.wav" % u), machine_buf(135 + 30 * i, dur=0.85))
        rows.append((u, "s%d" % i, "spoof", "-", "A01", str(tmp_path / ("%s.wav" % u))))
    write_manifest(tmp_path / "m.tsv", rows)
    (tmp_path / "fast.conf").write_text("epochs = 6\nhidden1 = 5\nhidden2 = 3\n")

    args = ["extract", "--manifest", str(tmp_path / "m.tsv"), "--feature", "pse"]
    for jobs, d in ((1, "f1"), (2, "f2")):
        if cli_main(args + ["--out-dir", str(tmp_path / d), "--jobs", str(jobs)]) != 0:
            problems.append("extract --jobs %d failed" % jobs)
    for u in ("nat0", "nat1", "mach0", "mach1"):
        name = "%s.pse.ssft" % u
        if (tmp_path / "f1" / name).read_bytes() != (tmp_path / "f2" / name).read_bytes():
            problems.append("extract output differs between --jobs 1 and 2 for %s" % u)

    for d in ("t1", "t2"):
        code = cli_main(["train-cm", "--features", "pse",
                         "--manifest", str(tmp_path / "m.tsv"),
                         "--feature-dir", str(tmp_path / "f1"),
                         "--out-model", str(tmp_path / (d + ".mdl")),
                         "--config", str(tmp_path / "fast.conf")])
        if code != 0:
            problems.append("train-cm run %s failed" % d)
        cli_main(["score-cm", "--model", str(tmp_path / (d + ".mdl")),
                  "--manifest", str(tmp_path / "m.tsv"), "--features", "pse",
                  "--feature-dir", str(tmp_path / "f1"),
                  "--out-scores", str(tmp_path / (d + ".scores"))])
    if (tmp_path / "t1.mdl").read_bytes() != (tmp_path / "t2.mdl").read_bytes():
        problems.append("train-cm is not byte-deterministic")
    if (tmp_path / "t1.scores").read_bytes() != (tmp_path / "t2.scores").read_bytes():
        problems.append("score-cm is not byte-deterministic")

    arows = [("T%dr%d" % (t, u), "T%d" % t, "target-real", "-", "-", "x.wav")
             for t in range(3) for u in range(2)]
    write_manifest(tmp_path / "asv.tsv", arows)
    for d in ("p1", "p2"):
        cli_main(["pairs", "--manifest", str(tmp_path / "asv.tsv"), "--category", "all",
                  "--out", str(tmp_path / (d + ".tsv")), "--sample", "6", "--seed", "5"])
    if (tmp_path / "p1.tsv").read_bytes() != (tmp_path / "p2.tsv").read_bytes():
        problems.append("pairs sampling is not seed-deterministic")

    verdict(capsys, 11, not problems,
            problems[0] if problems else
            "WAV/feature round-trips lossless, malformed files raise as documented, "
            "CLI outputs byte-identical across reruns and --jobs")
