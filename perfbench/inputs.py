"""Seeded inputs for the three workloads, written by the benchmark's own code.

The seed changes noise, phases, drift and score values, never the sizes
that set the cost: utterance durations, sample rates and F0 bands, row
counts, group sizes and the protocol's speaker layout are fixed tables, so
runs with different seeds do the same amount of work.

WAV files, manifests, score files, embeddings and the cost config are
written here with struct/numpy, not with spoofsense's writers.  Only the
.ssft inputs of cm-train-score go through the public
spoofsense.store.write_feature, during set-up and outside any timing.
"""

import math
import os
import struct

import numpy as np

KINDS = ("stft", "mfcc", "sp", "ap", "f0", "jitter-shimmer", "pse")
KIND_DIMS = {"stft": 257, "mfcc": 39, "sp": 513, "ap": 5, "f0": 1,
             "jitter-shimmer": 2, "pse": 1}
UTTERANCE_LEVEL = ("jitter-shimmer", "pse")
MANIFEST_HEADER = "utt_id\tspeaker_id\trole\tmimicked_target_id\tattack_id\tpath\n"

# The cost profile of configs/tdcf_example.conf, restated so the benchmark
# does not depend on a file outside its own directory.
COST_CONFIG = """\
p_target = 0.9405
p_nontarget = 0.0095
p_spoof = 0.05
c_miss_asv = 1
c_fa_asv = 10
c_miss_cm = 1
c_fa_cm = 10
p_miss_asv = 0.05
p_fa_asv = 0.01
p_miss_spoof_asv = 0.45
"""

# extract-all corpus: (style, sample rate, seconds, base F0 Hz, silent gap).
# Covers native 16 kHz and both resample paths, F0 from ~80 Hz (many
# harmonics per ap frame) to ~300 Hz, voiced/unvoiced branches, 1-8 s.
CORPUS = (
    ("natural", 16000, 1.0, 82.0, False),
    ("natural", 22050, 1.5, 140.0, True),
    ("natural", 44100, 1.0, 210.0, False),
    ("natural", 16000, 8.0, 110.0, True),
    ("natural", 22050, 1.5, 260.0, False),
    ("machine", 16000, 1.0, 100.0, False),
    ("machine", 44100, 1.5, 180.0, False),
    ("machine", 22050, 2.0, 295.0, False),
)
TARGET_RATE = 16000  # spoofsense's default analysis rate
F0_FRAME_LEN = 640   # round(3 * 16000 / 75): default F0 window at 16 kHz
F0_HOP = 80          # round(0.005 * 16000)

# cm-train-score: bonafide rows share the '-' group, spoof rows split evenly
CM_BONAFIDE = 500
CM_ATTACKS = tuple("A%02d" % i for i in range(1, 6))
CM_SPOOF_PER_ATTACK = 100
CM_KINDS = ("stft", "mfcc", "ap", "f0", "jitter-shimmer", "pse")
CM_EPOCHS = 100  # spoofsense's default; the loss history must have this many
CM_D = 2.0

# eval-asv: a CM score file with a shared bonafide pool ...
EVAL_BONAFIDE = 20000
EVAL_ATTACKS = tuple("A%02d" % i for i in range(1, 11))
EVAL_SPOOF_PER_ATTACK = 18000
EVAL_D = 2.0  # class-mean distance in standard deviations: EER = Phi(-d/2)
# ... and an ASV protocol: targets x real utterances, impersonators with
# their own real utterances and impersonations of several targets each.
ASV_TARGETS, ASV_TARGET_UTTS = 90, 4
ASV_IMPS, ASV_IMP_UTTS, ASV_MIMICKED, ASV_MIMIC_UTTS = 10, 3, 3, 2
ASV_DIM = 64


def write_wav(path, samples, rate):
    """Mono PCM16 RIFF/WAVE."""
    q = np.clip(np.rint(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
    head = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(q), b"WAVE",
                       b"fmt ", 16, 1, 1, rate, 2 * rate, 2, 16, b"data", len(q))
    with open(path, "wb") as fh:
        fh.write(head + q)


def _natural(rng, rate, seconds, f0, gap):
    """Voice-like: vibrato, random-walk drift, 4 harmonics, a little noise."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    drift = np.cumsum(rng.normal(size=n)) / math.sqrt(n)
    vib = np.sin(2 * np.pi * 5.5 * t + rng.uniform(0, 2 * np.pi))
    track = f0 * rng.uniform(0.98, 1.02) * (1 + 0.03 * vib + 0.02 * drift)
    phase = 2 * np.pi * np.cumsum(track) / rate
    x = sum(a * np.sin(h * phase) for h, a in ((1, 0.45), (2, 0.2), (3, 0.1), (4, 0.05)))
    x = x * (1 + 0.05 * np.sin(2 * np.pi * 3.0 * t)) + 0.01 * rng.normal(size=n)
    if gap:  # an interior silence splits the utterance into two voiced runs
        lo = int(rate * seconds * rng.uniform(0.4, 0.5))
        x[lo : lo + int(0.2 * rate)] = 0.0
    return np.clip(x, -1.0, 1.0)


def _machine(rng, rate, seconds, f0):
    """Perfectly stationary two-harmonic tone."""
    t = np.arange(int(round(seconds * rate))) / rate
    ph = rng.uniform(0, 2 * np.pi)
    f = f0 * rng.uniform(0.98, 1.02)
    return 0.5 * np.sin(2 * np.pi * f * t + ph) + 0.15 * np.sin(4 * np.pi * f * t + 2 * ph)


def resampled_length(n, rate):
    """Length of a polyphase resample of n samples to TARGET_RATE."""
    g = math.gcd(rate, TARGET_RATE)
    up, down = TARGET_RATE // g, rate // g
    return -(-n * up // down)


def _write_manifest(path, rows):
    with open(path, "w") as fh:
        fh.write(MANIFEST_HEADER)
        for r in rows:
            fh.write("\t".join(r) + "\n")


def make_extract_all(root, seed):
    rng = np.random.default_rng([seed, 1])
    os.makedirs(os.path.join(root, "audio"))
    rows, utts = [], []
    for i, (style, rate, seconds, f0, gap) in enumerate(CORPUS):
        utt = "%s%02d" % (style[:3], i)
        x = _natural(rng, rate, seconds, f0, gap) if style == "natural" else \
            _machine(rng, rate, seconds, f0)
        path = os.path.join(root, "audio", utt + ".wav")
        write_wav(path, x, rate)
        role = "bonafide" if style == "natural" else "spoof"
        rows.append((utt, "spk%d" % i, role, "-", "-" if role == "bonafide" else "A01", path))
        n16 = resampled_length(len(x), rate)
        utts.append({"utt": utt, "style": style, "seconds": len(x) / rate,
                     "f0_frames": (n16 - F0_FRAME_LEN) // F0_HOP + 1})
    _write_manifest(os.path.join(root, "manifest.tsv"), rows)
    return {"manifest": os.path.join(root, "manifest.tsv"), "utts": utts,
            "audio_seconds": sum(u["seconds"] for u in utts)}


def make_cm_train_score(root, seed):
    from spoofsense.spectral import FeatureMatrix
    from spoofsense.store import write_feature

    rng = np.random.default_rng([seed, 2])
    feats = os.path.join(root, "feats")
    os.makedirs(feats)
    labels = [("-", "bonafide")] * CM_BONAFIDE + \
        [(a, "spoof") for a in CM_ATTACKS for _ in range(CM_SPOOF_PER_ATTACK)]
    # overlapping classes: spoof centres sit CM_D per-utterance standard
    # deviations away along a seeded direction across all dims
    direction = rng.normal(size=sum(KIND_DIMS[k] for k in CM_KINDS))
    direction *= CM_D / np.linalg.norm(direction)
    cut = np.cumsum([KIND_DIMS[k] for k in CM_KINDS])[:-1]
    shift = dict(zip(CM_KINDS, np.split(direction, cut)))
    rows = []
    for i, (attack, role) in enumerate(labels):
        utt = "cm%05d" % i
        frames = 150 + (i * 53) % 101  # 150-250 frames, seed-independent
        for k in CM_KINDS:
            d = KIND_DIMS[k]
            centre = rng.normal(size=d) + (shift[k] if role == "spoof" else 0.0)
            if k in UTTERANCE_LEVEL:
                data, hop = centre[None, :], 0.0
            else:  # float32 noise: the file stores float32 anyway, and it is faster
                noise = rng.standard_normal(size=(frames, d), dtype=np.float32)
                data, hop = centre + 0.5 * noise, 0.01
            write_feature(os.path.join(feats, "%s.%s.ssft" % (utt, k)),
                          FeatureMatrix(kind=k, data=data, hop=hop))
        rows.append((utt, "spk%d" % (i % 50), role, "-", attack, "none.wav"))
    _write_manifest(os.path.join(root, "manifest.tsv"), rows)
    cost = os.path.join(root, "cost.conf")
    with open(cost, "w") as fh:
        fh.write(COST_CONFIG)
    return {"manifest": os.path.join(root, "manifest.tsv"), "feature_dir": feats,
            "cost_config": cost, "kinds": ",".join(CM_KINDS), "epochs": CM_EPOCHS,
            "n_utts": len(rows), "n_bonafide": CM_BONAFIDE,
            "attacks": {a: CM_SPOOF_PER_ATTACK for a in CM_ATTACKS}}


def asv_protocol():
    """Manifest rows of the fixed ASV protocol and its closed-form counts."""
    rows = []
    for t in range(ASV_TARGETS):
        for u in range(ASV_TARGET_UTTS):
            rows.append(("T%02d_u%d" % (t, u), "T%02d" % t, "target-real", "-"))
    for i in range(ASV_IMPS):
        for u in range(ASV_IMP_UTTS):
            rows.append(("I%02d_u%d" % (i, u), "I%02d" % i, "impersonator-real", "-"))
        for m in range(ASV_MIMICKED):
            tgt = "T%02d" % ((ASV_MIMICKED * i + m) % ASV_TARGETS)
            for u in range(ASV_MIMIC_UTTS):
                rows.append(("I%02d_as_%s_u%d" % (i, tgt, u), "I%02d" % i, "impersonation", tgt))

    c2 = lambda n: n * (n - 1) // 2
    n_tgt = ASV_TARGETS * ASV_TARGET_UTTS
    n_imp = ASV_IMPS * ASV_IMP_UTTS
    n_mim = ASV_MIMICKED * ASV_MIMIC_UTTS
    counts = {
        "R": ASV_TARGETS * c2(ASV_TARGET_UTTS),
        "RI": c2(n_tgt) - ASV_TARGETS * c2(ASV_TARGET_UTTS),
        "IAB": ASV_IMPS * (c2(n_mim) - ASV_MIMICKED * c2(ASV_MIMIC_UTTS)),
        "TI": ASV_IMPS * n_mim * ASV_TARGET_UTTS,
        "IRAB": c2(n_imp) - ASV_IMPS * c2(ASV_IMP_UTTS),
        "IRT": n_imp * n_tgt,
    }
    return rows, counts


def make_eval_asv(root, seed):
    rng = np.random.default_rng([seed, 3])
    os.makedirs(root, exist_ok=True)
    groups = ["-"] * EVAL_BONAFIDE + \
        [a for a in EVAL_ATTACKS for _ in range(EVAL_SPOOF_PER_ATTACK)]
    order = rng.permutation(len(groups))
    cm_scores = os.path.join(root, "cm.scores")
    with open(cm_scores, "w") as fh:
        for j, i in enumerate(order):
            pos = groups[i] == "-"
            fh.write("cm%06d\t%s\t%s\t%.6f\n" % (
                j, groups[i], "bonafide" if pos else "spoof",
                rng.normal() + (EVAL_D if pos else 0.0)))

    rows, counts = asv_protocol()
    _write_manifest(os.path.join(root, "asv.tsv"),
                    [(u, s, r, m, "-", "x.wav") for u, s, r, m in rows])
    centroid = {}
    emb = os.path.join(root, "embeddings.txt")
    with open(emb, "w") as fh:
        fh.write("dim=%d\n" % ASV_DIM)
        for utt, spk, role, mim in rows:
            for s in (spk, mim):
                if s != "-" and s not in centroid:
                    centroid[s] = rng.normal(size=ASV_DIM)
            v = centroid[spk] + 0.6 * rng.normal(size=ASV_DIM)
            if role == "impersonation":  # a partly successful mimic
                v = 0.5 * (v + centroid[mim]) + 0.3 * rng.normal(size=ASV_DIM)
            fh.write("%s\t%s\n" % (utt, " ".join("%.6g" % c for c in v)))
    cost = os.path.join(root, "cost.conf")
    with open(cost, "w") as fh:
        fh.write(COST_CONFIG)
    return {"cm_scores": cm_scores, "cm_rows": len(groups),
            "cm_bonafide": EVAL_BONAFIDE,
            "attacks": {a: EVAL_SPOOF_PER_ATTACK for a in EVAL_ATTACKS},
            "eer_expected": 0.5 * math.erfc(EVAL_D / 2 / math.sqrt(2)),
            "asv_manifest": os.path.join(root, "asv.tsv"), "embeddings": emb,
            "cost_config": cost, "trial_counts": counts}


MAKERS = {"extract-all": make_extract_all, "cm-train-score": make_cm_train_score,
          "eval-asv": make_eval_asv}
