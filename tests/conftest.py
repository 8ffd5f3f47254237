"""Shared synthesis helpers for the test suite."""

import struct

import numpy as np

from spoofsense.audio import AudioBuffer
from spoofsense.trials import Embeddings, TrialSet

SR = 16000


def tone(freq, dur=1.0, sr=SR, amp=0.5):
    t = np.arange(int(dur * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), sr)


def sawtooth(freq, dur=1.0, sr=SR, amp=0.5):
    t = np.arange(int(dur * sr)) / sr
    return AudioBuffer(amp * (2 * ((t * freq) % 1.0) - 1.0), sr)


def cos_train(periods, amps):
    """Concatenated single cosine cycles; each starts at its exact peak."""
    return np.concatenate(
        [a * np.cos(2 * np.pi * np.arange(p) / p) for p, a in zip(periods, amps)]
    )


def pulse_train(gaps, amps, width=4, sr=SR):
    """Isolated raised-cosine pulses: apex exactly A, half height one sample off."""
    n = int(np.sum(gaps)) + 200
    x = np.zeros(n)
    pos = 60
    for g, a in zip(gaps, amps):
        m = np.arange(width + 1)
        x[pos - width // 2 : pos + width // 2 + 1] = a * 0.5 * (1 - np.cos(2 * np.pi * m / width))
        pos += int(g)
    return AudioBuffer(x, sr)


def natural_buf(f0_base, seed, dur=1.2, sr=SR):
    """Voice-like: vibrato, slow random drift, a touch of noise."""
    r = np.random.default_rng(seed)
    t = np.arange(int(dur * sr)) / sr
    drift = np.cumsum(r.normal(size=len(t))) / np.sqrt(len(t))
    f0 = f0_base * (1 + 0.03 * np.sin(2 * np.pi * 5.2 * t) + 0.02 * drift)
    phase = 2 * np.pi * np.cumsum(f0) / sr
    x = 0.5 * np.sin(phase) + 0.15 * np.sin(2 * phase) + 0.01 * r.normal(size=len(t))
    return AudioBuffer(np.clip(x, -1, 1), sr)


def machine_buf(f0_base, dur=1.2, sr=SR):
    """Perfectly stationary harmonic tone."""
    t = np.arange(int(dur * sr)) / sr
    x = 0.5 * np.sin(2 * np.pi * f0_base * t) + 0.15 * np.sin(2 * np.pi * 2 * f0_base * t)
    return AudioBuffer(x, sr)


def write_manifest(path, rows):
    """rows: (utt_id, speaker_id, role, mimicked, attack, path) tuples."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("utt_id\tspeaker_id\trole\tmimicked_target_id\tattack_id\tpath\n")
        for r in rows:
            fh.write("\t".join(r) + "\n")


def embeddings(vectors):
    """The Embeddings of a dict utt_id -> vector (one dim), rows in dict order."""
    return Embeddings(list(vectors), np.array(list(vectors.values()), dtype=np.float64))


def write_embeddings(path, emb):
    """An embedding file of emb: the dim= header, then utt_id<TAB>values rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dim=%d\n" % emb.vectors.shape[1])
        for utt, v in zip(emb.ids, emb.vectors):
            fh.write("%s\t%s\n" % (utt, " ".join("%.17g" % x for x in v)))


def trial_set(pairs):
    """The TrialSet of an iterable of (utt_a, utt_b, label, category) rows."""
    pairs = list(pairs)
    return TrialSet(*([p[k] for p in pairs] for k in range(4)))


def softmax(logits):
    """Probabilities of a 1-D logit vector."""
    e = np.exp(logits - np.max(logits))
    return e / e.sum()


def wav_bytes(samples, sample_rate=SR, channels=1, fmt_code=1, bits=16):
    """Hand-rolled RIFF container so tests control every header byte."""
    if fmt_code == 1:
        body = np.asarray(samples).astype("<i2").tobytes()
    else:
        body = np.asarray(samples).astype("<f4").tobytes()
    block = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_code, channels, sample_rate, sample_rate * block, block, bits
    )
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


# a row position past the first block of tsv.BLOCK_CHARS characters: a test
# that places a fault there checks that the rows before it hold more
PAST_ONE_BLOCK = 4101


def line_start(lines, k):
    """The character offset of line k + 1 (lines[k]) in "\n".join(lines)."""
    return len("\n".join(lines[:k])) + (k > 0)
