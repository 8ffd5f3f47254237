"""cli._pooled_vector pools each file from its float32 payload; the oracle
below is the earlier path, which built a FeatureMatrix per file and pooled its
float64 data.  Pooled vectors and datasets must match it byte for byte, and
every single-fault file must fail with its exception class and message."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import write_manifest
from spoofsense import cli
from spoofsense.cli import CLASS_OF_ROLE, _feature_path
from spoofsense.errors import (
    BadMagic,
    CorruptPayload,
    DimMismatch,
    InputTooShort,
    KindDimsMismatch,
    MissingFeatureFile,
    TruncatedPayload,
)
from spoofsense.mlp import init_model, save_model
from spoofsense.spectral import KINDS, FeatureMatrix
from spoofsense.store import MAGIC, read_feature
from spoofsense.trials import load_manifest

# --- the oracle: read_feature, _pooled_vector and _dataset as they were ---


def oracle_read_feature(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise BadMagic("not a feature file: %r" % raw[:5])
    pos = len(MAGIC)
    try:
        (klen,) = struct.unpack_from("<B", raw, pos)
        pos += 1
        kind = raw[pos : pos + klen].decode("ascii")
        if len(raw) < pos + klen + 16:
            raise struct.error("header")
        pos += klen
        dims, num_frames, hop = struct.unpack_from("<IId", raw, pos)
        pos += 16
    except (struct.error, UnicodeDecodeError):
        raise TruncatedPayload("feature file header incomplete") from None

    want = dims * num_frames * 4
    if len(raw) - pos != want:
        raise TruncatedPayload(
            "payload holds %d bytes, header declares %d" % (len(raw) - pos, want)
        )
    data = np.frombuffer(raw, dtype="<f4", count=dims * num_frames, offset=pos)
    try:
        return FeatureMatrix(
            kind=kind, data=data.reshape(num_frames, dims).astype(np.float64), hop=hop
        )
    except ValueError as exc:  # a non-finite value, or a hop that is not finite and >= 0
        raise CorruptPayload(str(exc)) from None


def oracle_pooled_vector(utt_id, kinds, feature_dir):
    """Concatenate per-kind vectors; frame-level kinds are mean-pooled."""
    parts = []
    for kind in kinds:
        path = _feature_path(feature_dir, utt_id, kind)
        try:
            m = oracle_read_feature(path)
        except FileNotFoundError:
            raise MissingFeatureFile(path) from None
        if m.kind != kind:
            raise KindDimsMismatch("%s holds kind %r, not %r" % (path, m.kind, kind))
        if m.num_frames == 0:
            raise InputTooShort("0-frame feature file %s" % path)
        parts.append(m.data[0] if KINDS[kind].utterance_level else m.data.mean(axis=0))
    return np.concatenate(parts)


def oracle_dataset(manifest, kinds, feature_dir):
    """Pooled vectors (one row per utterance) and their classes."""
    xs, ys = [], []
    for row in manifest.rows:
        xs.append(oracle_pooled_vector(row.utt_id, kinds, feature_dir))
        ys.append(CLASS_OF_ROLE[row.role])
        if len(xs[-1]) != len(xs[0]):
            raise DimMismatch("%s: pooled vector of length %d, %s's has %d"
                              % (row.utt_id, len(xs[-1]), manifest.rows[0].utt_id, len(xs[0])))
    return np.array(xs), np.array(ys)


# --- helpers ---


def ssft(tag, data, hop):
    """A feature file's bytes, written field by field from float32 data."""
    data = np.asarray(data, dtype="<f4")
    kind = tag.encode("latin-1")
    head = MAGIC + struct.pack("<B", len(kind)) + kind
    head += struct.pack("<IId", data.shape[1], data.shape[0], hop)
    return head + data.tobytes()


def write_set(d, stored):
    """stored maps utt_id to {kind: file bytes}; returns the manifest."""
    rows = [(u, "s%d" % i, ("bonafide", "spoof")[i % 2], "-", "-", "x")
            for i, u in enumerate(stored)]
    write_manifest(d / "m.tsv", rows)
    for utt, files in stored.items():
        for kind, raw in files.items():
            (d / ("%s.%s.ssft" % (utt, kind))).write_bytes(raw)
    return load_manifest(str(d / "m.tsv"))


def pooled_vector(utt_id, kinds, feature_dir):
    return cli._pooled_vector(utt_id, cli._kind_table(kinds, feature_dir))


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
EDGES = [F32_MAX, -F32_MAX, F32_TINY, -F32_TINY, 2e-40, -0.0, 0.0]
VALUES = st.one_of(st.sampled_from(EDGES),
                   st.floats(width=32, allow_nan=False, allow_infinity=False))
HOPS = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.sampled_from([5e-324, 1e300]))


@st.composite
def kind_specs(draw):
    """Distinct kinds, each with its dims: fixed, or drawn for a kind of any width."""
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=3, unique=True))
    return [(k, KINDS[k].dims or draw(st.integers(1, 6))) for k in kinds]


@given(spec=kind_specs(), n_utts=st.integers(1, 3), data=st.data())
@settings(max_examples=120, deadline=None)
def test_pooling_matches_oracle_bytes(tmp_path_factory, spec, n_utts, data):
    d = tmp_path_factory.mktemp("pool")
    stored = {}
    for u in range(n_utts):
        files = {}
        for kind, dims in spec:
            frames = 1 if KINDS[kind].utterance_level else data.draw(st.integers(1, 300))
            arr = data.draw(hnp.arrays(np.float32, (frames, dims), elements=VALUES))
            files[kind] = ssft(kind, arr, data.draw(HOPS))
        stored["u%d" % u] = files
    manifest = write_set(d, stored)
    kinds = [k for k, _ in spec]
    for utt, files in stored.items():
        assert same_array(pooled_vector(utt, kinds, str(d)),
                          oracle_pooled_vector(utt, kinds, str(d)))
        for kind in files:
            new, old = (f(_feature_path(str(d), utt, kind))
                        for f in (read_feature, oracle_read_feature))
            assert (new.kind, new.hop) == (old.kind, old.hop) and same_array(new.data, old.data)
    (x, y), (ox, oy) = cli._dataset(manifest, kinds, str(d)), oracle_dataset(manifest, kinds, str(d))
    assert same_array(x, ox) and same_array(y, oy)


def adversarial(rows, cols):
    """Values of mixed sign over nine decades, so the order of a float64
    column sum shows in its low bits."""
    j = np.arange(rows * cols)
    scale = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4])[j % 9]
    return (((j * 7919) % 1000 - 499.5) * scale).astype(np.float32).reshape(rows, cols)


def test_long_single_column_pools_like_the_oracle(tmp_path):
    # One column longer than numpy's 8192-element cast buffer: pooling the
    # float32 view with mean(dtype=float64) sums it per buffer and differs.
    f0 = adversarial(8207, 1)
    (tmp_path / "u.f0.ssft").write_bytes(ssft("f0", f0, 0.005))
    old = oracle_pooled_vector("u", ["f0"], str(tmp_path))
    assert same_array(pooled_vector("u", ["f0"], str(tmp_path)), old)
    assert f0.mean(axis=0, dtype=np.float64).tobytes() != old.tobytes()


@pytest.mark.parametrize("kind, rows, cols", [
    ("stft", 8193, 2), ("sp", 8207, 3), ("ap", 12289, 5), ("mfcc", 8207, 39),
    ("stft", 8207, 257), ("stft", 100003, 2)])
def test_long_multi_column_pools_like_the_oracle(tmp_path, kind, rows, cols):
    # Longer than the 300 frames the Hypothesis test draws, and than numpy's
    # 8192-element buffers: each column is still summed row after row.
    stored = {"u1": {kind: ssft(kind, adversarial(rows, cols), 0.01)},
              "u2": {kind: ssft(kind, adversarial(rows, cols)[::-1], 0.01)}}
    manifest = write_set(tmp_path, stored)
    for utt in stored:
        assert same_array(pooled_vector(utt, [kind], str(tmp_path)),
                          oracle_pooled_vector(utt, [kind], str(tmp_path)))
    (x, y), (ox, oy) = (cli._dataset(manifest, [kind], str(tmp_path)),
                        oracle_dataset(manifest, [kind], str(tmp_path)))
    assert same_array(x, ox) and same_array(y, oy)


# --- single-fault files: the same class and message as the oracle ---

STFT = np.arange(12, dtype=np.float32).reshape(4, 3) / 7
JS = np.array([[0.01, 0.05]], dtype=np.float32)


def with_value(kind, arr, index, value):
    arr = arr.copy()
    arr.flat[index] = value
    return kind, ssft(kind, arr, 0.01 if kind == "stft" else 0.0)


FAULTS = {
    "bad-magic": ("stft", b"XXXXX" + ssft("stft", STFT, 0.01)[5:]),
    "truncated-header": ("stft", ssft("stft", STFT, 0.01)[:12]),
    "truncated-payload": ("stft", ssft("stft", STFT, 0.01)[:-4]),
    "extra-payload": ("stft", ssft("stft", STFT, 0.01) + b"\0\0\0\0"),
    "wider-vector": ("stft", ssft("stft", np.ones((4, 5)), 0.01)),
    "unknown-kind": ("stft", ssft("stfx", STFT, 0.01)),
    "wrong-dims": ("jitter-shimmer", ssft("jitter-shimmer", np.ones((1, 3)), 0.0)),
    "nan-hop": ("stft", ssft("stft", STFT, float("nan"))),
    "negative-hop": ("stft", ssft("stft", STFT, -0.01)),
    "inf-hop": ("stft", ssft("stft", STFT, float("inf"))),
    "wrong-tag": ("stft", ssft("mfcc", np.ones((2, 39)), 0.01)),
    "zero-frames": ("stft", ssft("stft", np.zeros((0, 3)), 0.01)),
    "missing": ("stft", None),
    "directory": ("stft", "dir"),
}
NON_FINITE = []
for _kind, _arr in (("stft", STFT), ("jitter-shimmer", JS)):
    for _name, _value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        for _where, _index in (("first", 0), ("middle", _arr.size // 2), ("last", _arr.size - 1)):
            NON_FINITE.append("%s-%s-%s" % (_kind, _name, _where))
            FAULTS[NON_FINITE[-1]] = with_value(_kind, _arr, _index, _value)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_single_fault_fails_like_the_oracle(tmp_path, capsys, fault):
    kind, raw = FAULTS[fault]
    good = ssft(kind, STFT if kind == "stft" else JS, 0.01 if kind == "stft" else 0.0)
    manifest = write_set(tmp_path, {"u1": {kind: good}, "u2": {}})
    path = _feature_path(str(tmp_path), "u2", kind)
    if raw == "dir":
        (tmp_path / "u2.stft.ssft").mkdir()
    elif raw is not None:
        (tmp_path / ("u2.%s.ssft" % kind)).write_bytes(raw)

    old = raised(oracle_dataset, manifest, [kind], str(tmp_path))
    new = raised(cli._dataset, manifest, [kind], str(tmp_path))
    assert type(new) is type(old)
    # the pooled checks name the file after the oracle's message
    assert str(new) == (str(old) + ": " + path if isinstance(old, CorruptPayload) else str(old))

    dims = 3 if kind == "stft" else 2
    save_model(str(tmp_path / "cm.mdl"), init_model((dims, 3, 2, 2)))
    common = ["--features", kind, "--manifest", str(tmp_path / "m.tsv"),
              "--feature-dir", str(tmp_path)]
    capsys.readouterr()
    assert cli.main(["train-cm", *common, "--out-model", str(tmp_path / "new.mdl")]) == 1
    assert capsys.readouterr().err == "error: %s\n" % new
    assert cli.main(["score-cm", "--model", str(tmp_path / "cm.mdl"), *common,
                     "--out-scores", str(tmp_path / "s.tsv")]) == 1
    assert capsys.readouterr().err == "error: %s\n" % new
    assert not (tmp_path / "new.mdl").exists() and not (tmp_path / "s.tsv").exists()


def test_non_finite_file_fails_before_a_later_files_fault(tmp_path):
    """Each file's part is checked for finiteness before the next file is
    read, so a non-finite file fails before any fault of a later file of
    its utterance."""
    assert len(NON_FINITE) == 18
    for first in NON_FINITE:
        for second in sorted(FAULTS):
            (kind1, raw1), (kind2, raw2) = FAULTS[first], FAULTS[second]
            if kind2 == kind1:
                continue
            d = tmp_path / ("%s.%s" % (first, second))
            d.mkdir()
            good = {k: ssft(k, STFT if k == "stft" else JS, 0.01 if k == "stft" else 0.0)
                    for k in (kind1, kind2)}
            bad = {kind1: raw1} if raw2 in (None, "dir") else {kind1: raw1, kind2: raw2}
            manifest = write_set(d, {"u1": good, "u2": bad})
            if raw2 == "dir":
                (d / ("u2.%s.ssft" % kind2)).mkdir()
            old = raised(oracle_dataset, manifest, [kind1, kind2], str(d))
            new = raised(cli._dataset, manifest, [kind1, kind2], str(d))
            path = _feature_path(str(d), "u2", kind1)
            assert type(old) is type(new) is CorruptPayload
            assert str(new) == str(old) + ": " + path
