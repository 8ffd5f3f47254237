import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spoofsense.errors import BadMagic, CorruptPayload, KindDimsMismatch, TruncatedPayload
from spoofsense import store
from spoofsense.mlp import init_model, load_model, save_model
from spoofsense.spectral import FeatureMatrix
from spoofsense.store import read_feature, read_payload, write_feature


def roundtrip(tmp_path, m, name="f.ssft"):
    p = tmp_path / name
    write_feature(p, m)
    return p, read_feature(p)


@given(
    data=hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.integers(1, 30)),
        elements=st.floats(-1e6, 1e6, width=32),
    ),
    hop=st.floats(0.0, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_roundtrip_property(tmp_path_factory, data, hop):
    d = tmp_path_factory.mktemp("store")
    m = FeatureMatrix(kind="stft", data=data, hop=hop)
    p = d / "m.ssft"
    write_feature(p, m)
    back = read_feature(p)
    assert back.kind == "stft"
    assert back.hop == hop
    np.testing.assert_array_equal(back.data, data.astype(np.float32).astype(np.float64))


def test_zero_frames_valid(tmp_path):
    m = FeatureMatrix(kind="mfcc", data=np.zeros((0, 39)), hop=0.01)
    _, back = roundtrip(tmp_path, m)
    assert back.num_frames == 0 and back.dims == 39


def test_byte_determinism(tmp_path):
    m = FeatureMatrix(kind="pse", data=np.array([[0.37]]), hop=0.0)
    p1, _ = roundtrip(tmp_path, m, "a.ssft")
    p2, _ = roundtrip(tmp_path, m, "b.ssft")
    assert p1.read_bytes() == p2.read_bytes()


def test_kind_dims_gate_before_write(tmp_path):
    with pytest.raises(KindDimsMismatch):
        write_feature(tmp_path / "x.ssft", FeatureMatrix(kind="f0", data=np.zeros((2, 2)), hop=0.005))
    assert not (tmp_path / "x.ssft").exists()


def test_bad_magic(tmp_path):
    m = FeatureMatrix(kind="f0", data=np.zeros((3, 1)), hop=0.005)
    p, _ = roundtrip(tmp_path, m)
    raw = p.read_bytes()
    (tmp_path / "bad.ssft").write_bytes(b"XXXXX" + raw[5:])
    with pytest.raises(BadMagic):
        read_feature(tmp_path / "bad.ssft")


def test_truncated_payload(tmp_path):
    m = FeatureMatrix(kind="f0", data=np.ones((3, 1)), hop=0.005)
    p, _ = roundtrip(tmp_path, m)
    raw = p.read_bytes()
    (tmp_path / "cut.ssft").write_bytes(raw[:-4])
    with pytest.raises(TruncatedPayload):
        read_feature(tmp_path / "cut.ssft")
    (tmp_path / "hdr.ssft").write_bytes(raw[:8])
    with pytest.raises(TruncatedPayload):
        read_feature(tmp_path / "hdr.ssft")


def test_corrupt_kind_rejected_on_read(tmp_path):
    m = FeatureMatrix(kind="ap", data=np.zeros((2, 5)), hop=0.005)
    p, _ = roundtrip(tmp_path, m)
    raw = bytearray(p.read_bytes())
    # kind string starts after magic(5) + len byte(1); "ap" -> "zp"
    raw[6] = ord("z")
    (tmp_path / "k.ssft").write_bytes(bytes(raw))
    with pytest.raises(KindDimsMismatch):
        read_feature(tmp_path / "k.ssft")


def test_non_ascii_kind_is_an_unknown_kind(tmp_path):
    m = FeatureMatrix(kind="ap", data=np.zeros((2, 5)), hop=0.005)
    p, _ = roundtrip(tmp_path, m)
    raw = bytearray(p.read_bytes())
    raw[6] = 0xFF  # the header is whole; only the tag's first byte is not ascii
    (tmp_path / "k.ssft").write_bytes(bytes(raw))
    with pytest.raises(KindDimsMismatch, match="unknown feature kind"):
        read_feature(tmp_path / "k.ssft")
    with pytest.raises(KindDimsMismatch, match="unknown feature kind"):
        read_payload(tmp_path / "k.ssft")


def test_read_payload_is_the_unchecked_float32_view(tmp_path):
    m = FeatureMatrix(kind="stft", data=np.arange(6.0).reshape(3, 2) / 3, hop=0.01)
    p, _ = roundtrip(tmp_path, m)
    raw = bytearray(p.read_bytes())
    raw[-4:] = np.float32(np.nan).tobytes()
    (tmp_path / "n.ssft").write_bytes(bytes(raw))
    kind, hop, data = read_payload(tmp_path / "n.ssft")
    assert (kind, hop, data.dtype, data.shape) == ("stft", 0.01, np.dtype("<f4"), (3, 2))
    assert not data.flags.writeable
    np.testing.assert_array_equal(data[:, 0], (np.arange(0.0, 6, 2) / 3).astype(np.float32))
    assert np.isnan(data[2, 1])


# f0 file: magic(5) + len byte(1) + "f0"(2) + dims, frames (8), hop at 16, payload at 24
@pytest.mark.parametrize("offset, value", [
    (24, struct.pack("<f", np.nan)),
    (28, struct.pack("<f", np.inf)),
    (16, struct.pack("<d", np.nan)),
    (16, struct.pack("<d", -0.005)),
    (16, struct.pack("<d", np.inf)),
], ids=["nan-payload", "inf-payload", "nan-hop", "negative-hop", "inf-hop"])
def test_corrupt_values_rejected_on_read(tmp_path, offset, value):
    m = FeatureMatrix(kind="f0", data=np.ones((3, 1)), hop=0.005)
    p, _ = roundtrip(tmp_path, m)
    raw = bytearray(p.read_bytes())
    raw[offset : offset + len(value)] = value
    (tmp_path / "c.ssft").write_bytes(bytes(raw))
    with pytest.raises(CorruptPayload):
        read_feature(tmp_path / "c.ssft")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_take_the_umask(tmp_path, umask, mode):
    """A feature or model file gets the mode open(path, "w") gives a new
    file, as a score file does, and no temporary file is left beside it."""
    m = FeatureMatrix(kind="pse", data=np.array([[0.37]]), hop=0.0)
    model = init_model([3, 4, 4, 2], seed=1)
    saved = os.umask(umask)
    try:
        write_feature(tmp_path / "f.ssft", m)
        save_model(tmp_path / "m.bin", model)
        with open(tmp_path / "s.tsv", "w"):
            pass
    finally:
        os.umask(saved)
    for name in ("f.ssft", "m.bin", "s.tsv"):
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name
    assert sorted(os.listdir(tmp_path)) == ["f.ssft", "m.bin", "s.tsv"]
    assert read_feature(tmp_path / "f.ssft").data[0, 0] == np.float32(0.37)
    assert load_model(tmp_path / "m.bin").weights[0].tobytes() == model.weights[0].tobytes()


def test_taken_temp_name_is_skipped(tmp_path, monkeypatch):
    """A temp name that is already a file is left as it is: the write draws
    another name and leaves no temp file behind."""
    taken = tmp_path / ("f.ssft." + "00" * 6)
    taken.write_bytes(b"not ours")
    draws = iter([b"\0" * 6, b"\1" * 6])
    monkeypatch.setattr(store.os, "urandom", lambda n: next(draws))
    store.atomic_write_bytes(tmp_path / "f.ssft", b"ab", memoryview(b"cd"))
    monkeypatch.undo()
    assert next(draws, None) is None  # both names were drawn
    assert taken.read_bytes() == b"not ours"
    assert (tmp_path / "f.ssft").read_bytes() == b"abcd"
    assert sorted(os.listdir(tmp_path)) == ["f.ssft", taken.name]


def test_column_major_data_is_written_row_major(tmp_path):
    data = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    p, back = roundtrip(tmp_path, FeatureMatrix(kind="stft", data=data, hop=0.01))
    assert np.array_equal(back.data, data)
    assert p.read_bytes()[-48:] == data.astype("<f4").tobytes(order="C")


def test_no_temp_litter_on_failure(tmp_path):
    m = FeatureMatrix(kind="pse", data=np.array([[1e300]]), hop=0.0)  # overflows f32
    with pytest.raises(ValueError):
        write_feature(tmp_path / "o.ssft", m)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shortfall", [0, 1, 100, None], ids=["exact", "1", "100", "zero"])
def test_read_is_one_sized_read_or_runs_to_the_end(tmp_path, monkeypatch, shortfall):
    """A regular file takes one os.read; a file longer than its fstat said (it
    grew, or is not regular and reads size 0) is read on to its end."""
    m = FeatureMatrix(kind="stft", data=np.arange(40000.0).reshape(200, 200), hop=0.01)
    p, _ = roundtrip(tmp_path, m)  # 160 kB, more than one 64 kB read of the loop
    fstat, read, reads = os.fstat, os.read, []
    if shortfall:
        monkeypatch.setattr(store.os, "fstat", lambda fd: SimpleNamespace(
            st_size=fstat(fd).st_size - shortfall))
    elif shortfall is None:
        monkeypatch.setattr(store.os, "fstat", lambda fd: SimpleNamespace(st_size=0))
    monkeypatch.setattr(store.os, "read", lambda fd, n: reads.append(n) or read(fd, n))
    kind, hop, data = read_payload(p)
    monkeypatch.undo()
    assert (kind, hop) == ("stft", 0.01)
    assert data.tobytes() == m.data.astype("<f4").tobytes()
    assert len(reads) == 1 if shortfall == 0 else len(reads) > 1
