"""Binary persistence for feature matrices.

Layout (little-endian): magic "SSFT1", u8 kind-tag length, kind tag (ascii),
u32 dims, u32 num_frames, f64 hop seconds, then num_frames x dims float32
row-major.  Writes go through a temp file + rename so readers never see a
partial file.
"""

import os
import struct
import tempfile

import numpy as np

from .errors import BadMagic, CorruptPayload, TruncatedPayload
from .spectral import FeatureMatrix, check_kind_dims

MAGIC = b"SSFT1"


def atomic_write_bytes(path, data):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_feature(path, m):
    check_kind_dims(m.kind, m.dims)
    with np.errstate(over="ignore"):  # the isfinite check below handles it
        payload = m.data.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError("feature values overflow float32")
    kind = m.kind.encode("ascii")
    head = MAGIC + struct.pack("<B", len(kind)) + kind
    head += struct.pack("<IId", m.dims, m.num_frames, m.hop)
    atomic_write_bytes(path, head + payload.tobytes())


def read_payload(path):
    """Parse a feature file: (kind, hop, data), with data the read-only
    (num_frames, dims) float32 view of its payload.

    Checks the layout, the kind's dims and the hop, not the values:
    read_feature checks those through FeatureMatrix, and cli._pooled_vector
    on the pooled vector.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise BadMagic("not a feature file: %r" % raw[:5])
    pos = len(MAGIC)
    try:
        (klen,) = struct.unpack_from("<B", raw, pos)
        # latin-1 decodes any byte, so a non-ascii tag is an unknown kind below
        kind = raw[pos + 1 : pos + 1 + klen].decode("latin-1")
        dims, num_frames, hop = struct.unpack_from("<IId", raw, pos + 1 + klen)
    except struct.error:
        raise TruncatedPayload("feature file header incomplete") from None
    pos += 1 + klen + 16

    want = dims * num_frames * 4
    if len(raw) - pos != want:
        raise TruncatedPayload(
            "payload holds %d bytes, header declares %d" % (len(raw) - pos, want)
        )
    check_kind_dims(kind, dims)
    if not (np.isfinite(hop) and hop >= 0):
        raise CorruptPayload("hop must be a finite nonnegative number of seconds: %s" % path)
    data = np.frombuffer(raw, dtype="<f4", count=dims * num_frames, offset=pos)
    return kind, hop, data.reshape(num_frames, dims)


def read_feature(path):
    kind, hop, data = read_payload(path)
    try:
        return FeatureMatrix(kind=kind, data=data.astype(np.float64), hop=hop)
    except ValueError as exc:  # a non-finite value; read_payload checked the hop
        raise CorruptPayload(str(exc)) from None
