"""Binary persistence for feature matrices.

Layout (little-endian): magic "SSFT1", u8 kind-tag length, kind tag (ascii),
u32 dims, u32 num_frames, f64 hop seconds, then num_frames x dims float32
row-major.  Writes go through a temp file + rename so readers never see a
partial file.
"""

import math
import os
import struct

import numpy as np

from .errors import BadMagic, CorruptPayload, TruncatedPayload
from .spectral import FeatureMatrix, check_kind_dims

MAGIC = b"SSFT1"
_SHAPE = struct.Struct("<IId")  # dims, num_frames, hop: after the kind tag
_F32 = np.dtype("<f4")


def atomic_write_bytes(path, *parts):
    """Write the parts (bytes-like, C-contiguous) in turn to a new file
    path.<random hex>, then rename that to path.  open(tmp, "xb") gives it
    open(path, "w")'s mode, 0o666 less the umask; mkstemp's is 0o600."""
    while True:
        tmp = "%s.%s" % (os.path.abspath(path), os.urandom(6).hex())
        try:
            fh = open(tmp, "xb")  # O_EXCL: a name taken already raises
            break
        except FileExistsError:
            continue
    try:
        with fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_feature(path, m):
    with np.errstate(over="ignore"):  # the isfinite check below handles it
        payload = m.data.astype("<f4", order="C")
    if not np.all(np.isfinite(payload)):
        raise ValueError("feature values overflow float32")
    kind = m.kind.encode("ascii")
    head = MAGIC + bytes((len(kind),)) + kind + _SHAPE.pack(m.dims, m.num_frames, m.hop)
    atomic_write_bytes(path, head, payload)  # the payload's own buffer, not a copy


def _read_file(path):
    """The bytes of the file at path, read with one os.read of its size + 1.

    A read of fewer bytes than that is the end of a regular file; a file that
    grew since its fstat, or one that is not regular, is read on to its end.
    An OSError names the path, as open() does.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        raw = os.read(fd, size + 1)
        if len(raw) > size:
            chunks = [raw]
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
            raw = b"".join(chunks)
    except OSError as exc:  # os.read names no file: a directory reads EISDIR
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    return raw


def read_payload(path):
    """Parse a feature file: (kind, hop, data), with data the read-only
    (num_frames, dims) float32 view of its payload.

    Checks the layout, the kind's dims and the hop, not the values:
    read_feature checks those through FeatureMatrix, and
    cli._pooled_vector on each file's pooled part.
    """
    raw = _read_file(path)
    if raw[: len(MAGIC)] != MAGIC:
        raise BadMagic("not a feature file: %r" % raw[:5])
    try:
        pos = len(MAGIC) + 1 + raw[len(MAGIC)]  # past the u8 tag length and the tag
        dims, num_frames, hop = _SHAPE.unpack_from(raw, pos)
    except (IndexError, struct.error):
        raise TruncatedPayload("feature file header incomplete") from None
    # latin-1 decodes any byte, so a non-ascii tag is an unknown kind below
    kind = raw[len(MAGIC) + 1 : pos].decode("latin-1")
    pos += _SHAPE.size

    want = dims * num_frames * 4
    if len(raw) - pos != want:
        raise TruncatedPayload(
            "payload holds %d bytes, header declares %d" % (len(raw) - pos, want)
        )
    check_kind_dims(kind, dims)
    if not 0.0 <= hop < math.inf:  # false for NaN too
        raise CorruptPayload("hop must be a finite nonnegative number of seconds: %s" % path)
    return kind, hop, np.ndarray((num_frames, dims), _F32, raw, pos)


def read_feature(path):
    kind, hop, data = read_payload(path)
    try:
        return FeatureMatrix(kind=kind, data=data.astype(np.float64), hop=hop)
    except ValueError as exc:  # a non-finite value; read_payload checked the hop
        raise CorruptPayload(str(exc)) from None
