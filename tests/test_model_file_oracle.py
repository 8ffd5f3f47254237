"""Exact parity of the model file's writer and reader, and of init_model,
with their earlier implementations.

init_model_loop, save_model_loop and load_model_loop below are the earlier
init_model, save_model and load_model, kept verbatim as oracles and changed
only in their names.  They spelled out each layer's shapes on their own, and
the reader ran a per-layer loop with running size checks; the current code
takes the shapes and the file order from one definition and sizes the
payload in one check.  On every input the current code must draw the same
weights, write the same bytes, and load bit-equal arrays or raise the same
exception class with the same message.
"""

import random
import re
import struct

import numpy as np
import pytest

from spoofsense import mlp
from spoofsense.errors import BadDims, BadMagic, TruncatedPayload
from spoofsense.mlp import _ACTIVATIONS, MODEL_MAGIC, MlpModel, init_model, load_model, save_model
from spoofsense.store import atomic_write_bytes

# ---------------------------------------------------------------- oracles


def init_model_loop(layer_dims, activation="tanh", seed=0):
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) != 4 or dims[-1] != 2 or any(d < 1 for d in dims):
        raise BadDims("need 4 layer dims ending in 2, got %r" % (layer_dims,))
    if activation not in _ACTIVATIONS:
        raise ValueError("activation must be one of %s" % (_ACTIVATIONS,))
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims=dims, weights=weights, biases=biases, activation=activation, seed=seed)


def save_model_loop(path, m):
    act = struct.pack("<B", _ACTIVATIONS.index(m.activation))
    head = MODEL_MAGIC + act + struct.pack("<q", m.seed) + struct.pack("<4I", *m.dims)
    body = b"".join(
        w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        for w, b in zip(m.weights, m.biases)
    )
    atomic_write_bytes(path, head + body)


def load_model_loop(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise BadMagic("not a model file")
    pos = len(MODEL_MAGIC)
    try:
        (act_idx,) = struct.unpack_from("<B", raw, pos)
        (seed,) = struct.unpack_from("<q", raw, pos + 1)
        dims = struct.unpack_from("<4I", raw, pos + 9)
        pos += 25
    except struct.error:
        raise TruncatedPayload("model header incomplete") from None
    if act_idx >= len(_ACTIVATIONS):
        raise BadMagic("unknown activation tag %d" % act_idx)
    if len(dims) != 4 or dims[-1] != 2 or any(d < 1 for d in dims):
        raise BadMagic("corrupt layer dims %r" % (dims,))

    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        nw, nb = fan_in * fan_out * 8, fan_out * 8
        if len(raw) < pos + nw + nb:
            raise TruncatedPayload("model payload incomplete")
        weights.append(
            np.frombuffer(raw, dtype="<f8", count=fan_in * fan_out, offset=pos)
            .reshape(fan_in, fan_out)
            .copy()
        )
        pos += nw
        biases.append(np.frombuffer(raw, dtype="<f8", count=fan_out, offset=pos).copy())
        pos += nb
    if pos != len(raw):
        raise TruncatedPayload("%d trailing bytes" % (len(raw) - pos))
    return MlpModel(
        dims=tuple(dims),
        weights=weights,
        biases=biases,
        activation=_ACTIVATIONS[act_idx],
        seed=seed,
    )


# ---------------------------------------------------------------- helpers

HEADER_END = len(MODEL_MAGIC) + 25  # tag (1 byte), seed (8), 4 dims (4 each)
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e308]


def arrays(m):
    """m's arrays as comparable values: bytes, so -0.0, 0.0 and NaN payloads differ."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in m.weights + m.biases]


def outcome(load, path):
    """("ok", the model as comparable values) or ("raised", class, message)."""
    try:
        m = load(path)
    except Exception as e:  # parity covers every exception, not one class
        return ("raised", type(e), str(e))
    return ("ok", m.dims, tuple(map(type, m.dims)), m.activation, m.seed, arrays(m))


def random_model(rng):
    """A model of random dims, activation and seed whose arrays hold some
    special values (signed zeros, infinities, NaN, subnormals)."""
    dims = (rng.randrange(1, 13), rng.randrange(1, 11), rng.randrange(1, 11), 2)
    m = init_model(dims, rng.choice(_ACTIVATIONS), seed=rng.randrange(2**31))
    m.seed = rng.choice([0, 7, -1, 2**63 - 1, -(2**63), rng.randrange(-(2**63), 2**63)])
    for a in m.weights + m.biases:
        flat = a.reshape(-1)
        for _ in range(rng.randrange(3)):
            flat[rng.randrange(flat.size)] = rng.choice(SPECIAL)
    return m


def with_dims(raw, dims):
    return raw[: len(MODEL_MAGIC) + 9] + struct.pack("<4I", *dims) + raw[HEADER_END:]


def variants(raw, rng):
    """Corrupted copies of a model file's bytes: every 1/40 truncation, 3 or
    8 trailing bytes, a bad magic, a bad activation tag, a zero dim, a last
    dim other than 2, and dims whose sizes overflow 64-bit integers."""
    dims = struct.unpack_from("<4I", raw, len(MODEL_MAGIC) + 9)
    yield from (raw[: len(raw) * k // 40] for k in range(40))
    yield raw + b"\x00" * 3
    yield raw + bytes(rng.randrange(256) for _ in range(8))
    yield b"SSMLP2" + raw[len(MODEL_MAGIC):]
    tag = rng.choice([2, 3, 255])
    yield raw[: len(MODEL_MAGIC)] + bytes([tag]) + raw[len(MODEL_MAGIC) + 1 :]
    k = rng.randrange(4)
    yield with_dims(raw, dims[:k] + (0,) + dims[k + 1 :])
    yield with_dims(raw, dims[:3] + (rng.choice([1, 3, 2**32 - 1]),))
    yield with_dims(raw, (4_000_000_000, 4_000_000_000, 4_000_000_000, 2))
    yield with_dims(raw, (2**32 - 1, 2**32 - 1, 2**32 - 1, 2))
    yield with_dims(raw, (dims[0], 2**32 - 1, dims[2], 2))


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("start", range(0, 300, 60))
def test_model_file_parity(tmp_path, start):
    new, old, bad = tmp_path / "new.bin", tmp_path / "old.bin", tmp_path / "bad.bin"
    messages = set()  # with their numbers left out
    for seed in range(start, start + 60):
        rng = random.Random(seed)
        m = random_model(rng)
        save_model(new, m)
        save_model_loop(old, m)
        raw = old.read_bytes()
        assert new.read_bytes() == raw
        result = outcome(load_model, new)
        assert result == outcome(load_model_loop, new)
        assert result[5] == arrays(m)
        for data in variants(raw, rng):
            bad.write_bytes(data)
            result = outcome(load_model, bad)
            assert result == outcome(load_model_loop, bad)
            assert result[0] == "raised"
            messages.add((result[1], re.sub(r"\d+", "N", result[2])))
    # the variants reach every check of the reader, and only those
    assert messages == {
        (BadMagic, "not a model file"),
        (TruncatedPayload, "model header incomplete"),
        (BadMagic, "unknown activation tag N"),
        (BadMagic, "corrupt layer dims (N, N, N, N)"),
        (TruncatedPayload, "model payload incomplete"),
        (TruncatedPayload, "N trailing bytes"),
    }


def test_overflowing_dims_are_incomplete_not_wrapped(tmp_path):
    """Sizes from u32 dims overflow int64; as Python ints they do not."""
    p = tmp_path / "m.bin"
    save_model(p, init_model((3, 4, 3, 2)))
    p.write_bytes(with_dims(p.read_bytes(), (4_000_000_000, 4_000_000_000, 4_000_000_000, 2)))
    with pytest.raises(TruncatedPayload, match="^model payload incomplete$"):
        load_model(p)


@pytest.mark.parametrize("seed", range(20))
def test_init_model_parity(seed):
    rng = random.Random(seed)
    dims = (rng.randrange(1, 30), rng.randrange(1, 30), rng.randrange(1, 30), 2)
    activation = rng.choice(_ACTIVATIONS)
    assert arrays(init_model(dims, activation, seed)) == arrays(
        init_model_loop(dims, activation, seed))


def test_loaded_model_scores_like_the_oracles(tmp_path):
    """The loaded arrays are views of one payload copy; they score, and
    train, bit for bit as the oracle's separate copies."""
    p = tmp_path / "m.bin"
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(40, 9)), rng.integers(0, 2, size=40)
    for activation in _ACTIVATIONS:
        save_model(p, init_model((9, 17, 5, 2), activation, seed=11))
        new, old = load_model(p), load_model_loop(p)
        assert mlp.score(new, x).tobytes() == mlp.score(old, x).tobytes()
        cfg = mlp.TrainConfig(epochs=3, seed=2)
        (a, ha), (b, hb) = mlp.train(new, x, y, cfg), mlp.train(old, x, y, cfg)
        assert ha == hb and arrays(a) == arrays(b)
