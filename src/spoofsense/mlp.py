"""Three-weight-layer MLP for bonafide/spoof classification.

Plain numpy, plain SGD.  Kept free of momentum/adaptive optimizers so the
training path is exactly the gradients, which are verified against finite
differences in the tests.

Class convention: output index 0 = bonafide, 1 = spoof.  Labels follow the
same indexing (y=0 bonafide, y=1 spoof).  The countermeasure score is
ln p(bonafide) - ln p(spoof), so higher means more genuine.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDims, BadMagic, DimMismatch, EmptyDataset, TruncatedPayload
from .store import atomic_write_bytes

BONAFIDE, SPOOF = 0, 1

MODEL_MAGIC = b"SSMLP1"
_ACTIVATIONS = ("relu", "tanh")


@dataclass
class MlpModel:
    dims: tuple              # (d_in, h1, h2, 2)
    weights: list = field(repr=False)  # (fan_in, fan_out) per layer
    biases: list = field(repr=False)
    activation: str = "tanh"
    seed: int = 0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 100
    batch_size: int = 32
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")


def init_model(layer_dims, activation="tanh", seed=0):
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


def _act(z, kind):
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _layers(m, x):
    """Per-layer activations, the input first and the logits last."""
    acts = [x]
    for k in range(3):
        z = acts[-1] @ m.weights[k] + m.biases[k]
        acts.append(_act(z, m.activation) if k < 2 else z)
    return acts


def _softmax(logits):
    """Softmax probs and the log-sum-exp of each row, from one exp-sum."""
    top = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - top)
    e_sum = e.sum(axis=1, keepdims=True)
    return e / e_sum, np.log(e_sum[:, 0]) + top[:, 0]


def _check_input(m, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != m.dims[0]:
        raise DimMismatch("input dim %d, model expects %d" % (x.shape[1], m.dims[0]))
    return x


def score(m, x):
    """ln p(bonafide) - ln p(spoof); equals the logit difference."""
    logits = _layers(m, _check_input(m, x))[-1]
    return float(logits[0, BONAFIDE] - logits[0, SPOOF])


def loss_and_grad(m, x, y, l2=0.0):
    """Mean cross-entropy (+ l2/2 * ||W||^2) and its exact gradients."""
    x = _check_input(m, x)
    y = np.asarray(y, dtype=int)
    if len(y) != x.shape[0] or len(y) == 0:
        raise ValueError("labels must parallel a nonempty batch")
    acts = _layers(m, x)
    delta, lse = _softmax(acts[-1])
    n = x.shape[0]
    rows = np.arange(n)

    loss = float((lse - acts[-1][rows, y]).sum() / n)  # np.mean's sum and division, minus its overhead
    if l2:  # not at l2 = 0, where 0 * sum(w*w) is nan once w*w overflows
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in m.weights)

    delta[rows, y] -= 1.0
    delta /= n
    gw, gb = [None] * 3, [None] * 3
    for k in (2, 1, 0):
        gw[k] = acts[k].T @ delta
        if l2:
            gw[k] += l2 * m.weights[k]
        gb[k] = delta.sum(axis=0)
        if k > 0:
            # the activation's derivative from its stored output a = act(z)
            a = acts[k]
            delta = (delta @ m.weights[k].T) * (1.0 - a * a if m.activation == "tanh" else a > 0)
    return loss, gw, gb


def train(model, x, y, cfg=None):
    """Mini-batch SGD; returns a trained copy and per-epoch mean loss."""
    cfg = cfg or TrainConfig()
    x = _check_input(model, x)
    y = np.asarray(y, dtype=int)
    if x.shape[0] == 0:
        raise EmptyDataset("no training rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (bonafide) or 1 (spoof)")

    m = MlpModel(
        dims=model.dims,
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
        activation=model.activation,
        seed=model.seed,
    )
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, gw, gb = loss_and_grad(m, x[idx], y[idx], cfg.l2)
            for k in range(3):
                m.weights[k] -= cfg.learning_rate * gw[k]
                m.biases[k] -= cfg.learning_rate * gb[k]
            total += loss * len(idx)
        history.append(total / n)
    return m, history


def save_model(path, m):
    act = struct.pack("<B", _ACTIVATIONS.index(m.activation))
    head = MODEL_MAGIC + act + struct.pack("<q", m.seed) + struct.pack("<4I", *m.dims)
    body = b"".join(
        w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
        for w, b in zip(m.weights, m.biases)
    )
    atomic_write_bytes(path, head + body)


def load_model(path):
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
