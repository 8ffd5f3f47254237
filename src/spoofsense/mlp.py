"""Three-weight-layer MLP for bonafide/spoof classification.

Plain numpy, plain SGD.  Kept free of momentum/adaptive optimizers so the
training path is exactly the gradients, which are verified against finite
differences in the tests.

Class convention: output index 0 = bonafide, 1 = spoof.  Labels follow the
same indexing (y=0 bonafide, y=1 spoof).  The countermeasure score is
ln p(bonafide) - ln p(spoof), so higher means more genuine.

`train` keeps the parameters in one float64 buffer in model-file order
(W0, b0, W1, b1, W2, b2; see `_flat`), with the model's weights and biases
as views into it, and the gradients in a second buffer of the same layout,
which `loss_and_grad` writes in place.  Each SGD step's update is then two
numpy calls on the whole buffers, `grads *= lr` and `params -= grads`,
instead of a multiply and a subtract per array.  `train` still calls
`loss_and_grad` by its module-level name once per step, so a tracer that
wraps it sees every step.
"""

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BadDims, BadMagic, DimMismatch, EmptyDataset, TruncatedPayload
from .store import atomic_write_bytes

BONAFIDE, SPOOF = 0, 1

MODEL_MAGIC = b"SSMLP1"
_HEADER = struct.Struct("<Bq4I")  # after the magic: activation tag, seed, the 4 dims
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


def _layer_shapes(dims):
    """Each layer's weight and bias shapes: (fan_in, fan_out) and (fan_out,)."""
    return [((fan_in, fan_out), (fan_out,)) for fan_in, fan_out in zip(dims[:-1], dims[1:])]


def _file_order(layers):
    """Per-layer (weights, biases) pairs in the order a model file holds
    them: each layer's weights, then its biases."""
    return [x for layer in layers for x in layer]


def _size(dims):
    """The number of weights and biases; Python ints, which a crafted model
    header cannot overflow."""
    return sum(math.prod(s) for s in _file_order(_layer_shapes(dims)))


def _flat(dims, buf=None):
    """A float64 buffer of _size(dims) values in model-file order (W0, b0,
    W1, b1, W2, b2) and its weight and bias views; a new buffer unless one
    is given."""
    if buf is None:
        buf = np.empty(_size(dims))
    views, lo = [], 0
    for s in _file_order(_layer_shapes(dims)):
        hi = lo + math.prod(s)
        views.append(buf[lo:hi].reshape(s))
        lo = hi
    return buf, views[0::2], views[1::2]


def init_model(layer_dims, activation="tanh", seed=0):
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) != 4 or dims[-1] != 2 or any(d < 1 for d in dims):
        raise BadDims("need 4 layer dims ending in 2, got %r" % (layer_dims,))
    if activation not in _ACTIVATIONS:
        raise ValueError("activation must be one of %s" % (_ACTIVATIONS,))
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for w, b in _layer_shapes(dims):
        limit = np.sqrt(6.0 / sum(w))  # Glorot: fan_in + fan_out
        weights.append(rng.uniform(-limit, limit, size=w))
        biases.append(np.zeros(b))
    return MlpModel(dims=dims, weights=weights, biases=biases, activation=activation, seed=seed)


def _act(z, kind, out=None):
    return np.tanh(z, out=out) if kind == "tanh" else np.maximum(z, 0.0, out=out)


def _layers(m, x):
    """Per-layer activations, the input first and the logits last."""
    acts = [x]
    for k in range(3):
        z = acts[-1] @ m.weights[k]
        z += m.biases[k]
        acts.append(_act(z, m.activation, z) if k < 2 else z)
    return acts


def _softmax(logits):
    """Softmax probs and the log-sum-exp of each row, from one exp-sum.

    With two classes, the row max and row sum are one np.maximum and one
    add of the two columns: the same bits as their reductions."""
    top = np.maximum(logits[:, 0], logits[:, 1])
    e = np.exp(logits - top[:, None])
    e_sum = e[:, 0] + e[:, 1]
    lse = np.log(e_sum) + top
    e /= e_sum[:, None]
    return e, lse


def _check_input(m, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != m.dims[0]:
        raise DimMismatch("input dim %d, model expects %d" % (x.shape[1], m.dims[0]))
    return x


def score(m, x):
    """ln p(bonafide) - ln p(spoof) of each input row; equals the logit difference.

    The rows go through each layer as one stacked matmul of (1 x d) rows,
    the kernel a single row runs, so a row scores the same bits whatever
    rows it is scored with; a plain 2-D batch product rounds differently."""
    logits = _layers(m, _check_input(m, x)[:, None, :])[-1]
    return logits[:, 0, BONAFIDE] - logits[:, 0, SPOOF]


def loss_and_grad(m, x, y, l2=0.0, out=None):
    """Mean cross-entropy (+ l2/2 * ||W||^2) and its exact gradients.

    out: an optional (weight grads, bias grads) pair of arrays shaped like
    m's, into which the gradients are written and which are returned."""
    x = _check_input(m, x)
    y = np.asarray(y, dtype=int)
    if len(y) != x.shape[0] or len(y) == 0:
        raise ValueError("labels must parallel a nonempty batch")
    if np.bitwise_or.reduce(y) not in (0, 1):  # any other label sets another bit, or the sign
        raise ValueError("labels must be 0 (bonafide) or 1 (spoof)")
    acts = _layers(m, x)
    delta, lse = _softmax(acts[-1])
    n = x.shape[0]
    rows = np.arange(n)

    loss = float((lse - acts[-1][rows, y]).sum() / n)  # np.mean's sum and division, minus its overhead
    if l2:  # not at l2 = 0, where 0 * sum(w*w) is nan once w*w overflows
        loss += 0.5 * l2 * sum(float(np.sum(w * w)) for w in m.weights)

    delta.ravel()[2 * rows + y] -= 1.0  # delta[rows, y], in the C-order (n, 2) array itself
    delta /= n
    gw, gb = out if out is not None else _flat(m.dims)[1:]
    for k in (2, 1, 0):
        np.matmul(acts[k].T, delta, out=gw[k])
        if l2:
            gw[k] += l2 * m.weights[k]
        np.add.reduce(delta, 0, out=gb[k])
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

    params, weights, biases = _flat(model.dims, np.concatenate(
        [a.ravel() for a in _file_order(zip(model.weights, model.biases))]))
    m = replace(model, weights=weights, biases=biases)
    grads, gw, gb = _flat(model.dims)
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss = loss_and_grad(m, x[idx], y[idx], cfg.l2, (gw, gb))[0]
            grads *= cfg.learning_rate  # lr * g and g * lr are the same bits
            params -= grads
            total += loss * len(idx)
        history.append(total / n)
    return m, history


def save_model(path, m):
    head = MODEL_MAGIC + _HEADER.pack(_ACTIVATIONS.index(m.activation), m.seed, *m.dims)
    body = b"".join(a.astype("<f8").tobytes() for a in _file_order(zip(m.weights, m.biases)))
    atomic_write_bytes(path, head + body)


def load_model(path):
    """The model in path, whose payload must be exactly as long as its header declares."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise BadMagic("not a model file")
    try:
        act_idx, seed, *dims = _HEADER.unpack_from(raw, len(MODEL_MAGIC))
    except struct.error:
        raise TruncatedPayload("model header incomplete") from None
    dims = tuple(dims)
    if act_idx >= len(_ACTIVATIONS):
        raise BadMagic("unknown activation tag %d" % act_idx)
    if dims[-1] != 2 or 0 in dims:  # u32 dims: never negative
        raise BadMagic("corrupt layer dims %r" % (dims,))

    start = len(MODEL_MAGIC) + _HEADER.size
    extra = len(raw) - start - 8 * _size(dims)
    if extra < 0:
        raise TruncatedPayload("model payload incomplete")
    if extra:
        raise TruncatedPayload("%d trailing bytes" % extra)
    _, weights, biases = _flat(dims, np.frombuffer(raw, dtype="<f8", offset=start).copy())
    return MlpModel(dims=dims, weights=weights, biases=biases,
                    activation=_ACTIVATIONS[act_idx], seed=seed)
